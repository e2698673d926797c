"""Every top-level function and class, and every method, in
`src/pivotwalk/` is reached.

A definition counts as reached when its name is exported in
`pivotwalk.__all__`, used by perfbench, by an acceptance test or by a
top-level statement of the package that is not a definition, or used by a
definition that is itself reached.  Unit tests alone do not count: code that
only its own tests call checks nothing the package computes.  Names are read
with `ast` (identifiers, attribute names, and string constants that are a
bare identifier, which is how perfbench's tracer names what it wraps), so a
mention in a comment or docstring does not count, and neither does an
import that nothing uses.

Methods are checked by name, since a call on a model or a word does not say
which class it reaches: a method counts as reached when its name is read as
an attribute in `src/` outside the method's own body, in an acceptance test
or by perfbench.  Dunder methods are called by Python itself and are not
checked.

Every parameter of every function is read in its body (`self` and `cls`
excepted).
"""

import ast
from collections import Counter
from pathlib import Path

import pivotwalk

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "pivotwalk").glob("*.py"))

# reached by no caller today, kept on purpose
ALLOWED = {
    "subgroup_rank": "the folding oracle that the planned not-free census column and certificate fallback read",
}

# methods reached by no caller today, kept on purpose
ALLOWED_METHODS = {
    "PlaneModel.matrix_for_word": "the exact Sanov map the plane ensemble will walk with",
    "TreeModel.distance": "the tree side of the model metric; perfbench's tracer wraps it by name",
    "TreeModel.ball": "the tree's ball, walked by tests; perfbench's tracer wraps it by name",
}


def _names(node, imports=True) -> set:
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and sub.value.isidentifier():
            out.add(sub.value)
        elif imports and isinstance(sub, ast.alias):
            out.add(sub.asname or sub.name)
    return out


def test_every_definition_is_reached():
    reached = set(pivotwalk.__all__) | set(ALLOWED)
    for path in [ROOT / "tests" / "test_acceptance.py", *(ROOT / "perfbench").glob("*.py")]:
        reached |= _names(ast.parse(path.read_text()))
    defs = {}  # name -> (file, names the definition uses)
    for path in SRC:
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defs[stmt.name] = (path.name, _names(stmt, imports=False))
            else:
                # an import reaches nothing unless a statement uses the name
                reached |= _names(stmt, imports=False)
    # a definition that only unreached code names is unreached too
    grown = True
    while grown:
        new = set().union(*(used for name, (_, used) in defs.items() if name in reached)) - reached
        reached |= new
        grown = bool(new)
    unreached = sorted("%s:%s" % (f, name) for name, (f, _) in defs.items() if name not in reached)
    assert not unreached, "defined in src/pivotwalk but reached by nothing: " + ", ".join(unreached)
    assert set(ALLOWED) <= set(defs)


def _attributes(node) -> Counter:
    return Counter(sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute))


def test_every_method_is_reached():
    outside = Counter()
    for path in [ROOT / "tests" / "test_acceptance.py", *(ROOT / "perfbench").glob("*.py")]:
        outside += _attributes(ast.parse(path.read_text()))
    trees = {path: ast.parse(path.read_text()) for path in SRC}
    in_src = sum((_attributes(tree) for tree in trees.values()), Counter())
    methods = set()
    unreached = []
    for path, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for meth in cls.body:
                if not isinstance(meth, ast.FunctionDef) or meth.name.startswith("__"):
                    continue
                key = "%s.%s" % (cls.name, meth.name)
                methods.add(key)
                own = _attributes(meth)[meth.name]
                if not (outside[meth.name] or in_src[meth.name] > own or key in ALLOWED_METHODS):
                    unreached.append("%s:%s" % (path.name, key))
    assert not unreached, "methods in src/pivotwalk reached by nothing: " + ", ".join(sorted(unreached))
    assert set(ALLOWED_METHODS) <= methods


def test_every_parameter_is_read():
    # a parameter that its function never reads makes every caller pass a
    # value for nothing; a nested function's reads count for the outer one
    unread = []
    for path in SRC:
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.Lambda)):
                continue
            a = fn.args
            params = [p.arg for p in [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg] if p]
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            read = {sub.id for stmt in body for sub in ast.walk(stmt)
                    if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
            unread += ["%s:%s(%s)" % (path.name, getattr(fn, "name", "lambda"), p)
                       for p in params if p not in read and p not in ("self", "cls")]
    assert not unread, "parameters in src/pivotwalk that are never read: " + ", ".join(unread)


def test_every_test_import_is_used():
    # an import that no test reads suggests a check that is not there
    unused = []
    for path in sorted((ROOT / "tests").glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {(alias.asname or alias.name).split(".")[0] for stmt in tree.body
                    if isinstance(stmt, (ast.Import, ast.ImportFrom)) for alias in stmt.names}
        read = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        unused += ["%s:%s" % (path.name, name) for name in sorted(imported - read)]
    assert not unused, "imported in tests/ but never used: " + ", ".join(unused)
