"""Spans and call counts around pivotwalk's public functions.

The traced child installs a `Tracer` after importing pivotwalk and before
set-up, and removes it after the run.  All wrappers live here; nothing under
src/ is instrumented.  A function is replaced under every name a pivotwalk
module bound it to (`walks.is_aligned` as well as `geometry.is_aligned`).
The hottest kernel methods get call counts only, because a span per call
would cost more than the work it measures.

Spans are kept in memory as [name, start, end, parent, extra] and written out
as JSON lines when the run ends.  A span's self time is its duration minus
the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence

# call-count keys also reported as metrics; each is bumped by one wrapper
COUNTERS = (
    "words.mul.calls",
    "words.len.calls",
    "words.prefix.calls",
    "words.common_prefix.calls",
    "words.tree_distance.calls",
    "spaces.ball.points",
    "spaces.distance.calls",
)


def _bound_args(fn: Callable) -> Callable:
    """args, kwargs -> {parameter name: value} for calls of `fn`."""
    sig = inspect.signature(fn)
    return lambda args, kwargs: sig.bind(*args, **kwargs).arguments


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[list] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self._stack: List[int] = []
        self._patches: List[tuple] = []  # (owner, attribute, original value)
        self._wrappers: set = set()

    # -- wrapper factories ----------------------------------------------

    def _counter(self, key: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _yield_counter(self, key: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[key] += 1
                yield item

        return wrapper

    def _span(
        self,
        name: str,
        fn: Callable,
        watch: Sequence[str] = (),
        extra: Optional[Callable] = None,
    ) -> Callable:
        """Span per call; `watch` records how far those counters moved inside
        the call, `extra(args, kwargs, result)` adds numbers to the span."""

        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, None]
            stack.append(len(spans))
            spans.append(rec)
            before = [counts[k] for k in watch]
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            info = {k: counts[k] - b for k, b in zip(watch, before)}
            if extra is not None:
                info.update(extra(args, kwargs, result))
            rec[4] = info or None
            return result

        return wrapper

    # -- patching ---------------------------------------------------------

    def _modules(self) -> list:
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == "pivotwalk" or n.startswith("pivotwalk."))]

    def _set(self, owner, attr: str, original, new) -> None:
        self._patches.append((owner, attr, original))
        self._wrappers.add(id(new.__func__ if isinstance(new, staticmethod) else new))
        setattr(owner, attr, new)

    def _method(self, cls, attr: str, make: Callable) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            self._set(cls, attr, raw, staticmethod(make(raw.__func__)))
        else:
            self._set(cls, attr, raw, make(raw))

    def _function(self, module, attr: str, make: Callable) -> None:
        original = getattr(module, attr)
        new = make(original)
        for mod in self._modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, name, original, new)

    def install(self) -> None:
        from pivotwalk import cli, counting, geometry, pivotal, schottky, spaces, verifier, walks, words

        G = words.GroupWord
        self._method(G, "__mul__", lambda f: self._counter("words.mul.calls", f))
        self._method(G, "__len__", lambda f: self._counter("words.len.calls", f))
        self._method(G, "prefix", lambda f: self._counter("words.prefix.calls", f))
        self._function(words, "common_prefix_letters",
                       lambda f: self._counter("words.common_prefix.calls", f))
        self._function(words, "tree_distance",
                       lambda f: self._counter("words.tree_distance.calls", f))
        self._method(G, "from_syllables", lambda f: self._span("words.from_syllables", f))
        self._method(G, "translation_length", lambda f: self._span("words.translation_length", f))

        self._method(spaces.TreeModel, "ball", lambda f: self._yield_counter("spaces.ball.points", f))
        self._method(spaces.TreeModel, "distance", lambda f: self._counter("spaces.distance.calls", f))

        as_path = geometry.as_path

        def project_points(args, kwargs, result):
            target = args[1] if len(args) > 1 else kwargs["target"]
            return {"points": len(as_path(target).points)}

        self._function(geometry, "is_aligned", lambda f: self._span("geometry.is_aligned", f))
        self._function(geometry, "project",
                       lambda f: self._span("geometry.project", f, extra=project_points))

        self._function(schottky, "build_schottky", lambda f: self._span("schottky.build", f))
        self._function(schottky, "verify_schottky",
                       lambda f: self._span("schottky.verify", f, watch=("spaces.ball.points",)))

        sim_args = _bound_args(pivotal.simulate_pivot_counts)

        def simulate_info(args, kwargs, counts):
            a = sim_args(args, kwargs)
            return {"steps": a["n"] * a["trials"], "kept": int(counts.sum())}

        self._function(pivotal, "simulate_pivot_counts",
                       lambda f: self._span("pivotal.simulate", f, watch=("words.mul.calls",),
                                            extra=simulate_info))

        self._function(walks, "heavy_tail", lambda f: self._span("walks.heavy_tail", f))
        self._method(walks.StepMeasure, "sample", lambda f: self._span("walks.sample", f))
        self._function(walks, "deviation", lambda f: self._span("walks.deviation", f))
        self._function(walks, "discrepancy_bound_witness",
                       lambda f: self._span("walks.witness", f,
                                            extra=lambda a, k, r: {"applicable": int(r.applicable)}))

        write_args = _bound_args(verifier.ExperimentReport.write)

        def written_bytes(args, kwargs, result):
            outdir = write_args(args, kwargs)["outdir"]
            return {"bytes": sum(e.stat().st_size for e in os.scandir(outdir) if e.is_file())}

        self._function(verifier, "tree_walk_ensemble", lambda f: self._span("verifier.ensemble", f))
        self._function(verifier, "calibrate", lambda f: self._span("verifier.calibrate", f))
        self._method(verifier.ExperimentReport, "write",
                     lambda f: self._span("verifier.write", f, extra=written_bytes))

        self._function(counting, "enumerate_ball",
                       lambda f: self._span("counting.ball", f,
                                            extra=lambda a, k, r: {"visited": r.visited,
                                                                   "elements": len(r.elements)}))
        self._function(cli, "main", lambda f: self._span("cli.main", f))

    def uninstall(self) -> List[str]:
        """Restore every patched name; return the names still wrapped."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        left = []
        for mod in self._modules():
            for name, value in vars(mod).items():
                owners = [(name, value)]
                if isinstance(value, type):
                    owners += [("%s.%s" % (name, k), v) for k, v in vars(value).items()]
                for label, v in owners:
                    if id(v.__func__ if isinstance(v, staticmethod) else v) in self._wrappers:
                        left.append("%s.%s" % (mod.__name__, label))
        return left

    # -- results ------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, info) in enumerate(self.spans):
                rec = {"run": self.run_id, "id": i, "name": name, "start": start,
                       "end": end, "parent": parent}
                if info:
                    rec.update(info)
                fh.write(json.dumps(rec) + "\n")

    def metrics(self, import_s: float) -> Dict[str, float]:
        spans, counts = self.spans, self.counts
        by_name: Dict[str, List[int]] = defaultdict(list)
        child_s = [0.0] * len(spans)
        for i, (name, start, end, parent, _) in enumerate(spans):
            by_name[name].append(i)
            if parent is not None:
                child_s[parent] += end - start

        def nested_in_same(i: int) -> bool:
            name, parent = spans[i][0], spans[i][3]
            while parent is not None:
                if spans[parent][0] == name:
                    return True
                parent = spans[parent][3]
            return False

        def calls(name: str) -> int:
            return len(by_name[name])

        def seconds(name: str) -> float:
            return sum(spans[i][2] - spans[i][1] for i in by_name[name] if not nested_in_same(i))

        def total(name: str, key: str) -> float:
            return sum(spans[i][4][key] for i in by_name[name])

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        ens = by_name["verifier.ensemble"]
        steps = total("pivotal.simulate", "steps")
        balls = by_name["counting.ball"]
        products = total("counting.ball", "visited")
        last_ball = spans[max(balls, key=lambda i: spans[i][2])][4]["visited"] if balls else 0

        out = {key: counts[key] for key in COUNTERS}
        out.update({
            "words.from_syllables.calls": calls("words.from_syllables"),
            "words.from_syllables.s": seconds("words.from_syllables"),
            "words.translation_length.calls": calls("words.translation_length"),
            "words.translation_length.s": seconds("words.translation_length"),
            "geometry.is_aligned.calls": calls("geometry.is_aligned"),
            "geometry.is_aligned.s": seconds("geometry.is_aligned"),
            "geometry.project.calls": calls("geometry.project"),
            "geometry.project.s": seconds("geometry.project"),
            "geometry.project.points_per_call": ratio(total("geometry.project", "points"),
                                                      calls("geometry.project")),
            "schottky.build.s": seconds("schottky.build"),
            "schottky.verify.s": seconds("schottky.verify"),
            "schottky.verify.points_scanned": total("schottky.verify", "spaces.ball.points"),
            "pivotal.simulate.s": seconds("pivotal.simulate"),
            "pivotal.steps": steps,
            "pivotal.kept_ratio": ratio(total("pivotal.simulate", "kept"), steps),
            "pivotal.mul_per_step": ratio(total("pivotal.simulate", "words.mul.calls"), steps),
            "walks.heavy_tail.s": seconds("walks.heavy_tail"),
            "walks.sample.calls": calls("walks.sample"),
            "walks.sample.s": seconds("walks.sample"),
            "walks.deviation.calls": calls("walks.deviation"),
            "walks.deviation.s": seconds("walks.deviation"),
            "walks.witness.calls": calls("walks.witness"),
            "walks.witness.applicable_ratio": ratio(total("walks.witness", "applicable"),
                                                    calls("walks.witness")),
            "verifier.ensemble.calls": len(ens),
            "verifier.ensemble.s": seconds("verifier.ensemble"),
            "verifier.ensemble.self_s": sum(spans[i][2] - spans[i][1] - child_s[i] for i in ens),
            "verifier.ensemble.rebuild_s": sum(child_s[i] for i in ens),
            "verifier.calibrate.s": seconds("verifier.calibrate"),
            "verifier.write.s": seconds("verifier.write"),
            "verifier.write.bytes": total("verifier.write", "bytes"),
            "counting.ball.calls": len(balls),
            "counting.ball.s": seconds("counting.ball"),
            "counting.ball.products": products,
            "counting.ball.distinct_ratio": ratio(total("counting.ball", "elements"), products),
            "counting.ball.restart_ratio": ratio(products, last_ball),
            "cli.import.s": import_s,
            "cli.main.s": seconds("cli.main"),
        })
        return out
