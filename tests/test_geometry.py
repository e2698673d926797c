"""Paths, projections and alignment predicates on the tree.

Tree values are exact, so most expectations are hand-computed integers;
the independent oracles for projections are `tree_projection_to_segment`,
the segment projection in word arithmetic, and `reference_project`, the
scan over every sample that the closed form on tree geodesics replaced.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from pivotwalk.words import (
    GroupWord,
    tree_distance,
    tree_geodesic,
    tree_path_point,
    random_reduced_word,
    word_from_str,
)
from pivotwalk.spaces import TreeModel
from pivotwalk.schottky import (
    D0,
    D1,
    SchottkySequence,
    SchottkySet,
    schottky_to_json,
    tree_schottky_set,
)
from pivotwalk.geometry import (
    Path,
    ProjectionResult,
    as_path,
    project,
    is_aligned,
)

T = TreeModel()
o = GroupWord.identity()


def w(text):
    return word_from_str(text)


def tree_projection_to_segment(x, u, v):
    """Nearest point to x on the tree geodesic [u, v] (unique), from the
    three pairwise distances: the foot is (d(x,u) + d(u,v) - d(x,v)) / 2
    along the segment."""
    t = (tree_distance(x, u) + tree_distance(u, v) - tree_distance(x, v)) // 2
    return tree_path_point(u, v, t)


def test_projection_to_segment():
    # segment [o, abab]; the point baa projects to o, aab projects to a
    seg_end = w("abab")
    assert tree_projection_to_segment(w("baa"), o, seg_end) == o
    assert tree_projection_to_segment(w("aab"), o, seg_end) == w("a")
    # point on the segment projects to itself
    assert tree_projection_to_segment(w("ab"), o, seg_end) == w("ab")


def reference_project(model, target, x):
    """Nearest samples of a path to x, by the distance to every sample."""
    path = as_path(target)
    best = None
    points = []
    for p in path.points:
        d = model.distance(x, p)
        if best is None or d < best:
            best = d
            points = [p]
        elif d == best:
            points.append(p)
    return ProjectionResult(tuple(points), best)


def diameter(model, points):
    pts = list(points)
    best = 0.0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d = model.distance(pts[i], pts[j])
            if d > best:
                best = d
    return best


def reference_project_path(model, target, source):
    path = as_path(target)
    seen = []
    dist = None
    for x in as_path(source).points:
        res = reference_project(model, path, x)
        if dist is None or res.distance < dist:
            dist = res.distance
        for p in res.points:
            if p not in seen:
                seen.append(p)
    return ProjectionResult(tuple(seen), dist)


def reference_is_aligned(model, items, width):
    """`is_aligned` by projecting every sample of each path at a junction."""
    paths = [as_path(it) for it in items]
    for i in range(len(paths) - 1):
        left, right = paths[i], paths[i + 1]
        fwd = reference_project_path(model, left, right)
        d1 = diameter(model, fwd.points + (left.end,))
        back = reference_project_path(model, right, left)
        d2 = diameter(model, back.points + (right.start,))
        if max(d1, d2) >= width:
            return False
    return True


# tree samples for the closed form against the scan: every path lies near
# one base word, so projections and junctions overlap often
_letters = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=9).map(GroupWord.from_letters)
_bases = st.lists(st.sampled_from([1, -1, 2, -2]), min_size=1, max_size=16).map(GroupWord.from_letters)
_GEODESIC = ("geodesic", "geodesic", "point")


@st.composite
def _tree_samples(draw, base, kinds):
    """Samples of one kind: a sampled geodesic along a stretch of `base`
    (steps of several letters, repeated samples, either direction), a
    point, samples that backtrack along `base`, or points scattered off it."""

    kind = draw(st.sampled_from(kinds))
    n = len(base)
    if kind == "point":
        return (base.prefix(draw(st.integers(0, n))) * draw(_letters),)
    if kind == "backtrack":
        cuts = draw(st.lists(st.integers(0, n), min_size=3, max_size=6))
        return tuple(base.prefix(c) for c in cuts)
    if kind == "scatter":
        return tuple(base.prefix(draw(st.integers(0, n))) * draw(_letters)
                     for _ in range(draw(st.integers(2, 5))))
    i, j = sorted(draw(st.lists(st.integers(0, n), min_size=2, max_size=2)))
    cuts = sorted(draw(st.lists(st.integers(i, j), max_size=5)) + [i, j])
    if draw(st.booleans()):
        cuts.reverse()
    return tuple(base.prefix(c) for c in cuts)


@st.composite
def _chains(draw):
    base = draw(_bases)
    frame = draw(_letters)
    chain = draw(st.lists(_tree_samples(base, _GEODESIC), min_size=2, max_size=4))
    # a common left translate keeps every distance
    return [Path(tuple(frame * p for p in points)) for points in chain]


@st.composite
def _any_samples(draw):
    kinds = _GEODESIC + ("backtrack", "scatter")
    return draw(_tree_samples(draw(_bases), kinds))


_closed_form = settings(max_examples=400, deadline=None, database=None)


@seed(2022)
@_closed_form
@given(_chains(), _letters)
def test_project_matches_scan(chain, x):
    for path in chain:
        for point in (x, *path.points, x * path.start, path.end * x):
            assert project(point, path) == reference_project(T, path, point)


@seed(2022)
@settings(max_examples=100, deadline=None, database=None)
@given(_chains(), _letters)
def test_translate_keeps_offsets(chain, g):
    for path in chain:
        moved = path.translate(g)
        fresh = Path(tuple(g * p for p in path.points))
        assert moved == fresh and moved.tree_offsets == fresh.tree_offsets


@seed(2022)
@_closed_form
@given(_any_samples())
def test_path_accepts_exactly_geodesic_samples(points):
    steps = sum(T.distance(p, q) for p, q in zip(points, points[1:]))
    if steps == T.distance(points[0], points[-1]):
        assert Path(points).tree_offsets[-1] == steps
    else:
        with pytest.raises(ValueError, match="geodesic"):
            Path(points)


@seed(2022)
@_closed_form
@given(_chains(), st.sampled_from([0, 1, 2, 3, 4, 6, 2.5]))
def test_alignment_report_matches_scan(chain, width):
    got = is_aligned(chain, width)
    assert type(got) is bool
    assert got == reference_is_aligned(T, chain, width)


def test_backtracking_source_is_refused():
    # the source turns back: its steps sum to 12, its ends are 0 apart
    target = Path((o, w("a^3"), w("a^6"), w("a^10")))
    source = [w("a^8"), w("a^2"), w("a^8")]
    with pytest.raises(ValueError, match="geodesic"):
        Path(tuple(source))
    with pytest.raises(ValueError, match="geodesic"):
        is_aligned([target, source], 20)


def test_equidistant_samples_both_project():
    # a^2 B hangs one edge off the geodesic at a^2, midway between the
    # samples o and a^2 b^2, so both are 3 away
    seg = Path((o, w("a^2 b^2")))
    res = project(w("a^2 B"), seg)
    assert res == reference_project(T, seg, w("a^2 B"))
    assert res.points == (o, w("a^2 b^2")) and res.distance == 3


@pytest.mark.parametrize("size, sch_seed, digest", [
    (400, 1, "75020cc67204d7351775ef957f711af9aea60799643daa036074eaaa7dc0a4c8"),
    (18, 0, "520ece45d4664f29cfc8580b7164d96afc552928d950bb8d3d2dc13a629a7a21"),
])
def test_benchmark_schottky_sets_unchanged(size, sch_seed, digest):
    # building a set verifies it, and verification runs the alignment predicate
    text = schottky_to_json(tree_schottky_set(size, seed=sch_seed))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestPath:
    def test_basics(self):
        p = Path((o, w("a"), w("a b")))
        assert p.start == o and p.end == w("a b")
        assert len(p) == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Path(())

    def test_as_path_wraps_points_and_lists(self):
        assert as_path(o).points == (o,)
        assert as_path([o, w("a")]).points == (o, w("a"))
        p = Path((o,))
        assert as_path(p) is p


class TestProjection:
    def test_matches_word_level_segment_projection(self):
        # dual route: geometric nearest-point vs exact word arithmetic
        rng = np.random.default_rng(3)
        for _ in range(50):
            u = random_reduced_word(rng, int(rng.integers(0, 5)))
            v = random_reduced_word(rng, int(rng.integers(1, 7)))
            x = random_reduced_word(rng, int(rng.integers(0, 8)))
            seg = tree_geodesic(u, v)
            res = project(x, seg)
            assert len(res.points) == 1  # tree projections are single points
            assert res.points[0] == tree_projection_to_segment(x, u, v)

    def test_hand_values(self):
        seg = tree_geodesic(o, w("a^3"))
        res = project(w("a^2 b"), seg)
        assert res.points == (w("a^2"),)
        assert res.distance == 1

    def test_diameter(self):
        assert diameter(T, [o, w("a^2"), w("b")]) == 3
        assert diameter(T, [o]) == 0


class TestAlignment:
    def test_chained_geodesics_align(self):
        chain = [tree_geodesic(o, w("a^2")), tree_geodesic(w("a^2"), w("a^2 b^2"))]
        assert is_aligned(chain, width=1)  # every junction spread is 0

    def test_backtracking_chain_fails(self):
        chain = [tree_geodesic(o, w("a^2")), tree_geodesic(w("a^2"), o)]
        # full overlap, a spread of 2: strict inequality bites at width 2
        assert not is_aligned(chain, width=2)
        assert is_aligned(chain, width=3)

    def test_strict_inequality_at_width(self):
        # junction overlap of exactly 2 is rejected at width 2, passes at 3
        chain = [tree_geodesic(o, w("a^3")), tree_geodesic(w("a"), w("a b^3"))]
        assert not is_aligned(chain, width=2)
        assert is_aligned(chain, width=3)

    def test_points_as_degenerate_paths(self):
        assert is_aligned([o, w("a^4")], width=1)  # two points always align

    def test_semi_aligned_uses_wider_threshold(self):
        chain = [tree_geodesic(o, w("a^5")), tree_geodesic(w("a"), w("a b^7"))]
        assert not is_aligned(chain, width=D0)
        assert is_aligned(chain, width=D1)

    def test_closure_under_reversal_translation_concatenation(self):
        chain = [tree_geodesic(o, w("a^3")), tree_geodesic(w("a^3"), w("a^3 b^3"))]
        ext = [
            tree_geodesic(w("a^3"), w("a^3 b^3")),
            tree_geodesic(w("a^3 b^3"), w("a^3 b^3 a^3")),
        ]
        assert ext[0] == chain[-1]
        g = w("b a")
        reversal = [list(reversed(p)) for p in reversed(chain)]
        translation = [[g * x for x in p] for p in chain]
        for variant in (chain, reversal, translation, chain + ext[1:]):
            assert is_aligned(variant, 2)


class TestConstants:
    def test_length_scale_hand_values(self):
        def e0(m0, k0):
            return SchottkySet((SchottkySequence((w("a"),) * m0),), k0).e0

        assert e0(9, 2) == pytest.approx(0.9)
        assert e0(5, 2) == pytest.approx(0.5)
        assert e0(4, 2) == pytest.approx(0.4)
        # second branch active when blocks are short relative to the width
        assert e0(7, 3) == pytest.approx(0.6)
        assert e0(4, 3) == pytest.approx(0.0)
