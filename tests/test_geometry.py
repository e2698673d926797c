"""Projection / alignment / contraction predicates, checked on the tree.

Tree values are exact, so most expectations are hand-computed integers;
the independent oracle for projections is the word-level segment
projection from the words module.
"""

import numpy as np
import pytest

from pivotwalk.words import (
    GroupWord,
    tree_geodesic,
    tree_projection_to_segment,
    random_reduced_word,
    word_from_str,
)
from pivotwalk.spaces import TreeModel, PlaneModel
from pivotwalk.geometry import (
    Path,
    as_path,
    project,
    project_path,
    diameter,
    is_aligned,
    is_semi_aligned,
    is_contracting,
    constants_for,
    schottky_length_scale,
    TREE_CONSTANTS,
    PLANE_CONSTANTS,
)

T = TreeModel()
o = GroupWord.identity()


def w(text):
    return word_from_str(text)


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
            res = project(T, seg, x)
            assert len(res.points) == 1  # tree projections are single points
            assert res.points[0] == tree_projection_to_segment(x, u, v)

    def test_hand_values(self):
        seg = tree_geodesic(o, w("a^3"))
        res = project(T, seg, w("a^2 b"))
        assert res.points == (w("a^2"),)
        assert res.distance == 1

    def test_project_path_union(self):
        seg = tree_geodesic(o, w("a^2"))
        src = [w("a b"), w("a^2 b")]
        res = project_path(T, seg, src)
        assert set(res.points) == {w("a"), w("a^2")}
        assert res.distance == 1

    def test_diameter(self):
        assert diameter(T, [o, w("a^2"), w("b")]) == 3
        assert diameter(T, [o]) == 0


class TestAlignment:
    def test_chained_geodesics_align(self):
        chain = [tree_geodesic(o, w("a^2")), tree_geodesic(w("a^2"), w("a^2 b^2"))]
        rep = is_aligned(T, chain, width=1)
        assert rep.aligned and rep.worst_diameter == 0

    def test_backtracking_chain_fails(self):
        chain = [tree_geodesic(o, w("a^2")), tree_geodesic(w("a^2"), o)]
        rep = is_aligned(T, chain, width=2)
        assert not rep.aligned
        assert rep.failing_index == 0
        assert rep.worst_diameter == 2  # full overlap; strict inequality bites

    def test_strict_inequality_at_width(self):
        # junction overlap of exactly 2 is rejected at width 2, passes at 3
        chain = [tree_geodesic(o, w("a^3")), tree_geodesic(w("a"), w("a b^3"))]
        assert not is_aligned(T, chain, width=2).aligned
        assert is_aligned(T, chain, width=3).aligned

    def test_points_as_degenerate_paths(self):
        rep = is_aligned(T, [o, w("a^4")], width=1)
        assert rep.aligned  # two points always align

    def test_semi_aligned_uses_wider_threshold(self):
        chain = [tree_geodesic(o, w("a^5")), tree_geodesic(w("a"), w("a b^7"))]
        assert not is_aligned(T, chain, width=TREE_CONSTANTS.d0).aligned
        assert is_semi_aligned(T, chain).aligned

    def test_closure_under_reversal_translation_concatenation(self):
        chain = [tree_geodesic(o, w("a^3")), tree_geodesic(w("a^3"), w("a^3 b^3"))]
        ext = [
            tree_geodesic(w("a^3"), w("a^3 b^3")),
            tree_geodesic(w("a^3 b^3"), w("a^3 b^3 a^3")),
        ]
        assert ext[0] == chain[-1]
        g = w("b a")
        reversal = [list(reversed(p)) for p in reversed(chain)]
        translation = [[T.apply(g, x) for x in p] for p in chain]
        for variant in (chain, reversal, translation, chain + ext[1:]):
            assert is_aligned(T, variant, 2).aligned


class TestContraction:
    def test_tree_geodesic_is_contracting_at_width_zero(self):
        # on a tree, d(x,y) <= d(x, axis) forces equal projections
        axis = tree_geodesic(w("A^3"), w("a^3"))
        ok, witness = is_contracting(T, axis, width=0, probe_radius=3)
        assert ok and witness is None

    def test_two_point_gap_set_is_not_contracting(self):
        gappy = [o, w("a^6")]
        ok, witness = is_contracting(T, gappy, width=2, probe_radius=4)
        assert not ok
        x, y = witness
        d_set = min(T.distance(x, p) for p in gappy)
        assert T.distance(x, y) <= d_set  # witness pair is admissible

    def test_plane_geodesic_contracting_randomized(self):
        P = PlaneModel()
        axis = P.geodesic(1j, 16j)
        ok, _ = is_contracting(P, axis, width=PLANE_CONSTANTS.d0, probes=200,
                               rng=np.random.default_rng(5))
        assert ok


class TestConstants:
    def test_model_lookup(self):
        assert constants_for(T) is TREE_CONSTANTS
        assert constants_for(PlaneModel()) is PLANE_CONSTANTS

    def test_length_scale_hand_values(self):
        assert schottky_length_scale(9, 2) == pytest.approx(0.9)
        assert schottky_length_scale(5, 2) == pytest.approx(0.5)
        # second branch active when blocks are short relative to the width
        assert schottky_length_scale(4, 2) == pytest.approx(0.4)
