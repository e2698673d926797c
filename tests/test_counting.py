"""Ball enumeration, subgraph-folding rank, and the k-tuple freeness census.

Rank values are frozen from hand-worked foldings: <a, b> has rank 2,
<a, a^3> folds to <a> (rank 1), and <a^2, a^3> also generates <a>.
"""

import numpy as np
import pytest

from pivotwalk import counting
from pivotwalk.schottky import build_schottky
from pivotwalk.words import GroupWord, word_from_str
from pivotwalk.counting import (
    GeneratingSet,
    build_augmented_set,
    census_rows,
    enumerate_ball,
    subgroup_rank,
    tuple_is_free,
    ktuple_census,
    census_scale,
)

a = GroupWord.from_letters([1])
b = GroupWord.from_letters([2])


def w(text):
    return word_from_str(text)


class TestGeneratingSet:
    def test_rejects_duplicates_and_identity(self):
        with pytest.raises(ValueError):
            GeneratingSet((a, a))
        with pytest.raises(ValueError):
            GeneratingSet((a, GroupWord.identity()))

    def test_symmetrized(self):
        s = GeneratingSet((a, b)).symmetrized()
        assert set(s.elements) == {a, b, a.inverse(), b.inverse()}
        # already-symmetric sets are unchanged
        assert len(s.symmetrized()) == 4

    def test_augmented_set(self):
        s = build_augmented_set([a, b], [w("a b a")])
        assert len(s) == 6
        assert w("A B A") in set(s.elements)


class TestBall:
    def test_free_group_ball_sizes(self):
        # |B(r)| = 1 + 4 + 4*3 + ... = 2*3^r - 1 in the rank-2 free group
        gens = GeneratingSet((a, b))
        for r, size in ((1, 5), (2, 17), (3, 53), (4, 161)):
            res = enumerate_ball(gens, r)
            assert len(res.elements) == size
            assert res.exhaustive and res.radius == r
            # a free basis: the BFS level is the word length
            assert all(level == len(x) for x, level in res.elements.items())

    def test_cyclic_subgroup_ball(self):
        res = enumerate_ball(GeneratingSet((w("a^2"),)), 3)
        assert set(res.elements) == {w("a^%d" % k) if k else GroupWord.identity()
                                     for k in (-6, -4, -2, 0, 2, 4, 6)}

    def test_budget_fallback_is_partial(self):
        res = enumerate_ball(GeneratingSet((a, b)), 4, budget=30,
                             rng=np.random.default_rng(0), sample_size=500)
        assert not res.exhaustive
        assert res.radius == 2  # radius 3 needs 4 * 17 = 68 products
        assert 0 < len(res.elements) < 161 + 1


class TestRank:
    def test_frozen_rank_values(self):
        assert subgroup_rank([a, b]) == 2
        assert subgroup_rank([a, w("a^3")]) == 1
        assert subgroup_rank([w("a^2"), w("a^3")]) == 1
        assert subgroup_rank([w("a b"), w("b a")]) == 2
        assert subgroup_rank([a]) == 1
        assert subgroup_rank([]) == 0

    def test_conjugates_preserve_rank(self):
        assert subgroup_rank([w("b a B"), w("b a^2 B")]) == 1

    def test_tuple_is_free(self):
        assert tuple_is_free([a, b])
        assert tuple_is_free([w("a^2"), w("b^2"), w("a b")])
        assert not tuple_is_free([a, w("a^3")])
        assert not tuple_is_free([a, a])
        assert not tuple_is_free([a, a.inverse()])
        assert not tuple_is_free([a, GroupWord.identity()])


class TestCensus:
    def test_exhaustive_pair_census_on_tiny_ball(self):
        elements = [e for e in enumerate_ball(GeneratingSet((a, b)), 1).elements
                    if not e.is_identity()]
        res = ktuple_census(elements, 2)
        assert res.exhaustive and not res.sampled
        assert res.total == 16
        # frozen by hand: unordered {x, y} free iff y not in {x, x^-1};
        # 4*2 = 8 such ordered failures plus none others
        assert res.free == 8
        assert res.fraction == pytest.approx(0.5)

    def test_sampled_census_past_budget(self):
        elements = list(enumerate_ball(GeneratingSet((a, b)), 2).elements)
        res = ktuple_census(elements, 4, budget=1000, rng=np.random.default_rng(1))
        assert res.sampled and not res.exhaustive
        assert res.tuple_count_examined == 1000
        assert 0 <= res.fraction <= 1

    def test_census_scale(self):
        assert census_scale(16.0, 2) == 2
        assert census_scale(0.001, 2) == 2  # floor from lam0
        assert census_scale(2.0, 10000) == 10


def reference_census(gens, n_max, K):
    """The census verb's rows as it once computed them: a fresh ball walk per
    radius, each element's translation length taken again for every row."""

    rows = []
    for n in range(1, n_max + 1):
        ball = counting.enumerate_ball(gens, n)
        bad = 0
        for w in ball.elements:
            if w.is_identity() or w.translation_length() <= K * n:
                bad += 1
        frac = bad / len(ball.elements)
        rows.append((n, len(ball.elements), bad, frac, int(ball.exhaustive)))
    return rows


def census_gens(seed):
    """The generating set the census verb builds for a seed."""
    sch = build_schottky(a, b, size=4, m0=5, seed=seed)
    return build_augmented_set([a, b], sch.products())


class TestBallCensus:
    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("K", [0.5, 0.0, -1.0, 2.0])
    def test_one_walk_matches_walk_per_radius(self, seed, K):
        gens = census_gens(seed)
        ref = reference_census(gens, 4, K)
        assert [r[4] for r in ref] == [1, 1, 1, 1]
        for n_max in range(1, 5):
            assert census_rows(enumerate_ball(gens, n_max), n_max, K) == ref[:n_max]

    def test_rows_past_the_budget_are_flagged(self):
        gens = census_gens(0)
        ref = reference_census(gens, 4, 0.5)
        # 12 generators: radius 3 takes 12 * 137 products, radius 4 12 * 1393
        ball = enumerate_ball(gens, 4, budget=5000, rng=np.random.default_rng(0),
                              sample_size=2000)
        assert not ball.exhaustive and ball.radius == 3
        rows = census_rows(ball, 4, 0.5)
        assert rows[:3] == ref[:3]
        assert rows[3][4] == 0 and rows[3][1] < ref[3][1]
