"""Pivotal-time machinery: stack construction, pivots, jump-law domination.

The fast prefix-based count simulation and the exact geometric stack
construction are independent routes to the same quantity; they are compared
trial by trial below.
"""

import math

import numpy as np
import pytest

from pivotwalk.words import GroupWord, random_reduced_word, word_from_str
from pivotwalk.spaces import TreeModel
from pivotwalk.schottky import build_schottky, tree_schottky_set, tilde_pairs
from pivotwalk.pivotal import (
    PivotConfig,
    PivotalTimes,
    compute_pivotal_times,
    extremal_axes,
    pivotal_chain_report,
    pivot,
    simulate_pivot_counts,
    jump_law_pmf,
    jump_walk_cdf,
    dominates_jump_walk,
    half_count_tail_bound,
    half_count_tail_ok,
    sample_jump_dominated_counts,
    pivot_counts_csv,
    middle_chain,
    is_pre_aligned_sequence,
    is_pre_aligned_isometry,
    repulsion_phi,
    self_repulsion_sets,
    multi_repulsion_sets,
)

T = TreeModel()
a = GroupWord.from_letters([1])
b = GroupWord.from_letters([2])
SCH = build_schottky(T, a, b, size=4, m0=5)
K0 = int(SCH.constants.k0)


def random_config(seed, n=6):
    rng = np.random.default_rng([seed, 7])
    w = tuple(random_reduced_word(rng, K0) for _ in range(n + 1))
    v = tuple(random_reduced_word(rng, K0) for _ in range(n))
    draws = np.random.default_rng(seed).integers(0, len(SCH), size=(n, 4))
    quads = tuple(tuple(int(x) for x in row) for row in draws)
    return PivotConfig(SCH, quads, w, v)


class TestConfig:
    def test_length_validation(self):
        cfg = random_config(0, n=3)
        with pytest.raises(ValueError):
            PivotConfig(SCH, cfg.quads, cfg.w[:-1], cfg.v)
        with pytest.raises(ValueError):
            PivotConfig(SCH, cfg.quads, cfg.w, cfg.v[:-1])

    def test_total_is_last_prefix(self):
        cfg = random_config(1, n=4)
        W = cfg.prefixes()
        assert len(W) == 5
        assert cfg.total() == W[4]
        assert W[0] == cfg.w[0]

    def test_prefix_recursion(self):
        cfg = random_config(2, n=4)
        W = cfg.prefixes()
        for k in range(1, 5):
            assert W[k] == W[k - 1] * cfg.block_isometry(k)
            # the exit block's frame, then D_k w_k, ends the step
            d = cfg.quads[k - 1][3]
            assert cfg.frames(k, W[k - 1])[3] * SCH[d].product() * cfg.w[k] == W[k]


class TestPivotalTimes:
    def test_container_protocol(self):
        times = PivotalTimes((1, 3, 4))
        assert len(times) == 3 and 3 in times and 2 not in times
        assert list(times) == [1, 3, 4]

    def test_times_sorted_and_in_range(self):
        for s in range(20):
            cfg = random_config(s)
            idx = compute_pivotal_times(T, cfg).indices
            assert list(idx) == sorted(set(idx))
            assert all(1 <= k <= cfg.n for k in idx)

    @pytest.mark.parametrize("n, seed, spacers, pops", [
        pytest.param(6, 17, None, False, id="no-pop"),
        # spacers that make a later step undo an earlier kept one
        pytest.param(7, 2, (["", "A^5", "A^5", "A b", "b A", "", "A^2", "B A^2 B A"],
                            ["", "A^2", "", "", "", "a", ""]), True, id="pops"),
    ])
    def test_fast_simulation_matches_stack_construction(self, n, seed, spacers, pops):
        # dual route: leading-letter simulation vs geometric stack, same draws
        trials = 30
        if spacers is None:
            rng_wv = np.random.default_rng([seed, 7])
            w = tuple(random_reduced_word(rng_wv, K0) for _ in range(n + 1))
            v = tuple(random_reduced_word(rng_wv, K0) for _ in range(n))
        else:
            w, v = (tuple(word_from_str(x) for x in words) for words in spacers)
        counts = simulate_pivot_counts(SCH, n, trials, seed, w=w, v=v)
        rng = np.random.default_rng(seed)
        popped = False
        for t in range(trials):
            draws = rng.integers(0, len(SCH), size=(n, 4))
            quads = tuple(tuple(int(x) for x in row) for row in draws)
            full = compute_pivotal_times(T, PivotConfig(SCH, quads, w, v)).indices
            assert len(full) == counts[t]
            # a pop: a time kept after the first k steps is gone at the end
            for k in range(1, n):
                cut = PivotConfig(SCH, quads[:k], w[: k + 1], v[:k])
                popped |= any(j not in full for j in compute_pivotal_times(T, cut))
        assert popped == pops

    def test_simulation_validates_spacer_lengths(self):
        with pytest.raises(ValueError):
            simulate_pivot_counts(SCH, 3, 1, 0, w=[GroupWord.identity()] * 3)


class TestChainAndPivot:
    def test_chain_is_aligned(self):
        for s in range(15):
            cfg = random_config(s)
            assert pivotal_chain_report(T, cfg).aligned

    def test_four_axes_per_pivotal_time(self):
        cfg = random_config(3)
        times = compute_pivotal_times(T, cfg)
        assert len(extremal_axes(T, cfg, times)) == 4 * len(times)

    def test_pivot_preserves_pivotal_times(self):
        hit = 0
        for s in range(10):
            cfg = random_config(s)
            times = compute_pivotal_times(T, cfg)
            for i in times:
                vv = cfg.v[i - 1]
                for pair in tilde_pairs(T, SCH, vv)[:4]:
                    cfg2 = pivot(T, cfg, i, pair[0], pair[1], vv)
                    assert compute_pivotal_times(T, cfg2).indices == times.indices
                    hit += 1
        assert hit > 50

    def test_pivot_rejects_non_pivotal_time(self):
        cfg = random_config(4)
        times = compute_pivotal_times(T, cfg)
        free = next(k for k in range(1, cfg.n + 1) if k not in times)
        with pytest.raises(ValueError):
            pivot(T, cfg, free, 0, 1, cfg.v[free - 1])

    def test_pivot_rejects_inadmissible_pair(self):
        cfg = random_config(5)
        times = compute_pivotal_times(T, cfg)
        i = times.indices[0]
        # a connector equal to an inverse block excludes some middle pairs
        bad_v = SCH[0].product().inverse()
        pairs = set(tilde_pairs(T, SCH, bad_v))
        excluded = next(
            (bi, ci)
            for bi in range(len(SCH))
            for ci in range(len(SCH))
            if (bi, ci) not in pairs
        )
        with pytest.raises(ValueError):
            pivot(T, cfg, i, excluded[0], excluded[1], bad_v)


class TestJumpLaw:
    def test_pmf_values_and_mass(self):
        pmf = jump_law_pmf(100)
        assert pmf[1] == pytest.approx(0.96)
        assert pmf[-1] == pytest.approx(0.96 * 0.04)
        assert pmf[-2] == pytest.approx(0.96 * 0.04 ** 2)
        assert sum(pmf.values()) == pytest.approx(1.0)

    def test_cdf_is_distribution(self):
        values, cdf = jump_walk_cdf(100, 5)
        assert np.all(np.diff(cdf) >= -1e-12)
        assert cdf[-1] == pytest.approx(1.0)
        assert values[-1] == 5

    def test_single_step_cdf_matches_pmf(self):
        pmf = jump_law_pmf(50)
        values, cdf = jump_walk_cdf(50, 1)
        at = {int(x): c for x, c in zip(values, cdf)}
        assert at[1] == pytest.approx(1.0)
        assert 1.0 - at[0] == pytest.approx(pmf[1])

    def test_domination_decidable_on_synthetic_counts(self):
        n0, n, trials = 100, 20, 2000
        assert dominates_jump_walk(np.full(trials, n), n0, n)
        assert not dominates_jump_walk(np.zeros(trials, dtype=int), n0, n)

    def test_half_count_bound_values(self):
        assert half_count_tail_bound(400, 1) == pytest.approx(3 * 0.01 ** 0.25)
        assert half_count_tail_bound(100, 10) > 1.0  # vacuous regime

    def test_half_count_check(self):
        # vacuous bound always passes
        assert half_count_tail_ok(np.zeros(100, dtype=int), 100, 10)
        # informative bound: all-maximal counts pass, collapsed counts fail
        assert half_count_tail_ok(np.full(500, 50), 400, 50)
        assert not half_count_tail_ok(np.zeros(500, dtype=int), 400, 50)


class TestSampling:
    def test_sampled_counts_dominate_and_replay(self):
        counts = sample_jump_dominated_counts(100, 10, 400, seed=5)
        again = sample_jump_dominated_counts(100, 10, 400, seed=5)
        assert np.array_equal(counts, again)
        assert dominates_jump_walk(counts, 100, 10)
        assert half_count_tail_ok(counts, 100, 10)
        assert counts.mean() >= 0.9 * 10

    def test_set_size_mismatch_rejected(self):
        sch = tree_schottky_set(4)
        with pytest.raises(ValueError):
            sample_jump_dominated_counts(8, 5, 10, seed=0, sch=sch)

    def test_counts_csv(self, tmp_path):
        counts = np.array([3, 5, 4])
        path = tmp_path / "counts.csv"
        pivot_counts_csv(str(path), counts, 100, 5, 7)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "trial,n0,n,seed,pivot_count"
        assert lines[1] == "0,100,5,7,3"
        assert len(lines) == 4


class TestPreAlignmentAndRepulsion:
    def setup_method(self):
        rng = np.random.default_rng(5)
        self.middles = []
        for _ in range(4):
            vv = random_reduced_word(rng, K0)
            prs = tilde_pairs(T, SCH, vv)
            self.middles.append((*prs[int(rng.integers(0, len(prs)))], vv))
        self.w_seq = [random_reduced_word(rng, K0) for _ in range(5)]

    def test_pre_aligned_sequence(self):
        w_seq = [random_reduced_word(np.random.default_rng(9), K0) for _ in range(3)]
        assert is_pre_aligned_sequence(T, SCH, w_seq, [GroupWord.identity()], budget=300)

    def test_pre_aligned_isometry(self):
        phi = random_reduced_word(np.random.default_rng(4), 6)
        assert is_pre_aligned_isometry(T, SCH, phi, [GroupWord.identity()], budget=200)

    def test_self_repulsion_sets(self):
        n_sq = len(SCH) ** 2
        rs = self_repulsion_sets(T, SCH, self.w_seq, self.middles, 2)
        assert rs.phi == repulsion_phi(T, SCH, self.w_seq, self.middles, 2)
        admissible_front = set(tilde_pairs(T, SCH, self.middles[1][2]))
        assert set(rs.front) <= admissible_front
        # at most one prefix class is excluded per admissible pair
        assert len(rs.front) >= len(admissible_front) - len(SCH)
        assert 0 < len(rs.back) <= n_sq

    def test_multi_repulsion_sets(self):
        walks = ((self.w_seq, self.middles), (self.w_seq, self.middles))
        mm = multi_repulsion_sets(T, SCH, SCH, walks, 2)
        assert all(len(s) > 0 for s in mm.front + mm.back + mm.mixed)
        assert isinstance(mm.condition, bool)

    def test_middle_chain_shape(self):
        cfg = random_config(3)
        chain = middle_chain(T, cfg)
        assert len(chain) == 2 * cfg.n + 2  # endpoints plus two axes per step
