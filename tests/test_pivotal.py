"""Pivotal-time machinery: stack construction, pivots, jump-law domination.

The fast prefix-based count simulation and the exact geometric stack
construction are independent routes to the same quantity; they are compared
trial by trial below.
"""

import functools
import math
from itertools import islice
from typing import List, Optional, Sequence

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from pivotwalk import pivotal
from pivotwalk.words import GroupWord, common_prefix_letters, random_reduced_word, word_from_str
from pivotwalk.schottky import SchottkySequence, SchottkySet, build_schottky, tree_schottky_set, tilde_pairs
from pivotwalk.pivotal import (
    PivotConfig,
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
)

a = GroupWord.from_letters([1])
b = GroupWord.from_letters([2])
SCH = build_schottky(size=4, m0=5)
K0 = SCH.k0


# The per-step simulation that simulate_pivot_counts replaced: every step
# multiplies its block out and re-keys the anchor.  Kept as the reference the
# table-lookup pass and its exact tail are checked against.

def _tree_prefix_key(word: GroupWord, k0: int) -> tuple:
    return tuple(word.prefix(k0).letters()) if len(word) >= k0 else None


def reference_simulate(
    sch: SchottkySet,
    n: int,
    trials: int,
    seed: int,
    w: Optional[Sequence[GroupWord]] = None,
    v: Optional[Sequence[GroupWord]] = None,
) -> np.ndarray:
    """Monte-Carlo sample of #pivotal times for uniform block choices.

    Tree-only fast path; spacers w (length n+1) and connectors v (length n)
    are fixed words.  Uses the same step/backtrack conditions as
    compute_pivotal_times, specialized to leading-letter comparisons.
    """

    ident = GroupWord.identity()
    N = len(sch)
    k0 = sch.k0
    words = sch.products()
    w = list(w) if w is not None else [ident] * (n + 1)
    v = list(v) if v is not None else [ident] * n
    if len(w) != n + 1 or len(v) != n:
        raise ValueError("need n+1 spacers and n connectors")

    fwd_prefix = {}
    for idx, word in enumerate(words):
        fwd_prefix.setdefault(tuple(word.prefix(k0).letters()), set()).add(idx)

    # bad entry block for a given anchor word u: common_prefix(u, word) >= k0
    def bad_entry(u: GroupWord) -> set:
        if len(u) < k0:
            return set()
        return fwd_prefix.get(tuple(u.prefix(k0).letters()), set())

    # per position: bad middle pairs (b, c) given connector v_k; a pair is
    # bad when v*word_c cancels k0 letters into word_b, or v^-1 shares k0
    # letters with word_c.  Both reduce to prefix-class lookups.
    bad_middle: List[set] = []
    inv_words = [word.inverse() for word in words]
    bwd_prefix = {}
    for idx, word in enumerate(inv_words):
        bwd_prefix.setdefault(tuple(word.prefix(k0).letters()), set()).add(idx)
    for k in range(n):
        bad = set()
        vk_inv_key = _tree_prefix_key(v[k].inverse(), k0)
        for ci in range(N):
            t = v[k] * words[ci]
            key = _tree_prefix_key(t, k0)
            for bi in bwd_prefix.get(key, ()):
                bad.add((bi, ci))
            if vk_inv_key is not None and _tree_prefix_key(words[ci], k0) == vk_inv_key:
                for bi in range(N):
                    bad.add((bi, ci))
        bad_middle.append(bad)

    # per position: bad exit block d given spacer w_k
    bad_exit: List[set] = []
    for k in range(1, n + 1):
        bad = set()
        for di in range(N):
            if common_prefix_letters(inv_words[di], w[k]) >= k0:
                bad.add(di)
        bad_exit.append(bad)

    def tail(j: int) -> GroupWord:
        # from the end of step j's exit block (of w_0 when j = 0) to step k's end
        out = w[j]
        for i in range(j + 1, k + 1):
            out = out * block_words[i]
        return out

    rng = np.random.default_rng(seed)
    counts = np.zeros(trials, dtype=np.int64)
    for t in range(trials):
        draws = rng.integers(0, N, size=(n, 4))
        stack: List[int] = []
        anchor = w[0].inverse()
        block_words: List[Optional[GroupWord]] = [None]
        for k in range(1, n + 1):
            a, b, c, d = (int(x) for x in draws[k - 1])
            ok = (
                a not in bad_entry(anchor)
                and (b, c) not in bad_middle[k - 1]
                and d not in bad_exit[k - 1]
            )
            block = (
                words[a] * words[b] * v[k - 1] * words[c] * words[d] * w[k]
            )
            block_words.append(block)
            if ok:
                stack.append(k)
                anchor = w[k].inverse()
            else:
                while stack and common_prefix_letters(inv_words[draws[stack[-1] - 1][3]],
                                                       tail(stack[-1])) >= k0:
                    stack.pop()
                # the anchor returns to the last kept step's end, or to w_0
                anchor = tail(stack[-1] if stack else 0).inverse()
        counts[t] = len(stack)
    return counts


def reference_jump_walk_cdf(n0: int, n: int):
    """The slice loop jump_walk_cdf replaced: n passes, each adding every
    atom's shifted copy of the running law."""

    pmf = jump_law_pmf(n0)
    lo = min(pmf) * n
    offset = -lo
    dist = np.zeros(int(n - lo + 1))
    dist[offset] = 1.0
    for _ in range(n):
        new = np.zeros_like(dist)
        for j, p in pmf.items():
            if j >= 0:
                new[j:] += dist[: len(dist) - j] * p
            else:
                new[:j] += dist[-j:] * p
        dist = new
    values = np.arange(lo, n + 1)
    return values, np.cumsum(dist)


@functools.lru_cache(maxsize=None)
def tree_set(n0):
    return tree_schottky_set(n0, seed=1)


def block_word(i):
    """Block i of SCH multiplied out from its steps, without the block's
    own product."""
    word = GroupWord.identity()
    for step in SCH.sequences[i].steps:
        word = word * step
    return word


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
        W = cfg.prefixes
        assert len(W) == 5 and len(cfg.frames) == 4
        # the last prefix is the whole product, the endpoint of the chain
        total = cfg.w[0]
        for quad, v, w in zip(cfg.quads, cfg.v, cfg.w[1:]):
            A, B, C, D = map(block_word, quad)
            total = total * A * B * v * C * D * w
        assert W[-1] == total
        assert W[0] == cfg.w[0]

    def test_prefix_recursion(self):
        cfg = random_config(2, n=4)
        W = cfg.prefixes
        for k in range(1, 5):
            A, B, C, D = map(block_word, cfg.quads[k - 1])
            frame_b = W[k - 1] * A
            frame_c = frame_b * B * cfg.v[k - 1]
            frame_d = frame_c * C
            assert cfg.frames[k - 1] == (W[k - 1], frame_b, frame_c, frame_d)
            # the exit block's frame, then D_k w_k, ends the step
            assert frame_d * D * cfg.w[k] == W[k]


class TestPivotalTimes:
    def test_times_sorted_and_in_range(self):
        for s in range(20):
            cfg = random_config(s)
            idx = compute_pivotal_times(cfg)
            assert type(idx) is tuple and list(idx) == sorted(set(idx))
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
            full = compute_pivotal_times(PivotConfig(SCH, quads, w, v))
            assert len(full) == counts[t]
            # a pop: a time kept after the first k steps is gone at the end
            for k in range(1, n):
                cut = PivotConfig(SCH, quads[:k], w[: k + 1], v[:k])
                popped |= any(j not in full for j in compute_pivotal_times(cut))
        assert popped == pops

    def test_simulation_validates_spacer_lengths(self):
        with pytest.raises(ValueError):
            simulate_pivot_counts(SCH, 3, 1, 0, w=[GroupWord.identity()] * 3, v=[GroupWord.identity()] * 3)


# reduced spacers and connectors of 0 to 2*k0 letters: anchors shorter than
# k0, the identity, and spacers that cancel into the blocks.  On this set a
# pop needs particular spacer and block pairs (the pinned `pops` case has
# `A^2` then `a B a^2 B`), so few examples pop; the N0 = 5 and 8 reference
# cases and the `pops` case cover pops.
_short_words = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=2 * K0).map(GroupWord.from_letters)


class TestFastSimulation:
    @pytest.mark.parametrize("n0, n, trials, seeds", [
        (5, 30, 200, (0, 1, 2)),
        (8, 30, 200, (0, 3)),
        (100, 20, 300, (1, 2)),
        (400, 20, 300, (1, 2)),
    ])
    def test_sampled_counts_match_reference(self, n0, n, trials, seeds):
        sch = tree_set(n0)
        k0 = sch.k0
        for s in seeds:
            # the spacers sample_jump_dominated_counts draws
            rng = np.random.default_rng([s, 7])
            w = [random_reduced_word(rng, k0) for _ in range(n + 1)]
            v = [random_reduced_word(rng, k0) for _ in range(n)]
            counts = sample_jump_dominated_counts(n0, n, trials, s, sch=sch)
            assert (counts < n).any()  # some trials run the exact tail
            assert np.array_equal(counts, reference_simulate(sch, n, trials, s, w=w, v=v))

    def test_chunks_keep_counts(self, monkeypatch):
        cfg = random_config(3)
        whole = simulate_pivot_counts(SCH, cfg.n, 30, 3, w=cfg.w, v=cfg.v)
        assert (whole < cfg.n).any()
        # 7 trials per pass, then (fewer cells than steps) one
        for cells in (7 * cfg.n, 1):
            monkeypatch.setattr(pivotal, "_PASS_CELLS", cells)
            assert np.array_equal(simulate_pivot_counts(SCH, cfg.n, 30, 3, w=cfg.w, v=cfg.v), whole)

    def test_set_with_no_heads_keeps_every_step(self):
        # both blocks are shorter than k0, so the head table has no rows and
        # no step fails; the set fails verification, so only Python callers
        # reach it
        sch = SchottkySet(tuple(SchottkySequence(tuple(word_from_str(c) for c in t.split()))
                                for t in ("a a a a a", "a a a a b")), 6)
        n, ident = 3, GroupWord.identity()
        w, v = [ident] * (n + 1), [ident] * n
        counts = simulate_pivot_counts(sch, n, 20, 0, w=w, v=v)
        assert np.array_equal(counts, reference_simulate(sch, n, 20, 0, w=w, v=v))
        assert (counts == n).all()

    @pytest.mark.parametrize("N", [7, 400, 2 ** 31 + 1, 2 ** 32 - 1])
    def test_one_draw_equals_per_trial_draws(self, N):
        # the sampler draws a pass at once; trial t must still get the t-th
        # per-trial call's blocks.  Near 2^31 about half of all 32-bit halves
        # are rejected and redrawn, which moves every later half
        m, n = 9, 13
        for s in range(4):
            rng = np.random.default_rng(s)
            per_trial = np.stack([rng.integers(0, N, size=(n, 4)) for _ in range(m)])
            assert np.array_equal(np.random.default_rng(s).integers(0, N, size=(m, n, 4)), per_trial)

    @seed(2022)
    @settings(max_examples=100, deadline=None, database=None)
    @given(st.data())
    def test_counts_match_stack_on_random_spacers(self, data):
        n = data.draw(st.integers(1, 8))
        w = tuple(data.draw(st.lists(_short_words, min_size=n + 1, max_size=n + 1)))
        v = tuple(data.draw(st.lists(_short_words, min_size=n, max_size=n)))
        draw_seed = data.draw(st.integers(0, 2 ** 16))
        trials = 10
        counts = simulate_pivot_counts(SCH, n, trials, draw_seed, w=w, v=v)
        rng = np.random.default_rng(draw_seed)
        for t in range(trials):
            quads = tuple(tuple(int(x) for x in row) for row in rng.integers(0, len(SCH), size=(n, 4)))
            assert len(compute_pivotal_times(PivotConfig(SCH, quads, w, v))) == counts[t]


def product_key(u: GroupWord, x: GroupWord, k0: int) -> tuple:
    """The per-pair route the connector table replaced: u x multiplied out,
    then its first k0 letters read off."""
    return tuple(islice((u * x).letters(), k0))


def check_product_heads(sch: SchottkySet, connectors: Sequence[GroupWord]) -> None:
    """The connector table's letter rows equal the multiplied-out products'
    prefixes, and its counts their lengths."""
    k0 = sch.k0
    words = sch.products()
    tables = list(pivotal._product_heads(connectors, words, k0))
    assert len(tables) == len(connectors)
    for u, (heads, counts) in zip(connectors, tables):
        for x, head, count in zip(words, heads.tolist(), counts.tolist()):
            assert count == len(u * x)
            if count >= k0:
                assert tuple(head) == product_key(u, x, k0)


def _reduced_words(min_size, max_size):
    """Reduced words over a, b with min_size to max_size letters."""
    def spell(choices):
        letters = []
        for i in choices:
            options = [l for l in (1, -1, 2, -2) if not letters or l != -letters[-1]]
            letters.append(options[i % len(options)])
        return GroupWord.from_letters(letters)
    return st.lists(st.integers(0, 3), min_size=min_size, max_size=max_size).map(spell)


class TestConnectorTable:
    @pytest.mark.parametrize("make_set", [lambda: SCH, lambda: tree_set(400)], ids=["k0-2", "k0-6"])
    @seed(2022)
    @settings(max_examples=40, deadline=None, database=None)
    @given(data=st.data())
    def test_heads_match_multiplied_out_products(self, make_set, data):
        sch = make_set()
        k0 = sch.k0
        words = sch.products()
        longest = max(map(len, words))
        drawn = data.draw(st.lists(_reduced_words(0, 2 * k0), min_size=1, max_size=3))
        # a connector longer than every block, and ones that cancel part or
        # all of a block, so that the product keeps few of its letters
        x = words[data.draw(st.integers(0, len(words) - 1))]
        cut = data.draw(st.integers(0, len(x)))
        cancelling = [x.prefix(cut).inverse(), data.draw(_reduced_words(0, k0)) * x.inverse()]
        longer = data.draw(_reduced_words(longest + 1, longest + 2 * k0))
        connectors = [GroupWord.identity(), longer, *cancelling, *drawn]
        # alone, each connector gets the narrowest block rows it allows
        check_product_heads(sch, connectors)
        for u in connectors:
            check_product_heads(sch, [u])

    # Prefixes that a letter code of base 5 (digit = letter + 2) in one
    # int64 would confuse.  At k0 = 28, 5^28 > 2^63 and the code wraps: the
    # alias and block 0's 28-letter prefix differ by exactly 2^64.
    @pytest.mark.parametrize("k0, block, other, alias", [
        pytest.param(28, "aBAbaBBaBabAbbAABABBABBBaBBB B^5",
                     "b a^3 b a B a b A B A b A B A b a b a b a B A b A^2 b a^2 b a b",
                     "BaBBBaBBBBaBBBABBaBaaaaaBBAb", id="k0-28"),
    ])
    def test_codes_that_would_collide_stay_apart(self, k0, block, other, alias):
        # the set is `block`, `other` and block^-1, so `block`'s prefix is a
        # forward and a backward block prefix; an entry anchor or a
        # connector product that starts with `alias` must match neither,
        # as the per-pair route finds, and one that starts with the prefix
        # must match both
        words = [word_from_str(block), word_from_str(other)]
        words.append(words[0].inverse())
        sch = SchottkySet(tuple(SchottkySequence((x,)) for x in words), k0)
        alias, twin = word_from_str(alias), words[0].prefix(k0)
        assert len(alias) == k0 and alias != twin
        connectors = [alias * words[1].inverse(), twin * words[1].inverse(), alias * words[0].inverse(),
                      GroupWord.identity(), alias.inverse()]
        check_product_heads(sch, connectors)
        n = len(connectors)
        w = [alias.inverse(), GroupWord.identity(), alias.inverse(), twin.inverse(), alias.inverse(), alias]
        counts = simulate_pivot_counts(sch, n, 300, 3, w=w, v=connectors)
        assert (counts < n).any()
        assert np.array_equal(counts, reference_simulate(sch, n, 300, 3, w=w, v=connectors))


class TestChainAndPivot:
    def test_chain_is_aligned(self):
        for s in range(15):
            cfg = random_config(s)
            assert pivotal_chain_report(cfg)

    def test_four_axes_per_pivotal_time(self):
        cfg = random_config(3)
        times = compute_pivotal_times(cfg)
        assert len(extremal_axes(cfg, times)) == 4 * len(times)

    def test_pivot_preserves_pivotal_times(self):
        hit = moved = 0
        for s in range(10):
            cfg = random_config(s)
            times = compute_pivotal_times(cfg)
            for i in times:
                vv = cfg.v[i - 1]
                for pair in tilde_pairs(SCH, vv)[:4]:
                    cfg2 = pivot(cfg, i, pair[0], pair[1], vv)
                    assert compute_pivotal_times(cfg2) == times
                    # the pivoted configuration is multiplied out afresh
                    fresh = PivotConfig(SCH, cfg2.quads, cfg2.w, cfg2.v)
                    assert (cfg2.prefixes, cfg2.frames) == (fresh.prefixes, fresh.frames)
                    moved += cfg2.prefixes != cfg.prefixes
                    hit += 1
        assert hit > 50 and moved > 0

    def test_pivot_rejects_non_pivotal_time(self):
        cfg = random_config(4)
        times = compute_pivotal_times(cfg)
        free = next(k for k in range(1, cfg.n + 1) if k not in times)
        with pytest.raises(ValueError):
            pivot(cfg, free, 0, 1, cfg.v[free - 1])

    def test_pivot_rejects_inadmissible_pair(self):
        cfg = random_config(5)
        times = compute_pivotal_times(cfg)
        i = times[0]
        # a connector equal to an inverse block excludes some middle pairs
        bad_v = SCH.sequences[0].product().inverse()
        pairs = set(tilde_pairs(SCH, bad_v))
        excluded = next(
            (bi, ci)
            for bi in range(len(SCH))
            for ci in range(len(SCH))
            if (bi, ci) not in pairs
        )
        with pytest.raises(ValueError):
            pivot(cfg, i, excluded[0], excluded[1], bad_v)


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

    @pytest.mark.parametrize("n0", [5, 8, 20, 100, 400, 1000])
    def test_cdf_matches_slice_loop(self, n0):
        for n in (1, 2, 5, 20, 50, 100):
            values, cdf = jump_walk_cdf(n0, n)
            ref_values, ref_cdf = reference_jump_walk_cdf(n0, n)
            assert np.array_equal(values, ref_values)
            np.testing.assert_allclose(cdf, ref_cdf, rtol=0, atol=1e-12)

    def test_verdicts_match_slice_loop(self, monkeypatch):
        # acceptance 04's samples, then the pivot benchmark's seeds 1-10
        samples = [(n0, n, 10_000, 1) for n0 in (100, 400) for n in (10, 20, 50)]
        samples += [(400, 50, 2000, s) for s in range(1, 11)]
        for n0, n, trials, s in samples:
            counts = sample_jump_dominated_counts(n0, n, trials, s, sch=tree_set(n0))
            verdict = dominates_jump_walk(counts, n0, n)
            with monkeypatch.context() as patch:
                patch.setattr(pivotal, "jump_walk_cdf", reference_jump_walk_cdf)
                assert dominates_jump_walk(counts, n0, n) == verdict

    def test_domination_decidable_on_synthetic_counts(self):
        n0, n, trials = 100, 20, 2000
        assert dominates_jump_walk(np.full(trials, n), n0, n)
        assert not dominates_jump_walk(np.zeros(trials, dtype=int), n0, n)

    def test_domination_matches_per_value_loop(self, monkeypatch):
        def per_value(counts, n0, n, z):
            # the loop dominates_jump_walk replaced: one mean per support value
            values, cdf = jump_walk_cdf(n0, n)
            trials = len(counts)
            for x, fx in zip(values, cdf):
                emp = np.mean(counts <= x)
                slack = z * math.sqrt(max(fx * (1 - fx), 1e-12) / trials)
                if emp > fx + slack:
                    return False
            return True

        n0, n = 20, 8
        rng = np.random.default_rng(11)
        arrays = [np.full(40, n), np.zeros(40, dtype=int), np.full(40, n - 1), np.array([n] * 39 + [-5 * n]),
                  np.array([n - 2]), np.arange(-n, n + 1)]
        arrays += [n + 1 - rng.geometric(p, size) for p in (0.5, 0.8, 0.95) for size in (5, 60, 400)]
        seen = set()
        for z in (0.0, 1.0, 3.0):
            monkeypatch.setattr(pivotal, "Z", z)
            for counts in arrays:
                verdict = dominates_jump_walk(counts, n0, n)
                assert verdict == per_value(counts, n0, n, z)
                seen.add(verdict)
        assert seen == {True, False}

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
