"""Experiment runners: ensemble generation, calibration, verdicts, reports.

The vectorized walk ensemble is compared draw for draw against
`reference_ensemble`, which multiplies each trial's sampled words step by
step, and the free-subgroup runner's pairs against `folded_pairs`, which
does the same for both of its streams.  The free-basis margin is checked
against `reference_free_words_ok`, the word enumeration it replaced in the
free-subgroup runner.
"""

import json
import math
import tracemalloc
import warnings
import weakref
from fractions import Fraction
from typing import Dict, Tuple

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from pivotwalk.counting import free_basis_margin, subgroup_rank
from pivotwalk.words import GroupWord, SyllableStack, word_from_str
from pivotwalk.spaces import PlaneModel, TreeModel
from pivotwalk.schottky import build_schottky
from pivotwalk import verifier
from pivotwalk.walks import StepMeasure, simple_rw, heavy_tail
from pivotwalk.verifier import (
    ConfigurationError,
    tree_walk_ensemble,
    _trial_rng,
    log_slope_fit,
    non_elementary,
    calibrate,
    run_genericity,
    run_discrepancy,
    run_clt,
    run_clt_converse,
    run_free_subgroup,
)

T = TreeModel()
a = GroupWord.from_letters([1])
b = GroupWord.from_letters([2])
CAL = {"lambda": 0.5, "sigma2": 0.75, "n": 0, "trials": 0}


def reference_ensemble(measure, n: int, trials: int, rng):
    """(displacement, translation length) of `trials` walks, each the
    product of its n step words, drawn by `rng.choice` itself: one draw of
    n atoms per trial takes the uniforms one (trials, n) draw takes."""

    disp = np.empty(trials, dtype=np.int64)
    tau = np.empty(trials, dtype=np.int64)
    for t in range(trials):
        acc = GroupWord.identity()
        for i in rng.choice(len(measure.weights), size=n, p=measure.weights).tolist():
            acc = acc * measure.atom(i)
        disp[t] = len(acc)
        tau[t] = acc.translation_length()
    return disp, tau


_atom_words = st.lists(st.tuples(st.integers(1, 3), st.integers(-3, 3)), max_size=4).map(
    GroupWord.from_syllables)


@st.composite
def _step_laws(draw):
    """Up to 6 atoms of up to 4 syllables, identity atoms, zero weights and
    atoms cancelling an earlier one included."""

    atoms = draw(st.lists(_atom_words, min_size=1, max_size=5))
    if draw(st.booleans()):
        atoms.append(draw(st.sampled_from(atoms)).inverse())
    weights = draw(st.lists(st.integers(0, 4), min_size=len(atoms), max_size=len(atoms))
                   .filter(any))
    return StepMeasure(atoms, [x / sum(weights) for x in weights])


@seed(2022)
@settings(max_examples=150, deadline=None, database=None)
@given(_step_laws(), st.integers(1, 12), st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
def test_ensemble_matches_reference_on_any_law(mu, n, trials, rng_seed):
    fast = tree_walk_ensemble(mu, n, trials, np.random.default_rng(rng_seed))
    want = reference_ensemble(mu, n, trials, np.random.default_rng(rng_seed))
    assert np.array_equal(fast[0], want[0]) and np.array_equal(fast[1], want[1])


@st.composite
def _conjugate_laws(draw):
    """Atoms followed by conjugates u g u^-1 and inverses g^-1 of earlier
    atoms: a walk's word then sits inside long conjugating shells, so the
    cyclic reduction of a stack row runs many rounds, and a round can wear
    a syllable to zero on one end only."""

    atoms = draw(st.lists(_atom_words.filter(lambda g: not g.is_identity()), min_size=1, max_size=3))
    for _ in range(draw(st.integers(1, 4))):
        g = draw(st.sampled_from(atoms))
        u = draw(_atom_words)
        atoms.append(draw(st.sampled_from([u * g * u.inverse(), g.inverse()])))
    weights = draw(st.lists(st.integers(1, 4), min_size=len(atoms), max_size=len(atoms)))
    return StepMeasure(atoms, [x / sum(weights) for x in weights])


@seed(2022)
@settings(max_examples=150, deadline=None, database=None)
@given(_conjugate_laws(), st.integers(1, 40), st.integers(1, 8), st.integers(0, 2 ** 32 - 1))
def test_ensemble_tau_matches_reference_on_conjugates(mu, n, trials, rng_seed):
    fast = tree_walk_ensemble(mu, n, trials, np.random.default_rng(rng_seed))
    want = reference_ensemble(mu, n, trials, np.random.default_rng(rng_seed))
    assert np.array_equal(fast[0], want[0]) and np.array_equal(fast[1], want[1])


@pytest.mark.parametrize("atoms", [
    (GroupWord.identity(),),
    (a, a.inverse()),
    (a, GroupWord.generator(1, 2)),
    (GroupWord.generator(1, 3), GroupWord.generator(1, -2)),
    (word_from_str("a b A"), word_from_str("a B A")),
], ids=["identity", "a_A", "a_a2", "a3_A2", "conjugates"])
def test_ensemble_identity_and_one_syllable_rows(atoms):
    mu = StepMeasure(atoms, [1 / len(atoms)] * len(atoms))
    disp, tau = tree_walk_ensemble(mu, 9, 60, np.random.default_rng(8))
    want = reference_ensemble(mu, 9, 60, np.random.default_rng(8))
    assert np.array_equal(disp, want[0]) and np.array_equal(tau, want[1])


class TestEnsembles:
    def test_fast_matches_slow_simple(self):
        fast = tree_walk_ensemble(simple_rw(), 30, 40, np.random.default_rng(3))
        slow = reference_ensemble(simple_rw(), 30, 40, np.random.default_rng(3))
        assert np.array_equal(fast[0], slow[0])
        assert np.array_equal(fast[1], slow[1])

    def test_fast_matches_slow_heavy(self):
        mu = heavy_tail(kmax=16)
        fast = tree_walk_ensemble(mu, 20, 30, np.random.default_rng(4))
        slow = reference_ensemble(mu, 20, 30, np.random.default_rng(4))
        assert np.array_equal(fast[0], slow[0])
        assert np.array_equal(fast[1], slow[1])

    @pytest.mark.parametrize("measure", [simple_rw(), heavy_tail(kmax=16)], ids=["simple", "heavy16"])
    def test_blocks_match_slow(self, monkeypatch, measure):
        # blocks of at most 100 rows of 25 steps: 2 * 100 + 7 trials go in
        # three blocks, so the draw continues across two block edges
        monkeypatch.setattr(verifier, "ENSEMBLE_BLOCK_CELLS", 100 * 25)
        fast = tree_walk_ensemble(measure, 25, 2 * 100 + 7, np.random.default_rng(6))
        slow = reference_ensemble(measure, 25, 2 * 100 + 7, np.random.default_rng(6))
        assert np.array_equal(fast[0], slow[0]) and np.array_equal(fast[1], slow[1])

    def test_memory_stays_within_a_block(self):
        # one (1800, 4000) draw held 57.6 MB of uniforms and as many of
        # atom indices, and the whole ensemble peaked at 116 MB
        tracemalloc.start()
        try:
            tree_walk_ensemble(simple_rw(), 4000, 1800, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6

    @pytest.mark.parametrize("run", [
        lambda: tree_walk_ensemble(simple_rw(), 20, 100, np.random.default_rng(0)),
        lambda: run_free_subgroup(simple_rw(), T, [20], 100, seed=0, calibration=CAL),
    ], ids=["ensemble", "free_subgroup"])
    def test_no_earlier_block_is_alive_when_the_next_is_made(self, monkeypatch, run):
        # a block's stack is freed before the next one, of either of
        # free-subgroup's streams, is made: a run holds one stack at a time
        made, alive = [], []
        identities = SyllableStack.identities

        def tracked(table, rows, steps):
            alive.append(sum(ref() is not None for ref in made))
            stack = identities(table, rows, steps)
            made.append(weakref.ref(stack))
            return stack

        monkeypatch.setattr(SyllableStack, "identities", staticmethod(tracked))
        # blocks of 30 rows of 20 steps: 4 blocks of the 100 trials
        monkeypatch.setattr(verifier, "ENSEMBLE_BLOCK_CELLS", 600)
        run()
        assert len(alive) >= 4 and alive == [0] * len(alive)

    def test_tau_at_most_displacement(self):
        disp, tau = tree_walk_ensemble(simple_rw(), 50, 200, np.random.default_rng(5))
        assert np.all(tau <= disp)
        assert np.all(disp >= 0)


def exact_simple_walk_law(n: int, one=1.0) -> Dict[Tuple[int, int], float]:
    """P(d = l, tau = t) after n steps of the simple walk, in the number
    type of `one` (a Fraction gives the law exactly).

    d = |Z_n| is the chain that steps up with probability 3/4 and down with
    1/4, and always up from 0.  Given d = l the word is uniform on the
    sphere, so its cyclic reduction cancels at least k letters at each end,
    1 <= k < l/2, with probability (3^(1-k) - (2 + (-1)^l) 3^(k-l)) / 4, and
    tau = l - 2 * cut.  (The equal form (3^(l-2k+1) - 2 - (-1)^l) / (4 3^(l-k))
    overflows floats at n = 1000.)"""

    disp = [one]
    for _ in range(n):
        step = [0 * one] * (len(disp) + 1)
        step[1] = disp[0]
        for l in range(1, len(disp)):
            step[l + 1] += disp[l] * 3 / 4
            step[l - 1] += disp[l] / 4
        disp = step
    three = 3 * one
    law = {}
    for l, p in enumerate(disp):
        # P(cut >= k) for k = 0, 1, ..., and 0 once k >= l/2
        tail = [one, *((three ** (1 - k) - (2 + (-1) ** l) * three ** (k - l)) / 4
                       for k in range(1, (l + 1) // 2)), 0 * one]
        for k in range(len(tail) - 1):
            law[(l, l - 2 * k)] = p * (tail[k] - tail[k + 1])
    return law


def _ks_distance(samples: np.ndarray, law: Dict[int, float]) -> float:
    """Largest gap between the empirical and the exact cdf of an integer law."""

    pmf = np.zeros(max(max(law), int(samples.max())) + 1)
    for value, p in law.items():
        pmf[value] += p
    emp = np.bincount(samples, minlength=len(pmf)) / len(samples)
    return float(np.abs(np.cumsum(emp - pmf)).max())


class TestExactSimpleWalkLaw:
    def test_law_counts_every_walk_of_8_steps(self):
        # the walks' end words with their multiplicities, step by step:
        # all 4^8 walks, ending in at most 13,121 distinct words
        ends, steps = {GroupWord.identity(): 1}, simple_rw().support
        for _ in range(8):
            nxt: Dict[GroupWord, int] = {}
            for word, count in ends.items():
                for s in steps:
                    nxt[word * s] = nxt.get(word * s, 0) + count
            ends = nxt
        counted: Dict[Tuple[int, int], Fraction] = {}
        for word, count in ends.items():
            key = (len(word), word.translation_length())
            counted[key] = counted.get(key, 0) + Fraction(count, 4 ** 8)
        law = exact_simple_walk_law(8, Fraction(1))
        assert sum(law.values()) == 1
        assert {k: p for k, p in law.items() if p} == counted

    @pytest.mark.parametrize("n, trials", [(400, 20_000), (1000, 10_000)])
    def test_ensemble_draws_the_law(self, n, trials):
        law = exact_simple_walk_law(n)
        disp, tau = tree_walk_ensemble(simple_rw(), n, trials, np.random.default_rng([5, 0]))
        for samples, index in ((disp, 0), (tau, 1)):
            marginal: Dict[int, float] = {}
            for key, p in law.items():
                marginal[key[index]] = marginal.get(key[index], 0.0) + p
            # the 5% critical value of the Kolmogorov-Smirnov distance
            assert _ks_distance(samples, marginal) < 1.36 / math.sqrt(trials)


class TestStatistics:
    def test_log_slope_on_exact_decay(self):
        ns = [10, 20, 40, 80]
        ys = [math.exp(-0.1 * n) for n in ns]
        slope, r2 = log_slope_fit(ns, ys)
        assert slope == pytest.approx(-0.1)
        assert r2 == pytest.approx(1.0)

    def test_log_slope_degenerate(self):
        assert log_slope_fit([10, 20], [0.0, 0.0]) == (0.0, 1.0)

    def test_non_elementary(self):
        assert non_elementary(simple_rw(), T)
        assert not non_elementary(StepMeasure((a,), (1.0,)), T)
        assert not non_elementary(StepMeasure((a, a.inverse()), (0.5, 0.5)), T)
        # conjugate atoms that do not commute have distinct axes
        assert non_elementary(StepMeasure((a, word_from_str("B a b")), (0.5, 0.5)), T)
        # a^±1, ..., a^±512 all commute with a
        powers = tuple(GroupWord.generator(1, s * k) for k in range(1, 513) for s in (1, -1))
        assert not non_elementary(StepMeasure(powers, (1 / 1024,) * 1024), T)

    def test_calibrate_simple_rw(self):
        calib = calibrate(simple_rw(), 200, 400, seed=1)
        assert calib["lambda"] == pytest.approx(0.5, abs=0.05)
        assert calib["sigma2"] == pytest.approx(0.75, abs=0.2)


class TestGenericity:
    def test_verdict_and_monotone_freqs(self):
        rep = run_genericity(simple_rw(), T, [40, 80], 300, seed=2, calibration=CAL)
        assert rep.verdict
        freqs = [rep.stats["per_n"][str(n)]["failure_freq"] for n in (40, 80)]
        assert freqs[1] <= freqs[0]

    def test_elementary_measure_rejected(self):
        with pytest.raises(ConfigurationError):
            run_genericity(StepMeasure((a,), (1.0,)), T, [10], 10, seed=0, calibration=CAL)

    def test_rate_floor_above_escape_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            run_genericity(simple_rw(), T, [10], 10, seed=0, L=0.9, calibration=CAL)


class TestDiscrepancy:
    def test_percentile_growth_verdict(self):
        rep = run_discrepancy(simple_rw(), T, [100, 400], 300, seed=6)
        assert rep.verdict
        assert rep.stats["worst_quadrupling_ratio"] <= 1.6

    def test_claim_stats_recorded(self):
        sch = build_schottky(size=2, m0=5)
        rep = run_discrepancy(
            simple_rw(), T, [100, 400], 50, seed=6, sch=sch, claim_n=100, claim_trials=2
        )
        claim = rep.stats["claim"]
        assert claim["trials"] == 2
        assert claim["violations"] == 0

    def test_claim_inputs_without_claim_trials_are_refused(self):
        sch = build_schottky(size=2, m0=5)
        for claim in ({"sch": sch}, {"claim_n": 100}, {"sch": sch, "claim_n": 100, "claim_trials": 0}):
            with pytest.raises(ConfigurationError, match="--claim-trials"):
                run_discrepancy(simple_rw(), T, [100, 400], 50, seed=6, **claim)


class TestClt:
    def test_verdict_at_moderate_n(self):
        rep = run_clt(simple_rw(), T, [2000], 2000, seed=3, calibration=CAL)
        assert rep.verdict
        stats = rep.stats["per_n"]["2000"]
        assert stats["ks_disp"] <= 0.05
        assert stats["ks_tau"] <= 0.05
        assert stats["ks_two_sample"] <= 0.03

    def test_tiny_run_warns_nothing(self):
        # scipy cannot compute the exact two-sample p-value here and warns;
        # the run reads only the statistic
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = run_clt(simple_rw(), T, [20], 5, seed=0)
        assert 0 <= rep.stats["per_n"]["20"]["ks_two_sample"] <= 1

    def test_degenerate_measure_short_circuits(self, tmp_path):
        # ab and ba never cancel, so every walk has d = 2n and its own
        # calibration reads sigma^2 = 0; the run draws no trial, so it
        # writes no sample and no plot
        rep = run_clt(StepMeasure((a * b, b * a), (0.5, 0.5)), T, [100], 100, seed=0)
        assert rep.verdict and rep.stats.get("degenerate")
        assert rep.stats["calibration"]["sigma2"] == 0
        rep.write(str(tmp_path), svg=True)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json", "samples.csv"]
        assert (tmp_path / "samples.csv").read_text().strip() == ""


class TestCltConverse:
    def test_heavy_tail_iqr_grows(self):
        rep = run_clt_converse(heavy_tail(), T, [250, 500, 1000], 600, seed=4)
        assert rep.verdict
        assert rep.stats["growth_per_doubling"] >= 1.2

    def test_finite_variance_contrast_stable(self):
        rep = run_clt_converse(simple_rw(), T, [250, 500, 1000], 600, seed=4, contrast=True)
        assert rep.verdict
        assert abs(rep.stats["growth_per_doubling"] - 1.0) <= 0.05

    def test_profile_preconditions(self):
        with pytest.raises(ConfigurationError):
            run_clt_converse(simple_rw(), T, [100], 10, seed=0)
        with pytest.raises(ConfigurationError):
            run_clt_converse(heavy_tail(), T, [100], 10, seed=0, contrast=True)


def folded_pairs(measure, n: int, trials: int, seed_: int, gi: int):
    """Trial t's two walks at grid index gi as the runner pairs them, each
    multiplied out one atom word at a time: row t of one (trials, n) draw
    from stream gi of `seed_`, and row t of one from stream gi of
    seed_ + 500,000."""

    walks = []
    for stream_seed in (seed_, seed_ + 500_000):
        words = []
        for row in measure.draw(_trial_rng(stream_seed, gi), (trials, n)).tolist():
            acc = GroupWord.identity()
            for i in row:
                acc = acc * measure.atom(i)
            words.append(acc)
        walks.append(words)
    return list(zip(*walks))


# the free-subgroup runner's measures: the simple walk, the heavy tail, and
# a measure file of multi-syllable atoms
_RUNNER_MEASURES = {
    "simple": simple_rw,
    "heavy": heavy_tail,
    "file": lambda: StepMeasure.from_json(json.dumps({
        "support": ["a b", "B A", "a^2 B^3 a", "A^2 b^3 A", "b A^2", "B"],
        "weights": [0.2, 0.2, 0.15, 0.15, 0.2, 0.1]})),
}


def reference_free_words_ok(model, z1: GroupWord, z2: GroupWord, word_len: int, k1: float) -> bool:
    """Every nontrivial reduced word of length <= word_len in z1, z2 and
    inverses moves the basepoint by at least (word length) * k1."""

    alphabet = [(1, z1), (-1, z1.inverse()), (2, z2), (-2, z2.inverse())]

    def rec(prev: int, acc: GroupWord, depth: int) -> bool:
        for sym, w in alphabet:
            if sym == -prev:
                continue
            nxt = acc * w
            if nxt.is_identity():
                return False
            if len(nxt) < depth * k1:
                return False
            if depth < word_len and not rec(sym, nxt, depth + 1):
                return False
        return True

    return rec(0, GroupWord.identity(), 1)


def _certificate_is_sound(z1: GroupWord, z2: GroupWord) -> bool:
    """A positive margin must imply a free basis whose words of length m
    are at least m * margin long (checked up to m = 5 by the oracle)."""

    margin = free_basis_margin([z1, z2])
    if margin <= 0:
        return False
    assert subgroup_rank([z1, z2]) == 2
    assert reference_free_words_ok(T, z1, z2, 5, margin)
    return True


class TestFreeSubgroup:
    def test_two_walks_generate_free_pairs(self):
        rep = run_free_subgroup(simple_rw(), T, [30, 60], 50, seed=5, calibration=CAL)
        assert rep.verdict
        freqs = [rep.stats["per_n"][str(n)]["failure_freq"] for n in (30, 60)]
        assert freqs[1] <= freqs[0] <= 0.05

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            run_free_subgroup(simple_rw(), T, [10], 0, seed=0, calibration=CAL)
        with pytest.raises(ConfigurationError):
            run_free_subgroup(simple_rw(), T, [], 5, seed=0, calibration=CAL)

    def test_samples_record_margin_and_fail(self):
        rep = run_free_subgroup(simple_rw(), T, [11, 21], 100, seed=7, calibration=CAL)
        assert rep.sample_header == ("n", "trial", "margin", "fail")
        assert "word_len" not in rep.stats
        for n, _, margin, fail in rep.samples:
            assert fail == int(margin < rep.stats["per_n"][str(n)]["k1"])

    @pytest.mark.parametrize("seed_", [0, 7])
    def test_certificate_implies_oracle_on_walks(self, seed_):
        # the runner's own draws: row t of stream gi of `seed` and of seed + 500,000
        mu = simple_rw()
        for gi, n in enumerate((10, 20, 50)):
            certified = sum(_certificate_is_sound(*pair) for pair in folded_pairs(mu, n, 200, seed_, gi))
            assert certified > 0

    @pytest.mark.parametrize("name", ["simple", "heavy", "file"])
    def test_margins_match_folded_pairs(self, name):
        mu = _RUNNER_MEASURES[name]()
        rep = run_free_subgroup(mu, T, [6, 15], 40, seed=3, calibration=CAL)
        for gi, n in enumerate((6, 15)):
            want = [free_basis_margin(list(pair)) for pair in folded_pairs(mu, n, 40, 3, gi)]
            assert [m for k, _, m, _ in rep.samples if k == n] == want
            assert len(set(want)) > 1
        if name == "heavy":
            # the walks' exponents pass 16 bits: the stacks hold int32
            assert SyllableStack.identities(mu.table, 1, 6).exps.dtype == np.int32

    @pytest.mark.parametrize("cells", [7 * 30, 1], ids=["7n", "1"])
    @pytest.mark.parametrize("name", ["simple", "file"])
    def test_blocks_leave_the_samples_unchanged(self, monkeypatch, tmp_path, name, cells):
        mu = _RUNNER_MEASURES[name]()
        run_free_subgroup(mu, T, [10, 30], 50, seed=4, calibration=CAL).write(str(tmp_path / "one"))
        # 7 * 30 cells: blocks of 6 or 7 rows at n = 30 and 16 or 17 at n = 10
        monkeypatch.setattr(verifier, "ENSEMBLE_BLOCK_CELLS", cells)
        run_free_subgroup(mu, T, [10, 30], 50, seed=4, calibration=CAL).write(str(tmp_path / "blocks"))
        for artifact in ("samples.csv", "report.json"):
            assert (tmp_path / "one" / artifact).read_bytes() == (tmp_path / "blocks" / artifact).read_bytes()

    def test_walk_one_is_the_genericity_walk(self, monkeypatch):
        # the runner's first walk of trial t at grid index gi is the walk
        # genericity draws there; its second comes from another stream
        lengths = []

        def recording_margin(pair):
            lengths.append(tuple(map(len, pair)))
            return free_basis_margin(pair)

        monkeypatch.setattr(verifier, "free_basis_margin", recording_margin)
        run_free_subgroup(simple_rw(), T, [20, 40], 60, seed=11, calibration=CAL)
        rep = run_genericity(simple_rw(), T, [20, 40], 60, seed=11, calibration=CAL)
        assert [one for one, _ in lengths] == [disp for _, _, disp, _, _ in rep.samples]
        assert any(one != two for one, two in lengths)

    @pytest.mark.parametrize("z", ["a", "a b", "a^2 b A b", "a b^3 A^2 B a"])
    def test_equal_and_inverse_pairs_are_never_certified(self, z):
        # a cyclically reduced z cancels nothing against itself, so only
        # telling letters apart by index sees that z^-1 z cancels fully
        z = word_from_str(z)
        assert free_basis_margin([z, z]) <= 0
        assert free_basis_margin([z, z.inverse()]) <= 0

    def test_margin_of_small_bases(self):
        assert free_basis_margin([a, b]) == 1
        assert free_basis_margin([a * a, b * b]) == 2
        assert free_basis_margin([a, GroupWord.identity()]) <= 0


def _words(max_size):
    return st.lists(st.sampled_from([1, -1, 2, -2]), max_size=max_size).map(GroupWord.from_letters)


@st.composite
def _adversarial_pairs(draw):
    """p x q and p y q^(+-1) sharing a prefix and a suffix, or an equal,
    inverse or identity pair."""

    p, x, y, q = draw(_words(4)), draw(_words(10)), draw(_words(10)), draw(_words(4))
    z = p * x * q
    kind = draw(st.sampled_from(["shared", "shared_inverse", "equal", "inverse", "identity"]))
    partner = {
        "shared": p * y * q,
        "shared_inverse": p * y * q.inverse(),
        "equal": z,
        "inverse": z.inverse(),
        "identity": GroupWord.identity(),
    }[kind]
    return (z, partner) if draw(st.booleans()) else (partner, z)


@seed(2022)
@settings(max_examples=300, deadline=None, database=None)
@given(_adversarial_pairs())
def test_certificate_implies_oracle_on_adversarial_pairs(pair):
    _certificate_is_sound(*pair)


@pytest.mark.parametrize("run", [
    lambda P: run_genericity(simple_rw(), P, [40], 10, seed=0, calibration=CAL),
    lambda P: run_discrepancy(simple_rw(), P, [40], 10, seed=0),
    lambda P: run_clt(simple_rw(), P, [40], 10, seed=0, calibration=CAL),
    lambda P: run_clt_converse(heavy_tail(kmax=16), P, [40, 80], 10, seed=0),
    lambda P: run_free_subgroup(simple_rw(), P, [10], 5, seed=0, calibration=CAL),
], ids=["genericity", "discrepancy", "clt", "clt_converse", "free_subgroup"])
def test_runners_refuse_the_plane(run):
    # the runners compute tree statistics only; a plane label would be false
    with pytest.raises(ConfigurationError):
        run(PlaneModel())


class TestReport:
    def test_json_shape(self):
        rep = run_genericity(simple_rw(), T, [40], 50, seed=2, calibration=CAL)
        text = rep.to_json()
        assert text.endswith("\n")
        data = json.loads(text)
        assert data["experiment"] == "genericity"
        assert isinstance(data["verdict"], bool)
        assert "samples" not in data  # samples go to the CSV, not the JSON

    def test_rerun_is_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "one", tmp_path / "two"
        for out in (out1, out2):
            rep = run_genericity(simple_rw(), T, [40, 80], 100, seed=9, calibration=CAL)
            rep.write(str(out))
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
        assert (out1 / "samples.csv").read_bytes() == (out2 / "samples.csv").read_bytes()

    def test_csv_has_header_and_rows(self, tmp_path):
        rep = run_genericity(simple_rw(), T, [40], 10, seed=2, calibration=CAL)
        rep.write(str(tmp_path))
        lines = (tmp_path / "samples.csv").read_text().strip().splitlines()
        assert lines[0] == "n,trial,disp,tau,fail"
        assert len(lines) == 11
        # rows (n, trial, ...) with the trials numbered from 0
        assert [line.split(",")[:2] for line in lines[1:]] == [["40", str(t)] for t in range(10)]
