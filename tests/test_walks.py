"""Step measures, walk sampling and deviation witnesses."""

import json
from typing import List

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from pivotwalk import walks
from pivotwalk.geometry import Path, is_aligned
from pivotwalk.verifier import non_elementary, tree_walk_ensemble
from pivotwalk.words import GroupWord, partial_products, word_from_str, word_to_str
from pivotwalk.spaces import TreeModel
from pivotwalk.schottky import D1, SchottkySet, build_schottky, tree_schottky_set
from pivotwalk.walks import (
    GUIDE_BITS,
    StepMeasure,
    simple_rw,
    heavy_tail,
    walk_product,
    deviation,
    discrepancy_bound_witness,
    DiscrepancyWitness,
)

from test_verifier import reference_ensemble

T = TreeModel()
a = GroupWord.from_letters([1])
b = GroupWord.from_letters([2])
SCH = build_schottky(size=2, m0=5)
# the `measure` field of `run --experiment clt-converse --measure heavy`'s
# report.json before heavy-tail descriptors dropped their rank
OLD_HEAVY_DESCRIPTOR = ('{"eta": 1.1, "kmax": 65536, "moment_profile": "heavy_tail", "rank": 2, '
                        '"weights_sha256": "561389ee7edc8e8b159721f9c7904ade558894d64ea840b379169dc6fdceac43"}')


def w(text):
    return word_from_str(text)


class TestStepMeasure:
    def test_validation(self):
        with pytest.raises(ValueError):
            StepMeasure((a, b), (1.0,))
        with pytest.raises(ValueError):
            StepMeasure((a, b), (0.6, 0.6))
        with pytest.raises(ValueError):
            StepMeasure((a, b), (1.5, -0.5))

    def test_simple_rw(self):
        mu = simple_rw()
        assert mu.support == (a, a.inverse(), b, b.inverse())
        assert mu.weights.tolist() == [0.25] * 4

    def test_heavy_tail_profile(self):
        mu = heavy_tail(eta=1.1, kmax=64)
        assert mu.moment_profile == "heavy_tail"
        assert sum(mu.weights) == pytest.approx(1.0)
        # power-law decay of the k-th power mass
        assert (mu.atom(0), mu.atom(4)) == (a, w("a^2"))
        assert mu.weights[4] / mu.weights[0] == pytest.approx(2 ** -2.1, rel=1e-9)
        with pytest.raises(ValueError):
            heavy_tail(eta=0.0)

    def test_json_roundtrip(self):
        mu = heavy_tail(eta=1.5, kmax=8)
        back = StepMeasure.from_json(mu.to_json())
        assert back == mu
        assert json.loads(mu.to_json())["moment_profile"] == "heavy_tail"

    def test_explicit_json_roundtrip(self):
        mu = StepMeasure((w("a b"), a, a.inverse(), b, b.inverse()), (0.5, 0.125, 0.125, 0.125, 0.125))
        text = mu.to_json()
        assert set(json.loads(text)) == {"moment_profile", "support", "weights"}
        assert StepMeasure.from_json(text) == mu


def reference_heavy_tail(eta: float = 1.1, kmax: int = 65536) -> StepMeasure:
    """Power-tail measure on generator powers: the mass of a ±k-th power
    decays like k^-(1+eta), so eta in (1, 2) gives finite mean displacement
    with infinite variance (truncated at kmax; truncation is disclosed by
    the callers' reports)."""

    if eta <= 0:
        raise ValueError("eta must be positive")
    raw = [(k + 1) ** -(1.0 + eta) for k in range(kmax)]
    z = sum(raw) * 4
    support: List[GroupWord] = []
    weights: List[float] = []
    for k in range(1, kmax + 1):
        for g in (1, 2):
            for sign in (1, -1):
                support.append(GroupWord.generator(g, sign * k))
                weights.append(raw[k - 1] / z)
    weights[-1] += 1.0 - sum(weights)  # pin rounding onto the lightest atom
    return StepMeasure(tuple(support), tuple(weights), "heavy_tail")


def _draw_matches_choice(mu, shape, rng_seed):
    got_rng, want_rng = np.random.default_rng(rng_seed), np.random.default_rng(rng_seed)
    got = mu.draw(got_rng, shape)
    want = want_rng.choice(len(mu.weights), size=shape, p=mu.weights)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    # the same uniforms were taken
    assert got_rng.random() == want_rng.random()


def _law(weights):
    """A law on the powers a, a^2, ... with these weights."""
    return StepMeasure([GroupWord.generator(1, k + 1) for k in range(len(weights))], weights)


@st.composite
def _integer_laws(draw):
    """Laws on 1 to 2 * GUIDE_BITS + 5 atoms, so guide tables of 4 to 256
    buckets, with any weight possibly zero."""

    weights = draw(st.lists(st.integers(0, 5), min_size=1, max_size=2 * GUIDE_BITS + 5).filter(any))
    return _law([x / sum(weights) for x in weights])


@seed(2022)
@settings(max_examples=300, deadline=None, database=None)
@given(_integer_laws(),
       st.one_of(st.integers(0, 60), st.tuples(st.integers(0, 9), st.integers(0, 9))),
       st.integers(0, 2 ** 32 - 1))
def test_draw_is_rng_choice(mu, shape, rng_seed):
    _draw_matches_choice(mu, shape, rng_seed)


@pytest.mark.parametrize("make", [simple_rw, heavy_tail], ids=["simple", "heavy"])
@pytest.mark.parametrize("shape", [1000, (40, 300)], ids=["1d", "2d"])
def test_draw_is_rng_choice_on_the_runners_laws(make, shape):
    mu = make()
    for rng_seed in range(3):
        _draw_matches_choice(mu, shape, rng_seed)


def _generator_at(u):
    """A generator whose first uniform is exactly u, a multiple of 2^-53:
    an SFC64 state (a, 0, 0, 0) first yields a, and `random` returns its top
    53 bits over 2^53."""

    bits = np.random.SFC64()
    state = bits.state
    state["state"]["state"] = np.array([int(u * 2 ** 53) << 11, 0, 0, 0], dtype=np.uint64)
    bits.state = state
    return np.random.Generator(bits)


@pytest.mark.parametrize("weights", [
    [0.0, 0.25, 0.0, 0.25, 0.5],
    [0.0, 0.0, 1.0],
    [1 / 64] * 24 + [0.0] * 3 + [1 / 64] * 40,
    # 3/64 lies inside the first of 16 guide buckets, so it is searched for
    [3 / 64, 0.0, 5 / 64, 7 / 8],
], ids=["short", "leading-zeros", "past-head", "marked"])
def test_draw_breaks_ties_as_rng_choice(weights):
    # a uniform equal to a cdf entry counts that entry, one just below does not
    mu = _law(weights)
    cdf = np.cumsum(weights)
    for u in sorted({0.0, *cdf[:-1].tolist(), *(cdf[cdf > 0] - 2 ** -53).tolist()}):
        got, want = mu.draw(_generator_at(u), 1), _generator_at(u).choice(len(weights), size=1, p=mu.weights)
        assert got.tolist() == want.tolist(), u


@pytest.mark.parametrize("weights", [
    [0.1, 0.0, 0.3, 0.05, 0.55],
    # cdf entries 1/4, 3/8, 3/8 and 1, on bucket edges
    [0.25, 0.125, 0.0, 0.625],
    [0.25] * 4,
    [1 / 3] * 3,
], ids=["uneven", "on-edges", "simple", "thirds"])
def test_draw_at_every_bucket_edge(weights):
    # a uniform at a bucket's lower edge and one just below it
    mu = _law(weights)
    buckets = len(mu._guide[1])
    assert buckets == 4 << (len(weights) - 1).bit_length()
    edges = np.arange(buckets + 1) / buckets
    for u in sorted({*edges[:-1].tolist(), *(edges[1:] - 2 ** -53).tolist()}):
        got, want = mu.draw(_generator_at(u), 1), _generator_at(u).choice(len(weights), size=1, p=mu.weights)
        assert got.tolist() == want.tolist(), u


def test_equal_weights_mark_no_bucket():
    # a cdf entry on a bucket's upper edge belongs to the next bucket
    for mu in (simple_rw(), _law([0.5, 0.5]), _law([0.125] * 8)):
        assert not mu._guide[2] and (mu._guide[1] >= 0).all()


@pytest.mark.parametrize("chunk", [1, 7])
@pytest.mark.parametrize("bits", [np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64],
                         ids=lambda bits: bits.__name__)
def test_draw_in_chunks(monkeypatch, chunk, bits):
    # each chunk goes on with the stream where the last one stopped
    monkeypatch.setattr(walks, "DRAW_CHUNK", chunk)
    laws = [simple_rw(), heavy_tail(kmax=16), _law([0.1, 0.0, 0.3, 0.05, 0.55])]
    for mu in laws:
        for shape in (chunk, 3 * chunk + 2, (4, 5), (2, 3, 7)):
            got_rng, want_rng = np.random.Generator(bits(5)), np.random.Generator(bits(5))
            got = mu.draw(got_rng, shape)
            want = want_rng.choice(len(mu.weights), size=shape, p=mu.weights)
            assert got.dtype == want.dtype and np.array_equal(got, want)
            assert got_rng.bit_generator.random_raw(3).tolist() == want_rng.bit_generator.random_raw(3).tolist()


def test_draw_with_more_atoms_than_buckets():
    # 100,000 atoms with runs of zero weights and clusters of tiny ones, so
    # that a table of 2^GUIDE_BITS buckets marks most of its buckets
    rng = np.random.default_rng(7)
    weights = rng.random(100_000)
    starts = rng.integers(0, 99_000, 40)[:, None] + np.arange(1000)
    weights[starts[:20]] = 0.0
    weights[starts[20:]] = 1e-12
    mu = _law(weights / weights.sum())
    guide = mu._guide[1]
    assert len(guide) == 2 ** GUIDE_BITS < len(weights) and (guide < 0).mean() > 0.5
    for rng_seed in range(3):
        _draw_matches_choice(mu, (50, 2000), rng_seed)


@pytest.fixture(scope="module", params=[1, 16, 65536, 5], ids=lambda kmax: "kmax%d-rank2" % kmax)
def heavy_pair(request):
    return heavy_tail(kmax=request.param), reference_heavy_tail(kmax=request.param)


class TestHeavyTailAgainstReference:
    def test_weights_bit_equal(self, heavy_pair):
        mu, ref = heavy_pair
        assert np.array_equal(mu.weights, np.asarray(ref.weights))
        assert mu.weights.tobytes() == np.asarray(ref.weights).tobytes()

    def test_samples_and_masses_equal(self, heavy_pair):
        mu, ref = heavy_pair
        for seed in range(3):
            assert mu.sample(np.random.default_rng(seed), 200) == \
                ref.sample(np.random.default_rng(seed), 200)
        assert all(map(np.array_equal, mu.table, ref.table))

    def test_ensembles_equal(self, heavy_pair):
        mu, ref = heavy_pair
        for seed in range(3):
            fast, want = (tree_walk_ensemble(m, 30, 40, np.random.default_rng(seed)) for m in (mu, ref))
            slow, slow_ref = (reference_ensemble(m, 30, 40, np.random.default_rng(seed)) for m in (mu, ref))
            for got in (fast, slow, slow_ref):
                assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


# the ids name kmax and the rank, 2
@pytest.mark.parametrize("kmax", [16, 5], ids=lambda kmax: "%d-2" % kmax)
def test_old_explicit_file_draws_the_same_walks(kmax):
    ref = reference_heavy_tail(kmax=kmax)
    old = json.dumps({"moment_profile": "heavy_tail",
                      "support": [word_to_str(s) for s in ref.support],
                      "weights": list(ref.weights)}, sort_keys=True)
    back = StepMeasure.from_json(old)
    assert back.params is None and back.moment_profile == "heavy_tail"
    for seed in range(3):
        got = tree_walk_ensemble(back, 25, 30, np.random.default_rng(seed))
        want = tree_walk_ensemble(heavy_tail(kmax=kmax), 25, 30, np.random.default_rng(seed))
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


class TestHeavyTailParameters:
    def test_builds_no_words(self, monkeypatch):
        built = []
        init = GroupWord.__init__
        monkeypatch.setattr(GroupWord, "__init__", lambda self, *args: built.append(1) or init(self, *args))
        mu = heavy_tail()
        assert not built
        assert len(mu.weights) == 4 * 65536
        assert len(mu.to_json()) < 400

    def test_sample_and_non_elementary_build_few_words(self, monkeypatch):
        mu = heavy_tail()
        built = []
        init = GroupWord.__init__
        monkeypatch.setattr(GroupWord, "__init__", lambda self, *args: built.append(1) or init(self, *args))
        assert len(mu.sample(np.random.default_rng(0), 10)) == 10
        assert len(built) <= 10
        assert non_elementary(mu, T)
        assert len(built) <= 30

    @pytest.mark.parametrize("kwargs, name", [
        ({"kmax": 0}, "kmax"), ({"kmax": -1}, "kmax"), ({"kmax": 2.5}, "kmax"),
        ({"kmax": True}, "kmax"), ({"eta": 0.0}, "eta"), ({"eta": float("nan")}, "eta"),
        ({"eta": float("inf")}, "eta"), ({"eta": -1.0}, "eta"),
    ])
    def test_bad_parameters_are_named(self, kwargs, name):
        with pytest.raises(ValueError, match=name):
            heavy_tail(**kwargs)

    @pytest.mark.parametrize("change", [
        {"eta": float("nan")}, {"kmax": 0}, {"kmax": 2.5}, {"rank": 0}, {"rank": "2"},
        {"weights_sha256": "0" * 64},
    ])
    def test_bad_descriptor_is_refused(self, change):
        data = dict(json.loads(heavy_tail(kmax=8).to_json()), **change)
        with pytest.raises(ValueError):
            StepMeasure.from_json(json.dumps(data))

    def test_descriptor_naming_rank_2_still_loads(self):
        old = json.loads(OLD_HEAVY_DESCRIPTOR)
        mu = StepMeasure.from_json(OLD_HEAVY_DESCRIPTOR)
        assert old["rank"] == 2 and mu == heavy_tail()
        for seed in range(2):
            got = tree_walk_ensemble(mu, 40, 30, np.random.default_rng(seed))
            want = tree_walk_ensemble(heavy_tail(), 40, 30, np.random.default_rng(seed))
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        for rank in (0, 3, "2"):
            with pytest.raises(ValueError, match="rank"):
                StepMeasure.from_json(json.dumps(dict(old, rank=rank)))

    def test_descriptor_needs_its_digest(self):
        data = json.loads(heavy_tail(kmax=8).to_json())
        del data["weights_sha256"]
        with pytest.raises(KeyError):
            StepMeasure.from_json(json.dumps(data))


class TestSampling:
    def test_path_shape_and_consistency(self):
        rng = np.random.default_rng(0)
        path = partial_products(simple_rw().sample(rng, 40))
        assert len(path) == 41
        assert path[0].is_identity()
        for prev, cur in zip(path, path[1:]):
            step = prev.inverse() * cur
            assert step in simple_rw().support

    def test_partial_products_hand(self):
        assert partial_products([a, b, a.inverse()]) == [
            GroupWord.identity(),
            a,
            w("a b"),
            w("a b A"),
        ]

    def test_increments_reproducible(self):
        mu = simple_rw()
        one = mu.sample(np.random.default_rng(7), 25)
        two = mu.sample(np.random.default_rng(7), 25)
        assert one == two


def reference_deviation(sch, check_incs, fwd_incs, horizon, mirrored=False):
    """d straight from the definition: the least k with a witness i <= k
    whose block axis separates every near-side point from every far-side
    point at or past k; horizon + 1 when there is none."""

    m0, d1 = sch.m0, D1
    blocks = {tuple(seq.steps) for seq in sch.sequences}
    fwd = partial_products(fwd_incs[:horizon])
    chk = partial_products(check_incs[:horizon])
    side_incs, side, near, far = (check_incs, chk, fwd, chk) if mirrored else (fwd_incs, fwd, chk, fwd)
    witnesses = []  # (i, whether each far point is aligned past the axis)
    for i in range(m0, horizon + 1):
        if tuple(side_incs[i - m0 : i]) not in blocks:
            continue
        axis = Path(tuple(side[i - m0 : i + 1]))  # a block's axis is a geodesic
        if all(is_aligned([x, axis], d1) for x in near):
            witnesses.append((i, [is_aligned([axis, x], d1) for x in far]))
    for k in range(m0, horizon + 1):
        for i, aligned in witnesses:
            if i <= k and all(aligned[k:]):
                return k
    return horizon + 1


def deviation_to(sch, back_incs, fwd_incs, horizon):
    """`deviation` of two sides of increments, each walked to `horizon`."""
    return deviation(sch, partial_products(back_incs[:horizon]), fwd_incs,
                     partial_products(fwd_incs[:horizon]))


class TestDeviation:
    @pytest.mark.parametrize("rng_seed", range(12))
    def test_matches_reference_on_folding_walks(self, rng_seed):
        sch = build_schottky(size=2, m0=10)
        rng = np.random.default_rng(rng_seed)

        def incs(count):
            # blocks, single letters, and retreats that come back, so that
            # several windows witness and a walk can fold back past one
            out = []
            while len(out) < count:
                pick = int(rng.integers(0, 4))
                if pick < 2:
                    out += sch.sequences[pick].steps
                elif pick == 2:
                    out += simple_rw().sample(rng, 1)
                else:
                    back = out[-int(rng.integers(1, 12)):]
                    out += [s.inverse() for s in reversed(back)] + back
            return out

        chk, fwd = incs(60), incs(60)
        # the backward side is the forward variable with the sides swapped
        for got, mirrored in ((deviation_to(sch, chk, fwd, 40), False), (deviation_to(sch, fwd, chk, 40), True)):
            assert got == reference_deviation(sch, chk, fwd, 40, mirrored)

    def test_straight_block_walk_has_minimal_deviation(self):
        blk0, blk1 = list(SCH.sequences[0].steps), list(SCH.sequences[1].steps)
        fwd = blk0 + blk1 + blk0
        chk = blk1 + blk0 + blk1
        assert deviation_to(SCH, chk, fwd, horizon=10) == SCH.m0
        assert deviation_to(SCH, fwd, chk, horizon=10) == SCH.m0

    def test_capped_when_no_block_spelled(self):
        rng = np.random.default_rng(1)
        incs = simple_rw().sample(rng, 20)
        assert deviation_to(SCH, incs, incs, horizon=10) == 11

    def test_horizon_validation(self):
        with pytest.raises(ValueError):
            deviation_to(SCH, [a] * 10, [a] * 10, horizon=SCH.m0 - 1)


class TestDiscrepancyWitness:
    def test_doubling_back_walk_has_zero_gap(self):
        # inverse-closed block fixture so both half-splits spell blocks
        sch = SchottkySet((SCH.sequences[0], SCH.sequences[0].inverse()), SCH.k0)
        blk = list(sch.sequences[0].steps)
        inv = [s.inverse() for s in reversed(blk)]
        g = blk * 6 + inv * 6  # returns to the start: displacement 0, length 0
        wit = discrepancy_bound_witness(sch, g)
        # the forward and backward deviations are 5, where each side has
        # spelled one block of 5 letters: both reaches are 5
        assert (wit.applicable, wit.lhs, wit.rhs) == (True, 0, 10)
        assert type(wit.rhs) is int

    def test_generic_walk_inapplicable_at_small_n(self):
        rng = np.random.default_rng(0)
        incs = simple_rw().sample(rng, 60)
        wit = discrepancy_bound_witness(SCH, incs)
        assert not wit.applicable
        assert wit.lhs is None and wit.rhs is None


def reference_witness(
    sch: SchottkySet,
    increments,
    aux,
    horizon: int,
) -> DiscrepancyWitness:
    """Both sides of the displacement-vs-translation-length gap bound.

    The trajectory is re-split at its midpoint into two forward/backward
    pairs (auxiliary fresh increments `aux` extend each piece past the
    data it owns); when all four deviation variables are below n/10 the
    bound gap <= 2 * min(forward, backward reach at the deviation time)
    must hold, with the translation length computed exactly.
    """

    n = len(increments)
    half = n // 2
    horizon = min(horizon, half)
    need = horizon + (n - half)
    if len(aux) < 2 * need:
        raise ValueError("need at least %d auxiliary increments" % (2 * need))
    aux_pos = list(aux[:need])
    aux_neg = list(aux[need : 2 * need])

    g = list(increments)
    fwd0 = g[:half] + aux_pos
    chk0 = [w.inverse() for w in reversed(g[half:])] + aux_neg
    fwd1 = g[half:] + aux_pos
    chk1 = [w.inverse() for w in reversed(g[:half])] + aux_neg

    d0 = reference_deviation(sch, chk0, fwd0, horizon)
    dc0 = reference_deviation(sch, fwd0, chk0, horizon)
    d1v = reference_deviation(sch, chk1, fwd1, horizon)
    dc1 = reference_deviation(sch, fwd1, chk1, horizon)
    if max(d0, dc0, d1v, dc1) >= n / 10:
        return DiscrepancyWitness(False, None, None)

    total = walk_product(g)
    lhs = len(total) - total.translation_length()
    # the reaches: displacements at the deviation times
    reach_f = len(walk_product(fwd0[:d0]))
    reach_b = len(walk_product(chk0[:dc0]))
    rhs = 2 * min(reach_f, reach_b)
    return DiscrepancyWitness(True, lhs, rhs)


WITNESS_SETS = {"tree18": lambda: tree_schottky_set(18, 0), "tree4": lambda: tree_schottky_set(4, 3),
                "built2x10": lambda: build_schottky(2, 10)}
# a law with two-letter atoms beside the simple walk
TWO_LETTER = StepMeasure([w("a b"), w("B A"), w("b A"), w("a B"), a], [0.2] * 5)


@pytest.mark.parametrize("law", [simple_rw, lambda: TWO_LETTER], ids=["simple", "two-letter"])
@pytest.mark.parametrize("set_name", WITNESS_SETS)
def test_witness_matches_reference(set_name, law):
    # walks that alternate whole blocks, forward or inverted, with runs of
    # steps of the law, longer for some seeds, so that some trials find a
    # witness on every side and some do not; `aux` is drawn from the walk's
    # generator after the walk, as the claim runner drew it
    sch, mu = WITNESS_SETS[set_name](), law()
    blocks = [seq.steps for seq in sch.sequences] + [seq.inverse().steps for seq in sch.sequences]
    outcomes = set()
    for n in (2 * sch.m0, 60, 101, 400, 1500):
        for rng_seed in range(6):
            rng = np.random.default_rng(rng_seed)
            incs = []
            while len(incs) < n:
                pick = int(rng.integers(0, 2 * len(blocks)))
                run = int(rng.integers(1, 2 + 4 * (rng_seed % 3)))
                incs += blocks[pick] if pick < len(blocks) else mu.sample(rng, run)
            incs = incs[:n]
            horizon = max(sch.m0, n // 10)
            aux = mu.sample(rng, 2 * (horizon + n - n // 2))
            got = discrepancy_bound_witness(sch, incs)
            assert got == reference_witness(sch, incs, aux, horizon), (n, rng_seed)
            outcomes.add(got.applicable)
    assert outcomes == {False, True}


def test_witness_stops_at_the_first_capped_deviation(monkeypatch):
    # a generic walk of 60 steps spells no block early enough: n/10 = 6
    found = []

    def counted(*args):
        found.append(deviation(*args))
        return found[-1]

    monkeypatch.setattr(walks, "deviation", counted)
    wit = discrepancy_bound_witness(SCH, simple_rw().sample(np.random.default_rng(0), 60))
    assert not wit.applicable and len(found) < 4
    assert found[-1] >= 6 and all(d < 6 for d in found[:-1])
