"""Schottky block sets: construction, verification, products, serialization."""

import itertools
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, seed, settings, strategies as st

from pivotwalk import schottky
from pivotwalk.geometry import Path
from pivotwalk.words import GroupWord, common_prefix_letters, random_reduced_word, word_from_str
from pivotwalk.spaces import MatrixIsometry, PlaneModel, TreeModel
from pivotwalk.schottky import (
    SchottkySequence,
    SchottkySet,
    BudgetExhausted,
    verify_schottky,
    build_schottky,
    tree_schottky_set,
    inverse_set,
    phi_image,
    concat_check,
    in_tilde,
    tilde_pairs,
    schottky_to_json,
    schottky_from_json,
)

T = TreeModel()
o = GroupWord.identity()
a = GroupWord.from_letters([1])
b = GroupWord.from_letters([2])


def w(text):
    return word_from_str(text)


class TestSequence:
    def test_product_and_partials(self):
        seq = SchottkySequence((a, b, a))
        assert seq.product() == w("a b a")
        assert seq.axis.points == (o, w("a"), w("a b"), w("a b a"))
        assert len(seq) == 3

    def test_inverse_reverses_and_inverts(self):
        seq = SchottkySequence((a, b))
        inv = seq.inverse()
        assert inv.product() == w("a b").inverse()
        assert inv.steps == (b.inverse(), a.inverse())


class TestBuild:
    def test_small_set_verifies(self):
        sch = build_schottky(size=2, m0=5, seed=0)
        assert len(sch) == 2
        assert all(len(seq) == 5 for seq in sch.sequences)
        assert verify_schottky(sch) == []

    def test_step_scale_value(self):
        sch = build_schottky(size=2, m0=5)
        # min(m0/10, (m0 - 2(k0-1))/5) with k0=2
        assert sch.k0 == 2 and sch.e0 == pytest.approx(0.5)

    def test_short_blocks_rejected(self):
        with pytest.raises(ValueError):
            build_schottky(size=2, m0=4)  # at the floor, not above
        # 54 blocks need k0 = 4, so blocks of 2*4 - 1 = 7 steps or more
        with pytest.raises(ValueError, match="at least 7 steps"):
            build_schottky(size=54, m0=5)

    def test_sized_builder_scales_prefix_width(self):
        sch2 = tree_schottky_set(2)
        assert len(sch2) == 2 and sch2.k0 == 2 and sch2.m0 == 5
        sch100 = tree_schottky_set(100)
        # 4*3^(k0-1) >= 200 first at k0 = 5; m0 = 2*5 - 1
        assert len(sch100) == 100 and sch100.k0 == 5 and sch100.m0 == 9
        assert verify_schottky(sch100) == []

    @pytest.mark.parametrize("size", [2, 18, 100])
    def test_builder_picks_the_sized_prefix_width(self, size):
        sch = tree_schottky_set(size, seed=3)
        assert build_schottky(size, sch.m0, seed=3) == sch

    def test_k0_is_a_positive_whole_number(self):
        seqs = (SchottkySequence((a,) * 5),)
        assert type(SchottkySet(seqs, 3.0).k0) is int
        for bad in (0, -1, 2.5, True, "2", float("nan"), float("inf")):
            with pytest.raises(ValueError, match="k0"):
                SchottkySet(seqs, bad)

    def test_broken_set_detected(self):
        # two blocks sharing a leading letter pattern: general position fails
        bad = SchottkySet(
            sequences=(
                SchottkySequence((a,) * 5),
                SchottkySequence((a, a, b, a, b)),
            ),
            k0=2,
        )
        assert "general_position" in verify_schottky(bad)

    def test_cancelling_or_empty_family_refused(self):
        with pytest.raises(ValueError, match="cancel"):
            SchottkySet((SchottkySequence((a, a.inverse(), a, b, b)),), 2)
        with pytest.raises(ValueError, match="block"):
            SchottkySet((), 2)
        with pytest.raises(ValueError, match="block 1 has no steps"):
            SchottkySet((SchottkySequence((a,) * 5), SchottkySequence(())), 2)
        with pytest.raises(ValueError, match="block 1 has 6 steps, block 0 has 5"):
            SchottkySet((SchottkySequence((a,) * 5), SchottkySequence((b,) * 6)), 2)

    def test_nonpositive_length_unit_fails_length(self):
        # at k0 = 3, blocks of 4 steps give e0 = min(0.4, 0) = 0
        sch = SchottkySet((SchottkySequence((a, a, b, b)), SchottkySequence((b, a, a, b))), 3)
        assert sch.e0 == 0
        assert "length" in verify_schottky(sch)


def walked_geodesic(model, steps):
    """Whether the orbit o, s1 o, s1 s2 o, ... is a tree geodesic: its
    segments add up to the distance between its ends."""
    pts = [o]
    for s in steps:
        pts.append(pts[-1] * s)
    walked = sum(model.distance(p, q) for p, q in zip(pts, pts[1:]))
    return walked == model.distance(pts[0], pts[-1])


def reference_search(size, m0, seed=0, budget=200000):
    """The tree candidate search with every step spelled out: the prefix
    width k0 counted up from 2 until the 4 * 3^(k0-1) prefix classes hold
    two per block, one scalar draw per step from the letters a, b, A, B,
    then the walked axis, the displacement and the prefix rule.
    `build_schottky` must choose the same blocks."""

    pool = [a, b, a.inverse(), b.inverse()]
    rng = np.random.default_rng(seed)
    k0 = next(k for k in itertools.count(2) if 4 * 3 ** (k - 1) >= 2 * size)
    floor = 10 * min(m0 / 10, (m0 - 2 * (k0 - 1)) / 5)

    def candidates():
        if len(pool) ** m0 <= 4096:
            for combo in itertools.product(range(len(pool)), repeat=m0):
                yield [pool[i] for i in combo]
        while True:
            yield [pool[int(rng.integers(0, len(pool)))] for _ in range(m0)]

    chosen, used, tried = [], set(), 0
    for steps in candidates():
        if tried == budget:
            raise BudgetExhausted(
                "no Schottky set of size %d found after %d candidates" % (size, tried)
            )
        tried += 1
        seq = SchottkySequence(tuple(steps))
        word = seq.product()
        if not walked_geodesic(T, steps):
            continue
        if T.distance(o, word) < floor:
            continue
        fwd = tuple(word.prefix(k0).letters())
        bwd = tuple(word.inverse().prefix(k0).letters())
        if fwd == bwd or fwd in used or bwd in used:
            continue
        chosen.append(seq)
        used.update((fwd, bwd))
        if len(chosen) == size:
            return chosen


def search_outcome(search):
    """The blocks a search chooses, or the message it gives up with."""
    try:
        return list(search())
    except BudgetExhausted as exc:
        return str(exc)


class TestSearchMatchesReference:
    # the ids name the pool a, b (with inverses), then m0, size and seed
    @pytest.mark.parametrize("m0, size, seed", [(5, 2, 0), (5, 4, 0)], ids=["a-b-5-2-0", "a-b-5-4-0"])
    def test_chosen_blocks(self, m0, size, seed):
        sch = build_schottky(size=size, m0=m0, seed=seed)
        assert list(sch.sequences) == reference_search(size, m0, seed)

    def test_sized_set(self):
        sch = tree_schottky_set(100, seed=1)
        ref = reference_search(100, sch.m0, seed=1)
        assert list(sch.sequences) == ref

    def test_budget_message(self, monkeypatch):
        # the message counts the candidates tried, the whole budget; at
        # k0 = 3 the 8 blocks take more than 200 rows
        for budget in (200, 0):
            monkeypatch.setattr(schottky, "SEARCH_BUDGET", budget)
            with pytest.raises(BudgetExhausted) as ref:
                reference_search(8, 5, seed=0, budget=budget)
            with pytest.raises(BudgetExhausted) as got:
                build_schottky(size=8, m0=5, seed=0)
            assert str(got.value) == str(ref.value) == (
                "no Schottky set of size 8 found after %d candidates" % budget)


# m0 5-6 enumerates its 4^m0 rows before drawing, m0 7-9 draws from the
# start, 256 rows at a time; sizes 1-6 search at k0 = 2, sizes 7-18 at k0 = 3
@seed(2023)
@settings(max_examples=40, deadline=None, database=None)
@given(
    st.integers(5, 9),
    st.integers(1, 18),
    st.integers(0, 2 ** 16),
    st.integers(0, 1500),
)
@example(m0=6, size=18, rng_seed=0, budget=2500)  # gives up inside the enumeration
@example(m0=6, size=18, rng_seed=0, budget=4300)  # ... and inside the first draws
@example(m0=7, size=6, rng_seed=3, budget=612)  # gives up inside the third batch
@example(m0=7, size=6, rng_seed=3, budget=700)  # done at row 613, in that batch
@example(m0=8, size=10, rng_seed=5, budget=5000)  # done at row 155 of the first
def test_search_matches_reference(m0, size, rng_seed, budget):
    # hypothesis refuses function-scoped fixtures, so no monkeypatch
    with mock.patch.object(schottky, "SEARCH_BUDGET", budget):
        got = search_outcome(lambda: build_schottky(size, m0, seed=rng_seed).sequences)
    assert got == search_outcome(lambda: reference_search(size, m0, seed=rng_seed, budget=budget))


_pools = st.lists(
    st.lists(st.sampled_from([1, -1, 2, -2]), max_size=4).map(GroupWord.from_letters),
    min_size=1,
    max_size=4,
)


@seed(2022)
@settings(max_examples=300, deadline=None, database=None)
@given(_pools, st.lists(st.integers(0, 3), min_size=1, max_size=8))
def test_length_identity_is_walked_geodesy(pool, picks):
    steps = [pool[i % len(pool)] for i in picks]
    seq = SchottkySequence(tuple(steps))
    flat = GroupWord.from_syllables(itertools.chain.from_iterable(s.syls for s in steps))
    assert flat == seq.product()
    assert (len(flat) == sum(len(s) for s in steps)) == walked_geodesic(T, steps)


def brute_general_position(sch, radius):
    """Property (4), counting blocks per point of the ball."""
    k0 = sch.k0
    prefixes = [(p.prefix(k0), p.inverse().prefix(k0)) for p in sch.products()]
    for x in TreeModel().ball(radius):
        fails = sum(
            1
            for fp, bp in prefixes
            if common_prefix_letters(x, fp) >= k0 or common_prefix_letters(x, bp) >= k0
        )
        if fails > 1:
            return False
    return True


class TestGeneralPositionTable:
    @pytest.mark.parametrize(
        "blocks, k0, ok",
        [
            (["a a a a a", "a a b a b"], 2, False),  # both start with a a
            (["a b a B A"], 2, True),  # forward and backward prefix are both a b
            (["a a a a a", "a a a a b"], 6, True),  # both are shorter than k0
            (["a b a b a", "b a b a b", "A B a b a"], 2, False),  # A B twice
        ],
    )
    def test_matches_brute_force(self, blocks, k0, ok):
        seqs = tuple(SchottkySequence(tuple(w(c) for c in t.split())) for t in blocks)
        sch = SchottkySet(seqs, k0)
        # the probe ball has radius m0 + 5 = 10; a witness has k0 <= 7
        # letters, so the radius-7 ball holds one if the probe ball does
        ref_ok = brute_general_position(sch, 7)
        assert ("general_position" not in verify_schottky(sch), ref_ok) == (ok, ok)


def letter_blocks(*blocks):
    """Blocks of one letter per step, from lists of signed generator indices."""
    return tuple(SchottkySequence(tuple(GroupWord.from_letters([x]) for x in letters)) for letters in blocks)


def test_heads_past_a_and_b_decide_general_position():
    # both blocks start with a c; a point starting with a c is badly aligned
    # with both, though no scan of the ball of a and b meets it
    sch = SchottkySet(letter_blocks([1, 3, 1, 3, 1], [1, 3, -1, 3, 1]), 2)
    assert verify_schottky(sch) == ["general_position"]


@pytest.mark.parametrize("text, size, k0, failed", [
    # w and w^-1 share 2 < k0 letters, yet the axis is not aligned with its
    # translate: projections snap to the axis's samples, one a step
    ("A b^3 a^2 B^2 a^2 B A^2 B a", 3, 3, ["self_alignment"]),
    # w and w^-1 share 2 = k0 letters, yet the axis is aligned with its translate
    ("b A^2 b a B a B^2 A B A B^2 a b^2 A b A b A B a^2 b A b a B", 6, 2, []),
])
def test_heads_do_not_decide_self_alignment_of_long_steps(text, size, k0, failed):
    # a one-block set of five steps of `size` letters each
    letters = list(w(text).letters())
    seq = SchottkySequence(tuple(GroupWord.from_letters(letters[i:i + size]) for i in range(0, len(letters), size)))
    product = seq.product()
    assert (len(seq), len(product)) == (5, 5 * size)
    # the head rule would pass the block iff w and w^-1 share fewer than k0 letters
    head_rule_passes = common_prefix_letters(product, product.inverse()) < k0
    assert verify_schottky(SchottkySet((seq,), k0)) == failed
    assert head_rule_passes == bool(failed)


def _reduced_letters(size):
    """Reduced spellings over a, b of `size` letters: each choice picks one
    of the letters that do not cancel the one before."""
    def spell(choices):
        letters = []
        for i in choices:
            options = [l for l in (1, -1, 2, -2) if not letters or l != -letters[-1]]
            letters.append(options[i % len(options)])
        return letters
    return st.lists(st.integers(0, 3), min_size=size, max_size=size).map(spell)


_letter_sets = st.integers(3, 8).flatmap(lambda m0: st.lists(_reduced_letters(m0), min_size=2, max_size=5))


@seed(2022)
@settings(max_examples=300, deadline=None, database=None)
@given(_letter_sets, st.integers(2, 4))
def test_head_table_matches_brute_force(blocks, k0):
    sch = SchottkySet(letter_blocks(*blocks), k0)
    # a witness point has k0 letters, so the k0-ball holds one if any does
    assert ("general_position" not in verify_schottky(sch)) == brute_general_position(sch, k0)
    table, fwd, bwd = sch.heads
    products = sch.products()
    heads = [p.prefix(k0) for p in products] + [p.inverse().prefix(k0) for p in products]
    ids = fwd.tolist() + bwd.tolist()
    assert len(table) == len({h for h in heads if len(h) == k0})
    for (x, i), (y, j) in itertools.product(zip(heads, ids), repeat=2):
        if len(x) < k0:
            assert i == -2
        elif len(y) == k0:
            assert (i == j) == (x == y)


def test_tree_independence_is_non_commutation():
    # a conjugate of a that does not commute with it has another axis
    assert T.independent(a, word_from_str("B a b"))
    assert not T.independent(a, word_from_str("a a"))
    assert not T.independent(word_from_str("a b"), word_from_str("a b a b"))
    assert not T.independent(a, GroupWord.identity())


class TestPlaneIndependence:
    def test_shared_fixed_point_rejected(self):
        # both fix infinity, yet conjugating h by g does not give h back; a
        # discrete group has no integral hyperbolic pair with exactly one
        # common fixed point, so the entries are fractions
        g = MatrixIsometry(2, 0, 0, Fraction(1, 2))
        h = MatrixIsometry(2, 1, 0, Fraction(1, 2))
        assert not PlaneModel().independent(g, h)

    def test_sanov_pair(self):
        P = PlaneModel()
        A, B = P.matrix_for_word(word_from_str("a")), P.matrix_for_word(word_from_str("b"))
        # the Sanov generators are parabolic, so not contracting; their
        # products a b and b a are hyperbolic with distinct axes
        assert not P.independent(A, B)
        assert P.independent(A * B, B * A)
        assert not P.independent(A * B, A * B * A * B)


class TestAxes:
    def test_axis_endpoints_and_geodesy(self):
        sch = build_schottky(size=2, m0=5)
        seq = sch.sequences[0]
        axis = seq.axis
        assert axis.start == o
        assert axis.end == seq.product()
        assert len(axis) == 6
        # block words are reduced, so the orbit path is geodesic
        assert T.distance(axis.start, axis.end) == 5

    def test_axis_respects_frame(self):
        sch = build_schottky(size=2, m0=5)
        axis = sch.sequences[1].axis.translate(w("b a"))
        assert axis.start == w("b a")
        assert axis.end == w("b a") * sch.sequences[1].product()
        # the translate keeps the offsets a fresh path sums
        assert axis.tree_offsets == Path(axis.points).tree_offsets == [0, 1, 2, 3, 4, 5]


class TestProducts:
    def setup_method(self):
        self.sch = build_schottky(size=2, m0=5)

    def test_four_block_map_is_injective(self):
        img = phi_image(self.sch)
        assert len(set(img)) == len(img) == 16
        ps = self.sch.products()
        for (i, j, k, l), el in zip(itertools.product(range(2), repeat=4), img):
            assert ps[i] * ps[j] * ps[k] * ps[l] == el

    def test_forward_and_inverse_images_disjoint(self):
        fwd = phi_image(self.sch)
        back = phi_image(inverse_set(self.sch))
        assert not (set(fwd) & set(back))

    def test_budget_guard(self, monkeypatch):
        monkeypatch.setattr(schottky, "PHI_BUDGET", 10)
        with pytest.raises(BudgetExhausted):
            phi_image(self.sch)

    def test_inverse_set_products(self):
        ps = self.sch.products()
        qs = inverse_set(self.sch).products()
        assert qs == [p.inverse() for p in ps]


class TestConcat:
    def setup_method(self):
        self.sch = build_schottky(size=4, m0=5)

    def test_chain_progress_floor(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            k = int(rng.integers(2, 9))
            idx = [int(rng.integers(0, 4)) for _ in range(k)]
            sgn = [int(rng.integers(0, 2)) * 2 - 1 for _ in range(k)]
            for i in range(k - 1):  # avoid the excluded inverse-pair pattern
                if idx[i] == idx[i + 1] and sgn[i] * sgn[i + 1] == -1:
                    sgn[i + 1] = sgn[i]
            aligned, displacement = concat_check(self.sch, idx, sgn)
            assert aligned
            assert displacement >= 5.0 * self.sch.e0 * k

    def test_inverse_pair_pattern_rejected(self):
        with pytest.raises(ValueError):
            concat_check(self.sch, [0, 0], [1, -1])

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            concat_check(self.sch, [0, 1], [1])
        with pytest.raises(ValueError):
            concat_check(self.sch, [0], [2])

    def test_product_matches_block_words(self):
        _, displacement = concat_check(self.sch, [0, 1], [1, 1])
        ps = self.sch.products()
        assert displacement == len(ps[0] * ps[1])


class TestTilde:
    def test_admissible_middle_count(self):
        sch = build_schottky(size=4, m0=5)
        n = len(sch)
        rng = np.random.default_rng(2)
        for _ in range(20):
            v = random_reduced_word(rng, int(rng.integers(0, 4)))
            pairs = tilde_pairs(sch, v)
            assert len(pairs) >= n * n - 2 * n
            for bi, ci in pairs:
                assert in_tilde(sch, bi, ci, v)


class TestSerialization:
    def test_json_roundtrip(self):
        sch = build_schottky(size=3, m0=5, seed=4)
        back = schottky_from_json(schottky_to_json(sch))
        assert (back.m0, back.k0, back.e0) == (sch.m0, sch.k0, sch.e0)
        assert [s.product() for s in back.sequences] == sch.products()
        assert verify_schottky(back) == []
