"""Model spaces: the 4-regular tree and the hyperbolic upper half-plane."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from pivotwalk.spaces import MatrixIsometry, PlaneModel, TreeModel, model_by_name
from pivotwalk.words import GroupWord, random_reduced_word, tree_geodesic, word_from_str

W = word_from_str


class TestTree:
    def setup_method(self):
        self.T = TreeModel()

    def test_ball_sizes(self):
        # 4 * 3^(r-1) new points per shell: 1, 5, 17, 53, 161
        for r, expect in [(0, 1), (1, 5), (2, 17), (3, 53), (4, 161)]:
            assert sum(1 for _ in self.T.ball(r)) == expect

    def test_geodesic_endpoints_and_length(self):
        p, q = W("aab"), W("bA")
        geo = tree_geodesic(p, q)
        assert geo[0] == p and geo[-1] == q
        assert len(geo) == self.T.distance(p, q) + 1
        for i in range(len(geo) - 1):
            assert self.T.distance(geo[i], geo[i + 1]) == 1

    def test_contracting_iff_nontrivial(self):
        assert self.T.is_contracting_isometry(W("ab"))
        assert not self.T.is_contracting_isometry(GroupWord.identity())

    def test_apply_is_isometric(self):
        g = W("abB" "a")
        p, q = W("ba"), W("Ab")
        assert self.T.distance(g * p, g * q) == self.T.distance(p, q)


class TestPlane:
    def setup_method(self):
        self.P = PlaneModel()

    def test_parabolic_has_zero_translation_length(self):
        assert not self.P.is_contracting_isometry(MatrixIsometry(1, 2, 0, 1))

    def test_long_word_is_contracting(self):
        # |tr| > 2 read on the exact trace: this 2,500-letter word's trace
        # has 700 digits, far past any float
        g = self.P.matrix_for_word(random_reduced_word(np.random.default_rng(0), 2500))
        assert self.P.is_contracting_isometry(g)

    def test_matrix_for_word_is_homomorphism(self):
        u, v = W("ab"), W("Ba")
        left = self.P.matrix_for_word(u * v)
        right = self.P.matrix_for_word(u) * self.P.matrix_for_word(v)
        assert left == right


def test_matrix_isometry_algebra():
    m = MatrixIsometry(1, 2, 0, 1)
    assert (m * m.inverse()).is_identity()
    # PSL: -M is M, stored with a > 0 (or a == 0 and b > 0)
    assert MatrixIsometry(-1, -2, 0, -1) == m
    assert (MatrixIsometry(0, -1, 1, 0).a, MatrixIsometry(0, -1, 1, 0).b) == (0, 1)
    assert MatrixIsometry(-1, 0, 0, -1).is_identity()


@pytest.mark.parametrize("entries", [(1, 2, 0, 2), (2, 0, 0, 2), (0, 0, 0, 0), (1, 1, 1, 0)])
def test_matrix_isometry_refuses_determinant_not_one(entries):
    with pytest.raises(ValueError):
        MatrixIsometry(*entries)


def test_matrix_isometry_refuses_float_entries():
    with pytest.raises(TypeError):
        MatrixIsometry(1.0, 2.0, 0.0, 1.0)
    half = Fraction(1, 2)
    assert MatrixIsometry(2, 1, 0, half).trace() == Fraction(5, 2)


def _reduced_words(max_len):
    """Reduced words of up to `max_len` letters: a first letter, then at
    every step one of the three letters that do not cancel the last."""

    def build(first, turns):
        letters = [first]
        for t in turns:
            options = [l for l in (1, -1, 2, -2) if l != -letters[-1]]
            letters.append(options[t])
        return GroupWord.from_letters(letters)

    return st.one_of(
        st.just(GroupWord.identity()),
        st.builds(build, st.sampled_from([1, -1, 2, -2]),
                  st.lists(st.integers(0, 2), max_size=max_len - 1)),
    )


_words = _reduced_words(60)
_P = PlaneModel()
_exact = settings(max_examples=200, deadline=None, database=None)


@seed(2022)
@_exact
@given(_words, _words)
def test_sanov_map_is_a_homomorphism(u, v):
    assert _P.matrix_for_word(u * v) == _P.matrix_for_word(u) * _P.matrix_for_word(v)


@seed(2022)
@_exact
@given(_words, _words)
def test_abs_trace_is_conjugation_invariant(w, u):
    g, h = _P.matrix_for_word(w), _P.matrix_for_word(u)
    assert abs((h * g * h.inverse()).trace()) == abs(g.trace())
    assert abs(_P.matrix_for_word(u * w * u.inverse()).trace()) == abs(g.trace())


@seed(2022)
@_exact
@given(_words, st.sampled_from([1, 2]), st.integers(-60, 60).filter(bool))
def test_generator_powers_are_parabolic(u, gen, k):
    # a nonzero power of a Sanov generator, and every conjugate of one, has
    # |trace| exactly 2: parabolic, translation length 0
    power = GroupWord.generator(gen, k)
    assert abs(_P.matrix_for_word(power).trace()) == 2
    conj = _P.matrix_for_word(u * power * u.inverse())
    assert abs(conj.trace()) == 2
    assert not _P.is_contracting_isometry(conj)


@seed(2022)
@_exact
@given(_words)
def test_identity_iff_trivial_word(w):
    # the Sanov pair generates a free group, so only the trivial word maps
    # to the identity
    assert _P.matrix_for_word(w).is_identity() == w.is_identity()
    assert (_P.matrix_for_word(w) * _P.matrix_for_word(w.inverse())).is_identity()


# the Sanov generators and their inverses, one letter each
_LETTERS = {1: MatrixIsometry(1, 2, 0, 1), -1: MatrixIsometry(1, -2, 0, 1),
            2: MatrixIsometry(1, 0, 2, 1), -2: MatrixIsometry(1, 0, -2, 1)}


@seed(2022)
@_exact
@given(st.lists(st.tuples(st.sampled_from([1, 2]), st.integers(-40, 40)), max_size=12))
def test_sanov_map_is_the_product_of_its_letters(pairs):
    # the closed form per syllable against one matrix product per letter,
    # on syllable words with powers up to 40 (zero powers and merges included)
    word = GroupWord.from_syllables(pairs)
    want = MatrixIsometry(1, 0, 0, 1)
    for letter in word.letters():
        want = want * _LETTERS[letter]
    assert _P.matrix_for_word(word) == want


def test_sanov_map_refuses_a_third_generator():
    with pytest.raises(ValueError, match="generator 3"):
        _P.matrix_for_word(GroupWord.from_syllables([(1, 2), (3, 1)]))


def _chebyshev_at_3(k):
    """T_k(3) = cosh(k acosh 3), exactly: T_0 = 1, T_1 = 3, T_{j+1} = 6 T_j - T_{j-1}."""
    lo, hi = 1, 3
    for _ in range(k):
        lo, hi = hi, 6 * hi - lo
    return lo


@pytest.mark.parametrize("length", [30, 40, 60, 80])
def test_matrix_for_word_long_words(length):
    # the exact integers hold at every length.  The bound d(i, g i) <=
    # acosh(3) |w| is the Sanov generators' own displacement, d(i, a i) =
    # acosh(3); with cosh d(i, g i) = (a^2 + b^2 + c^2 + d^2) / 2 (Beardon
    # 1983) it reads a^2 + b^2 + c^2 + d^2 <= 2 T_|w|(3), in integers
    rng = np.random.default_rng(length)
    for _ in range(100):
        word = random_reduced_word(rng, length)
        g = _P.matrix_for_word(word)
        assert not g.is_identity()
        assert g.a ** 2 + g.b ** 2 + g.c ** 2 + g.d ** 2 <= 2 * _chebyshev_at_3(length)


def test_model_by_name():
    assert model_by_name("tree").kind == model_by_name("tree2").kind == "tree"
    assert model_by_name("plane").kind == "plane"
    # the tree is F2's alone: another rank names no model
    for name in ("cube", "tree1", "tree3", "tree7"):
        with pytest.raises(ValueError, match="unknown model"):
            model_by_name(name)
