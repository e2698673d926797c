"""Exact word arithmetic.

Expected values are computed by hand or by independent brute force: the
translation length oracle multiplies the word with itself until per-power
displacement growth stabilizes, never touching the cyclic-reduction code
path it validates.
"""

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from pivotwalk.words import (
    GroupWord,
    common_prefix_letters,
    random_reduced_word,
    tree_distance,
    word_from_str,
    word_to_str,
)

W = word_from_str


def tau_oracle(w: GroupWord) -> int:
    # d(o, w^k o) is eventually k * tau + const; difference of consecutive
    # high powers gives tau exactly on the tree
    w8 = GroupWord.identity()
    for _ in range(8):
        w8 = w8 * w
    return len(w8 * w) - len(w8)


def test_normalization_hand_cases():
    assert word_to_str(W("a") * W("A")) == ""
    assert word_to_str(W("ab") * W("Ba")) == "a^2"
    assert len(W("abA") * W("aBA")) == 0  # full cancellation of inverses
    assert word_to_str(W("aa") * W("Ab")) == "a b"


def test_identity_and_inverse():
    w = W("abAB")
    assert (w * w.inverse()).is_identity()
    assert w.inverse().inverse() == w
    assert GroupWord.identity().is_identity()


def test_length_and_letters():
    w = W("aaBA")
    assert len(w) == 4
    assert list(w.letters()) == [1, 1, -2, -1]


def test_prefix_suffix():
    w = W("abaB")
    assert word_to_str(w.prefix(2)) == "a b"
    assert word_to_str(w.inverse().prefix(2).inverse()) == "a B"
    assert w.prefix(0).is_identity()
    assert w.prefix(10) == w


@pytest.mark.parametrize(
    "text,expected_tau",
    [
        ("ab", 2),       # cyclically reduced: tau = length
        ("abA", 1),      # conjugate of b
        ("abbA", 2),     # conjugate of bb
        ("aBAb", 4),     # commutator, cyclically reduced
        ("aa", 2),
        ("aBa", 3),      # already cyclically reduced
    ],
)
def test_translation_length_hand_values(text, expected_tau):
    w = W(text)
    assert w.translation_length() == expected_tau
    assert tau_oracle(w) == expected_tau


def test_translation_length_conjugation_invariant():
    rng = np.random.default_rng(7)
    for _ in range(50):
        w = random_reduced_word(rng, int(rng.integers(0, 9)))
        h = random_reduced_word(rng, int(rng.integers(0, 9)))
        assert (h * w * h.inverse()).translation_length() == w.translation_length()


def test_cyclic_reduce():
    assert word_to_str(W("abA").cyclic_reduce()) == "b"
    assert word_to_str(W("aBAb").cyclic_reduce()) == "a B A b"
    assert W("aA").cyclic_reduce().is_identity()


def test_common_prefix_letters():
    assert common_prefix_letters(W("abab"), W("abba")) == 2
    assert common_prefix_letters(W("ab"), W("Ab")) == 0
    assert common_prefix_letters(W("aaab"), W("aa")) == 2
    assert common_prefix_letters(W(""), W("a")) == 0


def test_tree_distance_is_metric_and_invariant():
    rng = np.random.default_rng(3)
    pts = [random_reduced_word(rng, int(rng.integers(0, 8))) for _ in range(12)]
    g = random_reduced_word(rng, 5)
    for x in pts:
        assert tree_distance(x, x) == 0
        for y in pts:
            assert tree_distance(x, y) == tree_distance(y, x)
            assert tree_distance(g * x, g * y) == tree_distance(x, y)
            for z in pts:
                assert tree_distance(x, z) <= tree_distance(x, y) + tree_distance(y, z)


def test_word_str_roundtrip():
    rng = np.random.default_rng(11)
    for _ in range(100):
        w = random_reduced_word(rng, int(rng.integers(0, 12)))
        assert word_from_str(word_to_str(w)) == w


def test_random_reduced_word_is_reduced():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(0, 20))
        w = random_reduced_word(rng, n)
        assert len(w) == n
        letters = list(w.letters())
        assert all(letters[i] != -letters[i + 1] for i in range(len(letters) - 1))


# word kernel against independent routes: syllable lists over three
# generators, exponents in [-3, 3] (zero included), fixed example stream
_syllables = st.lists(st.tuples(st.integers(1, 3), st.integers(-3, 3)), max_size=12)
_kernel = settings(max_examples=300, deadline=None, database=None)


@seed(2022)
@_kernel
@given(_syllables)
def test_from_syllables_is_product_of_powers(pairs):
    acc = GroupWord.identity()
    for gen, exp in pairs:
        acc = acc * GroupWord.generator(gen, exp)
    assert GroupWord.from_syllables(pairs) == acc


@seed(2022)
@_kernel
@given(_syllables)
def test_cyclic_reduce_is_shortest_rotation(pairs):
    word = GroupWord.from_syllables(pairs)
    letters = list(word.letters())
    core = list(word.cyclic_reduce().letters())
    if core:
        assert core[0] != -core[-1]
    rotations = [GroupWord.from_letters(letters[i:] + letters[:i]) for i in range(len(letters))]
    assert len(core) == min((len(r) for r in rotations), default=0)


@seed(2022)
@_kernel
@given(_syllables, st.integers(0, 40))
def test_suffix_is_last_letters(pairs, count):
    word = GroupWord.from_syllables(pairs)
    letters = list(word.letters())
    # the last letters of a word are the inverse of its inverse's first letters
    suffix = word.inverse().prefix(count).inverse()
    assert suffix == GroupWord.from_letters(letters[max(0, len(letters) - count):])
