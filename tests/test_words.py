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
    SyllableStack,
    common_prefix_letters,
    random_reduced_word,
    row_words,
    syllable_table,
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


# stacks against word folds: rows of atom indices pushed onto a stack, and
# the same atoms multiplied one GroupWord at a time


def _stack_and_folds(atoms, rows):
    """A stack of `rows` (lists of atom indices, all one length) pushed
    onto identities, and each row's product of its atoms as a word."""

    stack = SyllableStack.identities(syllable_table(atoms), len(rows), len(rows[0]))
    stack.push(np.array(rows, dtype=np.int64))
    folds = []
    for row in rows:
        acc = GroupWord.identity()
        for i in row:
            acc = acc * atoms[i]
        folds.append(acc)
    return stack, folds


@st.composite
def _stacked_rows(draw):
    """Up to 4 atoms of 1 to 4 syllables and their inverses, and rows of
    their indices.  A row is random, or u g u^-1 for a random u, so that
    some rows cancel to the identity and others reduce cyclically over
    many syllables; each pop leaves a stale generator above a row's top."""

    atoms = draw(st.lists(st.lists(st.tuples(st.integers(1, 3), st.integers(-3, 3)), max_size=4)
                          .map(GroupWord.from_syllables).filter(len), min_size=1, max_size=4))
    atoms += [g.inverse() for g in atoms]
    k = len(atoms) // 2
    index = st.integers(0, len(atoms) - 1)
    half, mid = draw(st.integers(0, 5)), draw(st.integers(0, 1))
    width = 2 * half + mid or 1
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        if 2 * half + mid == width and draw(st.booleans()):
            u = draw(st.lists(index, min_size=half, max_size=half))
            middle = draw(st.lists(index, min_size=mid, max_size=mid))
            rows.append(u + middle + [(i + k) % len(atoms) for i in reversed(u)])
        else:
            rows.append(draw(st.lists(index, min_size=width, max_size=width)))
    return atoms, rows


@seed(2022)
@_kernel
@given(_stacked_rows())
def test_row_words_are_the_folds(case):
    stack, folds = _stack_and_folds(*case)
    assert row_words(stack.gens, stack.exps) == folds


@seed(2022)
@_kernel
@given(_stacked_rows())
def test_cyclic_cut_matches_cyclic_reduce(case):
    stack, folds = _stack_and_folds(*case)
    want = [(len(w) - len(w.cyclic_reduce())) // 2 for w in folds]
    assert stack.cyclic_cut().tolist() == want


def test_row_words_skip_stale_cells_and_padding():
    # a b, then B A, cancels to the identity and leaves a, b above the top;
    # a^2 b^-1 then b a^-2 likewise; the table pads the one-syllable atom
    atoms = [W("a b"), W("B A"), W("a"), W("a^2 B"), W("b A^2")]
    table = syllable_table(atoms)
    assert row_words(*table) == atoms and table[1][2, 1] == 0
    stack, folds = _stack_and_folds(atoms, [[0, 1, 2], [3, 4, 0], [2, 0, 1]])
    assert folds == [W("a"), W("a b"), W("a")]
    # pops left generators where the exponents are 0
    assert (stack.gens[:, 1:][stack.exps[:, 1:] == 0] != 0).any()
    assert row_words(stack.gens, stack.exps) == folds
    stack, folds = _stack_and_folds(atoms, [[0, 1], [3, 4]])
    assert row_words(stack.gens, stack.exps) == folds == [GroupWord.identity()] * 2
    assert stack.cyclic_cut().tolist() == [0, 0]
