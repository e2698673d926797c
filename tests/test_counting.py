"""Ball enumeration and subgroup rank by Stallings folding.

Rank values are frozen from hand-worked foldings: <a, b> has rank 2,
<a, a^3> folds to <a> (rank 1), and <a^2, a^3> also generates <a>.
Property tests check the fold against facts about free groups that it
does not use: Nielsen moves and conjugation keep the rank, and a tuple
with the identity, a repeat or an inverse pair is not a free basis.
The ball and its census rows are checked against `reference_ball`, a
breadth-first walk of `GroupWord` products that shares no code with the
stack walk.
"""

from unittest import mock

import pytest
from hypothesis import given, seed, settings, strategies as st

from pivotwalk import counting
from pivotwalk.schottky import build_schottky
from pivotwalk.words import GroupWord, word_from_str
from pivotwalk.counting import (
    build_augmented_set,
    census_rows,
    enumerate_ball,
    subgroup_rank,
)

a = GroupWord.from_letters([1])
b = GroupWord.from_letters([2])


def w(text):
    return word_from_str(text)


def stack_words(stack):
    """Each row of a syllable stack as a word."""
    return [GroupWord(tuple((g, e) for g, e in zip(gens[1:], exps[1:]) if e))
            for gens, exps in zip(stack.gens.tolist(), stack.exps.tolist())]


def reference_ball(words, radius):
    """Each element of the ball of radius `radius` in the word metric of
    `words` and their inverses, mapped to its BFS level: one `GroupWord`
    product per frontier element and generator."""

    gens = {h for g in words for h in (g, g.inverse()) if not h.is_identity()}
    seen = {GroupWord.identity(): 0}
    frontier = [GroupWord.identity()]
    for r in range(1, radius + 1):
        nxt = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y not in seen:
                    seen[y] = r
                    nxt.append(y)
        frontier = nxt
    return seen


def reference_census(words, n_max, K):
    """The census verb's rows as it once computed them: a fresh ball walk per
    radius, each element's translation length taken again for every row."""

    rows = []
    for n in range(1, n_max + 1):
        ball = reference_ball(words, n)
        bad = sum(1 for x in ball if x.is_identity() or x.translation_length() <= K * n)
        rows.append((n, len(ball), bad, bad / len(ball), 1))
    return rows


def ball_levels(res):
    """The stack walk's ball as {element: level}."""
    words = stack_words(res.elements)
    assert len(set(words)) == len(words)
    return dict(zip(words, res.level.tolist()))


class TestGeneratingSet:
    def test_rejects_duplicates_and_identity(self):
        assert build_augmented_set([a, a, GroupWord.identity(), a.inverse()]) == (a, a.inverse())

    def test_symmetrized(self):
        s = build_augmented_set([a, b])
        assert set(s) == {a, b, a.inverse(), b.inverse()}
        # already-symmetric sets are unchanged
        assert build_augmented_set(s) == s

    def test_augmented_set(self):
        s = build_augmented_set([a, b, w("a b a")])
        assert len(s) == 6
        assert w("A B A") in s


class TestBall:
    def test_free_group_ball_sizes(self):
        # |B(r)| = 1 + 4 + 4*3 + ... = 2*3^r - 1 in the rank-2 free group
        for r, size in ((1, 5), (2, 17), (3, 53), (4, 161)):
            res = enumerate_ball((a, b), r, 0)
            assert len(res.elements) == size
            assert res.radius == r
            # a free basis: the BFS level is the word length
            assert all(level == len(x) for x, level in ball_levels(res).items())

    def test_cyclic_subgroup_ball(self):
        res = enumerate_ball((w("a^2"),), 3, 0)
        assert set(stack_words(res.elements)) == {w("a^%d" % k) if k else GroupWord.identity()
                                                  for k in (-6, -4, -2, 0, 2, 4, 6)}

    def test_budget_fallback_is_partial(self, monkeypatch):
        monkeypatch.setattr(counting, "BALL_BUDGET", 30)
        monkeypatch.setattr(counting, "BALL_SAMPLES", 500)
        res = enumerate_ball((a, b), 4, 0)
        assert res.radius == 2  # radius 3 needs 4 * 17 = 68 products
        assert res.visited == 20
        assert 0 < len(res.elements) < 161 + 1
        # sampled elements are true ball elements, at a level no lower than their length
        assert all(len(x) <= level <= 4 for x, level in ball_levels(res).items())


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
        assert subgroup_rank([a, b]) == 2
        assert subgroup_rank([w("a^2"), w("b^2"), w("a b")]) == 3
        assert subgroup_rank([a, w("a^3")]) < 2
        assert subgroup_rank([a, a]) < 2
        assert subgroup_rank([a, a.inverse()]) < 2
        assert subgroup_rank([a, GroupWord.identity()]) < 2


def census_gens(seed):
    """The generating set the census verb builds for a seed."""
    sch = build_schottky(size=4, m0=5, seed=seed)
    return build_augmented_set([a, b, *sch.products()])


# reduced words of 1-4 syllables on a and b with exponents ±1..3, so that
# generators merge and cancel at junctions (a^2 with A, a b with B A^2)
_words = st.lists(st.tuples(st.integers(1, 2), st.sampled_from([-3, -2, -1, 1, 2, 3])),
                  min_size=1, max_size=4).map(GroupWord.from_syllables)


@seed(2022)
@settings(max_examples=120, deadline=None, database=None)
@given(st.lists(_words, min_size=1, max_size=4), st.integers(1, 3),
       st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0]))
def test_ball_and_rows_match_reference_on_any_set(words, n_max, K):
    ref_ball, ref_rows = reference_ball(words, n_max), reference_census(words, n_max, K)
    ball = enumerate_ball(words, n_max, 0)
    assert ball_levels(ball) == ref_ball
    assert census_rows(ball, n_max, K) == ref_rows
    if not ball.visited:
        return  # only the identity: no product to cut off
    # a budget one product short of the last level: that level is sampled
    # (hypothesis refuses function-scoped fixtures, so no monkeypatch)
    with mock.patch.object(counting, "BALL_BUDGET", ball.visited - 1), \
            mock.patch.object(counting, "BALL_SAMPLES", 50):
        partial = enumerate_ball(words, n_max, 0)
    assert partial.radius == n_max - 1
    # a sampled string of m factors reaches an element at level m or lower
    assert all(ref_ball[x] <= level for x, level in ball_levels(partial).items())
    rows = census_rows(partial, n_max, K)
    assert rows[:-1] == ref_rows[:-1] and rows[-1][4] == 0


_RANK_SETTINGS = settings(max_examples=300, deadline=None, database=None)


@seed(2022)
@_RANK_SETTINGS
@given(st.lists(_words, min_size=1, max_size=2), st.sampled_from(["identity", "repeat", "inverse"]), st.data())
def test_tuple_with_identity_repeat_or_inverse_has_rank_below_k(words, kind, data):
    z = data.draw(st.sampled_from(words))
    extra = {"identity": GroupWord.identity(), "repeat": z, "inverse": z.inverse()}[kind]
    words.insert(data.draw(st.integers(0, len(words))), extra)
    assert subgroup_rank(words) < len(words)


@seed(2022)
@_RANK_SETTINGS
@given(st.lists(_words, min_size=2, max_size=3), st.data())
def test_nielsen_move_keeps_the_rank(words, data):
    i, j = data.draw(st.permutations(range(len(words))))[:2]
    moved = list(words)
    moved[i] = words[i] * words[j]
    assert subgroup_rank(moved) == subgroup_rank(words)


@seed(2022)
@_RANK_SETTINGS
@given(st.lists(_words, min_size=1, max_size=3), _words)
def test_conjugation_keeps_the_rank_which_is_at_most_k(words, u):
    rank = subgroup_rank(words)
    assert 0 <= rank <= len(words)
    assert subgroup_rank([u * z * u.inverse() for z in words]) == rank


def test_huge_exponent_does_not_wrap():
    # a^40000 at radius 2 would wrap a 16-bit exponent
    words = [w("a^20000"), b]
    ball = enumerate_ball(words, 2, 0)
    assert ball_levels(ball) == reference_ball(words, 2)
    assert w("a^40000") in set(stack_words(ball.elements))
    assert census_rows(ball, 2, 15000.0) == reference_census(words, 2, 15000.0)


def cut_at_least(length: int, k: int) -> int:
    """Reduced words of `length` >= 1 letters over a, b whose cyclic
    reduction wears at least k letters off each end: choose the k outer
    letters, then a middle of length - 2k letters that keeps the word
    reduced."""
    if k <= 0:
        return 4 * 3 ** (length - 1)
    if 2 * k >= length:
        return 0  # a reduced word is never u u^-1
    return 3 ** (length - k) - (2 + (-1) ** length) * 3 ** (k - 1)


@pytest.mark.parametrize("K", [0.25, 0.5, 1.0])
def test_census_of_the_free_basis_has_a_closed_form(K):
    # on <a, b> the ball is the whole tree ball, so every row is a count
    # of reduced words by length and cyclic cut, in exact integers
    rows = census_rows(enumerate_ball([a, b], 8, 0), 8, K)
    assert [row[0] for row in rows] == list(range(1, 9))
    for n, total, bad, fraction, exhaustive in rows:
        # tau = length - 2 cut <= K n iff cut >= (length - floor(K n)) / 2
        tau_max = int(K * n)
        assert total == 1 + sum(4 * 3 ** (length - 1) for length in range(1, n + 1))
        assert bad == 1 + sum(cut_at_least(length, (length - tau_max + 1) // 2) for length in range(1, n + 1))
        assert (fraction, exhaustive) == (bad / total, 1)
    if K == 0.5:
        assert rows[-1][1:3] == (13121, 1441)


class TestBallCensus:
    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("K", [0.5, 0.0, -1.0, 2.0])
    def test_one_walk_matches_walk_per_radius(self, seed, K):
        gens = census_gens(seed)
        ref = reference_census(gens, 4, K)
        for n_max in range(1, 5):
            assert census_rows(enumerate_ball(gens, n_max, seed), n_max, K) == ref[:n_max]

    def test_rows_past_the_budget_are_flagged(self, monkeypatch):
        gens = census_gens(0)
        ref = reference_census(gens, 4, 0.5)
        # 12 generators: radius 3 takes 12 * (1 + 12 + 124) products in all,
        # radius 4 another 12 * 1256
        monkeypatch.setattr(counting, "BALL_BUDGET", 5000)
        monkeypatch.setattr(counting, "BALL_SAMPLES", 2000)
        ball = enumerate_ball(gens, 4, 0)
        assert ball.radius == 3 and ball.visited == 1644
        rows = census_rows(ball, 4, 0.5)
        assert rows[:3] == ref[:3]
        assert rows[3][4] == 0 and rows[3][1] < ref[3][1]
