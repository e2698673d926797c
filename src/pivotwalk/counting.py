"""Ball enumeration, the ball census and the k-tuple census in the free group.

The ball of a subgroup is walked level by level as rows of a
`SyllableStack`, and the census reads each element's translation length off
its row.  Past a work budget the walk stops before the level that would
exceed it, and sampled products fill in the rest, flagged as partial.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .words import GroupWord, SyllableStack, common_prefix_letters, syllable_table


def build_augmented_set(gens: Sequence[GroupWord]) -> Tuple[GroupWord, ...]:
    """The generators, each followed by its inverse, without repeats or the
    identity: a symmetric generating set."""

    return tuple(dict.fromkeys(h for g in gens for h in (g, g.inverse()) if not h.is_identity()))


@dataclass(frozen=True)
class BallResult:
    """The ball's elements as stack rows in BFS order, each with its BFS
    level (a sampled one with its factor count); `radius` is the largest
    radius walked in full, `visited` the products formed."""

    elements: SyllableStack
    level: np.ndarray
    radius: int
    visited: int


def _unseen(old: np.ndarray, new: np.ndarray) -> np.ndarray:
    """Indices, in order, of the keys in `new` that neither `old` nor an
    earlier entry of `new` holds."""

    start = len(old)
    keys = np.concatenate((old, new))
    del old, new  # free the caller's key arrays before the sort copies `keys`
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    # a stable sort puts the first occurrence of each key first among its equals
    first = order[np.r_[True, ordered[1:] != ordered[:-1]]]
    return np.sort(first[first >= start]) - start


# the most products the ball walk forms, and the factor strings it samples
# when the next level would pass that
BALL_BUDGET = 10_000_000
BALL_SAMPLES = 200_000


def enumerate_ball(gens: Sequence[GroupWord], radius: int, seed: int) -> BallResult:
    """Distinct subgroup elements reachable by <= radius factors from the
    symmetric closure of `gens`.

    Breadth-first over products: a generator moves the word-metric level by
    at most one, so a product formed from level r - 1 that is new to levels
    r - 2 and r - 1 lies at level r.  BALL_BUDGET caps the products formed:
    the walk stops before a level that would pass it, then multiplies out
    BALL_SAMPLES factor strings of 1..radius factors, drawn from `seed`, and
    adds the elements they find; the result's `radius` then falls short.
    """

    gens = build_augmented_set(gens)
    k = len(gens)
    # atom k, the identity, is padding: it idles a sampled string's spare steps
    table = syllable_table(gens + (GroupWord.identity(),))
    ball = SyllableStack.identities(table, 1, radius)
    starts = [0, 1]  # level r fills rows starts[r]:starts[r + 1]
    visited = 0
    for r in range(1, radius + 1):
        frontier = np.arange(starts[r - 1], starts[r])
        if visited + len(frontier) * k > BALL_BUDGET:
            break
        visited += len(frontier) * k
        products = ball.take(np.repeat(frontier, k))
        products.push(np.tile(np.arange(k), len(frontier))[:, None])
        new = _unseen(ball.take(slice(starts[max(r - 2, 0)], None)).keys(), products.keys())
        ball = ball + products.take(new)
        starts.append(len(ball))
    radius_done = len(starts) - 2
    level = np.repeat(np.arange(radius_done + 1), np.diff(starts))
    if radius_done < radius:
        rng = np.random.default_rng(seed)
        length = rng.integers(1, radius + 1, size=BALL_SAMPLES)
        atoms = rng.integers(0, k, size=(BALL_SAMPLES, radius))
        atoms[np.arange(radius) >= length[:, None]] = k
        sample = SyllableStack.identities(table, BALL_SAMPLES, radius)
        sample.push(atoms)
        new = _unseen(ball.keys(), sample.keys())
        ball = ball + sample.take(new)
        level = np.concatenate((level, length[new]))
    return BallResult(elements=ball, level=level, radius=radius_done, visited=visited)


def census_rows(ball: BallResult, n_max: int, K: float) -> List[Tuple[int, int, int, float, int]]:
    """Rows (n, total, bad, bad fraction, exhaustive), n = 1..n_max, of a ball
    walked to radius n_max: an element counts from its level on, and is bad
    at n if it is the identity or its translation length is at most K*n."""

    level = ball.level
    tau = np.abs(ball.elements.exps).sum(axis=1) - 2 * ball.elements.cyclic_cut()
    rows = []
    for n in range(1, n_max + 1):
        total = int(np.count_nonzero(level <= n))
        bad = int(np.count_nonzero((level <= n) & ((level == 0) | (tau <= K * n))))
        rows.append((n, total, bad, bad / total, int(n <= ball.radius)))
    return rows


# ---------------------------------------------------------------------------
# freeness of tuples


def subgroup_rank(words: Sequence[GroupWord]) -> int:
    """Rank of the subgroup generated by `words`, via graph folding.

    Wedge of labeled loops at a base vertex, folded until no vertex has two
    equally-labeled edges in the same direction; the rank of the core graph
    is E - V + 1."""

    parent: List[int] = [0]

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    def new_vertex() -> int:
        parent.append(len(parent))
        return len(parent) - 1

    edges: List[Tuple[int, int, int]] = []  # (u, positive label, v)
    for w in words:
        letters = list(w.letters())
        if not letters:
            continue
        prev = 0
        for i, letter in enumerate(letters):
            tgt = 0 if i == len(letters) - 1 else new_vertex()
            if letter > 0:
                edges.append((prev, letter, tgt))
            else:
                edges.append((tgt, -letter, prev))
            prev = tgt

    changed = True
    while changed:
        changed = False
        seen: Dict[Tuple[int, int], int] = {}
        for u0, lab, v0 in edges:
            u, v = find(u0), find(v0)
            for key, other in (((u, lab), v), ((v, -lab), u)):
                known = seen.get(key)
                if known is None:
                    seen[key] = other
                elif find(known) != find(other):
                    union(known, other)
                    changed = True
            if changed:
                break

    eset = set()
    vset = {find(0)}
    for u0, lab, v0 in edges:
        u, v = find(u0), find(v0)
        eset.add((u, lab, v))
        vset.add(u)
        vset.add(v)
    return len(eset) - len(vset) + 1


def tuple_is_free(words: Sequence[GroupWord]) -> bool:
    """A k-tuple generates a rank-k free subgroup."""

    seen = set()
    for w in words:
        if w.is_identity():
            return False
        if w in seen or w.inverse() in seen:
            return False
        seen.add(w)
    return subgroup_rank(words) == len(words)


def free_basis_margin(words: Sequence[GroupWord]) -> int:
    """min |z_i| - 2c, where c is the most letters any product x y of tuple
    letters (x, y among the z_i and their inverses, y not x's own inverse)
    cancels.  Letters are told apart by index and sign, not by value, so an
    equal or inverse pair cancels fully.  When the margin is positive the
    cancellations at the junctions of a reduced tuple word cannot meet, so
    the tuple is a free basis and every reduced tuple word of length m has
    word length at least m * margin (Nielsen)."""

    signed = {}
    for i, z in enumerate(words):
        signed[i, 1], signed[i, -1] = z, z.inverse()
    c = max(common_prefix_letters(signed[i, -s], signed[j, t])
            for i, s in signed for j, t in signed if (j, t) != (i, -s))
    return min(len(z) for z in words) - 2 * c


@dataclass(frozen=True)
class CensusResult:
    total: int
    free: int
    fraction: float
    exhaustive: bool
    sampled: bool
    tuple_count_examined: int


def ktuple_census(
    elements: Sequence[GroupWord],
    k: int,
    budget: int = 10_000_000,
    rng=None,
) -> CensusResult:
    """Fraction of ordered k-tuples from `elements` generating free rank-k
    subgroups.  Falls back to uniformly sampled tuples past the budget."""

    n = len(elements)
    total = n ** k
    if total <= budget:
        free = 0
        examined = 0
        for tup in itertools.product(elements, repeat=k):
            examined += 1
            if tuple_is_free(tup):
                free += 1
        return CensusResult(total, free, free / max(total, 1), True, False, examined)
    rng = rng if rng is not None else np.random.default_rng(0)
    samples = min(budget, 100_000)
    free = 0
    for _ in range(samples):
        idx = rng.integers(0, n, size=k)
        tup = [elements[int(i)] for i in idx]
        if tuple_is_free(tup):
            free += 1
    return CensusResult(total, free, free / samples, False, True, samples)
