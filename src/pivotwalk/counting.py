"""Ball enumeration, the ball census and free-basis checks in the free group.

The ball of a subgroup is walked level by level as rows of a
`SyllableStack`, and the census reads each element's translation length off
its row.  Past a work budget the walk stops before the level that would
exceed it, and sampled products fill in the rest, flagged as partial.
"""

from __future__ import annotations

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
# free bases


def subgroup_rank(words: Sequence[GroupWord]) -> int:
    """Rank of the subgroup generated by `words`, via Stallings folding.

    Each word is a loop of labelled edges at the base vertex 0.  A pass
    merges the far ends of any two edges that leave one vertex with one
    label (an edge read backwards carries the inverse label); passes repeat
    until one merges nothing.  The rank of the folded graph is E - V + 1."""

    edges: List[Tuple[int, int, int]] = []  # (tail, positive label, head)
    size = 1
    for w in words:
        letters = list(w.letters())
        loop = [0, *range(size, size + len(letters) - 1), 0]
        size += max(len(letters) - 1, 0)
        edges += [(u, x, v) if x > 0 else (v, -x, u) for u, x, v in zip(loop, letters, loop[1:])]
    parent = list(range(size))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    merged = True
    while merged:
        merged = False
        seen: Dict[Tuple[int, int], int] = {}  # (vertex, signed label) -> far end
        for u, lab, v in edges:
            for key, far in (((find(u), lab), v), ((find(v), -lab), u)):
                known, far = find(seen.setdefault(key, far)), find(far)
                if known != far:
                    parent[known] = far
                    merged = True
    folded = {(find(u), lab, find(v)) for u, lab, v in edges}
    return len(folded) - len({find(x) for x in range(size)}) + 1


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
