"""Ball enumeration and k-tuple census in the free group.

Supports counting elements (and tuples of elements) of a given word-length
ball that generate free subgroups of the expected rank, with an explicit
work budget: when the ball is too large to enumerate exhaustively the
census falls back to uniform sampling and flags the result as partial.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .words import GroupWord, common_prefix_letters


@dataclass(frozen=True)
class GeneratingSet:
    """Finite symmetric generating set of a free-group subgroup."""

    elements: Tuple[GroupWord, ...]

    def __post_init__(self):
        seen = set(self.elements)
        if len(seen) != len(self.elements):
            raise ValueError("duplicate generators")
        if GroupWord.identity() in seen:
            raise ValueError("identity is not a generator")

    def symmetrized(self) -> "GeneratingSet":
        out = list(self.elements)
        seen = set(out)
        for g in self.elements:
            inv = g.inverse()
            if inv not in seen:
                out.append(inv)
                seen.add(inv)
        return GeneratingSet(tuple(out))

    def __len__(self) -> int:
        return len(self.elements)


def build_augmented_set(base: Sequence[GroupWord], sch_words: Sequence[GroupWord]) -> GeneratingSet:
    """Base generators together with the Schottky block words (and all
    inverses), deduplicated."""

    out: List[GroupWord] = []
    seen = set()
    for g in list(base) + list(sch_words):
        for h in (g, g.inverse()):
            if h not in seen and not h.is_identity():
                out.append(h)
                seen.add(h)
    return GeneratingSet(tuple(out))


@dataclass(frozen=True)
class BallResult:
    """Each element mapped to its BFS level (a sampled one to its factor
    count), in BFS order; `radius` is the largest radius walked in full."""

    elements: Dict[GroupWord, int]
    radius: int
    exhaustive: bool
    visited: int


def enumerate_ball(
    gens: GeneratingSet,
    radius: int,
    budget: int = 10_000_000,
    rng=None,
    sample_size: int = 200_000,
) -> BallResult:
    """Distinct subgroup elements reachable by <= radius generator factors.

    Breadth-first over products; `budget` caps the number of products
    formed.  On budget exhaustion, falls back to sampling `sample_size`
    random factor strings and returns the (partial) set found so far plus
    the sampled elements, flagged non-exhaustive.
    """

    gens = gens.symmetrized()
    ident = GroupWord.identity()
    seen: Dict[GroupWord, int] = {ident: 0}
    frontier: List[GroupWord] = [ident]
    visited = 0
    exhausted = False
    for r in range(1, radius + 1):
        nxt: List[GroupWord] = []
        for x, g in itertools.product(frontier, gens.elements):
            visited += 1
            if visited > budget:
                exhausted = True
                break
            y = x * g
            if y not in seen:
                seen[y] = r
                nxt.append(y)
        if exhausted:
            break
        frontier = nxt

    if exhausted:
        rng = rng if rng is not None else np.random.default_rng(0)
        k = len(gens.elements)
        for _ in range(sample_size):
            length = int(rng.integers(1, radius + 1))
            x = ident
            for _ in range(length):
                x = x * gens.elements[int(rng.integers(0, k))]
            if x not in seen:
                seen[x] = length
    completed = r - 1 if exhausted else radius
    return BallResult(elements=seen, radius=completed, exhaustive=not exhausted, visited=visited)


def census_rows(ball: BallResult, n_max: int, K: float) -> List[Tuple[int, int, int, float, int]]:
    """Rows (n, total, bad, bad fraction, exhaustive), n = 1..n_max, of a ball
    walked to radius n_max: an element counts from its level on, and is bad
    at n if it is the identity or its translation length is at most K*n."""

    level = np.fromiter(ball.elements.values(), dtype=np.int64)
    tau = np.fromiter((w.translation_length() for w in ball.elements), dtype=np.int64)
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


def census_scale(lam: float, set_size: int, lam0: float = 16.0) -> int:
    """Tuple-size threshold N0 = max(floor((lam * set_size / 2)^(1/4)),
    ceil(lam0^(1/4)))."""

    a = int((lam * set_size / 2) ** 0.25)
    b = int(math.ceil(lam0 ** 0.25))
    return max(a, b, 1)
