"""Schottky sets: construction, verification and the product maps.

A Schottky sequence is a block of `m0` isometries; its axis is the orbit of
the basepoint under the partial products, built once with the block.  A
Schottky set is a family of such blocks whose axes are contracting, long,
and mutually in general position: from any point, at most one block of the
family is badly aligned.
Sets are built and verified on the tree only, where no block's steps
cancel, so every axis is a tree geodesic.
"""

from __future__ import annotations

import itertools
import json
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Sequence, Set, Tuple

import numpy as np

from .words import GroupWord, letter_rows, partial_products, row_keys
from .geometry import Path, is_aligned


class BudgetExhausted(RuntimeError):
    """Raised when a search runs out of candidates or time budget."""


@dataclass(frozen=True)
class SchottkySequence:
    """A block of steps; the product and the axis derive from it."""

    steps: Tuple
    # the identity, then the product of each leading run of steps
    _partials: Tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_partials", tuple(partial_products(self.steps)))

    def __len__(self) -> int:
        return len(self.steps)

    def product(self):
        return self._partials[-1]

    @cached_property
    def axis(self) -> Path:
        """The basepoint's orbit o, s1 o, s1 s2 o, ... under the partial
        products, made on first use.  It is a path only if no letter
        cancels, as in every block of a `SchottkySet`."""
        return Path(self._partials)

    def inverse(self) -> "SchottkySequence":
        return SchottkySequence(tuple(s.inverse() for s in reversed(self.steps)))


# the alignment constants of every tree set: D0 is the pair-alignment width of
# endpoint-aligned contracting axes, D1 the width a subchain of a D0-aligned
# axis chain is tested at, and every block has more than LENGTH_FLOOR steps
D0 = 4
D1 = 6
LENGTH_FLOOR = 4


@dataclass(frozen=True)
class SchottkySet:
    """Blocks of one step count m0, and the prefix width k0 of the
    alignment predicates; every other constant derives from these."""

    sequences: Tuple[SchottkySequence, ...]
    k0: int

    def __post_init__(self):
        k0 = self.k0
        if isinstance(k0, bool) or not isinstance(k0, numbers.Real) or not k0 >= 1 or k0 % 1:
            raise ValueError("k0 must be a positive whole number, not %r" % (k0,))
        object.__setattr__(self, "k0", int(k0))
        if not self.sequences:
            raise ValueError("a Schottky set needs at least one block")
        for i, seq in enumerate(self.sequences):
            if not seq.steps:
                raise ValueError("block %d has no steps" % i)
            if len(seq) != self.m0:
                raise ValueError("block %d has %d steps, block 0 has %d" % (i, len(seq), self.m0))
            # the axis o, s1 o, s1 s2 o, ... has segments of length len(s_i),
            # so it is a tree geodesic iff no letter cancels
            if len(seq.product()) != sum(len(s) for s in seq.steps):
                raise ValueError("the steps of block %d cancel, so its axis is not a geodesic" % i)

    @property
    def m0(self) -> int:
        """The step count of every block."""
        return len(self.sequences[0])

    @property
    def e0(self) -> float:
        """Length unit: a block is at least 10*e0 long, and a chain of k blocks
        whose junctions overlap by less than k0 moves at least 5*e0*k."""
        return min(self.m0 / 10.0, (self.m0 - 2.0 * (self.k0 - 1)) / 5.0)

    def __len__(self) -> int:
        return len(self.sequences)

    def products(self) -> List:
        return [s.product() for s in self.sequences]

    @cached_property
    def heads(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(table, fwd, bwd): the sorted, distinct k0-letter heads of the
        block products and their inverses, as `row_keys`, and the places in
        `table` of block i's heads, fwd[i] and bwd[i], or -2 for a block
        shorter than k0.  A point x is badly aligned with the axis [o, w o]
        iff x shares k0 letters with w or with w^-1: iff x starts with one
        of the block's heads."""

        words = self.products()
        rows, lengths = letter_rows(words + [word.inverse() for word in words], self.k0)
        # sorted and deduplicated by hand: np.unique imports numpy.ma, a
        # megabyte of resident memory
        table = np.sort(row_keys(rows[lengths >= self.k0]))
        table = np.concatenate((table[:1], table[1:][table[1:] != table[:-1]]))
        fwd, bwd = np.split(head_ids(table, rows, lengths, self.k0, -2), 2)
        return table, fwd, bwd


def head_ids(table: np.ndarray, rows: np.ndarray, lengths: np.ndarray, k0: int, short: int) -> np.ndarray:
    """The place in a head `table` of each row of k0 letters, or `short`
    where the row's word (of `lengths` letters) is shorter than k0 or its
    head is not in the table."""

    keys = row_keys(rows)
    if not len(table):
        return np.full(len(keys), short)
    at = np.searchsorted(table, keys).clip(max=len(table) - 1)
    return np.where((lengths >= k0) & (table[at] == keys), at, short)


# ---------------------------------------------------------------------------
# verification


def verify_schottky(sch: SchottkySet) -> List[str]:
    """The names of the defining properties of a tree Schottky set that
    `sch` fails; an empty list means it verified.

    Property (2), that every axis is a contracting quasigeodesic, always
    holds: `SchottkySet` refuses a block whose steps cancel, so every axis
    is a tree geodesic, and tree geodesics are contracting for any width
    >= 1.  General position is read off the set's head table
    (`SchottkySet.heads`): a point is badly aligned with a block iff its
    first k0 letters are one of the block's heads, so at most one block is
    badly aligned from every point iff no head belongs to two blocks.
    """

    k0 = sch.k0
    products = sch.products()
    _, fwd, bwd = sch.heads
    # a block owns its two heads, once if they coincide; a block shorter
    # than k0 owns none
    owned = [head for f, b in zip(fwd.tolist(), bwd.tolist()) if f >= 0 for head in {f, b}]
    checks = {
        # (1) blocks are long enough for the alignment machinery
        "length_floor": sch.m0 > LENGTH_FLOOR,
        # (3) blocks move the basepoint far, in a positive length unit
        "length": sch.e0 > 0 and all(len(p) >= 10.0 * sch.e0 for p in products),
        # (4) from any point, at most one block is badly aligned
        "general_position": len(set(owned)) == len(owned),
        # (5) a block does not fold back on its own translate
        "self_alignment": all(is_aligned([seq.axis, seq.axis.translate(seq.product())], k0)
                              for seq in sch.sequences),
    }
    return [name for name, ok in checks.items() if not ok]


# ---------------------------------------------------------------------------
# construction


# the letters a, b, A, B that blocks are spelled in; index i and i + 2
# (mod 4) are inverse letters
_LETTERS = np.array([1, 2, -1, -2])


def _candidate_rows(m0: int, rng):
    """Batches of candidate rows of letter indices: every row in order while
    there are at most 4096, then random blocks of 256 rows, which give the
    same values as drawing one step at a time."""

    if 4 ** m0 <= 4096:
        yield np.arange(4 ** m0)[:, None] // 4 ** np.arange(m0 - 1, -1, -1) % 4
    while True:
        yield rng.integers(0, 4, size=(256, m0))


def _search_shape(size: int) -> Tuple[int, int]:
    """k0 and the shortest block length for `size` blocks: each block takes
    two of the 4 * 3^(k0-1) k0-letter prefix classes, and a block is longer
    than the floor and than 2*(k0-1) steps, so that e0 is positive."""

    k0 = 2
    while 4 * 3 ** (k0 - 1) < 2 * size:
        k0 += 1
    return k0, max(LENGTH_FLOOR + 1, 2 * k0 - 1)


# the candidate rows a search tries before it gives up
SEARCH_BUDGET = 200_000


def build_schottky(size: int, m0: int, seed: int = 0) -> SchottkySet:
    """Search for a tree Schottky set of `size` blocks of `m0` letters.

    Candidate blocks are rows of the letters a, b, A, B; a row in which a
    letter follows its inverse is skipped, so every axis is a tree geodesic
    of length m0 >= 10*e0.  Blocks are accepted greedily when their leading
    and trailing k0-letter heads stay disjoint from the ones already used,
    then the whole set is verified.
    """

    if size <= 0:
        raise ValueError("size must be positive")
    k0, shortest = _search_shape(size)
    if m0 < shortest:
        raise ValueError("block length %d too short for %d blocks: k0 = %d needs at least %d steps"
                         % (m0, size, k0, shortest))

    chosen: List[SchottkySequence] = []
    used_heads: Set[tuple] = set()
    tried = 0
    for rows in _candidate_rows(m0, np.random.default_rng(seed)):
        if tried >= SEARCH_BUDGET:
            raise BudgetExhausted("no Schottky set of size %d found after %d candidates" % (size, tried))
        rows = rows[: SEARCH_BUDGET - tried]
        tried += len(rows)
        # the axis is a tree geodesic iff no letter is followed by its inverse
        geodesic = ((rows[:, 1:] - rows[:, :-1]) % 4 != 2).all(axis=1)
        for letters in _LETTERS[rows[geodesic]].tolist():
            fwd = tuple(letters[:k0])
            bwd = tuple(-x for x in letters[::-1][:k0])
            if fwd == bwd or fwd in used_heads or bwd in used_heads:
                continue
            chosen.append(SchottkySequence(tuple(GroupWord.from_letters([x]) for x in letters)))
            used_heads.update((fwd, bwd))
            if len(chosen) == size:
                sch = SchottkySet(tuple(chosen), k0)
                failures = verify_schottky(sch)
                if failures:
                    raise BudgetExhausted("constructed set failed verification: %s" % failures)
                return sch


def tree_schottky_set(size: int, seed: int = 0) -> SchottkySet:
    """Build a tree Schottky set of `size` blocks of the shortest length
    `build_schottky` allows for that size."""

    return build_schottky(size, _search_shape(size)[1], seed)


# ---------------------------------------------------------------------------
# derived sets and products


def inverse_set(sch: SchottkySet) -> SchottkySet:
    return SchottkySet(tuple(s.inverse() for s in sch.sequences), sch.k0)


# the most fourfold products `phi_image` forms
PHI_BUDGET = 2_000_000


def phi_image(sch: SchottkySet) -> Tuple:
    """The products of four blocks, in the order of their index tuples
    (i, j, k, l); raises ValueError if two tuples give one product."""

    n = len(sch)
    if n ** 4 > PHI_BUDGET:
        raise BudgetExhausted("phi image of size %d^4 exceeds budget" % n)
    products = sch.products()
    elements = []
    seen: Set = set()
    for combo in itertools.product(range(n), repeat=4):
        w = products[combo[0]] * products[combo[1]] * products[combo[2]] * products[combo[3]]
        if w in seen:
            raise ValueError("product map is not injective at %s" % (combo,))
        seen.add(w)
        elements.append(w)
    return tuple(elements)


def concat_check(sch: SchottkySet, indices: Sequence[int], signs: Sequence[int]) -> Tuple[bool, int]:
    """Whether the axes of a chain of (possibly inverted) blocks are
    D0-aligned, and how far the chain's product moves the basepoint.

    Rejects patterns with an adjacent block/inverse-block pair, which is the
    one configuration the chain lemma excludes.
    """

    if len(indices) != len(signs) or not indices:
        raise ValueError("need equally many indices and signs")
    if any(s not in (1, -1) for s in signs):
        raise ValueError("signs must be +-1")
    for i in range(len(indices) - 1):
        if indices[i] == indices[i + 1] and signs[i] * signs[i + 1] == -1:
            raise ValueError("adjacent inverse pair at position %d" % i)

    seqs = [
        sch.sequences[i] if s == 1 else sch.sequences[i].inverse()
        for i, s in zip(indices, signs)
    ]
    axes = []
    word = GroupWord.identity()
    for seq in seqs:
        axes.append(seq.axis.translate(word))
        word = word * seq.product()
    return is_aligned(axes, D0), len(word)


def in_tilde(sch: SchottkySet, beta: int, gamma: int, v) -> bool:
    """Membership in the admissible middle set for a connector v."""
    k0 = sch.k0
    bseq, gseq = sch.sequences[beta], sch.sequences[gamma]
    endpoint = bseq.product() * v * gseq.product()
    if not is_aligned([bseq.axis, endpoint], k0):
        return False
    return is_aligned([v.inverse(), gseq.axis], k0)


def tilde_pairs(sch: SchottkySet, v) -> List[Tuple[int, int]]:
    n = len(sch)
    return [
        (b, c)
        for b in range(n)
        for c in range(n)
        if in_tilde(sch, b, c, v)
    ]


# ---------------------------------------------------------------------------
# serialization (tree sets)


def _file_constants(sch: SchottkySet) -> dict:
    """The constants a set's file lists: k0, and the values it gives."""

    return {"d0": D0, "d1": D1, "e0": sch.e0, "k0": sch.k0, "length_floor": LENGTH_FLOOR}


def schottky_to_json(sch: SchottkySet) -> str:
    payload = {
        "m0": sch.m0,
        "constants": _file_constants(sch),
        "sequences": [
            [list(step.letters()) for step in seq.steps] for seq in sch.sequences
        ],
    }
    return json.dumps(payload, sort_keys=True)


def schottky_from_json(text: str) -> SchottkySet:
    """Read a set from its blocks and k0; every other constant in the file
    must equal the value those give, so no file sets its own thresholds."""

    payload = json.loads(text)
    for step in itertools.chain.from_iterable(payload["sequences"]):
        # a letter is a signed generator index; a bool or float is not one
        if not all(type(x) is int and x in (1, 2, -1, -2) for x in step):
            raise ValueError("block letters must be 1, 2, -1 or -2, for a, b, A, B, not %r" % (step,))
    seqs = tuple(
        SchottkySequence(tuple(GroupWord.from_letters(step) for step in seq))
        for seq in payload["sequences"]
    )
    sch = SchottkySet(seqs, payload["constants"]["k0"])
    stated = dict(payload["constants"], m0=payload["m0"])
    for key, value in dict(_file_constants(sch), m0=sch.m0).items():
        if type(stated[key]) is bool or stated[key] != value:
            raise ValueError("%s is %r, but blocks of %d steps at k0 = %d give %r"
                             % (key, stated[key], sch.m0, sch.k0, value))
    return sch
