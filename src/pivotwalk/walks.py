"""Step measures, walk sampling and the deviation variable.

Step measures are finitely-supported probability measures on group words.
The deviation variable measures how soon a trajectory passes a Schottky
axis that the whole two-sided path respects; the gap-bound witness reads
the displacement-translation gap against the reach at those times.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import numbers
import operator
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .geometry import is_aligned
from .schottky import D1, SchottkySet
from .words import GroupWord, partial_products, row_words, syllable_table, word_from_str, word_to_str

# `StepMeasure.draw` turns this many uniforms at a time into atom indices,
# so that its temporaries stay in cache: one chunk a call raised the
# ensemble's peak memory by 3 to 4.5 MB and slowed the simple walk by 5%,
# and 2^14 or 2^15 were no faster.  Each chunk goes on with the
# generator's stream where the last one stopped
DRAW_CHUNK = 2 ** 16
# the guide table has at most 2^16 buckets, 512 KiB of indices
GUIDE_BITS = 16


class StepMeasure:
    """Finitely supported step distribution on group elements.

    The atoms are held as a syllable table: generator and exponent arrays
    of shape (atoms, S), row i holding atom i's syllables from the left and
    exponent 0 (generator 0) padding a shorter atom.  An atom's word is
    built the first time it is asked for.  A measure that a few numbers
    determine (`heavy_tail`) keeps them in `params` and is written to JSON
    as those numbers and the sha256 of its weight bytes.
    """

    def __init__(self, support: Optional[Sequence[GroupWord]], weights: Sequence[float],
                 moment_profile: str = "bounded", table=None, params: Optional[Dict] = None):
        # `table` stands in for the words when `support` is None
        if support is not None:
            support = tuple(support)
            table = syllable_table(support)
        self.table: Tuple[np.ndarray, np.ndarray] = table
        self._words: Dict[int, GroupWord] = dict(enumerate(support or ()))
        self.weights = np.array(weights, dtype=np.float64)
        self.weights.flags.writeable = False
        self.moment_profile = moment_profile  # bounded | heavy_tail
        self.params = params
        if len(table[0]) != len(self.weights):
            raise ValueError("support/weight length mismatch")
        total = float(self.weights.sum())
        if not math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-9):
            raise ValueError("weights must sum to 1, got %r" % total)
        if (self.weights < 0).any():
            raise ValueError("negative weight")

    def atom(self, i: int) -> GroupWord:
        """Atom i as a word, built from its table row on first use."""

        word = self._words.get(i)
        if word is None:
            [word] = row_words(*(t[i:i + 1] for t in self.table))
            self._words[i] = word
        return word

    @property
    def support(self) -> Tuple[GroupWord, ...]:
        """Every atom's word; `atom` builds only the one asked for."""

        return tuple(map(self.atom, range(len(self.weights))))

    @property
    def weights_sha256(self) -> str:
        return hashlib.sha256(self.weights.tobytes()).hexdigest()

    def __eq__(self, other) -> bool:
        if not isinstance(other, StepMeasure):
            return NotImplemented
        return (
            (self.moment_profile, self.params) == (other.moment_profile, other.params)
            and all(map(np.array_equal, (self.weights, *self.table), (other.weights, *other.table)))
        )

    __hash__ = None

    @functools.cached_property
    def _guide(self) -> Tuple[np.ndarray, np.ndarray, bool]:
        """The normalised cdf that `rng.choice` searches, a guide table of
        M = 2^b buckets (Chen and Asau 1974; Devroye 1986, III.2.4), and
        whether any bucket is marked.  M is at least four buckets an atom,
        up to 2^GUIDE_BITS.  Bucket j holds the index that every uniform in
        [j/M, (j+1)/M) maps to, or -1 (marked) when a cdf entry lies
        strictly inside that interval and the uniform must be searched for."""

        cdf = self.weights.cumsum()
        cdf /= cdf[-1]
        buckets = 1 << min(GUIDE_BITS, (len(cdf) - 1).bit_length() + 2)
        edges = np.arange(buckets + 1) / buckets
        lo = cdf.searchsorted(edges[:-1], side="right")
        # "left" at the upper edge: an entry equal to (j+1)/M belongs to
        # the next bucket, so equal weights mark no bucket
        guide = np.where(lo == cdf.searchsorted(edges[1:], side="left"), lo, -1)
        return cdf, guide, bool((guide < 0).any())

    def draw(self, rng, shape) -> np.ndarray:
        """Atom indices of the given shape, exactly those that
        `rng.choice(len(weights), size=shape, p=weights)` returns, from the
        same uniforms, so the generator is left in the same state.  numpy
        maps each uniform u to the count of normalised cdf entries <= u;
        here u's guide bucket (u * M, exact as M is a power of two) gives
        that count, and only a uniform in a marked bucket is searched for
        in the cdf.  The uniforms are drawn DRAW_CHUNK at a time in C order."""

        cdf, guide, marked = self._guide
        out = np.empty(shape, dtype=np.int64)
        flat = out.reshape(-1)
        for start in range(0, flat.size, DRAW_CHUNK):
            u = rng.random(min(DRAW_CHUNK, flat.size - start))
            idx = flat[start:start + len(u)]
            # the bucket as int32: casting to int64 took four times as long
            np.take(guide, (u * len(guide)).astype(np.int32), out=idx)
            if marked:
                far = np.flatnonzero(idx < 0)
                idx[far] = cdf.searchsorted(u[far], side="right")
        return out

    def sample(self, rng, size: int) -> List[GroupWord]:
        return [self.atom(i) for i in self.draw(rng, size).tolist()]

    def to_json(self) -> str:
        if self.params is not None:
            data = dict(self.params, weights_sha256=self.weights_sha256)
        else:
            data = {"support": [word_to_str(s) for s in self.support], "weights": self.weights.tolist()}
        data["moment_profile"] = self.moment_profile
        return json.dumps(data, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "StepMeasure":
        """Inverse of `to_json`; a heavy-tail descriptor is rebuilt from its
        parameters and refused when its weights digest differs."""

        data = json.loads(text)
        if "eta" in data:
            # a descriptor written before the alphabet was fixed at a, b holds "rank": 2
            if data.get("rank", 2) != 2:
                raise ValueError("rank is %r, but a heavy tail is on a, b, A, B: rank 2" % (data["rank"],))
            mu = heavy_tail(data["eta"], data["kmax"])
            if data["weights_sha256"] != mu.weights_sha256:
                raise ValueError("weights_sha256 does not match the weights of heavy_tail(%s)"
                                 % ", ".join("%s=%r" % kv for kv in sorted(mu.params.items())))
            return mu
        return StepMeasure(
            tuple(word_from_str(s) for s in data["support"]),
            tuple(float(x) for x in data["weights"]),
            data.get("moment_profile", "bounded"),
        )


def simple_rw() -> StepMeasure:
    """The simple random walk on the rank-2 free group: a, A, b, B at 1/4 each."""
    return StepMeasure(tuple(GroupWord.generator(g, e) for g in (1, 2) for e in (1, -1)), (0.25,) * 4)


def heavy_tail(eta: float = 1.1, kmax: int = 65536) -> StepMeasure:
    """Power-tail measure on powers of a and b: the weight of a ±k-th power
    decays like k^-(1+eta), so eta in (1, 2) gives finite mean displacement
    with infinite variance (truncated at kmax; truncation is disclosed by
    the callers' reports).

    Atoms run a^k, A^k, b^k, B^k for k = 1, ..., kmax: atom i is generator
    (i // 2) % 2 + 1 to the power ±(i // 4 + 1), positive for even i.
    """

    if not (math.isfinite(eta) and eta > 0):
        raise ValueError("eta must be positive and finite, got %r" % (eta,))
    if isinstance(kmax, bool) or not isinstance(kmax, numbers.Integral) or kmax < 1:
        raise ValueError("kmax must be a positive integer, got %r" % (kmax,))
    raw = [(k + 1) ** -(1.0 + eta) for k in range(kmax)]
    z = sum(raw) * 4
    weights = np.repeat(np.array(raw) / z, 4)
    weights[-1] += 1.0 - sum(weights.tolist())  # pin rounding onto the lightest atom
    gens = np.tile(np.array([1, 1, 2, 2], dtype=np.int16), kmax)
    exps = np.repeat(np.arange(1, kmax + 1), 4) * np.tile([1, -1], 2 * kmax)
    params = {"eta": float(eta), "kmax": int(kmax)}
    return StepMeasure(None, weights, "heavy_tail", table=(gens[:, None], exps[:, None]), params=params)


def walk_product(increments: Sequence[GroupWord]) -> GroupWord:
    """W_n = g_1 g_2 ... g_n, the last of the partial products."""

    return functools.reduce(operator.mul, increments, GroupWord.identity())


# ---------------------------------------------------------------------------
# deviation variable


def deviation(
    sch: SchottkySet,
    back_pts: Sequence[GroupWord],
    fwd_incs: Sequence[GroupWord],
    fwd_pts: Sequence[GroupWord],
) -> int:
    """Minimal k with a witness index i, m0 <= i <= k, such that the i-th
    forward window spells a Schottky block and the window's axis separates
    every backward point from every forward point at or past k (tested up
    to the horizon len(fwd_pts) - 1, D1-width alignment); horizon + 1 when
    no window is a witness.  `fwd_pts` are the partial products of
    `fwd_incs`, and the backward side's variable is this one with the two
    sides swapped.
    """

    m0 = sch.m0
    horizon = len(fwd_pts) - 1
    if horizon < m0:
        raise ValueError("horizon below block length")
    blocks = {tuple(seq.steps): seq for seq in sch.sequences}

    best = horizon + 1  # the least k found so far
    for i in range(m0, horizon + 1):
        if best <= i:
            break  # a later witness i gives k >= i >= best
        block = blocks.get(tuple(fwd_incs[i - m0 : i]))
        if block is None:
            continue
        # the window's points fwd_pts[i - m0 .. i] are the block's axis,
        # moved to the window's start
        axis = block.axis.translate(fwd_pts[i - m0])
        # every backward point projects near the start
        if not all(is_aligned([pt, axis], D1) for pt in back_pts):
            continue
        # forward: find the least k >= i from which alignment never breaks
        k_min = i
        for k in range(horizon, i - 1, -1):
            if not is_aligned([axis, fwd_pts[k]], D1):
                k_min = k + 1
                break
        best = min(best, k_min)
    return best


@dataclass(frozen=True)
class DiscrepancyWitness:
    applicable: bool
    lhs: Optional[int]
    rhs: Optional[int]


def discrepancy_bound_witness(sch: SchottkySet, increments: Sequence[GroupWord]) -> DiscrepancyWitness:
    """Both sides of the displacement-vs-translation-length gap bound.

    The trajectory is re-split at its midpoint into two forward/backward
    pairs; when all four deviation variables are below n/10 the bound
    gap <= 2 * min(forward, backward reach at the deviation time) must
    hold, with the translation length computed exactly.  Each side is
    walked to the horizon h = min(max(m0, n // 10), n // 2), which keeps
    it inside the walk: a deviation past h is at least n/10 anyway.  The
    first deviation variable that reaches n/10 ends the trial.
    """

    g = list(increments)
    n, half = len(g), len(g) // 2
    h = min(max(sch.m0, n // 10), half)
    # h steps of each side: forward from o and back from Z_n o, then
    # forward and back from the midpoint
    sides = (g[:h], [s.inverse() for s in reversed(g[n - h :])],
             g[half : half + h], [s.inverse() for s in reversed(g[half - h : half])])
    f0, c0, f1, c1 = map(partial_products, sides)
    devs = []
    for back, incs, fwd in ((c0, sides[0], f0), (f0, sides[1], c0), (c1, sides[2], f1), (f1, sides[3], c1)):
        devs.append(deviation(sch, back, incs, fwd))
        if devs[-1] >= n / 10:
            return DiscrepancyWitness(False, None, None)
    d0, dc0 = devs[:2]

    total = walk_product(g)
    lhs = len(total) - total.translation_length()
    # the reaches: displacements at the deviation times
    rhs = 2 * min(len(f0[d0]), len(c0[dc0]))
    return DiscrepancyWitness(True, lhs, rhs)
