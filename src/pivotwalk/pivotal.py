"""Pivotal times for decorated products of Schottky blocks.

A configuration is a product

    W_n = w_0 A_1 B_1 v_1 C_1 D_1 w_1 ... A_n B_n v_n C_n D_n w_n

where each step contributes four Schottky blocks (entry buffer A, pivotable
middle pair B, C around a connector v, exit buffer D) separated by arbitrary
isometries w_i.  Pivotal times are maintained with a stack: a step is kept
when its entry block is aligned with the running anchor, its middle pair is
admissible, and its exit block is aligned with the step's endpoint; a failed
step pops stack entries whose exit blocks the new endpoint no longer
respects.  Replacing the middle pair at a pivotal time by any admissible
pair leaves every intermediate stack untouched, because all conditions are
evaluated relative to frames that contain the replaced middle as a common
left factor.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from itertools import islice
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .geometry import Path, is_aligned
from .schottky import D1, SchottkySet, head_ids, in_tilde
from .words import GroupWord, letter_rows


@dataclass(frozen=True)
class PivotConfig:
    """Schottky set, per-step block indices (a, b, c, d) and connectors,
    multiplied out once when the configuration is made."""

    sch: SchottkySet
    quads: Tuple[Tuple[int, int, int, int], ...]
    w: Tuple  # n+1 isometries
    v: Tuple  # n isometries
    # W_0, ..., W_n: W_k is the product through step k, w_k included
    prefixes: Tuple = field(init=False, compare=False, repr=False)
    # index k - 1 holds the left frames of step k's blocks A, B, C, D
    frames: Tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        n = len(self.quads)
        if len(self.w) != n + 1 or len(self.v) != n:
            raise ValueError("need n quads, n connectors and n+1 spacers")
        S = self.sch.sequences
        prefixes, frames = [self.w[0]], []
        for (a, b, c, d), v, w in zip(self.quads, self.v, self.w[1:]):
            frame_b = prefixes[-1] * S[a].product()
            frame_c = frame_b * S[b].product() * v
            frame_d = frame_c * S[c].product()
            frames.append((prefixes[-1], frame_b, frame_c, frame_d))
            prefixes.append(frame_d * S[d].product() * w)
        object.__setattr__(self, "prefixes", tuple(prefixes))
        object.__setattr__(self, "frames", tuple(frames))

    @property
    def n(self) -> int:
        return len(self.quads)


def _step_conditions(config: PivotConfig, k: int, anchor_rel) -> bool:
    """Local admissibility of step k; `anchor_rel` is the anchor point in
    the frame of the step's entry block."""

    S = config.sch
    a, b, c, _ = config.quads[k - 1]
    # entry block vs current anchor (frame: start of the entry block)
    if not is_aligned([anchor_rel, S.sequences[a].axis], S.k0):
        return False
    # admissible middle pair around the connector
    if not in_tilde(S, b, c, config.v[k - 1]):
        return False
    # exit block vs the step endpoint (frame: start of the exit block)
    return _exit_ok(config, k, config.w[k])


def _exit_ok(config: PivotConfig, j: int, tail) -> bool:
    """Does the endpoint respect the exit block of step j?

    `tail` is the isometry from the end of step j's exit block to the
    endpoint, expressed in that block's frame.
    """

    S = config.sch
    exit_block = S.sequences[config.quads[j - 1][3]]
    return is_aligned([exit_block.axis, exit_block.product() * tail], S.k0)


def compute_pivotal_times(config: PivotConfig) -> Tuple[int, ...]:
    """Stack construction of the pivotal times of a configuration, in
    increasing order."""

    W = config.prefixes
    stack: List[int] = []
    # anchor point = anchor_rel applied to the basepoint, expressed in the
    # frame of the coming step's entry block; initially the basepoint seen
    # from the end of w_0
    anchor_rel = config.w[0].inverse()

    def tail(j: int):
        # from the end of step j's exit block (of w_0 when j = 0) to W_k
        return config.w[j] * W[j].inverse() * W[k]

    for k in range(1, config.n + 1):
        if _step_conditions(config, k, anchor_rel):
            stack.append(k)
            anchor_rel = config.w[k].inverse()
        else:
            while stack and not _exit_ok(config, stack[-1], tail(stack[-1])):
                stack.pop()
            # the anchor returns to the last kept step's end, or to w_0
            anchor_rel = tail(stack[-1] if stack else 0).inverse()
    return tuple(stack)


def extremal_axes(config: PivotConfig, times: Sequence[int]) -> List[Path]:
    """The four translated block axes of every pivotal step, in order."""

    S = config.sch.sequences
    return [S[idx].axis.translate(frame)
            for k in times for frame, idx in zip(config.frames[k - 1], config.quads[k - 1])]


def pivotal_chain_report(config: PivotConfig) -> bool:
    """Is (basepoint, pivotal axes..., endpoint) aligned at width D1?"""

    items = [GroupWord.identity(), *extremal_axes(config, compute_pivotal_times(config)), config.prefixes[-1]]
    # dropping interior axes from a d0-aligned chain degrades the pairwise
    # width by a bounded amount, so the subchain is checked at width d1
    return is_aligned(items, D1)


def pivot(config: PivotConfig, i: int, beta: int, gamma: int, v) -> PivotConfig:
    """Replace the middle pair and connector at pivotal time i."""

    times = compute_pivotal_times(config)
    if i not in times:
        raise ValueError("time %d is not pivotal" % i)
    if not in_tilde(config.sch, beta, gamma, v):
        raise ValueError("replacement middle pair is not admissible")
    a, _, _, d = config.quads[i - 1]
    quads = list(config.quads)
    quads[i - 1] = (a, beta, gamma, d)
    vs = list(config.v)
    vs[i - 1] = v
    return replace(config, quads=tuple(quads), v=tuple(vs))


# ---------------------------------------------------------------------------
# fast tree simulation of the pivot-count distribution


# steps (trial x position cells) per pass of the vectorised check: bounds
# the draw arrays whatever n and the trial count; 2000 trials of 50 steps
# take one pass
_PASS_CELLS = 1 << 17


def _product_heads(v: Sequence[GroupWord], words: Sequence[GroupWord],
                   k0: int) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """For each connector u in `v`, in turn: the first k0 letters of every
    reduced product u x, x in `words`, as rows, and the products' letter
    counts.  The row of a product shorter than k0 ends in letters that are
    not its own; its count tells it apart.

    With c the letters by which u^-1 and x agree from the left, u x reduces
    to u's first |u| - c letters, then x from letter c on.
    """

    # c <= min(|u|, |x|), so rows this wide hold every letter a prefix takes
    width = k0 + min(max(map(len, v), default=0), max(map(len, words)))
    rows, lengths = letter_rows(words, width)
    prefixes, _ = letter_rows(v, k0)
    backs, _ = letter_rows([u.inverse() for u in v], width)
    j = np.arange(k0)
    # the last column agrees nowhere, so it ends every run of agreement;
    # padding agrees only with padding, past the end of both words
    agree = np.zeros((len(words), width + 1), dtype=bool)
    for u, prefix, back in zip(v, prefixes, backs):
        np.equal(rows, back, out=agree[:, :width])
        c = np.minimum(agree.argmin(axis=1), lengths)
        keep = len(u) - c
        # letter j < keep is u's; letter j >= keep is x's letter j - keep + c
        at = np.clip(j + (c - keep)[:, None], 0, width - 1)
        yield np.where(j < keep[:, None], prefix, np.take_along_axis(rows, at, axis=1)), keep + lengths - c


def simulate_pivot_counts(
    sch: SchottkySet,
    n: int,
    trials: int,
    seed: int,
    w: Sequence[GroupWord],
    v: Sequence[GroupWord],
) -> np.ndarray:
    """Monte-Carlo sample of #pivotal times for uniform block choices.

    Tree-only fast path; spacers w (length n+1) and connectors v (length n)
    are fixed words.  Uses the same step/backtrack conditions as
    compute_pivotal_times, specialized to lookups in the set's table of
    k0-letter heads (`SchottkySet.heads`).  Connector products' heads are
    read off letter rows: no connector-block product is multiplied out.

    While every earlier step was kept the anchor is w_{k-1}^-1, so whether
    step k fails is a table lookup on its draws, and a trial's count up to
    its first failed step is that step's index.  Only trials with a failure
    run the per-trial stack, from that step onward.  One draw per pass
    yields trial t's blocks exactly as the t-th call
    `rng.integers(0, N, size=(n, 4))` would: PCG64 keeps a spare 32-bit
    half in its state, so call boundaries do not move the values, and
    tests/test_pivotal.py pins this.
    """

    N = len(sch)
    k0 = sch.k0
    words = sch.products()
    if len(w) != n + 1 or len(v) != n:
        raise ValueError("need n+1 spacers and n connectors")

    # every comparison sets a block's head against another word's, so an id
    # is a place in the head table; -2 (a block shorter than k0) and -1 (a
    # word shorter than k0, or with no block's head) match no id
    table, fwd, bwd = sch.heads
    block_id = {tuple(row): i for i, row in enumerate(table.view(np.int64).reshape(-1, k0).tolist())}
    # the entry block a fails against the anchor u when fwd[a] == id(u), and
    # entry[k] is the id of w_k^-1, the anchor after a kept step k; a
    # middle pair (b, c) fails when v_k word_c cancels k0 letters into
    # word_b or v_k^-1 shares k0 letters with word_c; the exit block d fails
    # when word_d^-1 shares k0 letters with w_k
    others, other_lengths = letter_rows([x.inverse() for x in w] + [vk.inverse() for vk in v] + list(w[1:]), k0)
    entry, v_inv, exit_ids = np.split(head_ids(table, others, other_lengths, k0, -1), [n + 1, 2 * n + 1])
    # one pass over the blocks per connector, never an (n, N, k0) array
    v_word = np.empty((n, N), dtype=np.int64)
    for k, (heads, product_lengths) in enumerate(_product_heads(v, words, k0)):
        v_word[k] = head_ids(table, heads, product_lengths, k0, -1)
    bad_exit = bwd == exit_ids.reshape(n, 1)
    pos = np.arange(n)

    def head_id(word: GroupWord) -> int:
        return block_id.get(tuple(islice(word.letters(), k0)), -1)

    def finish(quads: list, loose: list, first: int) -> int:
        """Exact stack from 0-based step `first`, the trial's first failure;
        the anchor is held as the id of its k0-letter head."""

        blocks: Dict[int, GroupWord] = {}

        def block(i: int) -> GroupWord:
            if i not in blocks:
                a, b, c, d = quads[i - 1]
                blocks[i] = words[a] * words[b] * v[i - 1] * words[c] * words[d] * w[i]
            return blocks[i]

        stack = list(range(1, first + 1))
        anchor = entry[first]
        for k in range(first + 1, n + 1):
            if not loose[k - 1] and fwd[quads[k - 1][0]] != anchor:
                stack.append(k)
                anchor = entry[k]
                continue
            # suffix = block(j+1) ... block(k), so tail(j) = w_j * suffix
            suffix, j = GroupWord.identity(), k
            while True:
                top = stack[-1] if stack else 0
                while j > top:
                    suffix = block(j) * suffix
                    j -= 1
                tail = w[top] * suffix
                # the exit block fails iff the tail starts with its backward head
                if not stack or head_id(tail) != bwd[quads[top - 1][3]]:
                    break
                stack.pop()
            # the anchor returns to the last kept step's end, or to w_0
            anchor = head_id(tail.inverse())
        return len(stack)

    rng = np.random.default_rng(seed)
    counts = np.empty(trials, dtype=np.int64)
    per_pass = max(1, _PASS_CELLS // n)
    for lo in range(0, trials, per_pass):
        m = min(per_pass, trials - lo)
        # row t equals the per-trial call's draw; int64, as there, since
        # another dtype takes different bits
        draws = rng.integers(0, N, size=(m, n, 4))
        A, B, C, D = (draws[:, :, i] for i in range(4))
        # middle or exit fails: the step fails whatever the anchor
        loose = (bwd[B] == v_word[pos, C]) | (fwd[C] == v_inv) | bad_exit[pos, D]
        fails = loose | (fwd[A] == entry[:-1])
        first = np.hstack([fails, np.ones((m, 1), dtype=bool)]).argmax(axis=1)
        counts[lo:lo + m] = first
        for t in np.flatnonzero(first < n):
            counts[lo + t] = finish(draws[t].tolist(), loose[t].tolist(), int(first[t]))
    return counts


# ---------------------------------------------------------------------------
# reference jump law for the pivot count


# the jump law's support is cut below -JUMP_DEPTH, its rest mass put on one
# atom, and the verdicts allow Z Monte-Carlo standard errors
JUMP_DEPTH = 60
Z = 3.0


def jump_law_pmf(n0: int) -> Dict[int, float]:
    """One-step law the pivot count dominates: +1 with probability (n0-4)/n0,
    -m with probability ((n0-4)/n0) * (4/n0)^m."""

    q = (n0 - 4) / n0
    r = 4 / n0
    pmf = {1: q}
    for m in range(1, JUMP_DEPTH + 1):
        pmf[-m] = q * r ** m
    pmf[-JUMP_DEPTH - 1] = max(0.0, 1.0 - sum(pmf.values()))
    return pmf


def jump_walk_cdf(n0: int, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Exact CDF of the n-fold sum of the jump law (support truncated)."""

    pmf = jump_law_pmf(n0)
    lo = min(pmf)
    # the one-step law on lo, ..., 1; 0 is no atom
    kernel = np.array([pmf.get(j, 0.0) for j in range(lo, 2)])
    dist = np.ones(1)
    for _ in range(n):
        dist = np.convolve(dist, kernel)
    return np.arange(lo * n, n + 1), np.cumsum(dist)


def dominates_jump_walk(counts: np.ndarray, n0: int, n: int) -> bool:
    """Empirical CDF of pivot counts must sit below the jump-walk CDF
    (stochastic domination), up to Z Monte-Carlo standard errors."""

    values, cdf = jump_walk_cdf(n0, n)
    trials = len(counts)
    emp = np.searchsorted(np.sort(counts), values, "right") / trials
    slack = Z * np.sqrt(np.maximum(cdf * (1 - cdf), 1e-12) / trials)
    return not np.any(emp > cdf + slack)


def half_count_tail_bound(n0: int, n: int) -> float:
    """Upper bound (3 * (4/n0)^(1/4))^n for P(#pivotal times <= n/2)."""

    return (3.0 * (4.0 / n0) ** 0.25) ** n


def half_count_tail_ok(counts: np.ndarray, n0: int, n: int) -> bool:
    """Empirical frequency of {count <= n/2} within Z standard errors of the
    theoretical tail bound (vacuous when the bound exceeds 1)."""

    bound = half_count_tail_bound(n0, n)
    if bound >= 1.0:
        return True
    trials = len(counts)
    freq = float(np.mean(counts <= n / 2))
    slack = Z * math.sqrt(max(bound * (1.0 - bound), 1e-12) / trials)
    return freq <= bound + slack


def sample_jump_dominated_counts(
    n0: int,
    n: int,
    trials: int,
    seed: int,
    sch: Optional[SchottkySet] = None,
) -> np.ndarray:
    """Sample pivot counts for a size-n0 tree set with fixed random spacers.

    The spacers and connectors are short reduced words drawn once from the
    seed, so the per-step failure rate is at most 4/n0 and the resulting
    counts dominate the jump walk of `jump_walk_cdf`.
    """

    from .schottky import tree_schottky_set
    from .words import random_reduced_word

    if sch is None:
        sch = tree_schottky_set(n0, seed=seed)
    if len(sch) != n0:
        raise ValueError("set size %d != n0 %d" % (len(sch), n0))
    rng = np.random.default_rng([seed, 7])
    w = [random_reduced_word(rng, sch.k0) for _ in range(n + 1)]
    v = [random_reduced_word(rng, sch.k0) for _ in range(n)]
    return simulate_pivot_counts(sch, n, trials, seed, w=w, v=v)


def pivot_counts_csv(path: str, counts: np.ndarray, n0: int, n: int, seed: int) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trial", "n0", "n", "seed", "pivot_count"])
        for t, c in enumerate(counts):
            writer.writerow([t, n0, n, seed, int(c)])
