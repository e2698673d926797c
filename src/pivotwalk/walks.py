"""Random walks on the model spaces and the reduction pipeline.

Step measures are finitely-supported probability measures on group words.
The deviation variable measures how soon a trajectory passes a Schottky
axis that the whole two-sided path respects; the reduction operations
rewrite a sampled trajectory into a decorated product of Schottky blocks
whose pivotal-time machinery then yields displacement lower bounds.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import numbers
import operator
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .geometry import Path, is_aligned
from .schottky import SchottkySet, inverse_set
from .words import GroupWord, word_from_str, word_to_str


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
            table = _syllable_table(support)
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
            gens, exps = self.table
            # a row holds a reduced word, padding only at its end
            word = GroupWord(tuple((g, e) for g, e in zip(gens[i].tolist(), exps[i].tolist()) if e))
            self._words[i] = word
        return word

    @property
    def support(self) -> Tuple[GroupWord, ...]:
        """Every atom's word; `atom` builds only the one asked for."""

        return tuple(map(self.atom, range(len(self.weights))))

    @functools.cached_property
    def _masses(self) -> Dict[Tuple, float]:
        """Weight by padded table row; a repeated atom keeps its first weight."""

        gens, exps = self.table
        rows = list(zip(*(zip(g.tolist(), e.tolist()) for g, e in zip(gens.T, exps.T))))
        return dict(zip(reversed(rows), reversed(self.weights.tolist())))

    @property
    def weights_sha256(self) -> str:
        return hashlib.sha256(self.weights.tobytes()).hexdigest()

    @property
    def rank(self) -> int:
        """Largest generator index an atom uses."""

        return int(self.table[0].max(initial=0))

    def __eq__(self, other) -> bool:
        if not isinstance(other, StepMeasure):
            return NotImplemented
        return (
            (self.moment_profile, self.params) == (other.moment_profile, other.params)
            and all(map(np.array_equal, (self.weights, *self.table), (other.weights, *other.table)))
        )

    __hash__ = None

    def sample(self, rng, size: int) -> List[GroupWord]:
        idx = rng.choice(len(self.weights), size=size, p=self.weights)
        return [self.atom(i) for i in idx.tolist()]

    def mass(self, word: GroupWord) -> float:
        pad = ((0, 0),) * (self.table[0].shape[1] - len(word.syls))
        return self._masses.get(word.syls + pad, 0.0)

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
            mu = heavy_tail(data["eta"], data["kmax"], data["rank"])
            if data["weights_sha256"] != mu.weights_sha256:
                raise ValueError("weights_sha256 does not match the weights of heavy_tail(%s)"
                                 % ", ".join("%s=%r" % kv for kv in sorted(mu.params.items())))
            return mu
        return StepMeasure(
            tuple(word_from_str(s) for s in data["support"]),
            tuple(float(x) for x in data["weights"]),
            data.get("moment_profile", "bounded"),
        )


def _syllable_table(support: Sequence[GroupWord]) -> Tuple[np.ndarray, np.ndarray]:
    """Generator and exponent arrays of shape (atoms, S), S the most
    syllables an atom has (at least 1), zero-padded on the right."""

    width = max([1] + [len(s.syls) for s in support])
    pad = ((0, 0),) * width
    rows = (s.syls + pad[len(s.syls):] for s in support)
    flat = itertools.chain.from_iterable(itertools.chain.from_iterable(rows))
    table = np.fromiter(flat, dtype=np.int64, count=2 * width * len(support)).reshape(-1, width, 2)
    return table[..., 0].astype(np.int16), np.ascontiguousarray(table[..., 1])


def simple_rw(rank: int = 2) -> StepMeasure:
    gens: List[GroupWord] = []
    for g in range(1, rank + 1):
        gens.append(GroupWord.generator(g, 1))
        gens.append(GroupWord.generator(g, -1))
    p = 1.0 / len(gens)
    return StepMeasure(tuple(gens), tuple(p for _ in gens))


def dirac(word: GroupWord) -> StepMeasure:
    return StepMeasure((word,), (1.0,))


def heavy_tail(eta: float = 1.1, kmax: int = 65536, rank: int = 2) -> StepMeasure:
    """Power-tail measure on generator powers: the mass of a ±k-th power
    decays like k^-(1+eta), so eta in (1, 2) gives finite mean displacement
    with infinite variance (truncated at kmax; truncation is disclosed by
    the callers' reports).

    Atom i is generator (i // 2) % rank + 1 to the power ±(i // (2 rank) + 1),
    positive for even i: k-major, then generator, then sign.
    """

    if not (math.isfinite(eta) and eta > 0):
        raise ValueError("eta must be positive and finite, got %r" % (eta,))
    for name, value in (("kmax", kmax), ("rank", rank)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
            raise ValueError("%s must be a positive integer, got %r" % (name, value))
    raw = [(k + 1) ** -(1.0 + eta) for k in range(kmax)]
    z = sum(raw) * 2 * rank
    weights = np.repeat(np.array(raw) / z, 2 * rank)
    weights[-1] += 1.0 - sum(weights.tolist())  # pin rounding onto the lightest atom
    gens = np.tile(np.repeat(np.arange(1, rank + 1, dtype=np.int16), 2), kmax)
    exps = np.repeat(np.arange(1, kmax + 1), 2 * rank) * np.tile([1, -1], rank * kmax)
    params = {"eta": float(eta), "kmax": int(kmax), "rank": int(rank)}
    return StepMeasure(None, weights, "heavy_tail", table=(gens[:, None], exps[:, None]), params=params)


def mixture(parts: Sequence[Tuple[StepMeasure, float]]) -> StepMeasure:
    acc: Dict[GroupWord, float] = {}
    for measure, coef in parts:
        for s, p in zip(measure.support, measure.weights):
            acc[s] = acc.get(s, 0.0) + coef * p
    profile = "heavy_tail" if any(m.moment_profile == "heavy_tail" for m, _ in parts) else "bounded"
    items = sorted(acc.items(), key=lambda kv: word_to_str(kv[0]))
    return StepMeasure(tuple(k for k, _ in items), tuple(v for _, v in items), profile)


def reflect(measure: StepMeasure) -> StepMeasure:
    """Step law of the inverted increments."""

    items = sorted(
        zip((s.inverse() for s in measure.support), measure.weights),
        key=lambda kv: word_to_str(kv[0]),
    )
    return StepMeasure(tuple(k for k, _ in items), tuple(v for _, v in items), measure.moment_profile)


def partial_products(increments: Sequence[GroupWord]) -> List[GroupWord]:
    out = [GroupWord.identity()]
    for s in increments:
        out.append(out[-1] * s)
    return out


def walk_product(increments: Sequence[GroupWord]) -> GroupWord:
    """W_n = g_1 g_2 ... g_n, the last of the partial products."""

    return functools.reduce(operator.mul, increments, GroupWord.identity())


def sample_path(measure: StepMeasure, n: int, rng) -> List[GroupWord]:
    """Partial products W_0 = id, W_1, ..., W_n."""

    return partial_products(measure.sample(rng, n))


# ---------------------------------------------------------------------------
# deviation variable


@dataclass(frozen=True)
class DeviationSample:
    d: int  # horizon + 1 when capped
    witness: Optional[int]
    horizon: int
    capped: bool


def deviation(
    model,
    sch: SchottkySet,
    check_incs: Sequence[GroupWord],
    fwd_incs: Sequence[GroupWord],
    horizon: int,
    mirrored: bool = False,
) -> DeviationSample:
    """Minimal k with a witness index i, m0 <= i <= k, such that the i-th
    forward window spells a Schottky block and the window's axis separates
    every backward point from every forward point at or past k (tested up
    to `horizon`, d1-width alignment).

    `mirrored` runs the same definition on the backward side: the block is
    spelled by the backward increments and the axis must shield every
    forward point from backward points at or past k.
    """

    m0 = sch.m0
    d1 = sch.constants.d1
    if horizon < m0:
        raise ValueError("horizon below block length")
    blocks = {tuple(seq.steps): i for i, seq in enumerate(sch.sequences)}
    side_incs = check_incs if mirrored else fwd_incs
    fwd_pts = partial_products(fwd_incs[:horizon])
    chk_pts = partial_products(check_incs[:horizon])
    pts = chk_pts if mirrored else fwd_pts

    best: Optional[Tuple[int, int]] = None  # (k, witness i)
    for i in range(m0, horizon + 1):
        if best is not None and best[0] <= i:
            break  # a later witness i gives k >= i >= best k, and loses the tie on i
        if tuple(side_incs[i - m0 : i]) not in blocks:
            continue
        axis_words = pts[i - m0 : i + 1]
        axis = Path(tuple(model.apply(wd, model.basepoint) for wd in axis_words))
        # near side: every point of the opposite ray projects near the start
        near_pts = fwd_pts if mirrored else chk_pts
        far_pts = chk_pts if mirrored else fwd_pts
        ok_near = all(
            is_aligned(model, [model.apply(wd, model.basepoint), axis], d1).aligned
            for wd in near_pts
        )
        if not ok_near:
            continue
        # far side: find the least k >= i from which alignment never breaks
        k_min = i
        for k in range(horizon, i - 1, -1):
            pt = model.apply(far_pts[k], model.basepoint)
            if not is_aligned(model, [axis, pt], d1).aligned:
                k_min = k + 1
                break
        if k_min > horizon:
            continue
        cand = (max(k_min, i), i)
        if best is None or cand < best:
            best = cand
    if best is None:
        return DeviationSample(d=horizon + 1, witness=None, horizon=horizon, capped=True)
    return DeviationSample(d=best[0], witness=best[1], horizon=horizon, capped=False)


@dataclass(frozen=True)
class DiscrepancyWitness:
    applicable: bool
    lhs: Optional[float]
    rhs: Optional[float]
    deviations: Tuple[int, int, int, int]


def discrepancy_bound_witness(
    model,
    sch: SchottkySet,
    increments: Sequence[GroupWord],
    aux: Sequence[GroupWord],
    horizon: Optional[int] = None,
) -> DiscrepancyWitness:
    """Both sides of the displacement-vs-translation-length gap bound.

    The trajectory is re-split at its midpoint into two forward/backward
    pairs (auxiliary fresh increments `aux` extend each piece past the
    data it owns); when all four deviation variables are below n/10 the
    bound gap <= 2 * min(forward, backward reach at the deviation time)
    must hold, with the translation length computed exactly.
    """

    n = len(increments)
    half = n // 2
    horizon = horizon if horizon is not None else half
    horizon = min(horizon, half)
    need = horizon + (n - half)
    if len(aux) < 2 * need:
        raise ValueError("need at least %d auxiliary increments" % (2 * need))
    aux_pos = list(aux[:need])
    aux_neg = list(aux[need : 2 * need])

    g = list(increments)
    fwd0 = g[:half] + aux_pos
    chk0 = [w.inverse() for w in reversed(g[half:])] + aux_neg
    fwd1 = g[half:] + aux_pos
    chk1 = [w.inverse() for w in reversed(g[:half])] + aux_neg

    d0 = deviation(model, sch, chk0, fwd0, horizon)
    dc0 = deviation(model, sch, chk0, fwd0, horizon, mirrored=True)
    d1v = deviation(model, sch, chk1, fwd1, horizon)
    dc1 = deviation(model, sch, chk1, fwd1, horizon, mirrored=True)
    devs = (d0.d, dc0.d, d1v.d, dc1.d)
    if max(devs) >= n / 10:
        return DiscrepancyWitness(False, None, None, devs)

    total = walk_product(g)
    lhs = model.distance(model.basepoint, model.apply(total, model.basepoint)) - model.translation_length(total)

    zfwd = walk_product(fwd0[: d0.d])
    zchk = walk_product(chk0[: dc0.d])
    reach_f = model.distance(model.basepoint, model.apply(zfwd, model.basepoint))
    reach_b = model.distance(model.basepoint, model.apply(zchk, model.basepoint))
    rhs = 2.0 * min(reach_f, reach_b)
    return DiscrepancyWitness(True, lhs, rhs, devs)


# ---------------------------------------------------------------------------
# first reduction: block decomposition of the step law


@dataclass(frozen=True)
class FirstDecomposition:
    """Z_n rewritten as w_0 A_1 B_1 v_1 C_1 D_1 w_1 ... with quadruples of
    Schottky-block indices; `complete` records whether at least m_target
    decorated chunks were produced (the B_n event)."""

    quads: Tuple[Tuple[int, int, int, int], ...]
    v: Tuple[GroupWord, ...]
    w: Tuple[GroupWord, ...]
    m_target: int
    complete: bool
    p: float
    decorated_chunks: int

    def total(self, sch: SchottkySet) -> GroupWord:
        words = sch.products()
        acc = self.w[0]
        for (a, b, c, d), vk, wk in zip(self.quads, self.v, self.w[1:]):
            acc = acc * words[a] * words[b] * vk * words[c] * words[d] * wk
        return acc


def schottky_step_rate(measure: StepMeasure, sch: SchottkySet) -> float:
    """min over blocks of the chance that m0 consecutive steps spell it."""

    best = None
    for seq in sch.sequences:
        p = 1.0
        for step in seq.steps:
            p *= measure.mass(step)
        best = p if best is None else min(best, p)
    return best if best is not None else 0.0


def first_reduction_rate(measure: StepMeasure, sch: SchottkySet) -> float:
    """Mass p of the Schottky component: the (4*m0+1)-step law dominates
    p * (uniform-block^2 x mu x uniform-block^2)."""

    return (len(sch) * schottky_step_rate(measure, sch)) ** 4


def first_reduction(
    measure: StepMeasure,
    sch: SchottkySet,
    n: int,
    rng,
    p_override: Optional[float] = None,
) -> FirstDecomposition:
    """Sample an n-step walk chunkwise from the two-component decomposition
    of the (4*m0+1)-step law: each chunk is decorated (four uniform blocks
    around a single connector step) with probability p, otherwise drawn
    from the complement law by rejection.  Keeps the first m_target =
    floor(p*n / 8*m0) decorated chunks as decorations and folds the rest
    into spacers; `complete` is False when fewer were produced.

    p_override substitutes an artificial decoration rate (diagnostic only:
    the output is no longer distributed as the mu-walk, but all structural
    contracts, reassembly included, still apply).
    """

    m0 = sch.m0
    N = len(sch)
    span = 4 * m0 + 1
    rate = schottky_step_rate(measure, sch)
    if rate <= 0:
        raise ValueError("Schottky blocks not supported by the measure")
    p = (N * rate) ** 4 if p_override is None else p_override
    m_target = int(p * n / (8 * m0))
    chunks = n // span
    blocks = {tuple(seq.steps): i for i, seq in enumerate(sch.sequences)}
    words = sch.products()

    decorated: List[Tuple[Tuple[int, int, int, int], GroupWord]] = []
    pieces: List[Tuple[str, object]] = []  # ("quad", (quad, v)) | ("word", word)
    for _ in range(chunks):
        if rng.random() < p:
            quad = tuple(int(x) for x in rng.integers(0, N, size=4))
            v = measure.sample(rng, 1)[0]
            pieces.append(("quad", (quad, v)))
            decorated.append((quad, v))
        else:
            while True:
                steps = measure.sample(rng, span)
                prod_mass = 1.0
                for s in steps:
                    prod_mass *= measure.mass(s)
                spelled = all(
                    tuple(steps[q * m0 : (q + 1) * m0]) in blocks for q in range(4)
                ) if p_override is None else False
                weight = (rate ** 4) * measure.mass(steps[2 * m0]) if spelled else 0.0
                # accept from the complement law
                if rng.random() < 1.0 - (p * weight / prod_mass if weight else 0.0):
                    pieces.append(("word", walk_product(steps)))
                    break
    tail = walk_product(measure.sample(rng, n - chunks * span))

    quads: List[Tuple[int, int, int, int]] = []
    vs: List[GroupWord] = []
    ws: List[GroupWord] = []
    spacer = GroupWord.identity()
    kept = 0
    for kind, payload in pieces:
        if kind == "quad" and kept < m_target:
            quad, v = payload
            quads.append(quad)
            vs.append(v)
            ws.append(spacer)
            spacer = GroupWord.identity()
            kept += 1
        elif kind == "quad":
            # surplus decorated chunk, demoted into the running spacer
            quad, v = payload
            a, b, c, d = quad
            spacer = spacer * words[a] * words[b] * v * words[c] * words[d]
        else:
            spacer = spacer * payload
    ws.append(spacer * tail)
    return FirstDecomposition(
        quads=tuple(quads),
        v=tuple(vs),
        w=tuple(ws),
        m_target=m_target,
        complete=len(decorated) >= m_target,
        p=p,
        decorated_chunks=len(decorated),
    )


# ---------------------------------------------------------------------------
# second reduction: rebalance decorations through the pivotal times


def _fold_middles(w: Sequence[GroupWord], middles) -> GroupWord:
    """w_0 B_1 v_1 C_1 w_1 ... B_m v_m C_m w_m."""

    acc = w[0]
    for (b, v, c), wk in zip(middles, w[1:]):
        acc = acc * b * v * c * wk
    return acc


@dataclass(frozen=True)
class SecondDecomposition:
    """Primed rewrite of a first-stage decomposition: only the middle pairs
    at selected pivotal times stay decorated, everything else (entry/exit
    blocks included) folds into the primed spacers."""

    w: Tuple[GroupWord, ...]
    middles: Tuple[Tuple[GroupWord, GroupWord, GroupWord], ...]  # (B, v, C)
    selected: Tuple[int, ...]
    m_target: int
    complete: bool

    def total(self) -> GroupWord:
        return _fold_middles(self.w, self.middles)


def second_reduction(model, sch: SchottkySet, first: FirstDecomposition) -> SecondDecomposition:
    """Select 2*floor(m/4) pivotal times of the decorated product (half
    from each end) and re-fold around them.  `complete` is False when the
    product has fewer pivotal times than the target."""

    from .pivotal import PivotConfig, compute_pivotal_times

    words = sch.products()
    m = len(first.quads)
    m_target = 2 * (m // 4)
    if m == 0:
        return SecondDecomposition(
            w=(first.total(sch),), middles=(), selected=(), m_target=0, complete=True
        )
    config = PivotConfig(sch=sch, quads=first.quads, w=first.w, v=first.v)
    times = compute_pivotal_times(model, config)
    complete = len(times) >= m_target
    if not complete or m_target == 0:
        return SecondDecomposition(
            w=(first.total(sch),), middles=(), selected=(), m_target=m_target,
            complete=complete and m_target == 0,
        )
    half = m_target // 2
    idx = list(times.indices)
    selected = sorted(set(idx[:half] + idx[-half:]))

    w_out: List[GroupWord] = []
    middles: List[Tuple[GroupWord, GroupWord, GroupWord]] = []
    prev = 0
    acc = first.w[0]
    for i in selected:
        for k in range(prev + 1, i):
            acc = acc * config.block_isometry(k)
        a, b, c, d = first.quads[i - 1]
        w_out.append(acc * words[a])
        middles.append((words[b], first.v[i - 1], words[c]))
        acc = words[d] * first.w[i]
        prev = i
    for k in range(prev + 1, m + 1):
        acc = acc * config.block_isometry(k)
    w_out.append(acc)
    return SecondDecomposition(
        w=tuple(w_out),
        middles=tuple(middles),
        selected=tuple(selected),
        m_target=m_target,
        complete=True,
    )


# ---------------------------------------------------------------------------
# counting reduction: measures dominating uniform fourfold block products


def fourfold_products(sch: SchottkySet) -> List[GroupWord]:
    """All N^4 ordered products of four block words."""

    words = sch.products()
    out = []
    for a in words:
        for b in words:
            for c in words:
                for d in words:
                    out.append(a * b * c * d)
    return out


def bernoulli_rate_bound(p: float, eps: float) -> float:
    """Chernoff: P(Binomial(n, p) < 2*eps*n) <= rate^n for 2*eps < p."""

    if not 0 < 2 * eps < p:
        raise ValueError("need 0 < 2*eps < p")
    a = 2 * eps
    return (p / a) ** a * ((1 - p) / (1 - a)) ** (1 - a)


def pick_epsilon(p: float, q: float, grid: int = 4000) -> float:
    """Largest grid epsilon whose Chernoff rate is at most 1 - q."""

    best = None
    for i in range(1, grid):
        eps = (p / 2) * i / grid
        try:
            if bernoulli_rate_bound(p, eps) <= 1 - q:
                best = eps
        except ValueError:
            break
    if best is None:
        raise ValueError("no epsilon meets the rate target; lower q")
    return best


@dataclass(frozen=True)
class CountingSample:
    w: Tuple[GroupWord, ...]
    middles: Tuple[Tuple[GroupWord, GroupWord, GroupWord], ...]
    branches: Tuple[str, ...]  # per kept decoration: "fwd" | "inv"
    m_target: int
    marked: int
    complete: bool
    p: float
    eps: float

    def total(self) -> GroupWord:
        return _fold_middles(self.w, self.middles)


def counting_measure_parts(sch: SchottkySet) -> Tuple[List[GroupWord], List[GroupWord]]:
    fwd = fourfold_products(sch)
    inv = fourfold_products(inverse_set(sch))
    overlap = set(fwd) & set(inv)
    if overlap:
        raise ValueError("forward and inverse fourfold images overlap")
    if len(set(fwd)) != len(fwd) or len(set(inv)) != len(inv):
        raise ValueError("fourfold product map is not injective")
    return fwd, inv


def counting_rest_measure(measure: StepMeasure, elements: Sequence[GroupWord], p: float) -> StepMeasure:
    """Complement part of mu = p * uniform(elements) + (1 - p) * rest."""

    u = p / len(elements)
    acc: Dict[GroupWord, float] = {}
    for s, q in zip(measure.support, measure.weights):
        acc[s] = acc.get(s, 0.0) + q
    for e in elements:
        have = acc.get(e, 0.0)
        if have + 1e-12 < u:
            raise ValueError("measure does not dominate the uniform part")
        acc[e] = have - u
    scale = 1.0 / (1.0 - p)
    items = sorted(
        ((k, v * scale) for k, v in acc.items() if v * scale > 1e-14),
        key=lambda kv: word_to_str(kv[0]),
    )
    weights = [v for _, v in items]
    slack = 1.0 - sum(weights)
    weights[0] += slack
    return StepMeasure(tuple(k for k, _ in items), tuple(weights))


def counting_reduction(
    measure: StepMeasure,
    sch: SchottkySet,
    n: int,
    rng,
    p: float,
    eps: Optional[float] = None,
    q: float = 0.5,
) -> CountingSample:
    """n-step walk from the decomposition of `measure` over the two
    fourfold-product images; marked steps decorate, the first
    2*floor(eps*n) decorations are kept, the rest fold into spacers."""

    if not 0 < q < p < 1:
        raise ValueError("need 0 < q < p < 1")
    eps = eps if eps is not None else pick_epsilon(p, q)
    fwd, inv = counting_measure_parts(sch)
    rest = counting_rest_measure(measure, fwd + inv, p)
    words = sch.products()
    inv_words = inverse_set(sch).products()
    N = len(sch)
    m_target = 2 * int(eps * n)

    w_out: List[GroupWord] = []
    middles: List[Tuple[GroupWord, GroupWord, GroupWord]] = []
    branches: List[str] = []
    spacer = GroupWord.identity()
    marked = 0
    ident = GroupWord.identity()
    for _ in range(n):
        if rng.random() < p:
            branch = "fwd" if rng.random() < 0.5 else "inv"
            pool = words if branch == "fwd" else inv_words
            a, b, c, d = (pool[int(i)] for i in rng.integers(0, N, size=4))
            marked += 1
            if len(middles) < m_target:
                w_out.append(spacer * a)
                middles.append((b, ident, c))
                branches.append(branch)
                spacer = d
            else:
                spacer = spacer * a * b * c * d
        else:
            spacer = spacer * rest.sample(rng, 1)[0]
    w_out.append(spacer)
    return CountingSample(
        w=tuple(w_out),
        middles=tuple(middles),
        branches=tuple(branches),
        m_target=m_target,
        marked=marked,
        complete=marked >= m_target,
        p=p,
        eps=eps,
    )
