"""Monte-Carlo experiment harness.

Each `run_*` operation draws seeded trials, computes exact tree statistics
(displacement and translation length use word arithmetic, never floats),
aggregates them, and derives a verdict mechanically from the thresholds
recorded in the report.  Reports are bit-reproducible: identical config and
seed give identical JSON/CSV bytes.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
import warnings
from dataclasses import dataclass, field
from itertools import count, repeat, starmap
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .counting import free_basis_margin
from .schottky import SchottkySet
from .svgplot import line_plot
from .walks import StepMeasure, discrepancy_bound_witness
from .words import SyllableStack, row_words


class ConfigurationError(ValueError):
    """Bad experiment configuration (preconditions, schema)."""


@dataclass
class ExperimentReport:
    experiment: str
    model: str
    measure: str
    seed: int
    n_grid: Tuple[int, ...]
    stats: Dict
    thresholds: Dict
    verdict: bool
    samples: List[Tuple] = field(default_factory=list)
    sample_header: Tuple[str, ...] = ()
    # the per-n statistic that `write(svg=True)` plots; None on a run with
    # no per-n records
    plotted: Optional[str] = None

    def to_json(self) -> str:
        payload = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)
                   if f.name not in ("samples", "sample_header", "plotted")}
        # NaN and Infinity are not JSON: a runner writes an unbounded value as null
        return json.dumps(payload, sort_keys=True, indent=1, allow_nan=False) + "\n"

    def write(self, outdir: str, svg: bool = False) -> None:
        os.makedirs(outdir, exist_ok=True)
        with open(os.path.join(outdir, "report.json"), "w") as fh:
            fh.write(self.to_json())
        with open(os.path.join(outdir, "samples.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.sample_header)
            writer.writerows(self.samples)
        if svg and self.plotted:
            self._plot(os.path.join(outdir, "%s.svg" % self.experiment))

    def _plot(self, path: str) -> None:
        ys = [self.stats["per_n"][str(n)][self.plotted] for n in self.n_grid]
        line_plot(self.experiment, self.plotted, [float(n) for n in self.n_grid], ys, path)


# ---------------------------------------------------------------------------
# fast tree walk ensembles


# the ensemble walks its trials in blocks of at most this many rows * steps
# (about 300 rows at n = 4000).  A block holds its int64 atom indices, its
# stack and `push`'s step columns, a traced peak of 19 bytes a cell on the
# heavy tail (int32 exponents) and 14 on the simple walk (int16); `draw`
# takes the uniforms in chunks, so no block holds them all.  perfbench
# medians (seeds 40-42, 2 cores) at 0.6, 1.2 and 2.4 million cells: heavy
# wall_s 0.412, 0.352, 0.384 s, peak_rss_mb 61.8, 72.5, 92.8; gap wall_s
# 0.722, 0.583, 0.672 s, peak_rss_mb 48.6, 60.4, 72.2
ENSEMBLE_BLOCK_CELLS = 1_200_000


def _walk_blocks(measure: StepMeasure, n: int, trials: int, rng, read):
    """`read` of each block of near-equal rows of `trials` n-step walks, in
    trial order: the stack of their words, which only `read` sees, so it is
    freed before the next block is drawn.  `rng.random` fills in C order and
    goes on where it stopped, so the blocks draw what one draw would."""

    blocks = -(-trials * n // ENSEMBLE_BLOCK_CELLS) or 1
    # the first trials % blocks blocks hold one row more, as np.array_split's
    q, r = divmod(trials, blocks)
    for rows in [q + 1] * r + [q] * (blocks - r):
        yield read(SyllableStack.identities(measure.table, rows, n).push(measure.draw(rng, (rows, n))))


def _cut_and_letters(stack: SyllableStack) -> Tuple[np.ndarray, np.ndarray]:
    # the letter count is the stack's last use: absolute exponents in place,
    # not in a stack-sized copy
    return stack.cyclic_cut(), np.abs(stack.exps, out=stack.exps).sum(axis=1)


def _row_words(stack: SyllableStack) -> List:
    return row_words(stack.gens, stack.exps)


def tree_walk_ensemble(measure: StepMeasure, n: int, trials: int, rng) -> Tuple[np.ndarray, np.ndarray]:
    """(displacement, translation length) arrays for `trials` independent
    n-step walks, exact word arithmetic throughout: each step pushes its
    sampled atoms onto a stack of the walks' reduced words."""

    cut, disp = map(np.concatenate, zip(*_walk_blocks(measure, n, trials, rng, _cut_and_letters)))
    return disp, disp - 2 * cut


def _trial_rng(seed: int, stream: int):
    return np.random.default_rng([seed, stream])


def require_tree(model) -> None:
    """The experiments compute exact word statistics on the tree only:
    refuse any other model rather than label tree statistics with its name."""

    if model.kind != "tree":
        raise ConfigurationError("experiments run on the tree, not the %s model" % model.kind)


def _check_grid(measure: StepMeasure, model, n_grid: Sequence[int], trials: int) -> None:
    """The hypotheses every runner shares: the tree, a grid of positive,
    strictly increasing n, positive trials and a non-elementary measure."""

    require_tree(model)
    if not n_grid or min(n_grid) <= 0 or trials <= 0:
        raise ConfigurationError("need a non-empty n grid, every n and the trial count positive")
    if any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise ConfigurationError("the n grid must be strictly increasing, not %s" % ",".join(map(str, n_grid)))
    if not non_elementary(measure, model):
        raise ConfigurationError("measure is elementary")


def _grid_ensembles(measure: StepMeasure, n_grid: Sequence[int], trials: int, seed: int):
    """(n, displacement, translation length) per grid point, drawn from
    stream gi of the seed at grid index gi."""

    for gi, n in enumerate(n_grid):
        yield (n, *tree_walk_ensemble(measure, n, trials, _trial_rng(seed, gi)))


# ---------------------------------------------------------------------------
# shared statistics


def log_slope_fit(ns: Sequence[float], ys: Sequence[float]) -> Tuple[float, float]:
    """Least-squares slope and R^2 of log(y) against n, positive entries
    only; (0, 1) when fewer than two positive points remain."""

    pts = [(n, math.log(y)) for n, y in zip(ns, ys) if y > 0]
    if len(pts) < 2:
        return 0.0, 1.0
    xs = np.array([p[0] for p in pts])
    zs = np.array([p[1] for p in pts])
    slope, intercept = np.polyfit(xs, zs, 1)
    pred = slope * xs + intercept
    ss_res = float(np.sum((zs - pred) ** 2))
    ss_tot = float(np.sum((zs - zs.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(slope), r2


def non_elementary(measure: StepMeasure, model) -> bool:
    """Whether two support atoms are independent contracting isometries,
    testing each atom against the first contracting one.  Exact on the
    tree: if every atom commutes with that one, all lie in its cyclic
    centraliser, and the walk's group is elementary."""

    atoms = map(measure.atom, range(len(measure.weights)))
    first = next((g for g in atoms if model.is_contracting_isometry(g)), None)
    # `any` goes on from the atom after `first`
    return any(model.independent(first, g) for g in atoms)


def calibrate(measure: StepMeasure, n: int, trials: int, seed: int) -> Dict[str, float]:
    """Escape-rate and variance estimates from a dedicated run (use a seed
    disjoint from the experiment seed to avoid selection bias)."""

    if trials < 2:
        raise ConfigurationError("calibration needs at least 2 trials for a variance")
    [(_, disp, _)] = _grid_ensembles(measure, (n,), trials, seed)
    lam = float(disp.mean()) / n
    sigma2 = float(disp.var(ddof=1)) / n
    return {"lambda": lam, "sigma2": sigma2, "n": n, "trials": trials}


def _calibration(calibration: Optional[Dict], measure: StepMeasure, n: int, trials: int, seed: int) -> Dict:
    return calibration or calibrate(measure, n, min(trials, 2000), seed + 10_001)


def _report(experiment: str, model, measure: StepMeasure, seed: int, n_grid: Sequence[int],
            verdict: bool, **fields) -> ExperimentReport:
    """The report of one run of `measure` on `model`."""

    return ExperimentReport(experiment=experiment, model=model.kind, measure=measure.to_json(),
                            seed=seed, n_grid=tuple(n_grid), verdict=bool(verdict), **fields)


def _sweep(point, grid) -> Tuple[Dict[str, Dict], List[Tuple]]:
    """per_n and the sample rows (n, trial, columns...) of the grid points
    `point(*g)` gives for each g of `grid`: (n, per-n record, per-trial
    columns)."""

    per_n, samples = {}, []
    for n, record, columns in starmap(point, grid):
        per_n[str(n)] = record
        samples += zip(repeat(n), count(), *columns)
    return per_n, samples


def _decay_fit(n_grid: Sequence[int], freqs: List[float]) -> Tuple[float, float, bool]:
    """Log-slope, R^2 and monotone decrease of failure frequencies."""

    slope, r2 = log_slope_fit(list(n_grid), freqs)
    return slope, r2, all(b <= a for a, b in zip(freqs, freqs[1:]))


# ---------------------------------------------------------------------------
# experiments


def run_genericity(
    measure: StepMeasure,
    model,
    n_grid: Sequence[int],
    trials: int,
    seed: int,
    L: float = 0.25,
    calibration: Optional[Dict] = None,
) -> ExperimentReport:
    """Frequency of {trivial or translation length < L*n} along the grid:
    must be non-increasing with a negative log-slope (or identically 0)."""

    _check_grid(measure, model, n_grid, trials)
    calib = _calibration(calibration, measure, max(n_grid), trials, seed)
    if not (math.isfinite(L) and L < calib["lambda"]):
        raise ConfigurationError("rate floor L=%g must be finite and below the escape rate estimate %g"
                                 % (L, calib["lambda"]))

    def point(n, disp, tau):
        fail = (tau < L * n) | (disp == 0)
        record = {"failure_freq": float(fail.mean()), "mean_tau": float(tau.mean()),
                  "mean_disp": float(disp.mean())}
        return n, record, (disp.tolist(), tau.tolist(), fail.astype(int).tolist())

    per_n, samples = _sweep(point, _grid_ensembles(measure, n_grid, trials, seed))
    freqs = [rec["failure_freq"] for rec in per_n.values()]
    slope, r2, monotone = _decay_fit(n_grid, freqs)
    # decay either reaches zero or fits a negative log-slope
    verdict = monotone and (freqs[-1] == 0 or (slope < 0 and r2 >= 0.8))
    return _report("genericity", model, measure, seed, n_grid, verdict,
                   stats={"per_n": per_n, "log_slope": slope, "r2": r2, "calibration": calib, "L": L},
                   thresholds={"r2_min": 0.8, "monotone": True},
                   samples=samples, sample_header=("n", "trial", "disp", "tau", "fail"), plotted="failure_freq")


def run_discrepancy(
    measure: StepMeasure,
    model,
    n_grid: Sequence[int],
    trials: int,
    seed: int,
    sch: Optional[SchottkySet] = None,
    claim_n: Optional[int] = None,
    claim_trials: int = 0,
) -> ExperimentReport:
    """Gap d(o, Z_n o) - tau(Z_n): 95th percentile must grow at most
    logarithmically (quadrupling n multiplies it by <= 1.6, over every n and
    4n of the grid); optionally checks the per-trial two-sided reach bound
    on non-capped trials."""

    _check_grid(measure, model, n_grid, trials)
    grid = list(n_grid)
    pairs = [(i, grid.index(4 * n)) for i, n in enumerate(grid) if 4 * n in grid]
    if not pairs:
        raise ConfigurationError("the quadrupling ratio needs some n and 4n in the grid, not %s"
                                 % ",".join(map(str, grid)))
    if claim_trials < 0 or (claim_n is not None and claim_n <= 0):
        raise ConfigurationError("claim_trials must be non-negative and claim_n positive")
    if len({claim_trials > 0, sch is not None, claim_n is not None}) > 1:
        raise ConfigurationError("the reach-bound claim takes --schottky, --claim-n and --claim-trials "
                                 "above 0 together, or none of them")
    if claim_trials > 0 and claim_n // 2 < sch.m0:
        # each half of a claim walk must hold a whole block for `deviation`
        raise ConfigurationError("the reach-bound claim needs claim_n // 2 >= the block length %d, "
                                 "got claim_n %d" % (sch.m0, claim_n))

    def point(n, disp, tau):
        gap = disp - tau
        return n, {"p95": float(np.percentile(gap, 95)), "mean_gap": float(gap.mean())}, (gap.tolist(),)

    per_n, samples = _sweep(point, _grid_ensembles(measure, n_grid, trials, seed))
    p95s = [rec["p95"] for rec in per_n.values()]
    worst_ratio = max(p95s[j] / p95s[i] if p95s[i] > 0 else (0.0 if p95s[j] == 0 else math.inf)
                      for i, j in pairs)

    claim_stats = None
    claim_ok = True
    if claim_trials > 0:
        applicable = 0
        violations = 0
        for t in range(claim_trials):
            wit = discrepancy_bound_witness(sch, measure.sample(_trial_rng(seed, 10_000 + t), claim_n))
            if wit.applicable:
                applicable += 1
                if wit.lhs > wit.rhs:
                    violations += 1
        claim_ok = violations == 0
        claim_stats = {"trials": claim_trials, "applicable": applicable, "violations": violations}
    verdict = worst_ratio <= 1.6 and claim_ok
    return _report("discrepancy", model, measure, seed, n_grid, verdict,
                   stats={"per_n": per_n, "claim": claim_stats,
                          # p95 0 at n and positive at 4n: unbounded, written as null
                          "worst_quadrupling_ratio": worst_ratio if worst_ratio < math.inf else None},
                   thresholds={"quadrupling_ratio_max": 1.6, "claim_violations": 0},
                   samples=samples, sample_header=("n", "trial", "gap"), plotted="p95")


def run_clt(
    measure: StepMeasure,
    model,
    n_grid: Sequence[int],
    trials: int,
    seed: int,
    calibration: Optional[Dict] = None,
) -> ExperimentReport:
    """Standardized displacement and translation length against the normal
    law, and against each other."""

    if len(n_grid) != 1:
        raise ConfigurationError("clt takes a single --n value")
    _check_grid(measure, model, n_grid, trials)
    [n] = n_grid
    calib = _calibration(calibration, measure, n, trials, seed)
    lam, sigma2 = calib["lambda"], calib["sigma2"]
    if sigma2 <= 1e-12:
        return _report("clt", model, measure, seed, n_grid, True,
                       stats={"degenerate": True, "calibration": calib}, thresholds={})
    # only this runner needs scipy.stats, which is most of the CLI's import time and memory
    from scipy import stats as sps

    def point(n, disp, tau):
        z_disp, z_tau = ((x - lam * n) / math.sqrt(sigma2 * n) for x in (disp, tau))
        with warnings.catch_warnings():
            # scipy warns when it falls back from the exact p-value, which is not read
            warnings.filterwarnings("ignore", "ks_2samp: Exact calculation unsuccessful", RuntimeWarning)
            ks_two = float(sps.ks_2samp(z_disp, z_tau).statistic)
        record = {"ks_disp": float(sps.kstest(z_disp, "norm").statistic),
                  "ks_tau": float(sps.kstest(z_tau, "norm").statistic), "ks_two_sample": ks_two}
        return n, record, (disp.tolist(), tau.tolist())

    per_n, samples = _sweep(point, _grid_ensembles(measure, n_grid, trials, seed))
    ks = per_n[str(n)]
    verdict = ks["ks_disp"] <= 0.05 and ks["ks_tau"] <= 0.05 and ks["ks_two_sample"] <= 0.03
    return _report("clt", model, measure, seed, n_grid, verdict,
                   stats={"per_n": per_n, "calibration": calib},
                   thresholds={"ks_one_sample_max": 0.05, "ks_two_sample_max": 0.03},
                   samples=samples, sample_header=("n", "trial", "disp", "tau"), plotted="ks_disp")


def run_clt_converse(
    measure: StepMeasure,
    model,
    n_grid: Sequence[int],
    trials: int,
    seed: int,
    contrast: bool = False,
) -> ExperimentReport:
    """Non-tightness of (d(o, Z_n o) - median)/sqrt(n) for infinite-variance
    steps: the IQR must grow by >= 20% per doubling.  With `contrast` set,
    a finite-variance measure must instead stabilize within 5%."""

    _check_grid(measure, model, n_grid, trials)
    if n_grid[0] == n_grid[-1]:
        raise ConfigurationError("the growth per doubling needs a grid whose first and last n differ")
    if not contrast and measure.moment_profile != "heavy_tail":
        raise ConfigurationError("converse test requires an infinite-variance measure")
    if contrast and measure.moment_profile == "heavy_tail":
        raise ConfigurationError("contrast run requires a finite-variance measure")

    def point(n, disp):
        med = float(np.median(disp))
        z = (disp - med) / math.sqrt(n)
        return n, {"iqr": float(np.percentile(z, 75) - np.percentile(z, 25)), "median": med}, (disp.tolist(),)

    per_n, samples = _sweep(point, ((n, disp) for n, disp, _ in _grid_ensembles(measure, n_grid, trials, seed)))
    iqrs = [rec["iqr"] for rec in per_n.values()]
    ratios = [iqrs[i + 1] / max(iqrs[i], 1e-12) for i in range(len(iqrs) - 1)]
    # growth per doubling, averaged over the grid (endpoint geometric mean);
    # individual ratios are quantile estimates and too noisy to gate on
    doublings = math.log2(n_grid[-1] / n_grid[0])
    growth = (iqrs[-1] / max(iqrs[0], 1e-12)) ** (1.0 / doublings)
    if contrast:
        verdict = abs(growth - 1.0) <= 0.05
        thresholds = {"stability_band": 0.05}
    else:
        verdict = growth >= 1.2
        thresholds = {"min_growth_per_doubling": 1.2}
    return _report("clt_converse" + ("_contrast" if contrast else ""), model, measure, seed, n_grid,
                   verdict, stats={"per_n": per_n, "doubling_ratios": ratios,
                                   "growth_per_doubling": growth, "statistic": "disp"},
                   thresholds=thresholds, samples=samples, sample_header=("n", "trial", "value"), plotted="iqr")


def run_free_subgroup(
    measure: StepMeasure,
    model,
    n_grid: Sequence[int],
    trials: int,
    seed: int,
    calibration: Optional[Dict] = None,
) -> ExperimentReport:
    """Two independent walks generate a free group of rank 2 with a linear
    orbit lower bound, outside a failure set shrinking in n.  A trial passes
    when its free-basis margin is at least k1, which certifies that every
    reduced word of every length m in the pair moves the basepoint by at
    least m * k1."""

    _check_grid(measure, model, n_grid, trials)
    calib = _calibration(calibration, measure, max(n_grid), trials, seed)

    def point(gi, n):
        k1 = max(1.0, 0.05 * calib["lambda"] * n)
        # trial t pairs row t of stream gi of the seed, the walk every other
        # runner draws there, with row t of stream gi of seed + 500,000
        blocks = (_walk_blocks(measure, n, trials, _trial_rng(s, gi), _row_words) for s in (seed, seed + 500_000))
        margin = np.array([free_basis_margin(pair) for one, two in zip(*blocks) for pair in zip(one, two)])
        fail = margin < k1
        return n, {"failure_freq": float(fail.mean()), "k1": k1}, (margin.tolist(), fail.astype(int).tolist())

    per_n, samples = _sweep(point, enumerate(n_grid))
    freqs = [rec["failure_freq"] for rec in per_n.values()]
    slope, r2, monotone = _decay_fit(n_grid, freqs)
    verdict = monotone and (freqs[-1] == 0 or slope < 0) and freqs[-1] <= 0.05
    return _report("free_subgroup", model, measure, seed, n_grid, verdict,
                   stats={"per_n": per_n, "log_slope": slope, "r2": r2, "calibration": calib},
                   thresholds={"final_failure_max": 0.05, "monotone": True},
                   samples=samples, sample_header=("n", "trial", "margin", "fail"), plotted="failure_freq")
