"""Monte-Carlo experiment harness.

Each `run_*` operation draws seeded trials, computes exact tree statistics
(displacement and translation length use word arithmetic, never floats),
aggregates them, and derives a verdict mechanically from the thresholds
recorded in the report.  Reports are bit-reproducible: identical config and
seed give identical JSON/CSV bytes.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, field
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

    def to_json(self) -> str:
        payload = {
            "experiment": self.experiment,
            "model": self.model,
            "measure": self.measure,
            "seed": self.seed,
            "n_grid": list(self.n_grid),
            "stats": self.stats,
            "thresholds": self.thresholds,
            "verdict": bool(self.verdict),
        }
        # NaN and Infinity are not JSON: a runner writes an unbounded value as null
        return json.dumps(payload, sort_keys=True, indent=1, allow_nan=False) + "\n"

    def write(self, outdir: str, svg: bool = False) -> None:
        import os

        os.makedirs(outdir, exist_ok=True)
        with open(os.path.join(outdir, "report.json"), "w") as fh:
            fh.write(self.to_json())
        with open(os.path.join(outdir, "samples.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.sample_header)
            writer.writerows(self.samples)
        if svg:
            self._plot(os.path.join(outdir, "%s.svg" % self.experiment))

    def _plot(self, path: str) -> None:
        per_n = self.stats.get("per_n", {})
        key = None
        for cand in ("failure_freq", "iqr", "p95", "ks_disp"):
            if per_n and all(cand in rec for rec in per_n.values()):
                key = cand
                break
        if key is None:
            return
        ns = sorted(int(n) for n in per_n)
        ys = [per_n[str(n)][key] for n in ns]
        line_plot(key, [float(n) for n in ns], [float(y) for y in ys],
                  title=self.experiment, xlabel="n", ylabel=key, path=path)


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


def _walk_blocks(measure: StepMeasure, n: int, trials: int, rng):
    """Each block of near-equal rows of `trials` n-step walks: its trial
    indices and the stack of their words.  `rng.random` fills in C order and
    goes on where it stopped, so the blocks draw what one draw would."""

    for rows in np.array_split(np.arange(trials), -(-trials * n // ENSEMBLE_BLOCK_CELLS) or 1):
        stack = SyllableStack.identities(measure.table, len(rows), n)
        stack.push(measure.draw(rng, (len(rows), n)))
        yield rows, stack
        # the consumer is done with the block: free it before the next draw
        del stack


def tree_walk_ensemble(measure: StepMeasure, n: int, trials: int, rng) -> Tuple[np.ndarray, np.ndarray]:
    """(displacement, translation length) arrays for `trials` independent
    n-step walks, exact word arithmetic throughout: each step pushes its
    sampled atoms onto a stack of the walks' reduced words."""

    disp = np.empty(trials, dtype=np.int64)
    cut = np.empty(trials, dtype=np.int64)
    for rows, stack in _walk_blocks(measure, n, trials, rng):
        cut[rows] = stack.cyclic_cut()
        # the stack's last use: absolute exponents in place, not in a stack-sized copy
        disp[rows] = np.abs(stack.exps, out=stack.exps).sum(axis=1)
        del stack
    return disp, disp - 2 * cut


def _trial_rng(seed: int, stream: int):
    return np.random.default_rng([seed, stream])


def require_tree(model) -> None:
    """The experiments compute exact word statistics on the tree only:
    refuse any other model rather than label tree statistics with its name."""

    if model.kind != "tree":
        raise ConfigurationError("experiments run on the tree, not the %s model" % model.kind)


def _check_grid(model, n_grid: Sequence[int], trials: int) -> None:
    require_tree(model)
    if not n_grid or min(n_grid) <= 0 or trials <= 0:
        raise ConfigurationError("need a non-empty n grid, every n and the trial count positive")
    if any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise ConfigurationError("the n grid must be strictly increasing, not %s" % ",".join(map(str, n_grid)))


def _grid_ensembles(measure: StepMeasure, n_grid: Sequence[int], trials: int, seed: int):
    """(n, displacement, translation length) per grid point, drawn from
    stream gi of the seed at grid index gi."""

    for gi, n in enumerate(n_grid):
        disp, tau = tree_walk_ensemble(measure, n, trials, _trial_rng(seed, gi))
        yield n, disp, tau


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
                            seed=seed, n_grid=tuple(n_grid), verdict=verdict, **fields)


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
    L: float,
    seed: int,
    calibration: Optional[Dict] = None,
) -> ExperimentReport:
    """Frequency of {trivial or translation length < L*n} along the grid:
    must be non-increasing with a negative log-slope (or identically 0)."""

    _check_grid(model, n_grid, trials)
    if not non_elementary(measure, model):
        raise ConfigurationError("measure is elementary")
    calib = _calibration(calibration, measure, max(n_grid), trials, seed)
    if not (math.isfinite(L) and L < calib["lambda"]):
        raise ConfigurationError(
            "rate floor L=%g must be finite and below the escape rate estimate %g" % (L, calib["lambda"])
        )
    per_n: Dict[str, Dict] = {}
    samples: List[Tuple] = []
    freqs = []
    for n, disp, tau in _grid_ensembles(measure, n_grid, trials, seed):
        fail = (tau < L * n) | (disp == 0)
        freq = float(fail.mean())
        freqs.append(freq)
        per_n[str(n)] = {
            "failure_freq": freq,
            "mean_tau": float(tau.mean()),
            "mean_disp": float(disp.mean()),
        }
        samples += zip([n] * trials, range(trials), disp.tolist(), tau.tolist(), fail.astype(int).tolist())
    slope, r2, monotone = _decay_fit(n_grid, freqs)
    # decay either reaches zero or fits a negative log-slope
    verdict = monotone and (freqs[-1] == 0 or (slope < 0 and r2 >= 0.8))
    return _report("genericity", model, measure, seed, n_grid, verdict,
                   stats={"per_n": per_n, "log_slope": slope, "r2": r2, "calibration": calib, "L": L},
                   thresholds={"r2_min": 0.8, "monotone": True},
                   samples=samples, sample_header=("n", "trial", "disp", "tau", "fail"))


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

    _check_grid(model, n_grid, trials)
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
    per_n: Dict[str, Dict] = {}
    samples: List[Tuple] = []
    p95s = []
    for n, disp, tau in _grid_ensembles(measure, n_grid, trials, seed):
        gap = disp - tau
        p95 = float(np.percentile(gap, 95))
        p95s.append(p95)
        per_n[str(n)] = {"p95": p95, "mean_gap": float(gap.mean())}
        samples += zip([n] * trials, range(trials), gap.tolist())
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
                   samples=samples, sample_header=("n", "trial", "gap"))


def run_clt(
    measure: StepMeasure,
    model,
    n: int,
    trials: int,
    seed: int,
    calibration: Optional[Dict] = None,
) -> ExperimentReport:
    """Standardized displacement and translation length against the normal
    law, and against each other."""

    _check_grid(model, (n,), trials)
    calib = _calibration(calibration, measure, n, trials, seed)
    lam, sigma2 = calib["lambda"], calib["sigma2"]
    if sigma2 <= 1e-12:
        return _report("clt", model, measure, seed, (n,), True,
                       stats={"degenerate": True, "calibration": calib}, thresholds={})
    [(_, disp, tau)] = _grid_ensembles(measure, (n,), trials, seed)
    scale = math.sqrt(sigma2 * n)
    z_disp = (disp - lam * n) / scale
    z_tau = (tau - lam * n) / scale
    # only this runner needs scipy.stats, which is most of the CLI's import time and memory
    from scipy import stats as sps

    ks_disp = float(sps.kstest(z_disp, "norm").statistic)
    ks_tau = float(sps.kstest(z_tau, "norm").statistic)
    with warnings.catch_warnings():
        # scipy warns when it falls back from the exact p-value, which is not read
        warnings.filterwarnings("ignore", "ks_2samp: Exact calculation unsuccessful", RuntimeWarning)
        ks_two = float(sps.ks_2samp(z_disp, z_tau).statistic)
    verdict = ks_disp <= 0.05 and ks_tau <= 0.05 and ks_two <= 0.03
    samples = list(zip([n] * trials, range(trials), disp.tolist(), tau.tolist()))
    return _report("clt", model, measure, seed, (n,), verdict,
                   stats={"per_n": {str(n): {"ks_disp": ks_disp, "ks_tau": ks_tau, "ks_two_sample": ks_two}},
                          "calibration": calib},
                   thresholds={"ks_one_sample_max": 0.05, "ks_two_sample_max": 0.03},
                   samples=samples, sample_header=("n", "trial", "disp", "tau"))


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

    _check_grid(model, n_grid, trials)
    if n_grid[0] == n_grid[-1]:
        raise ConfigurationError("the growth per doubling needs a grid whose first and last n differ")
    if not contrast and measure.moment_profile != "heavy_tail":
        raise ConfigurationError("converse test requires an infinite-variance measure")
    if contrast and measure.moment_profile == "heavy_tail":
        raise ConfigurationError("contrast run requires a finite-variance measure")
    per_n: Dict[str, Dict] = {}
    samples: List[Tuple] = []
    iqrs = []
    for n, disp, _ in _grid_ensembles(measure, n_grid, trials, seed):
        med = float(np.median(disp))
        z = (disp - med) / math.sqrt(n)
        iqr = float(np.percentile(z, 75) - np.percentile(z, 25))
        iqrs.append(iqr)
        per_n[str(n)] = {"iqr": iqr, "median": med}
        samples += zip([n] * trials, range(trials), disp.tolist())
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
                   thresholds=thresholds, samples=samples, sample_header=("n", "trial", "value"))


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

    _check_grid(model, n_grid, trials)
    calib = _calibration(calibration, measure, max(n_grid), trials, seed)
    per_n: Dict[str, Dict] = {}
    samples: List[Tuple] = []
    freqs = []
    for gi, n in enumerate(n_grid):
        k1 = max(1.0, 0.05 * calib["lambda"] * n)
        margin = np.empty(trials, dtype=np.int64)
        # trial t pairs row t of stream gi of the seed, the walk every other
        # runner draws there, with row t of stream gi of seed + 500,000
        blocks = (_walk_blocks(measure, n, trials, _trial_rng(s, gi)) for s in (seed, seed + 500_000))
        for (rows, one), (_, two) in zip(*blocks):
            margin[rows] = list(map(free_basis_margin, zip(row_words(one.gens, one.exps),
                                                           row_words(two.gens, two.exps))))
            del one, two
        fail = margin < k1
        freq = float(fail.mean())
        freqs.append(freq)
        per_n[str(n)] = {"failure_freq": freq, "k1": k1}
        samples += zip([n] * trials, range(trials), margin.tolist(), fail.astype(int).tolist())
    slope, r2, monotone = _decay_fit(n_grid, freqs)
    verdict = monotone and (freqs[-1] == 0 or slope < 0) and freqs[-1] <= 0.05
    return _report("free_subgroup", model, measure, seed, n_grid, verdict,
                   stats={"per_n": per_n, "log_slope": slope, "r2": r2, "calibration": calib},
                   thresholds={"final_failure_max": 0.05, "monotone": True},
                   samples=samples, sample_header=("n", "trial", "margin", "fail"))
