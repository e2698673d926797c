"""Command-line front end.

Verbs: schottky-find, run, pivot-trace, census, report.  Exit codes:
0 = pass, 2 = experiment failed its verdict, 1 = configuration or usage
error.  A JSON config file (--config) is read as flags placed before the
explicit ones, so explicit flags override it.  PIVOTWALK_SEED provides the
seed when neither config nor flag does.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from collections import defaultdict
from typing import List, Optional

import numpy as np

from . import counting, pivotal, schottky, svgplot, verifier, walks
from .spaces import model_by_name
from .verifier import ConfigurationError
from .words import GroupWord, product_exponent_bound

EXIT_PASS = 0
EXIT_CONFIG = 1
EXIT_FAIL = 2

# each experiment's runner, its --n when none is given, and the flags that
# only it reads, each with the runner keyword (and argparse dest) it sets
_EXPERIMENTS = {
    "genericity": (verifier.run_genericity, [50, 100, 200, 400], {"--L": "L"}),
    "discrepancy": (verifier.run_discrepancy, [1000, 4000],
                    {"--schottky": "sch", "--claim-n": "claim_n", "--claim-trials": "claim_trials"}),
    "clt": (verifier.run_clt, [2000], {}),
    "clt-converse": (verifier.run_clt_converse, [500, 1000, 2000, 4000], {"--contrast": "contrast"}),
    "free-subgroup": (verifier.run_free_subgroup, [50, 100], {}),
}

_MEASURES = {
    "simple": lambda: walks.simple_rw(),
    "heavy": lambda: walks.heavy_tail(),
}


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        name, seed = "--seed", args.seed
    else:
        name = "PIVOTWALK_SEED"
        try:
            seed = int(os.environ.get(name, "0"))
        except ValueError:
            raise ConfigurationError("PIVOTWALK_SEED must be an integer")
    if seed < 0:
        raise ConfigurationError("%s must be a non-negative integer, not %d" % (name, seed))
    return seed


def _config_tokens(path: str) -> List[str]:
    """A JSON config file as `--key value` flags: a list value is joined
    with commas, `true` is a bare flag, `false` and `null` are dropped."""

    data = _from_file(path, json.loads)
    if not isinstance(data, dict):
        raise ConfigurationError("config file must hold a JSON object")
    tokens: List[str] = []
    for key, value in data.items():
        if value is None or value is False:
            continue
        tokens.append("--" + key)
        if isinstance(value, list):
            tokens.append(",".join(str(x) for x in value))
        elif value is not True:
            tokens.append(str(value))
    return tokens


def _from_file(path: str, parse):
    # a file that cannot be read or parsed is a configuration error naming it
    try:
        with open(path) as fh:
            return parse(fh.read())
    except OSError as exc:
        raise ConfigurationError("cannot read input file %s (%s)" % (path, exc.strerror or exc))
    # a missing, mistyped or out-of-range entry; OverflowError is an
    # exponent beyond the 64 bits of a syllable table
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError("malformed input file %s (%s: %s)" % (path, type(exc).__name__, exc))


def _model(name: str):
    try:
        return model_by_name(name)
    except ValueError as exc:  # an unknown name, tree3 among them
        raise ConfigurationError(str(exc)) from exc


def _measure_from_spec(spec: str) -> walks.StepMeasure:
    if spec in _MEASURES:
        return _MEASURES[spec]()
    if os.path.exists(spec):
        return _from_file(spec, walks.StepMeasure.from_json)
    raise ConfigurationError("unknown measure %r" % spec)


def _schottky_from_file(path: str) -> schottky.SchottkySet:
    sch = _from_file(path, schottky.schottky_from_json)
    failures = schottky.verify_schottky(sch)
    if failures:
        raise ConfigurationError("Schottky set %s fails verification: %s" % (path, ", ".join(failures)))
    return sch


def cmd_schottky_find(args) -> int:
    seed = _resolve_seed(args)
    size, block = args.size, args.block
    if size is None or block is None:
        raise ConfigurationError("schottky-find requires --size and --block")
    if size <= 0 or block <= 0:
        raise ConfigurationError("size and block must be positive")
    # build_schottky verifies the set and raises unless it passes; its
    # ValueError is a block length too short for the size
    try:
        sch = schottky.build_schottky(size=size, m0=block, seed=seed)
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from exc
    payload = schottky.schottky_to_json(sch)
    with open(args.out, "w") as fh:
        fh.write(payload)
        fh.write("\n")
    print("schottky-find: wrote %s (N=%d, M0=%d, verified=True)" % (args.out, size, block))
    return EXIT_PASS


def _grid(value: Optional[str], default: List[int]) -> List[int]:
    if value is None:
        return default
    try:
        return [int(x) for x in value.split(",")]
    except ValueError:
        raise ConfigurationError("--n must be whole numbers separated by commas, not %r" % value)


def cmd_run(args) -> int:
    experiment = args.experiment
    if not experiment:
        raise ConfigurationError("run requires --experiment")
    # a flag that one experiment reads is refused by every other, not ignored
    for owner, (_, _, flags) in _EXPERIMENTS.items():
        for flag, key in flags.items():
            if getattr(args, key) is not None and experiment != owner:
                raise ConfigurationError("%s applies only to --experiment %s, not %s" % (flag, owner, experiment))
    if experiment not in _EXPERIMENTS:
        raise ConfigurationError("unknown experiment %r" % experiment)
    runner, default_grid, flags = _EXPERIMENTS[experiment]
    n_grid = _grid(args.n, default_grid)
    model = _model(args.model)
    measure = _measure_from_spec(args.measure)
    # every walk of a run is at most max(n_grid) steps long; refuse the
    # measure here rather than from the first stack too narrow for it
    if product_exponent_bound(measure.table, max(n_grid)) >= 2 ** 63:
        raise ConfigurationError("--measure %s: a product of %d steps (the largest --n) has exponents beyond 64 bits"
                                 % (args.measure, max(n_grid)))
    seed = _resolve_seed(args)
    # the runner's own defaults stand for the flags not given
    given = {key: getattr(args, key) for key in flags.values() if getattr(args, key) is not None}
    if "sch" in given:
        given["sch"] = _schottky_from_file(given["sch"])
    report = runner(measure, model, n_grid, args.trials, seed, **given)
    outdir = args.out or "out-%s" % experiment
    report.write(outdir, svg=args.svg)
    print("run[%s]: verdict=%s -> %s" % (experiment, "pass" if report.verdict else "fail", outdir))
    return EXIT_PASS if report.verdict else EXIT_FAIL


def cmd_pivot_trace(args) -> int:
    n0, n, trials = args.N0, args.n, args.trials
    seed = _resolve_seed(args)
    if trials <= 0 or n <= 0:
        raise ConfigurationError("trials and n must be positive")
    if n0 <= 4:
        raise ConfigurationError("N0 must exceed 4")
    counts = pivotal.sample_jump_dominated_counts(n0, n, trials, seed)
    pivotal.pivot_counts_csv(args.out, counts, n0, n, seed)
    print("pivot-trace: wrote %s (mean/n=%.4f)" % (args.out, counts.mean() / n))
    return EXIT_PASS


def cmd_census(args) -> int:
    model = _model(args.model)
    verifier.require_tree(model)
    seed = _resolve_seed(args)
    n_max = args.n_max
    if n_max < 2:
        raise ConfigurationError("n-max must be at least 2: the verdict fits a slope to the rows")
    if not math.isfinite(args.K):
        raise ConfigurationError("K must be finite")
    if args.schottky:
        sch = _schottky_from_file(args.schottky)
    else:
        sch = schottky.build_schottky(size=4, m0=5, seed=seed)
    gens = [GroupWord.generator(1), GroupWord.generator(2), *sch.products()]
    rows = counting.census_rows(counting.enumerate_ball(gens, n_max, seed), n_max, args.K)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("n", "total", "bad_count", "bad_fraction", "exhaustive"))
        writer.writerows(rows)
    # a sampled row estimates its fraction, so only exhaustive rows are judged
    exact = [r for r in rows if r[4]]
    counted = "exhaustive=%d/%d" % (len(exact), len(rows))
    if len(exact) < 2:
        print("census: wrote %s (%s: too few exhaustive rows to fit a slope)" % (args.out, counted))
        return EXIT_FAIL
    slope, _, monotone = verifier._decay_fit([r[0] for r in exact], [r[3] for r in exact])
    print("census: wrote %s (monotone=%s slope=%.3f %s)" % (args.out, monotone, slope, counted))
    return EXIT_PASS if monotone and slope < 0 else EXIT_FAIL


def cmd_report(args) -> int:
    """Plot the per-n mean of a samples.csv file's last column as an SVG."""

    rows = _from_file(args.csv, lambda text: list(csv.reader(text.splitlines())))
    by_n = defaultdict(list)
    for line, row in enumerate(rows[1:], 2):
        if len(row) < 2:
            continue
        try:
            n, value = int(row[0]), float(row[-1])
        except ValueError:
            raise ConfigurationError("%s line %d: n %r must be a whole number and sample %r a number"
                                     % (args.csv, line, row[0], row[-1])) from None
        # nan, inf and overflowing text would be drawn as nan coordinates
        if not math.isfinite(value):
            raise ConfigurationError("%s line %d: sample %r is not a finite number" % (args.csv, line, row[-1]))
        by_n[n].append(value)
    if not by_n:
        raise ConfigurationError("no samples in %s" % args.csv)
    ns = sorted(by_n)
    means = [float(np.mean(by_n[n])) for n in ns]
    out = args.out or (os.path.splitext(args.csv)[0] + ".svg")
    svgplot.line_plot("samples", "mean", [float(n) for n in ns], means, out)
    print("report: wrote %s" % out)
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pivotwalk")
    sub = parser.add_subparsers(dest="verb", required=True)
    # no abbreviated flags: a config key must name its flag in full

    p = sub.add_parser("schottky-find", allow_abbrev=False)
    p.add_argument("--size", type=int)
    p.add_argument("--block", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", default="schottky.json")
    p.add_argument("--config")
    p.set_defaults(func=cmd_schottky_find)

    p = sub.add_parser("run", allow_abbrev=False)
    p.add_argument("--experiment")
    p.add_argument("--model", default="tree2")
    p.add_argument("--measure", default="simple")
    p.add_argument("--n")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int)
    # the experiment-specific flags default to None, so that a given one is
    # seen even when it holds the default
    p.add_argument("--L", type=float)
    p.add_argument("--contrast", action="store_true", default=None)
    p.add_argument("--schottky", dest="sch")
    p.add_argument("--claim-n", type=int)
    p.add_argument("--claim-trials", type=int)
    p.add_argument("--svg", action="store_true")
    p.add_argument("--out")
    p.add_argument("--config")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("pivot-trace", allow_abbrev=False)
    p.add_argument("--N0", type=int, default=400)
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", default="pivot-trace.csv")
    p.add_argument("--config")
    p.set_defaults(func=cmd_pivot_trace)

    p = sub.add_parser("census", allow_abbrev=False)
    p.add_argument("--model", default="tree2")
    p.add_argument("--n-max", type=int, default=6)
    p.add_argument("--K", type=float, default=0.5)
    p.add_argument("--schottky")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", default="census.csv")
    p.add_argument("--config")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("report", allow_abbrev=False)
    p.add_argument("csv")
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            # config entries go right after the verb, so explicit flags win
            args = parser.parse_args(argv[:1] + _config_tokens(args.config) + argv[1:])
        return args.func(args)
    except SystemExit as exc:  # argparse uses its own exit codes
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_PASS
    except ConfigurationError as exc:
        print("configuration error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, OSError, schottky.BudgetExhausted) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
