"""Command-line front end.

Verbs: schottky-find, run, pivot-trace, census, report.  Exit codes:
0 = pass, 2 = experiment failed its verdict, 1 = configuration or usage
error.  JSON config files supply defaults; explicit flags override them.
PIVOTWALK_SEED provides the seed when neither config nor flag does.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from typing import Dict, List, Optional

import numpy as np

from . import counting, pivotal, schottky, svgplot, verifier, walks
from .spaces import model_by_name
from .verifier import ConfigurationError
from .words import GroupWord

EXIT_PASS = 0
EXIT_CONFIG = 1
EXIT_FAIL = 2

_MEASURES = {
    "simple": lambda: walks.simple_rw(),
    "heavy": lambda: walks.heavy_tail(),
}


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("PIVOTWALK_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigurationError("PIVOTWALK_SEED must be an integer")
    return 0


def _load_config(args) -> Dict:
    if not getattr(args, "config", None):
        return {}
    with open(args.config) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ConfigurationError("config file must hold a JSON object")
    return data


def _merged(args, config: Dict, key: str, default=None):
    val = getattr(args, key.replace("-", "_"), None)
    if val is not None:
        return val
    if key in config:
        return config[key]
    return default


def _measure_from_spec(spec: str) -> walks.StepMeasure:
    if spec in _MEASURES:
        return _MEASURES[spec]()
    if os.path.exists(spec):
        with open(spec) as fh:
            return walks.StepMeasure.from_json(fh.read())
    raise ConfigurationError("unknown measure %r" % spec)


def _schottky_from_file(path: str) -> schottky.SchottkySet:
    with open(path) as fh:
        return schottky.schottky_from_json(fh.read())


def cmd_schottky_find(args) -> int:
    config = _load_config(args)
    size = _merged(args, config, "size")
    block = _merged(args, config, "block")
    model_name = _merged(args, config, "model", "tree2")
    seed = _resolve_seed(args)
    if size is None or block is None:
        raise ConfigurationError("schottky-find requires --size and --block")
    if size <= 0 or block <= 0:
        raise ConfigurationError("size and block must be positive")
    model = model_by_name(model_name)
    verifier.require_tree(model)
    g = GroupWord.generator(1, 1)
    h = GroupWord.generator(2, 1)
    sch = schottky.build_schottky(model, g, h, size=size, m0=block, seed=seed)
    report = schottky.verify_schottky(model, sch)
    payload = schottky.schottky_to_json(sch)
    out = _merged(args, config, "out", "schottky.json")
    with open(out, "w") as fh:
        fh.write(payload)
        fh.write("\n")
    print("schottky-find: wrote %s (N=%d, M0=%d, verified=%s)" % (out, size, block, report.ok))
    return EXIT_PASS if report.ok else EXIT_FAIL


def _grid(value, default: List[int]) -> List[int]:
    if value is None:
        return default
    if isinstance(value, str):
        return [int(x) for x in value.split(",")]
    if isinstance(value, int):
        return [value]
    return [int(x) for x in value]


def cmd_run(args) -> int:
    config = _load_config(args)
    experiment = _merged(args, config, "experiment")
    if not experiment:
        raise ConfigurationError("run requires --experiment")
    model = model_by_name(_merged(args, config, "model", "tree2"))
    measure = _measure_from_spec(_merged(args, config, "measure", "simple"))
    seed = _resolve_seed(args) if getattr(args, "seed", None) is not None or "seed" not in config else config["seed"]
    trials = int(_merged(args, config, "trials", 1000))
    outdir = _merged(args, config, "out", "out-%s" % experiment)
    svg = bool(_merged(args, config, "svg", False))

    if experiment == "genericity":
        n_grid = _grid(_merged(args, config, "n"), [50, 100, 200, 400])
        L = float(_merged(args, config, "L", 0.25))
        report = verifier.run_genericity(measure, model, n_grid, trials, L, seed)
    elif experiment == "discrepancy":
        n_grid = _grid(_merged(args, config, "n"), [1000, 4000])
        sch = None
        schpath = _merged(args, config, "schottky")
        if schpath:
            sch = _schottky_from_file(schpath)
        report = verifier.run_discrepancy(
            measure, model, n_grid, trials, seed, sch=sch,
            claim_n=_merged(args, config, "claim-n"),
            claim_trials=int(_merged(args, config, "claim-trials", 0)),
        )
    elif experiment == "clt":
        n_grid = _grid(_merged(args, config, "n"), [2000])
        if len(n_grid) != 1:
            raise ConfigurationError("clt takes a single --n value")
        report = verifier.run_clt(measure, model, n_grid[0], trials, seed)
    elif experiment == "clt-converse":
        n_grid = _grid(_merged(args, config, "n"), [500, 1000, 2000, 4000])
        contrast = bool(_merged(args, config, "contrast", False))
        report = verifier.run_clt_converse(measure, model, n_grid, trials, seed, contrast=contrast)
    elif experiment == "free-subgroup":
        n_grid = _grid(_merged(args, config, "n"), [50, 100])
        word_len = int(_merged(args, config, "word-len", 5))
        report = verifier.run_free_subgroup(measure, model, n_grid, trials, word_len, seed)
    else:
        raise ConfigurationError("unknown experiment %r" % experiment)
    report.write(outdir, svg=svg)
    print("run[%s]: verdict=%s -> %s" % (experiment, "pass" if report.verdict else "fail", outdir))
    return EXIT_PASS if report.verdict else EXIT_FAIL


def cmd_pivot_trace(args) -> int:
    config = _load_config(args)
    n0 = int(_merged(args, config, "N0", 400))
    n = int(_merged(args, config, "n", 20))
    trials = int(_merged(args, config, "trials", 10000))
    out = _merged(args, config, "out", "pivot-trace.csv")
    seed = _resolve_seed(args)
    if trials <= 0 or n <= 0:
        raise ConfigurationError("trials and n must be positive")
    if n0 <= 4:
        raise ConfigurationError("N0 must exceed 4")
    counts = pivotal.sample_jump_dominated_counts(n0, n, trials, seed)
    pivotal.pivot_counts_csv(out, counts, n0, n, seed)
    print("pivot-trace: wrote %s (mean/n=%.4f)" % (out, counts.mean() / n))
    return EXIT_PASS


def cmd_census(args) -> int:
    config = _load_config(args)
    model = model_by_name(_merged(args, config, "model", "tree2"))
    verifier.require_tree(model)
    seed = _resolve_seed(args)
    n_max = int(_merged(args, config, "n-max", 6))
    if n_max <= 0:
        raise ConfigurationError("n-max must be positive")
    out = _merged(args, config, "out", "census.csv")
    schpath = _merged(args, config, "schottky")
    if schpath:
        sch = _schottky_from_file(schpath)
    else:
        sch = schottky.build_schottky(
            model, GroupWord.generator(1, 1), GroupWord.generator(2, 1), size=4, m0=5, seed=seed
        )
    base = [GroupWord.generator(1, 1), GroupWord.generator(2, 1)]
    gens = counting.build_augmented_set(base, sch.products())
    K = float(_merged(args, config, "K", 0.5))
    rows = []
    prev_frac = None
    monotone = True
    for n in range(1, n_max + 1):
        ball = counting.enumerate_ball(gens, n)
        bad = 0
        for w in ball.elements:
            if w.is_identity() or w.translation_length() <= K * n:
                bad += 1
        frac = bad / len(ball.elements)
        rows.append((n, len(ball.elements), bad, frac, int(ball.exhaustive)))
        if prev_frac is not None and frac > prev_frac:
            monotone = False
        prev_frac = frac
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("n", "total", "bad_count", "bad_fraction", "exhaustive"))
        writer.writerows(rows)
    slope, r2 = verifier.log_slope_fit([r[0] for r in rows], [r[3] for r in rows])
    print("census: wrote %s (monotone=%s slope=%.3f)" % (out, monotone, slope))
    return EXIT_PASS if monotone and slope < 0 else EXIT_FAIL


def cmd_report(args) -> int:
    """Re-render an SVG decay plot from a samples.csv file."""

    from collections import defaultdict

    if not os.path.exists(args.csv):
        raise ConfigurationError("no such file: %s" % args.csv)
    by_n = defaultdict(list)
    with open(args.csv) as fh:
        reader = csv.reader(fh)
        header = next(reader)
        for row in reader:
            if len(row) < 2:
                continue
            by_n[int(row[0])].append(float(row[-1]))
    ns = sorted(by_n)
    means = [float(np.mean(by_n[n])) for n in ns]
    out = args.out or (os.path.splitext(args.csv)[0] + ".svg")
    svgplot.line_plot([("mean", [float(n) for n in ns], means)],
                      title="samples", xlabel="n", ylabel="mean", path=out)
    print("report: wrote %s" % out)
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pivotwalk")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("schottky-find")
    p.add_argument("--model")
    p.add_argument("--size", type=int)
    p.add_argument("--block", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.add_argument("--config")
    p.set_defaults(func=cmd_schottky_find)

    p = sub.add_parser("run")
    p.add_argument("--experiment")
    p.add_argument("--model")
    p.add_argument("--measure")
    p.add_argument("--n")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--L", type=float)
    p.add_argument("--word-len", type=int)
    p.add_argument("--contrast", action="store_const", const=True)
    p.add_argument("--schottky")
    p.add_argument("--claim-n", type=int)
    p.add_argument("--claim-trials", type=int)
    p.add_argument("--svg", action="store_const", const=True)
    p.add_argument("--out")
    p.add_argument("--config")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("pivot-trace")
    p.add_argument("--N0", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.add_argument("--config")
    p.set_defaults(func=cmd_pivot_trace)

    p = sub.add_parser("census")
    p.add_argument("--model")
    p.add_argument("--n-max", type=int)
    p.add_argument("--K", type=float)
    p.add_argument("--schottky")
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.add_argument("--config")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("report")
    p.add_argument("csv")
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses its own exit codes
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_PASS
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print("configuration error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, OSError, schottky.BudgetExhausted) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
