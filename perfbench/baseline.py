"""Regenerate the benchmark baseline: every workload on several seeds.

    python3 perfbench/baseline.py                    # writes baseline.json
    python3 perfbench/baseline.py --write-reference  # writes reference.json

For each workload, run.py runs once per seed (ref_seed to ref_seed + 9)
with the run length of BENCHMARK.json, then once traced on the reference
seed.  Printed per workload and end-to-end metric: the median over seeds,
the quartiles and their distance as a share of the median (the spread the
bounds are judged against), and failed_frac.  For wall_s the children of
all runs are also pooled, to give the highest percentile with at least ten
samples beyond it; one run has too few children for that.
`--write-reference` instead records the artifact digests of each
workload's reference seed into reference.json.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = 10


def invoke(workload: str, seed: int, seconds: int, trace: int) -> Dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError("%s seed %d: no result (exit %d)\n%s" % (workload, seed, proc.returncode, proc.stderr))
    return {"details": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def pooled_tail(walls: List[float]) -> Dict:
    """Highest whole percentile with at least ten samples above it."""
    p = math.floor(100 - 1000 / len(walls)) if len(walls) > 10 else None
    value = statistics.quantiles(walls, n=100)[p - 1] if p else None
    return {"percentile": p, "value": value, "samples": len(walls)}


def summarize(runs: List[Dict], spec: Dict) -> Dict:
    """Median, quartiles and spread over seeds of every declared end-to-end
    metric, and of the raw times, which carry no bound."""
    out: Dict = {}
    declared = [(m["name"], m["unit"], m["bound"]) for m in spec["end_to_end"]]
    raw = [("wall_raw_s", "s", None), ("setup_raw_s", "s", None), ("units_per_raw_s", "1/s", None)]
    for name, unit, bound in declared + raw:
        values = [r["details"]["summary"][name] for r in runs if r["details"]["summary"]]
        if len(values) < 2:
            continue
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[name] = {"unit": unit, "median": median, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median, "bound": bound, "values": values}
    attempted = sum(r["result"]["attempted"] for r in runs)
    failed = sum(r["result"]["failed"] for r in runs)
    out["failed_frac"] = {"unit": "1", "median": failed / attempted, "attempted": attempted, "failed": failed}
    walls = [c["wall_s"] for r in runs for c in r["details"]["children"]
             if not c["traced"] and c["failure"] is None]
    out["wall_s_tail"] = pooled_tail(walls)
    return out


def write_reference() -> None:
    path = HERE / "reference.json"
    reference = json.loads(path.read_text())
    for name, w in WORKLOADS.items():
        # with no entry for the workload, run.py skips the digest check
        reference.pop(name, None)
        path.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
        run = invoke(name, w.ref_seed, 1, 0)
        digests = run["details"]["children"][0]["digests"]
        reference[name] = {
            "sha256": {a: digests[a] for a in w.checked},
            "info_sha256": {a: digests[a] for a in w.info},
        }
        path.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
        print("reference %s seed %d: %s" % (name, w.ref_seed, reference[name]["sha256"]), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Regenerate the benchmark baseline.")
    parser.add_argument("--write-reference", action="store_true",
                        help="record the reference digests instead of the baseline")
    args = parser.parse_args(argv)
    if args.write_reference:
        write_reference()
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    baseline: Dict = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for name, w in WORKLOADS.items():
        runs = []
        for k in range(SEEDS):
            runs.append(invoke(name, w.ref_seed + k, spec["run_seconds"], 0))
            r = runs[-1]["result"]
            print("%s seed %d: correct=%s %s" % (name, w.ref_seed + k, r["correct"], " ".join(
                "%s=%.6g" % (m, v["value"]) for m, v in r["metrics"].items())), flush=True)
        traced = invoke(name, w.ref_seed, spec["run_seconds"], 1)
        summary = summarize(runs, spec)
        summary["per_layer"] = {m: v["value"] for m, v in traced["result"]["metrics"].items()}
        summary["context"] = runs[0]["details"]["context"]
        summary["seeds"] = [w.ref_seed + k for k in range(SEEDS)]
        keep = ("wall_s", "wall_raw_s", "setup_s", "setup_raw_s", "probe_s", "setup_probe_s", "probes",
                "load_before", "load_after", "failure")
        summary["children"] = [[{k: c.get(k) for k in keep} for c in r["details"]["children"]]
                               for r in runs]
        baseline["workloads"][name] = summary
        for metric, s in summary.items():
            if isinstance(s, dict) and "median" in s:
                if "spread" not in s:
                    extra = "  (%d of %d runs failed)" % (s["failed"], s["attempted"])
                else:
                    extra = "  q1 %.6g  q3 %.6g  spread %.4f  bound %s" % (
                        s["q1"], s["q3"], s["spread"], "%.2f" % s["bound"] if s["bound"] else "none")
                print("%-8s %-16s %14.6g %-6s%s" % (name, metric, s["median"], s["unit"], extra), flush=True)
        tail = summary["wall_s_tail"]
        if tail["percentile"] is not None:
            print("%-8s wall_s p%-13d %14.6g s      over %d runs" % (name, tail["percentile"], tail["value"],
                                                                     tail["samples"]), flush=True)
        print("%-8s traced run: wall %.4g s, overhead %+.1f%% against the untraced median" % (
            name, summary["per_layer"]["trace.wall_s"], 100 * summary["per_layer"]["trace.overhead"]), flush=True)
    (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
