"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout; pivotwalk is imported from its `src/`.
Each run is a fresh child process (child.py) started only after the previous
one ended: a closed loop with one client.  Children are started until the
next one would end past S seconds, and at least three are run.  With
`--trace 1` one more child runs with the wrappers of tracer.py installed;
per-layer metrics come from it and end-to-end metrics from the others.

Each child's outputs are checked: its exit code and verdict; on the
reference seed at full size, the sha256 of its sample-level artifacts
against reference.json (skipped only while baseline.py records them); and
every child of one invocation, traced or not, must write byte-identical
artifacts.  A child failing any check counts in `failed` and stops the loop.

Times are reported in calibrated seconds: a child times a fixed loop, in
CPU time, every 50 ms from its start to the end of its run
(child.SpeedProbe), and each phase's time is scaled by PROBE_NOMINAL_S over
the loop's mean time in that phase.  On a shared or virtualised host the CPU's speed can move by a
quarter within seconds; the scaling cancels most of that.  Raw seconds are
reported next to them but carry no bound.

The last line of stdout is the result object; the line before it holds the
run context, a summary with the raw times and every child's record.  A table for people
goes to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_CHILDREN = 3
# a fixed scale near the probe loop's time on the baseline host; calibrated
# seconds equal raw seconds when the probe takes this long
PROBE_NOMINAL_S = 1.5e-3
TOTAL_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _commit() -> str:
    """HEAD of the checkout, read without starting git; 'unknown' outside a
    git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def calibrated(seconds: float, probe_s: float) -> float:
    """Seconds rescaled to the probe's nominal speed (see child.SpeedProbe)."""
    return seconds * PROBE_NOMINAL_S / probe_s


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_child(workload: Workload, seed: int, smoke: bool, traced: bool,
              workdir: Path, index: int, timeout: float) -> Dict:
    """Start one child, wait for it, hash its artifacts and delete them."""

    outdir = workdir / ("run%d" % index)
    outdir.mkdir(parents=True)
    result_path = workdir / ("result%d.json" % index)
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload.name,
           "--seed", str(seed), "--outdir", str(outdir), "--result", str(result_path)]
    if traced:
        cmd += ["--trace", str(ROOT / ".perfbench_runs" / ("spans-%s.jsonl" % workload.name))]
    if smoke:
        cmd.append("--smoke")
    rec: Dict = {"index": index, "traced": traced, "load_before": os.getloadavg()}
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=_child_env(), cwd=str(outdir), capture_output=True,
                              text=True, timeout=timeout)
        rec["exit"] = proc.returncode
        stderr = proc.stderr
    except subprocess.TimeoutExpired as exc:
        rec["exit"] = None
        stderr = exc.stderr.decode(errors="replace") if isinstance(exc.stderr, bytes) else (exc.stderr or "")
    rec["elapsed_s"] = time.monotonic() - spawned
    rec["load_after"] = os.getloadavg()
    if rec["exit"] != 0 or not result_path.is_file():
        rec["failure"] = "exit code %s: %s" % (rec["exit"], stderr.strip()[-2000:])
        return rec
    res = json.loads(result_path.read_text())
    rec.update({k: res[k] for k in ("verdict", "import_s", "probe_s", "setup_probe_s", "probes",
                                    "units", "peak_rss_mb", "versions")})
    rec["setup_raw_s"] = res["ready"] - spawned - res["setup_probe_spent_s"]
    rec["setup_s"] = calibrated(rec["setup_raw_s"], res["setup_probe_s"])
    rec["wall_raw_s"] = res["wall_s"]
    rec["wall_s"] = calibrated(res["wall_s"], res["probe_s"])
    rec["digests"] = {e.name: _sha256(Path(e.path)) for e in os.scandir(outdir) if e.is_file()}
    rec["artifact_bytes"] = sum(e.stat().st_size for e in os.scandir(outdir) if e.is_file())
    if traced:
        rec["layers"] = res["layers"]
        rec["wrappers_left"] = res["wrappers_left"]
    shutil.rmtree(outdir)
    return rec


def check_child(rec: Dict, workload: Workload, seed: int, smoke: bool,
                reference: Dict, first: Optional[Dict]) -> Optional[str]:
    """Reason the child failed its output checks, or None."""

    if "failure" in rec:
        return rec["failure"]
    if not rec["verdict"]:
        return "verdict failed"
    missing = [a for a in workload.checked + workload.info if a not in rec["digests"]]
    if missing:
        return "missing artifacts %s" % missing
    if rec.get("wrappers_left"):
        return "wrappers left installed: %s" % rec["wrappers_left"]
    if seed == workload.ref_seed and not smoke and workload.name in reference:
        want = reference[workload.name]["sha256"]
        bad = [a for a in workload.checked if rec["digests"][a] != want[a]]
        if bad:
            return "sha256 of %s differs from reference.json" % bad
    if first is not None and rec["digests"] != first["digests"]:
        return "artifacts differ from those of run %d with the same seed" % first["index"]
    return None


def _context(children: List[Dict]) -> Dict:
    versions = next((c["versions"] for c in children if "versions" in c), {})
    return {
        "versions": versions,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "child_env": {var: "1" for var in THREAD_VARS},
        "loop": "closed, one child at a time",
    }


def end_to_end(ok: List[Dict]) -> Dict[str, float]:
    """Medians over the children: the declared metrics, and the raw times,
    which are only reported."""
    med = lambda values: statistics.median(list(values))
    return {
        "wall_s": med(c["wall_s"] for c in ok),
        "setup_s": med(c["setup_s"] for c in ok),
        "units_per_s": med(c["units"] / c["wall_s"] for c in ok),
        "peak_rss_mb": med(c["peak_rss_mb"] for c in ok),
        "artifact_bytes": med(c["artifact_bytes"] for c in ok),
        "wall_raw_s": med(c["wall_raw_s"] for c in ok),
        "setup_raw_s": med(c["setup_raw_s"] for c in ok),
        "units_per_raw_s": med(c["units"] / c["wall_raw_s"] for c in ok),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit, so that subprocess.run kills and reaps
    # the running child and the finally clause below removes the run files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "pivotwalk" / "__init__.py").is_file():
        print("run.py: no pivotwalk sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((HERE / "reference.json").read_text())
    workload = WORKLOADS[args.workload]

    workdir = ROOT / ".perfbench_runs" / ("%s-%d" % (workload.name, os.getpid()))
    children: List[Dict] = []
    ok: List[Dict] = []
    start = time.monotonic()

    def child(traced: bool) -> bool:
        timeout = TOTAL_LIMIT_S - (time.monotonic() - start)
        rec = run_child(workload, args.seed, args.smoke, traced, workdir, len(children), timeout)
        rec["failure"] = check_child(rec, workload, args.seed, args.smoke, reference,
                                     ok[0] if ok else None)
        children.append(rec)
        if rec["failure"] is None:
            ok.append(rec)
        return rec["failure"] is None

    try:
        while child(False):
            next_end = time.monotonic() - start + statistics.median(c["elapsed_s"] for c in children)
            if next_end > TOTAL_LIMIT_S / 2 or (len(children) >= MIN_CHILDREN and next_end > args.seconds):
                break
        if args.trace and children[-1]["failure"] is None:
            child(True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for c in children if c["failure"] is not None)
    untraced = [c for c in ok if not c["traced"]]
    summary = end_to_end(untraced) if failed == 0 and untraced else {}
    metrics = summary
    if summary and args.trace:
        traced = ok[-1]
        metrics = dict(traced["layers"])
        metrics["trace.wall_s"] = traced["wall_raw_s"]
        metrics["trace.overhead"] = traced["wall_s"] / summary["wall_s"] - 1.0
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    print(json.dumps({"workload": workload.name, "seed": args.seed, "smoke": args.smoke,
                      "context": _context(children), "summary": summary, "children": children}))
    for name, unit in units.items():
        if name in metrics:
            print("%-12s %-36s %14.6g %s" % (workload.name, name, metrics[name], unit), file=sys.stderr)
    for name in ("wall_raw_s", "setup_raw_s") if summary else ():
        print("%-12s %-36s %14.6g s (raw, no bound)" % (workload.name, name, summary[name]), file=sys.stderr)
    for c in children:
        if c["failure"]:
            print("%s: run %d failed: %s" % (workload.name, c["index"], c["failure"]), file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and bool(untraced),
        "attempted": len(children),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
