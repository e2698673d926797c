"""One benchmark run in a fresh process: import, set up, run, report.

run.py starts this file once per run; it is not meant to be called by hand:

    python3 perfbench/child.py --workload NAME --seed N --outdir DIR --result FILE
        [--trace SPANS_FILE] [--smoke]

Set-up builds the inputs the workload hands the program (step measures and
Schottky sets); the run calls the program, writes its artifacts into DIR and
returns the verdict.  FILE receives one JSON object.  Its `ready` field is a
time.monotonic() reading taken when the inputs are ready; run.py subtracts
the reading it took just before starting this process, which makes set-up
time include interpreter start and `import pivotwalk`.  The speed probe runs
throughout; its mean time over set-up and over the run is reported with them.
"""

import argparse
import csv
import json
import os
import resource
import signal
import statistics
import sys
import time

from workloads import WORKLOADS


PROBE_INTERVAL_S = 0.05
_PROBE_TABLE = {i: (i * 7) & 1023 for i in range(1024)}
_PROBE_LIST = list(range(1024))


def _probe_kernel() -> int:
    """Dict lookups, tuple building and list indexing, like the program's
    word code, on fixed data."""
    table, items, acc = _PROBE_TABLE, _PROBE_LIST, 0
    for i in range(8_000):
        key = i & 1023
        pair = (key, table[key])
        acc += items[pair[1]] - pair[0]
    return acc


class SpeedProbe:
    """Times a fixed loop every 50 ms, from a SIGALRM handler, from the
    child's start to the end of its run.

    On a shared or virtualised host the speed of the core the child runs on
    can move by a quarter within seconds.  The mean probe time over a phase
    moves with it, and run.py divides the phase's time by it.  A probe in a
    sibling process does not follow it: the two cores slow down apart.
    The loop is timed in the thread's CPU time, so threads or processes the
    program starts, which may take the core from the probe, do not slow its
    reading.  `phase()` returns the wall time the probes took since the last
    call, which is subtracted from the phase, and their mean CPU time.  The
    loop keeps nothing it allocates, so it neither triggers the garbage
    collector nor touches the program's state.
    """

    def __init__(self):
        self.times: list = []  # CPU seconds of each loop
        self.spent: list = []  # wall seconds of each handler call
        self._taken = 0

    def _sample(self, signum, frame) -> None:
        t, c = time.perf_counter(), time.thread_time()
        _probe_kernel()
        self.times.append(time.thread_time() - c)
        self.spent.append(time.perf_counter() - t)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def phase(self):
        """(wall seconds the probes took, mean probe CPU time) since the
        last call."""
        spent = sum(self.spent[self._taken:])
        if len(self.times) == self._taken:  # a phase shorter than one interval: sample after it
            self._sample(None, None)
        taken = self.times[self._taken:]
        self._taken = len(self.times)
        return spent, statistics.mean(taken)


def _setup_heavy(seed, size):
    from pivotwalk import spaces, walks

    return walks.heavy_tail(), spaces.TreeModel()


def _run_heavy(inputs, seed, size, outdir):
    from pivotwalk import verifier

    measure, model = inputs
    grid, trials = list(size["grid"]), size["trials"]
    rep = verifier.run_clt_converse(measure, model, grid, trials, seed=seed)
    rep.write(outdir)
    return rep.verdict, trials * sum(grid)


def _setup_gap(seed, size):
    from pivotwalk import schottky, spaces, walks

    sch = schottky.tree_schottky_set(size["sch_size"], seed=size["sch_seed"])
    return walks.simple_rw(), spaces.TreeModel(), sch


def _run_gap(inputs, seed, size, outdir):
    from pivotwalk import verifier

    measure, model, sch = inputs
    grid, trials = list(size["grid"]), size["trials"]
    claim_n, claim_trials = size["claim_n"], size["claim_trials"]
    rep = verifier.run_discrepancy(measure, model, grid, trials, seed, sch=sch,
                                   claim_n=claim_n, claim_trials=claim_trials)
    rep.write(outdir)
    return rep.verdict, trials * sum(grid) + claim_trials * claim_n


def _setup_pivot(seed, size):
    from pivotwalk import schottky

    return schottky.tree_schottky_set(size["n0"], seed=size["sch_seed"])


def _run_pivot(sch, seed, size, outdir):
    from pivotwalk import pivotal

    n0, n, trials = size["n0"], size["n"], size["trials"]
    counts = pivotal.sample_jump_dominated_counts(n0, n, trials, seed, sch=sch)
    pivotal.pivot_counts_csv(os.path.join(outdir, "counts.csv"), counts, n0, n, seed)
    verdict = pivotal.dominates_jump_walk(counts, n0, n) and pivotal.half_count_tail_ok(counts, n0, n)
    return verdict, trials * n


def _setup_census(seed, size):
    return None  # the verb builds its own Schottky set from the seed


def _run_census(inputs, seed, size, outdir):
    from pivotwalk import cli

    out = os.path.join(outdir, "census.csv")
    code = cli.main(["census", "--n-max", str(size["n_max"]), "--seed", str(seed), "--out", out])
    with open(out, newline="") as fh:
        classified = sum(int(row["total"]) for row in csv.DictReader(fh))
    return code == cli.EXIT_PASS, classified


PROGRAM = {
    "heavy": (_setup_heavy, _run_heavy),
    "gap": (_setup_gap, _run_gap),
    "pivot": (_setup_pivot, _run_pivot),
    "census": (_setup_census, _run_census),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PROGRAM))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--outdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", metavar="SPANS_FILE")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    with SpeedProbe() as probe:
        t0 = time.perf_counter()
        import pivotwalk.cli

        import_s = time.perf_counter() - t0
        import numpy
        import scipy

        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer(run_id="%s-%d-%d" % (args.workload, args.seed, os.getpid()))
            tracer.install()

        setup, run = PROGRAM[args.workload]
        size = WORKLOADS[args.workload].size(args.smoke)
        inputs = setup(args.seed, size)
        ready = time.monotonic()
        setup_probe_spent, setup_probe = probe.phase()
        start = time.perf_counter()
        verdict, units = run(inputs, args.seed, size, args.outdir)
        elapsed = time.perf_counter() - start
        run_probe_spent, run_probe = probe.phase()

    result = {
        "verdict": bool(verdict),
        "import_s": import_s,
        "ready": ready,
        "setup_probe_spent_s": setup_probe_spent,
        "setup_probe_s": setup_probe,
        "wall_s": elapsed - run_probe_spent,
        "probe_s": run_probe,
        "probes": len(probe.times),
        "units": units,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "pivotwalk": pivotwalk.__version__},
    }
    if tracer is not None:
        result["wrappers_left"] = tracer.uninstall()
        result["layers"] = tracer.metrics(import_s)
        tracer.write_spans(args.trace)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
