"""The benchmark's workloads as data: sizes, reference seeds and artifacts.

The program calls themselves live in `child.py`, so that the parent process
can read this table without importing pivotwalk.  Sizes are the acceptance
and README sizes scaled so that several fresh child processes fit in one
measuring window; README.md says which property each scaled size keeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple


@dataclass(frozen=True)
class Workload:
    name: str
    # the seed the reference digests in reference.json were recorded with
    ref_seed: int
    full: Dict[str, object]
    smoke: Dict[str, object]
    # sample-level artifacts: sha256 must match reference.json on ref_seed
    checked: Tuple[str, ...]
    # artifacts whose reference digest is recorded for information only
    info: Tuple[str, ...] = field(default=())

    def size(self, smoke: bool) -> Dict[str, object]:
        return self.smoke if smoke else self.full


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="heavy",
            ref_seed=15,
            full={"grid": (500, 1000, 2000, 4000), "trials": 600},
            smoke={"grid": (500, 1000, 2000, 4000), "trials": 150},
            checked=("samples.csv",),
            info=("report.json",),
        ),
        Workload(
            name="gap",
            ref_seed=14,
            full={"grid": (1000, 4000), "trials": 1800, "sch_size": 18, "sch_seed": 0,
                  "claim_n": 1500, "claim_trials": 4},
            smoke={"grid": (1000, 4000), "trials": 150, "sch_size": 18, "sch_seed": 0,
                   "claim_n": 1500, "claim_trials": 2},
            checked=("samples.csv",),
            info=("report.json",),
        ),
        Workload(
            name="pivot",
            ref_seed=1,
            full={"n0": 400, "n": 50, "trials": 2000, "sch_seed": 1},
            smoke={"n0": 100, "n": 50, "trials": 500, "sch_seed": 1},
            checked=("counts.csv",),
        ),
        Workload(
            name="census",
            ref_seed=0,
            full={"n_max": 5},
            smoke={"n_max": 4},
            checked=("census.csv",),
        ),
    )
}
