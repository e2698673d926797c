"""Tests of the benchmark itself; run with `python3 -m pytest perfbench`.

The smoke runs start real child processes on small inputs and take about
two minutes in all.
"""

import json
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run_bench(cwd, workload, trace, seed=3):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=str(cwd), capture_output=True, text=True, timeout=180)


def test_names_and_counts():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [m["name"] for m in SPEC["workloads"] + SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(set(names)) == len(names)
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_bounds():
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_reference_digests_recorded():
    reference = json.loads((HERE / "reference.json").read_text())
    for w in WORKLOADS.values():
        assert set(reference[w.name]["sha256"]) == set(w.checked)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_emits_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: v["unit"] for name, v in result["metrics"].items()}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_refuses_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "census", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_speed_probe_ignores_the_programs_working_set():
    """Evicting the core's caches between two probe loops, as a program with
    a larger working set or a long numpy call does, moves the probe's reading
    by far less than any bound, so a calibrated time keeps a change's effect."""
    import numpy as np
    from child import SpeedProbe

    big, junk = np.ones(2 << 20), list(range(1_000_000))
    probe = SpeedProbe()
    ratios = []
    for _ in range(40):
        probe._sample(None, None)
        (big * 2.0).sum(), sum(junk[::7])
        probe._sample(None, None)
        ratios.append(probe.times[-1] / probe.times[-2])
    assert abs(statistics.median(ratios) - 1.0) < 0.05


def test_tracer_removes_every_wrapper():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import pivotwalk.cli  # noqa: F401
        from pivotwalk import geometry, walks, words
        from tracer import Tracer

        before = (words.GroupWord.__dict__["__mul__"], walks.is_aligned, geometry.is_aligned)
        tracer = Tracer("test")
        tracer.install()
        assert walks.is_aligned is geometry.is_aligned is not before[1]
        words.GroupWord.generator(1) * words.GroupWord.generator(2)
        assert tracer.counts["words.mul.calls"] == 1
        assert tracer.uninstall() == []
        assert (words.GroupWord.__dict__["__mul__"], walks.is_aligned, geometry.is_aligned) == before
    finally:
        sys.path.remove(str(ROOT / "src"))
