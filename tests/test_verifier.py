"""Experiment runners: ensemble generation, calibration, verdicts, reports.

The vectorized ensemble and the step-by-step word-product ensemble are
independent implementations compared draw for draw.
"""

import json
import math

import numpy as np
import pytest

from pivotwalk.words import GroupWord
from pivotwalk.spaces import PlaneModel, TreeModel
from pivotwalk.schottky import build_schottky
from pivotwalk.walks import simple_rw, heavy_tail, dirac, mixture
from pivotwalk.verifier import (
    ConfigurationError,
    ExperimentReport,
    tree_walk_ensemble,
    _slow_ensemble,
    log_slope_fit,
    non_elementary,
    calibrate,
    run_genericity,
    run_discrepancy,
    run_clt,
    run_clt_converse,
    run_free_subgroup,
)

T = TreeModel()
a = GroupWord.from_letters([1])
b = GroupWord.from_letters([2])
CAL = {"lambda": 0.5, "sigma2": 0.75, "n": 0, "trials": 0}


class TestEnsembles:
    def test_fast_matches_slow_simple(self):
        fast = tree_walk_ensemble(simple_rw(), 30, 40, np.random.default_rng(3))
        slow = _slow_ensemble(simple_rw(), 30, 40, np.random.default_rng(3))
        assert np.array_equal(fast[0], slow[0])
        assert np.array_equal(fast[1], slow[1])

    def test_fast_matches_slow_heavy(self):
        mu = heavy_tail(kmax=16)
        fast = tree_walk_ensemble(mu, 20, 30, np.random.default_rng(4))
        slow = _slow_ensemble(mu, 20, 30, np.random.default_rng(4))
        assert np.array_equal(fast[0], slow[0])
        assert np.array_equal(fast[1], slow[1])

    def test_tau_at_most_displacement(self):
        disp, tau = tree_walk_ensemble(simple_rw(), 50, 200, np.random.default_rng(5))
        assert np.all(tau <= disp)
        assert np.all(disp >= 0)


class TestStatistics:
    def test_log_slope_on_exact_decay(self):
        ns = [10, 20, 40, 80]
        ys = [math.exp(-0.1 * n) for n in ns]
        slope, r2 = log_slope_fit(ns, ys)
        assert slope == pytest.approx(-0.1)
        assert r2 == pytest.approx(1.0)

    def test_log_slope_degenerate(self):
        assert log_slope_fit([10, 20], [0.0, 0.0]) == (0.0, 1.0)

    def test_non_elementary(self):
        assert non_elementary(simple_rw(), T)
        assert not non_elementary(dirac(a), T)
        assert not non_elementary(
            mixture([(dirac(a), 0.5), (dirac(a.inverse()), 0.5)]), T
        )

    def test_calibrate_simple_rw(self):
        calib = calibrate(simple_rw(), T, 200, 400, seed=1)
        assert calib["lambda"] == pytest.approx(0.5, abs=0.05)
        assert calib["sigma2"] == pytest.approx(0.75, abs=0.2)


class TestGenericity:
    def test_verdict_and_monotone_freqs(self):
        rep = run_genericity(simple_rw(), T, [40, 80], 300, 0.25, seed=2, calibration=CAL)
        assert rep.verdict
        freqs = [rep.stats["per_n"][str(n)]["failure_freq"] for n in (40, 80)]
        assert freqs[1] <= freqs[0]

    def test_elementary_measure_rejected(self):
        with pytest.raises(ConfigurationError):
            run_genericity(dirac(a), T, [10], 10, 0.25, seed=0, calibration=CAL)

    def test_rate_floor_above_escape_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            run_genericity(simple_rw(), T, [10], 10, 0.9, seed=0, calibration=CAL)


class TestDiscrepancy:
    def test_percentile_growth_verdict(self):
        rep = run_discrepancy(simple_rw(), T, [100, 400], 300, seed=6)
        assert rep.verdict
        assert rep.stats["worst_quadrupling_ratio"] <= 1.6

    def test_claim_stats_recorded(self):
        sch = build_schottky(T, a, b, size=2, m0=5)
        rep = run_discrepancy(
            simple_rw(), T, [100], 50, seed=6, sch=sch, claim_n=100, claim_trials=2
        )
        claim = rep.stats["claim"]
        assert claim["trials"] == 2
        assert claim["violations"] == 0


class TestClt:
    def test_verdict_at_moderate_n(self):
        rep = run_clt(simple_rw(), T, 2000, 2000, seed=3, calibration=CAL)
        assert rep.verdict
        stats = rep.stats["per_n"]["2000"]
        assert stats["ks_disp"] <= 0.05
        assert stats["ks_tau"] <= 0.05
        assert stats["ks_two_sample"] <= 0.03

    def test_degenerate_measure_short_circuits(self):
        rep = run_clt(dirac(a), T, 100, 100, seed=0,
                      calibration={"lambda": 1.0, "sigma2": 0.0, "n": 0, "trials": 0})
        assert rep.verdict and rep.stats.get("degenerate")


class TestCltConverse:
    def test_heavy_tail_iqr_grows(self):
        rep = run_clt_converse(heavy_tail(), T, [250, 500, 1000], 600, seed=4)
        assert rep.verdict
        assert rep.stats["growth_per_doubling"] >= 1.2

    def test_finite_variance_contrast_stable(self):
        rep = run_clt_converse(simple_rw(), T, [250, 500, 1000], 600, seed=4, contrast=True)
        assert rep.verdict
        assert abs(rep.stats["growth_per_doubling"] - 1.0) <= 0.05

    def test_profile_preconditions(self):
        with pytest.raises(ConfigurationError):
            run_clt_converse(simple_rw(), T, [100], 10, seed=0)
        with pytest.raises(ConfigurationError):
            run_clt_converse(heavy_tail(), T, [100], 10, seed=0, contrast=True)


class TestFreeSubgroup:
    def test_two_walks_generate_free_pairs(self):
        rep = run_free_subgroup(simple_rw(), T, [30, 60], 50, 3, seed=5, calibration=CAL)
        assert rep.verdict
        freqs = [rep.stats["per_n"][str(n)]["failure_freq"] for n in (30, 60)]
        assert freqs[1] <= freqs[0] <= 0.05

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            run_free_subgroup(simple_rw(), T, [10], 5, 0, seed=0, calibration=CAL)
        with pytest.raises(ConfigurationError):
            run_free_subgroup(simple_rw(), T, [10], 5, 2, seed=0, seed2=0, calibration=CAL)


@pytest.mark.parametrize("run", [
    lambda P: run_genericity(simple_rw(), P, [40], 10, 0.25, seed=0, calibration=CAL),
    lambda P: run_discrepancy(simple_rw(), P, [40], 10, seed=0),
    lambda P: run_clt(simple_rw(), P, 40, 10, seed=0, calibration=CAL),
    lambda P: run_clt_converse(heavy_tail(kmax=16), P, [40, 80], 10, seed=0),
    lambda P: run_free_subgroup(simple_rw(), P, [10], 5, 2, seed=0, calibration=CAL),
], ids=["genericity", "discrepancy", "clt", "clt_converse", "free_subgroup"])
def test_runners_refuse_the_plane(run):
    # the runners compute tree statistics only; a plane label would be false
    with pytest.raises(ConfigurationError):
        run(PlaneModel())


class TestReport:
    def test_json_shape(self):
        rep = run_genericity(simple_rw(), T, [40], 50, 0.25, seed=2, calibration=CAL)
        text = rep.to_json()
        assert text.endswith("\n")
        data = json.loads(text)
        assert data["experiment"] == "genericity"
        assert isinstance(data["verdict"], bool)
        assert "samples" not in data  # samples go to the CSV, not the JSON

    def test_rerun_is_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "one", tmp_path / "two"
        for out in (out1, out2):
            rep = run_genericity(simple_rw(), T, [40, 80], 100, 0.25, seed=9, calibration=CAL)
            rep.write(str(out))
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
        assert (out1 / "samples.csv").read_bytes() == (out2 / "samples.csv").read_bytes()

    def test_csv_has_header_and_rows(self, tmp_path):
        rep = run_genericity(simple_rw(), T, [40], 10, 0.25, seed=2, calibration=CAL)
        rep.write(str(tmp_path))
        lines = (tmp_path / "samples.csv").read_text().strip().splitlines()
        assert lines[0] == "n,trial,disp,tau,fail"
        assert len(lines) == 11
