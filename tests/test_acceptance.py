"""End-to-end acceptance criteria.

Each test prints exactly one PASS/FAIL line for its criterion, then
asserts.  Tolerances and budgets are stated inline; statistical verdicts
use fixed seeds so the suite is deterministic.
"""

import time

import numpy as np

from pivotwalk.words import (
    random_reduced_word,
    tree_distance,
    tree_geodesic,
)
from pivotwalk.spaces import TreeModel
from pivotwalk.geometry import project
from pivotwalk.schottky import (
    build_schottky,
    tree_schottky_set,
    verify_schottky,
    phi_image,
    inverse_set,
    concat_check,
    tilde_pairs,
)
from pivotwalk.pivotal import (
    PivotConfig,
    compute_pivotal_times,
    pivotal_chain_report,
    pivot,
    sample_jump_dominated_counts,
    dominates_jump_walk,
    half_count_tail_ok,
)
from pivotwalk.walks import simple_rw, heavy_tail
from pivotwalk.verifier import (
    calibrate,
    run_genericity,
    run_discrepancy,
    run_clt,
    run_clt_converse,
    run_free_subgroup,
)
from pivotwalk.cli import main as cli_main, EXIT_PASS

T = TreeModel()
CAL = {"lambda": 0.5, "sigma2": 0.75, "n": 0, "trials": 0}


def report(idx, name, ok):
    print("\nacceptance %2d/11 %-34s %s" % (idx, name, "PASS" if ok else "FAIL"))
    assert ok, "criterion %d (%s) failed" % (idx, name)


def test_01_exact_tree_arithmetic():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    ok = True
    for _ in range(10_000):
        x = random_reduced_word(rng, int(rng.integers(0, 12)))
        y = random_reduced_word(rng, int(rng.integers(0, 12)))
        z = random_reduced_word(rng, int(rng.integers(0, 12)))
        g = random_reduced_word(rng, int(rng.integers(0, 8)))
        # triangle inequality, exact integers
        ok &= tree_distance(x, z) <= tree_distance(x, y) + tree_distance(y, z)
        # left multiplication is an isometry
        ok &= tree_distance(g * x, g * y) == tree_distance(x, y)
        # translation length is a conjugation invariant
        ok &= (g * x * g.inverse()).translation_length() == x.translation_length()
        # nearest-point projection to a segment is idempotent
        seg = tree_geodesic(y, z)
        p = project(x, seg).points[0]
        ok &= project(p, seg).points[0] == p
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    report(1, "exact tree arithmetic (10^4, <10s)", ok and elapsed < 10.0)


def test_02_block_set_properties():
    rng = np.random.default_rng(202)
    ok = True
    for size in (2, 4):
        sch = build_schottky(size=size, m0=5, seed=0)
        ok &= not verify_schottky(sch)  # exhaustive probe at radius m0 + 5
        floor = size * size - 2 * size
        for _ in range(1000):
            v = random_reduced_word(rng, int(rng.integers(0, 4)))
            ok &= len(tilde_pairs(sch, v)) >= floor
        if not ok:
            break
    report(2, "block sets verify; middle pairs >= N^2-2N", ok)


def test_03_product_injectivity_and_progress():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    ok = True
    for size in (2, 4):
        sch = build_schottky(size=size, m0=5, seed=0)
        fwd = phi_image(sch)  # raises on any collision
        back = phi_image(inverse_set(sch))
        ok &= len(fwd) == size ** 4 and len(back) == size ** 4
        ok &= not (set(fwd) & set(back))
        for _ in range(100):
            k = int(rng.integers(1, 33))
            idx = [int(rng.integers(0, size)) for _ in range(k)]
            sgn = [int(rng.integers(0, 2)) * 2 - 1 for _ in range(k)]
            for i in range(k - 1):
                if idx[i] == idx[i + 1] and sgn[i] * sgn[i + 1] == -1:
                    sgn[i + 1] = sgn[i]
            aligned, displacement = concat_check(sch, idx, sgn)
            ok &= aligned and displacement >= 5.0 * sch.e0 * k
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    report(3, "fourfold products injective; chains progress (<60s)",
           ok and elapsed < 60.0)


def test_04_pivotal_machinery():
    sch = build_schottky(size=4, m0=5, seed=0)
    k0 = sch.k0
    n = 5
    ok = True

    def config(seed):
        rng = np.random.default_rng([seed, 7])
        w = tuple(random_reduced_word(rng, k0) for _ in range(n + 1))
        v = tuple(random_reduced_word(rng, k0) for _ in range(n))
        draws = np.random.default_rng(seed).integers(0, 4, size=(n, 4))
        return PivotConfig(sch, tuple(tuple(int(x) for x in r) for r in draws), w, v)

    # 10^3 random configurations stay aligned through their pivotal chain
    for s in range(1000):
        if not pivotal_chain_report(config(s)):
            ok = False
            break

    # 10^3 pivot moves leave the pivotal times unchanged
    moves = 0
    s = 0
    while ok and moves < 1000:
        cfg = config(s)
        times = compute_pivotal_times(cfg)
        for i in times:
            vv = cfg.v[i - 1]
            for pair in tilde_pairs(sch, vv)[:3]:
                cfg2 = pivot(cfg, i, pair[0], pair[1], vv)
                if compute_pivotal_times(cfg2) != times:
                    ok = False
                moves += 1
                if not ok or moves >= 1000:
                    break
            if not ok or moves >= 1000:
                break
        s += 1

    # pivot-count domination of the reference jump walk, plus the half-count
    # tail bound, at both set sizes and all three horizons (10^4 trials)
    sets = {n0: tree_schottky_set(n0, seed=1) for n0 in (100, 400)}
    for n0, sch_n0 in sets.items():
        for horizon in (10, 20, 50):
            counts = sample_jump_dominated_counts(n0, horizon, 10_000, seed=1, sch=sch_n0)
            ok &= dominates_jump_walk(counts, n0, horizon)
            ok &= half_count_tail_ok(counts, n0, horizon)
    report(4, "pivotal chains, pivots, jump-law domination", ok)


def test_05_escape_rate_and_normal_limit():
    calib = calibrate(simple_rw(), 1000, 10_000, seed=11)
    ok = abs(calib["lambda"] - 0.5) <= 0.01
    # variance oracle: |W_n| is a birth-death chain stepping +1 w.p. 3/4
    # and -1 w.p. 1/4 (off 0), so lambda = 1/2 and sigma^2 = 3/4
    rep = run_clt(simple_rw(), T, [2000], 5000, seed=12, calibration=CAL)
    stats = rep.stats["per_n"]["2000"]
    ok &= stats["ks_disp"] <= 0.05 and stats["ks_tau"] <= 0.05
    ok &= stats["ks_two_sample"] <= 0.03
    ok &= rep.verdict
    report(5, "escape rate 0.50+-0.01; KS <= .05/.05/.03", ok)


def test_06_short_translation_is_rare():
    rep = run_genericity(simple_rw(), T, [50, 100, 200, 400], 10_000,
                         seed=13, calibration=CAL)
    freq_400 = rep.stats["per_n"]["400"]["failure_freq"]
    ok = rep.verdict and freq_400 < 1e-3
    report(6, "short-translation freq decays; <1e-3 at n=400", ok)


def test_07_displacement_length_gap():
    sch = tree_schottky_set(18, seed=0)
    rep = run_discrepancy(simple_rw(), T, [1000, 4000], 3000, seed=14,
                          sch=sch, claim_n=1500, claim_trials=40)
    claim = rep.stats["claim"]
    ok = rep.verdict
    ok &= rep.stats["worst_quadrupling_ratio"] <= 1.6
    ok &= claim["applicable"] >= 1 and claim["violations"] == 0
    report(7, "gap p95 ratio <= 1.6; reach bound never violated", ok)


def test_08_no_normal_limit_for_heavy_tails():
    grid = [500, 1000, 2000, 4000]
    heavy = run_clt_converse(heavy_tail(), T, grid, 3000, seed=15)
    contrast = run_clt_converse(simple_rw(), T, grid, 3000, seed=15, contrast=True)
    ok = heavy.verdict and heavy.stats["growth_per_doubling"] >= 1.2
    ok &= contrast.verdict and abs(contrast.stats["growth_per_doubling"] - 1.0) <= 0.05
    report(8, "IQR grows >=20%/doubling; contrast within 5%", ok)


def test_09_independent_walks_freeness():
    rep = run_free_subgroup(simple_rw(), T, [50, 100], 1000, seed=16,
                            calibration=CAL)
    freqs = [rep.stats["per_n"][str(n)]["failure_freq"] for n in (50, 100)]
    ok = rep.verdict and freqs[-1] <= 0.05 and freqs[1] <= freqs[0]
    report(9, "free pairs in >=95% of trials, improving in n", ok)


def test_10_ball_census(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    t0 = time.perf_counter()
    code = cli_main(["census", "--n-max", "6", "--seed", "0", "--out", "census.csv"])
    elapsed = time.perf_counter() - t0
    rows = [r.split(",") for r in
            (tmp_path / "census.csv").read_text().strip().splitlines()[1:]]
    fracs = [float(r[3]) for r in rows]
    monotone = all(b <= a for a, b in zip(fracs, fracs[1:]))
    ok = code == EXIT_PASS and len(rows) == 6 and monotone and elapsed < 600.0
    report(10, "short-element fraction shrinks, n=1..6 (<10min)", ok)


def test_11_byte_identical_reruns(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    ok = True
    for out in ("one", "two"):
        code = cli_main(["run", "--experiment", "genericity", "--n", "50,100",
                         "--trials", "500", "--seed", "7", "--out", out])
        ok &= code == EXIT_PASS
        code = cli_main(["pivot-trace", "--N0", "100", "--n", "10",
                         "--trials", "200", "--seed", "7",
                         "--out", "%s-counts.csv" % out])
        ok &= code == EXIT_PASS
    ok &= (tmp_path / "one" / "report.json").read_bytes() == \
          (tmp_path / "two" / "report.json").read_bytes()
    ok &= (tmp_path / "one" / "samples.csv").read_bytes() == \
          (tmp_path / "two" / "samples.csv").read_bytes()
    ok &= (tmp_path / "one-counts.csv").read_bytes() == \
          (tmp_path / "two-counts.csv").read_bytes()
    report(11, "identical artifacts on rerun", ok)
