"""Command-line front end: verbs, exit codes, config/seed precedence,
artifact determinism."""

import hashlib
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import example, given, seed, settings, strategies as st

from pivotwalk import counting
from pivotwalk.cli import main, EXIT_PASS, EXIT_CONFIG, EXIT_FAIL
from pivotwalk.schottky import build_schottky, schottky_from_json, schottky_to_json, tree_schottky_set
from pivotwalk.walks import heavy_tail


def run_cli(monkeypatch, tmp_path, *argv):
    monkeypatch.chdir(tmp_path)
    return main(list(argv))


class TestSchottkyFind:
    def test_writes_verified_set(self, monkeypatch, tmp_path):
        code = run_cli(monkeypatch, tmp_path, "schottky-find",
                       "--size", "2", "--block", "5", "--out", "s.json")
        assert code == EXIT_PASS
        sch = schottky_from_json((tmp_path / "s.json").read_text())
        assert len(sch) == 2 and sch.m0 == 5

    def test_missing_arguments(self, monkeypatch, tmp_path):
        assert run_cli(monkeypatch, tmp_path, "schottky-find") == EXIT_CONFIG

    def test_bad_values(self, monkeypatch, tmp_path):
        code = run_cli(monkeypatch, tmp_path, "schottky-find",
                       "--size", "0", "--block", "5")
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("size, k0", [(7, 3), (18, 3)])
    def test_sizes_past_six_widen_k0(self, monkeypatch, tmp_path, size, k0):
        code = run_cli(monkeypatch, tmp_path, "schottky-find",
                       "--size", str(size), "--block", "5", "--out", "s.json")
        assert code == EXIT_PASS
        sch = schottky_from_json((tmp_path / "s.json").read_text())
        assert (len(sch), sch.m0, sch.k0) == (size, 5, k0)

    def test_block_too_short_for_size(self, monkeypatch, tmp_path, capsys):
        code = run_cli(monkeypatch, tmp_path, "schottky-find", "--size", "54", "--block", "5")
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and "at least 7 steps" in err

    def test_takes_no_model(self, monkeypatch, tmp_path, capsys):
        # the verb builds rank-2 tree sets only, whatever a --model would say
        code = run_cli(monkeypatch, tmp_path, "schottky-find", "--model", "tree2", "--size", "2", "--block", "5")
        assert code == EXIT_CONFIG
        assert "unrecognized arguments: --model" in capsys.readouterr().err


class TestRun:
    def test_genericity_pass(self, monkeypatch, tmp_path):
        code = run_cli(monkeypatch, tmp_path, "run", "--experiment", "genericity",
                       "--n", "40,80", "--trials", "200", "--seed", "1", "--out", "g")
        assert code == EXIT_PASS
        report = json.loads((tmp_path / "g" / "report.json").read_text())
        assert report["experiment"] == "genericity" and report["verdict"]
        assert (tmp_path / "g" / "samples.csv").exists()

    def test_unknown_experiment(self, monkeypatch, tmp_path):
        code = run_cli(monkeypatch, tmp_path, "run", "--experiment", "nope")
        assert code == EXIT_CONFIG

    def test_unknown_measure(self, monkeypatch, tmp_path):
        code = run_cli(monkeypatch, tmp_path, "run", "--experiment", "genericity",
                       "--measure", "nope")
        assert code == EXIT_CONFIG

    def test_failing_verdict_exit_code(self, monkeypatch, tmp_path):
        # normal approximation is visibly off at n=50 with 100 trials
        code = run_cli(monkeypatch, tmp_path, "run", "--experiment", "clt",
                       "--n", "50", "--trials", "100", "--seed", "0", "--out", "c")
        assert code == EXIT_FAIL

    def test_rate_floor_misconfiguration(self, monkeypatch, tmp_path):
        code = run_cli(monkeypatch, tmp_path, "run", "--experiment", "genericity",
                       "--n", "40", "--trials", "50", "--L", "0.9")
        assert code == EXIT_CONFIG

    def test_rerun_byte_identical(self, monkeypatch, tmp_path):
        for out in ("r1", "r2"):
            code = run_cli(monkeypatch, tmp_path, "run", "--experiment", "genericity",
                           "--n", "40,80", "--trials", "200", "--seed", "1", "--out", out)
            assert code == EXIT_PASS
        assert (tmp_path / "r1" / "report.json").read_bytes() == \
               (tmp_path / "r2" / "report.json").read_bytes()
        assert (tmp_path / "r1" / "samples.csv").read_bytes() == \
               (tmp_path / "r2" / "samples.csv").read_bytes()


    def test_heavy_measure_from_report_reruns_identically(self, monkeypatch, tmp_path):
        argv = ["run", "--experiment", "clt-converse", "--n", "20,40", "--trials", "30", "--seed", "3"]
        assert run_cli(monkeypatch, tmp_path, *argv, "--measure", "heavy", "--out", "h1") == EXIT_PASS
        report = json.loads((tmp_path / "h1" / "report.json").read_text())
        measure = json.loads(report["measure"])
        assert measure["kmax"] == 65536 and measure["moment_profile"] == "heavy_tail"
        (tmp_path / "m.json").write_text(report["measure"])
        assert run_cli(monkeypatch, tmp_path, *argv, "--measure", "m.json", "--out", "h2") == EXIT_PASS
        for name in ("report.json", "samples.csv"):
            assert (tmp_path / "h1" / name).read_bytes() == (tmp_path / "h2" / name).read_bytes()

    def test_unbounded_quadrupling_ratio_is_null(self, monkeypatch, tmp_path):
        # the gap's p95 is 0 at n = 1 and positive at n = 4
        code = run_cli(monkeypatch, tmp_path, "run", "--experiment", "discrepancy", "--n", "1,4",
                       "--trials", "200", "--out", "d")
        assert code == EXIT_FAIL

        def refuse(name):
            raise ValueError("%s is not JSON" % name)

        report = json.loads((tmp_path / "d" / "report.json").read_text(), parse_constant=refuse)
        assert report["stats"]["worst_quadrupling_ratio"] is None and report["verdict"] is False

    def test_letters_past_b_are_refused(self, monkeypatch, tmp_path, capsys):
        # a measure on c and a Schottky set with letter 3 are refused at
        # load, by a message that names the alphabet
        (tmp_path / "m.json").write_text(
            '{"support": ["a", "A", "c", "C"], "weights": [0.25, 0.25, 0.25, 0.25]}')
        (tmp_path / "gen-c.json").write_text(_INPUT_FILES["gen-c.json"])
        run = ["run", "--n", "40,160", "--trials", "100"]
        for argv in ([*run, "--experiment", "genericity", "--measure", "m.json"],
                     [*run, "--experiment", "discrepancy", "--schottky", "gen-c.json"],
                     ["census", "--n-max", "2", "--schottky", "gen-c.json"]):
            assert run_cli(monkeypatch, tmp_path, *argv) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.startswith("configuration error: malformed input file") and "a, b, A, B" in err


def test_import_leaves_scipy_stats_unloaded():
    import pivotwalk

    src = os.path.dirname(os.path.dirname(pivotwalk.__file__))
    code = "import sys, pivotwalk.cli; print('scipy.stats' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


class TestConfigAndSeed:
    def test_config_file_supplies_defaults(self, monkeypatch, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "genericity", "n": "40,80",
                                   "trials": 100, "seed": 2, "out": "fromcfg"}))
        code = run_cli(monkeypatch, tmp_path, "run", "--config", str(cfg))
        assert code == EXIT_PASS
        assert (tmp_path / "fromcfg" / "report.json").exists()

    def test_flag_overrides_config(self, monkeypatch, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "genericity", "n": "40,80",
                                   "trials": 200, "seed": 1, "out": "cfgout"}))
        code = run_cli(monkeypatch, tmp_path, "run", "--config", str(cfg),
                       "--out", "flagout")
        assert code == EXIT_PASS
        assert (tmp_path / "flagout").exists()
        assert not (tmp_path / "cfgout").exists()

    def test_config_seed_matches_flag(self, monkeypatch, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 3}))
        argv = ["pivot-trace", "--N0", "100", "--n", "5", "--trials", "20"]
        assert run_cli(monkeypatch, tmp_path, *argv, "--config", str(cfg),
                       "--out", "cfg.csv") == EXIT_PASS
        assert run_cli(monkeypatch, tmp_path, *argv, "--seed", "3", "--out", "flag.csv") == EXIT_PASS
        assert (tmp_path / "cfg.csv").read_bytes() == (tmp_path / "flag.csv").read_bytes()

    @pytest.mark.parametrize("entries", [{"N0": 50.5}, {"N0": "many"}, {"nope": 1}, {"tri": 20}])
    def test_bad_config_entry(self, monkeypatch, tmp_path, entries):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(entries))
        code = run_cli(monkeypatch, tmp_path, "pivot-trace", "--n", "5", "--trials", "20",
                       "--config", str(cfg))
        assert code == EXIT_CONFIG

    def test_env_seed_fallback(self, monkeypatch, tmp_path):
        monkeypatch.setenv("PIVOTWALK_SEED", "5")
        code = run_cli(monkeypatch, tmp_path, "pivot-trace", "--N0", "100",
                       "--n", "5", "--trials", "20", "--out", "p.csv")
        assert code == EXIT_PASS
        rows = (tmp_path / "p.csv").read_text().strip().splitlines()
        assert rows[1].split(",")[3] == "5"  # seed column

    def test_bad_env_seed(self, monkeypatch, tmp_path):
        monkeypatch.setenv("PIVOTWALK_SEED", "pony")
        code = run_cli(monkeypatch, tmp_path, "pivot-trace", "--N0", "100",
                       "--n", "5", "--trials", "20")
        assert code == EXIT_CONFIG

    def test_bad_config_file(self, monkeypatch, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2, 3]")
        code = run_cli(monkeypatch, tmp_path, "run", "--config", str(cfg))
        assert code == EXIT_CONFIG


class TestPivotTrace:
    def test_writes_counts(self, monkeypatch, tmp_path):
        code = run_cli(monkeypatch, tmp_path, "pivot-trace", "--N0", "100",
                       "--n", "8", "--trials", "50", "--seed", "1", "--out", "c.csv")
        assert code == EXIT_PASS
        rows = (tmp_path / "c.csv").read_text().strip().splitlines()
        assert rows[0] == "trial,n0,n,seed,pivot_count"
        assert len(rows) == 51

    def test_pivot_trace_counts_unchanged(self, monkeypatch, tmp_path):
        # the bytes the simulator wrote when it multiplied out every
        # connector-block product; its prefix tables must not move a count
        code = run_cli(monkeypatch, tmp_path, "pivot-trace", "--N0", "400", "--n", "20",
                       "--trials", "2000", "--seed", "0", "--out", "c.csv")
        assert code == EXIT_PASS
        assert hashlib.sha256((tmp_path / "c.csv").read_bytes()).hexdigest() == \
            "058139b0c8ae0e6158da6af9c951869efcda2dd9ddeb581bb39837cb333dba67"

    def test_small_n0_rejected(self, monkeypatch, tmp_path):
        code = run_cli(monkeypatch, tmp_path, "pivot-trace", "--N0", "4",
                       "--n", "5", "--trials", "10")
        assert code == EXIT_CONFIG


class TestCensus:
    def test_census_csv_and_verdict(self, monkeypatch, tmp_path):
        code = run_cli(monkeypatch, tmp_path, "census", "--n-max", "3",
                       "--seed", "0", "--out", "census.csv")
        assert code == EXIT_PASS
        rows = (tmp_path / "census.csv").read_text().strip().splitlines()
        assert rows[0] == "n,total,bad_count,bad_fraction,exhaustive"
        assert len(rows) == 4

    # 1,644 products walk the ball to radius 3, 12 only to radius 1; the
    # rows past it come from sampled factor strings
    @pytest.mark.parametrize("budget, exhaustive, code", [(1644, 3, EXIT_PASS), (12, 1, EXIT_FAIL)])
    def test_verdict_reads_exhaustive_rows_only(self, monkeypatch, tmp_path, capsys, budget, exhaustive, code):
        monkeypatch.setattr(counting, "BALL_BUDGET", budget)
        assert run_cli(monkeypatch, tmp_path, "census", "--n-max", "5", "--seed", "0",
                       "--out", "census.csv") == code
        rows = (tmp_path / "census.csv").read_text().strip().splitlines()[1:]
        assert [r.rsplit(",", 1)[1] for r in rows] == ["1"] * exhaustive + ["0"] * (5 - exhaustive)
        out = capsys.readouterr().out
        assert "exhaustive=%d/5" % exhaustive in out
        assert ("too few exhaustive rows" in out) == (code == EXIT_FAIL)

    def test_seed_draws_the_sampled_rows(self, monkeypatch, tmp_path):
        # one set for both seeds, so only the sampled radius-4 row can differ
        (tmp_path / "s.json").write_text(schottky_to_json(build_schottky(size=4, m0=5, seed=0)))
        monkeypatch.setattr(counting, "BALL_BUDGET", 1644)
        monkeypatch.setattr(counting, "BALL_SAMPLES", 2000)
        rows = {}
        for seed in (0, 1):
            out = "census%d.csv" % seed
            run_cli(monkeypatch, tmp_path, "census", "--n-max", "4", "--seed", str(seed), "--schottky", "s.json",
                    "--out", out)
            rows[seed] = (tmp_path / out).read_text().splitlines()[1:]
        # seed 0 draws what the sampled fallback drew before it read the seed
        assert rows[0] == ["1,13,1,0.07692307692307693,1", "2,137,5,0.0364963503649635,1",
                           "3,1393,41,0.029432878679109833,1", "4,1771,59,0.033314511575381144,0"]
        assert rows[1][:3] == rows[0][:3] and rows[1][3] != rows[0][3]


class TestReport:
    def test_svg_from_samples(self, monkeypatch, tmp_path):
        # each runner's plot and the report verb's, pinned byte for byte;
        # clt plots one point, which spans a unit around it on both axes
        for experiment, argv, code, digests in [
            ("genericity", ["--n", "40,80"], EXIT_PASS, {
                "genericity.svg": "4938fad066197ad06cad889dd49d596fe3c61b7853c286bf7019f94f080b61d6",
                "samples.svg": "d2dd2954aed5bcc8c01e448a16d60f8b654ef4600d9499fb08a5f9a2a84c1400"}),
            # 50 trials are too few for the KS thresholds: the verdict fails
            ("clt", ["--n", "40"], EXIT_FAIL, {
                "clt.svg": "41ced2b7539b4bed9f51f1cc27c8efba0f75ee5249d06ec8190034a19ff569af",
                "samples.svg": "26f518116dbaced86ee9514948000d779347c7910d9074fea2b45f0e2a2066a8"}),
            ("discrepancy", ["--n", "20,80"], EXIT_FAIL, {
                "discrepancy.svg": "e409b574fd2796038c51acf08973d3714c6f9ec13b20b94178946cda9f9db883",
                "samples.svg": "f25614e1ce1f1d8250ae6e2688f35f53691475eef044d37e7ccc60fe88ba382a"}),
            ("free-subgroup", ["--n", "10,20"], EXIT_FAIL, {
                "free_subgroup.svg": "8e0ad2ca04476a801edd7db2637c37600265b4b54c473bdd9944e34203662465",
                "samples.svg": "3c0b24f6e5b8515ac7d30531280ef4c131df45975c09958d22f66c529a362804"}),
            ("clt-converse", ["--measure", "heavy", "--n", "20,40"], EXIT_PASS, {
                "clt_converse.svg": "52154087769d5cc30054bc23661b2b4d03b20a3ff023f319774ebfb72ebf7a7f",
                "samples.svg": "b4320f31d8def5a5a6e1473159e90fd0531deb2f9a4b62e0870eff77eb44bc73"}),
        ]:
            assert run_cli(monkeypatch, tmp_path, "run", "--experiment", experiment, *argv, "--trials", "50",
                           "--seed", "1", "--svg", "--out", experiment) == code
            assert run_cli(monkeypatch, tmp_path, "report", experiment + "/samples.csv") == EXIT_PASS
            for name, digest in digests.items():
                assert hashlib.sha256((tmp_path / experiment / name).read_bytes()).hexdigest() == digest, name

    def test_missing_csv(self, monkeypatch, tmp_path):
        assert run_cli(monkeypatch, tmp_path, "report", "nope.csv") == EXIT_CONFIG

    def test_abbreviated_flag_is_refused(self, monkeypatch, tmp_path, capsys):
        # flags are spelled in full, as on every other verb: --o is no --out
        (tmp_path / "samples.csv").write_text("n,trial,gap\n10,0,1\n40,0,2\n")
        assert run_cli(monkeypatch, tmp_path, "report", "samples.csv", "--o", "x.svg") == EXIT_CONFIG
        assert "unrecognized arguments: --o x.svg" in capsys.readouterr().err
        assert not (tmp_path / "x.svg").exists()


_PLANE_RUNS = [
    ["run", "--experiment", "genericity", "--n", "20,40"],
    ["run", "--experiment", "discrepancy", "--n", "20,80"],
    ["run", "--experiment", "clt", "--n", "40"],
    ["run", "--experiment", "clt-converse", "--measure", "heavy", "--n", "20,40"],
    ["run", "--experiment", "free-subgroup", "--n", "10,20"],
]


_SET2 = json.loads(schottky_to_json(tree_schottky_set(2)))  # two blocks of 5 steps


def _with_blocks(sequences):
    return json.dumps(dict(_SET2, sequences=sequences))


def _with_letter(letter):
    """The two-block set with the first step of block 0 spelled `letter`."""
    first, second = _SET2["sequences"]
    return _with_blocks([[[letter], *first[1:]], second])


def _with_constants(**constants):
    return json.dumps(dict(_SET2, constants=dict(_SET2["constants"], **constants)))


# constants other than the ones the blocks and k0 give, or a k0 that is not
# a positive whole number
_BAD_CONSTANTS = {
    "k0-text.json": _with_constants(k0="2"),
    "e0-text.json": _with_constants(e0="0.5"),
    "floor-text.json": _with_constants(length_floor="4"),
    "d0-bool.json": _with_constants(d0=True),
    "e0-nan.json": _with_constants(e0=float("nan")),
    "k0-negative.json": _with_constants(k0=-1),
    "k0-fraction.json": _with_constants(k0=2.5),
}


_INPUT_FILES = {
    "no-constants.json": '{"m0": 5}',
    "list.json": "[1, 2]",
    "bad-constants.json": '{"m0": 5, "constants": {"k": 2}, "sequences": []}',
    "no-support.json": '{"weights": [1.0]}',
    "rank24.json": '{"support": ["a", "A", "x", "X"], "weights": [0.25, 0.25, 0.25, 0.25]}',
    "eta-nan.json": '{"eta": NaN, "kmax": 16, "rank": 2}',
    "kmax-zero.json": '{"eta": 1.1, "kmax": 0, "rank": 2}',
    "kmax-float.json": '{"eta": 1.1, "kmax": 2.5, "rank": 2}',
    "rank-zero.json": '{"eta": 1.1, "kmax": 16, "rank": 0}',
    "bad-digest.json": '{"eta": 1.1, "kmax": 16, "rank": 2, "weights_sha256": "00"}',
    "empty.csv": "",
    "header-only.csv": "n,trial,fail\n",
    # samples that parse as floats but are no finite number
    "nan.csv": "n,value\n1,nan\n2,inf\n",
    "inf.csv": "n,value\n1,0.5\n2,-inf\n",
    "overflow.csv": "n,value\n1,1e400\n",
    # a sample or an n that is no number
    "word-sample.csv": "n,value\n1,abc\n",
    "word-n.csv": "n,value\nx,1\n",
    # one atom: the walk's group is cyclic, elementary
    "a-only.json": '{"support": ["a"], "weights": [1.0]}',
    # 131,072 powers of a, given by their atoms: elementary
    "rank1.json": json.dumps({"support": ["%s^%d" % (x, k) for k in range(1, 65537) for x in "aA"],
                              "weights": [2.0 ** -17] * 2 ** 17}),
    "block5.json": schottky_to_json(tree_schottky_set(2)),  # well formed; blocks of 5 steps
    # letter 3, which is no letter of a, b, A, B, in a block
    "gen-c.json": schottky_to_json(tree_schottky_set(2)).replace("[2]", "[3]"),
    # m0 of 3 with blocks of 5 steps
    "m0-short.json": schottky_to_json(tree_schottky_set(2)).replace('"m0": 5', '"m0": 3'),
    # one block listed twice: general position fails
    "dup-block.json": _with_blocks([_SET2["sequences"][0]] * 2),
    # a block a A a b b, whose steps cancel
    "cancel-block.json": _with_blocks([[[1], [-1], [1], [2], [2]], _SET2["sequences"][1]]),
    "no-blocks.json": _with_blocks([]),
    # one block of no steps
    "zero.json": json.dumps(dict(_SET2, m0=0, sequences=[[]])),
    # a letter is a nonzero whole number, not a float or a bool
    "letter-float.json": _with_letter(1.5),
    "letter-true.json": _with_letter(True),
    # an exponent beyond 64 bits
    "exp-int64.json": '{"support": ["a^99999999999999999999", "A"], "weights": [0.5, 0.5]}',
    # an exponent within 64 bits whose products of 2 steps are not
    "product-int64.json": '{"support": ["a^4611686018427387904", "A"], "weights": [0.5, 0.5]}',
    **_BAD_CONSTANTS,
    # two one-letter blocks whose file loosens the floor and the length unit
    "one-letter.json": json.dumps({"m0": 1, "sequences": [[[1]], [[2]]], "constants": {
        "k0": 1, "d0": 4, "d1": 6, "e0": 0, "length_floor": 0}}),
    "d1-only.json": _with_constants(d1=7),
    "brace.json": "{bad",
}

# input files that cannot be read or are no JSON: each ends its argv, and
# `a-dir` is made as a directory
_UNREADABLE = [
    ["run", "--experiment", "discrepancy", "--n", "20,80", "--trials", "20", "--schottky", "missing.json"],
    ["census", "--n-max", "2", "--schottky", "a-dir"],
    ["run", "--experiment", "genericity", "--n", "20,40", "--trials", "20", "--measure", "a-dir"],
    ["run", "--config", "missing.json"],
    ["run", "--config", "brace.json"],
    ["report", "a-dir"],
    ["report", "missing.csv"],
]

# samples.csv rows whose n or sample is no number: each message names the
# file and the line
_NOT_NUMBERS = [
    ["report", "word-sample.csv"],
    ["report", "word-n.csv"],
]

# an elementary measure, refused by every experiment
_ELEMENTARY = [
    ["run", "--experiment", "genericity", "--n", "20,40", "--trials", "20", "--measure", "a-only.json"],
    ["run", "--experiment", "discrepancy", "--n", "20,80", "--trials", "20", "--measure", "a-only.json"],
    ["run", "--experiment", "clt", "--n", "40", "--trials", "20", "--measure", "a-only.json"],
    ["run", "--experiment", "clt-converse", "--n", "20,40", "--trials", "20", "--contrast",
     "--measure", "a-only.json"],
    ["run", "--experiment", "free-subgroup", "--n", "10,20", "--trials", "20", "--measure", "a-only.json"],
]

_SCHOTTKY_ARGVS = (["census", "--n-max", "2"],
                   ["run", "--experiment", "discrepancy", "--n", "20,80", "--trials", "20"])


@pytest.mark.parametrize("argv", [
    *[argv + ["--model", "plane", "--trials", "20", "--seed", "1"] for argv in _PLANE_RUNS],
    ["census", "--model", "plane", "--n-max", "2"],
    ["run", "--experiment", "genericity", "--n", "20,40", "--trials", "0"],
    ["run", "--experiment", "discrepancy", "--n", "20,80", "--trials", "0"],
    ["run", "--experiment", "free-subgroup", "--n", "10,20", "--trials", "0"],
    ["run", "--experiment", "discrepancy", "--n", "0,40", "--trials", "20"],
    ["run", "--experiment", "clt", "--n", "40,80", "--trials", "20"],
    ["run", "--experiment", "clt-converse", "--measure", "heavy", "--n", "40", "--trials", "20"],
    ["pivot-trace", "--N0", "100", "--n", "0", "--trials", "20"],
    ["census", "--n-max", "0"],
    ["census", "--n-max", "1"],
    ["run", "--experiment", "clt", "--n", "50", "--trials", "1"],
    ["run", "--experiment", "discrepancy", "--n", "20,80", "--trials", "20", "--claim-trials", "2"],
    # claim inputs without claim trials would be loaded and then ignored
    ["run", "--experiment", "discrepancy", "--n", "20,80", "--trials", "20", "--claim-n", "40"],
    ["run", "--experiment", "discrepancy", "--n", "20,80", "--trials", "20", "--schottky", "block5.json"],
    ["run", "--experiment", "discrepancy", "--n", "20,80", "--trials", "20", "--claim-trials", "0",
     "--claim-n", "40", "--schottky", "block5.json"],
    ["census", "--n-max", "2", "--schottky", "no-constants.json"],
    ["census", "--n-max", "2", "--schottky", "list.json"],
    ["census", "--n-max", "2", "--schottky", "bad-constants.json"],
    ["run", "--experiment", "discrepancy", "--n", "20,80", "--schottky", "no-constants.json"],
    ["run", "--experiment", "discrepancy", "--n", "20,80", "--schottky", "list.json"],
    ["run", "--experiment", "genericity", "--n", "20,40", "--measure", "no-support.json"],
    ["run", "--experiment", "genericity", "--n", "20,40", "--measure", "list.json"],
    ["run", "--experiment", "genericity", "--n", "20,40", "--trials", "20", "--L", "nan"],
    ["run", "--experiment", "genericity", "--n", "20,40", "--trials", "20", "--L=-inf"],
    ["census", "--n-max", "2", "--K", "nan"],
    ["census", "--n-max", "2", "--K", "inf"],
    ["report", "empty.csv"],
    ["report", "header-only.csv"],
    ["run", "--experiment", "genericity", "--n", "20,40", "--trials", "20", "--measure", "rank24.json"],
    *[["run", "--experiment", "clt-converse", "--n", "20,40", "--trials", "20", "--measure", name]
      for name in ("eta-nan.json", "kmax-zero.json", "kmax-float.json", "rank-zero.json",
                   "bad-digest.json")],
    ["run", "--experiment", "genericity", "--n", "20,40", "--trials", "20", "--measure", "rank1.json"],
    # claim walks of 6 steps split into halves of 3, shorter than a block
    ["run", "--experiment", "discrepancy", "--n", "100,400", "--trials", "10", "--claim-trials", "1",
     "--claim-n", "6", "--schottky", "block5.json"],
    ["census", "--n-max", "2", "--schottky", "gen-c.json"],
    ["run", "--experiment", "discrepancy", "--n", "20,80", "--trials", "20", "--schottky", "gen-c.json"],
    ["census", "--n-max", "2", "--schottky", "m0-short.json"],
    ["run", "--experiment", "discrepancy", "--n", "20,80", "--trials", "20", "--claim-trials", "2",
     "--claim-n", "40", "--schottky", "m0-short.json"],
    *[argv + ["--schottky", name]
      for name in ("dup-block.json", "cancel-block.json", "no-blocks.json", *_BAD_CONSTANTS)
      for argv in _SCHOTTKY_ARGVS],
    *[argv + ["--schottky", name] for name in ("letter-float.json", "letter-true.json") for argv in _SCHOTTKY_ARGVS],
    ["run", "--experiment", "genericity", "--n", "20,40", "--trials", "20", "--measure", "exp-int64.json"],
    *[argv + ["--schottky", name] for name in ("one-letter.json", "d1-only.json") for argv in _SCHOTTKY_ARGVS],
    ["run", "--experiment", "genericity", "--n", "x", "--trials", "20"],
    ["schottky-find", "--size", "1", "--block", "6", "--seed", "-1"],
    ["PIVOTWALK_SEED=-3", "pivot-trace", "--N0", "100", "--n", "5", "--trials", "20"],
    # block lengths below the search's shortest for the size
    ["schottky-find", "--size", "54", "--block", "5"],
    ["schottky-find", "--size", "2", "--block", "4"],
    # a flag that only another experiment reads
    ["run", "--experiment", "clt", "--schottky", "nonexistent.json", "--L", "7", "--claim-trials", "3"],
    ["run", "--experiment", "discrepancy", "--n", "20,80", "--trials", "20", "--contrast", "--L", "5"],
    # an n grid that is not strictly increasing
    ["run", "--experiment", "genericity", "--n", "400,200,100,50", "--trials", "2000", "--seed", "3"],
    ["run", "--experiment", "genericity", "--n", "100,100", "--trials", "2000", "--seed", "3"],
    ["run", "--experiment", "clt-converse", "--measure", "heavy", "--n", "4000,1000,500,2000"],
    # a discrepancy grid with no n and 4n: the quadrupling ratio has nothing to compare
    ["run", "--experiment", "discrepancy", "--n", "100,200", "--trials", "200"],
    ["run", "--experiment", "discrepancy", "--n", "100", "--trials", "200"],
    # a sample that is no finite number would be plotted at nan
    ["report", "nan.csv", "--out", "r.svg"],
    ["report", "inf.csv"],
    ["report", "overflow.csv"],
    # the tree is F2 on a and b: another rank is an unknown model
    ["census", "--model", "tree3", "--n-max", "2"],
    ["census", "--model", "tree7", "--n-max", "2"],
    ["run", "--experiment", "genericity", "--model", "tree3", "--n", "20,40", "--trials", "20"],
    ["run", "--experiment", "genericity", "--n", "50,100", "--measure", "product-int64.json"],
    *_UNREADABLE,
    *_NOT_NUMBERS,
    *_ELEMENTARY,
    # an empty --schottky path names no file: refused, not ignored
    ["run", "--experiment", "discrepancy", "--n", "20,80", "--trials", "20", "--schottky", ""],
])
def test_bad_input_is_refused_cleanly(monkeypatch, tmp_path, capsys, argv):
    for name in set(argv) & set(_INPUT_FILES):
        (tmp_path / name).write_text(_INPUT_FILES[name])
    (tmp_path / "a-dir").mkdir()
    # leading NAME=value words set the environment, as in a shell
    while "=" in argv[0]:
        monkeypatch.setenv(*argv[0].split("=", 1))
        argv = argv[1:]
    assert run_cli(monkeypatch, tmp_path, *argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    # a file that cannot be read is named, not left to the OSError text
    if argv in _UNREADABLE:
        assert argv[-1] in err
    if argv in _NOT_NUMBERS:
        assert "%s line 2: " % argv[-1] in err
    if argv in _ELEMENTARY:
        assert err == "configuration error: measure is elementary\n"


@pytest.mark.parametrize("experiment", ["genericity", "discrepancy", "clt", "clt-converse", "free-subgroup"])
def test_measure_too_wide_for_the_grid_is_refused_by_name(monkeypatch, tmp_path, capsys, experiment):
    # refused before any walk: no output directory is made
    (tmp_path / "m.json").write_text(_INPUT_FILES["product-int64.json"])
    argv = ["run", "--experiment", experiment, "--n", "100", "--trials", "20", "--measure", "m.json", "--out", "o"]
    assert run_cli(monkeypatch, tmp_path, *argv) == EXIT_CONFIG
    assert capsys.readouterr().err == ("configuration error: --measure m.json: a product of 100 steps (the largest"
                                       " --n) has exponents beyond 64 bits\n")
    assert not (tmp_path / "o").exists()


# each experiment-specific flag, at its default value where it has one, and
# the experiment that reads it
_FLAG_OWNERS = [
    (["--L", "0.25"], "genericity"),
    (["--contrast"], "clt-converse"),
    (["--schottky", "block5.json"], "discrepancy"),
    (["--claim-n", "40"], "discrepancy"),
    (["--claim-trials", "0"], "discrepancy"),
]
# these five come first, so that they keep their earlier ids
_FIRST_STRAYS = [
    ("clt-converse", ["--L", "0.25"]),
    ("genericity", ["--contrast"]),
    ("free-subgroup", ["--schottky", "block5.json"]),
    ("clt", ["--claim-n", "40"]),
    ("genericity", ["--claim-trials", "0"]),
]


# every flag given to every experiment that does not read it
@pytest.mark.parametrize("experiment, flag", _FIRST_STRAYS + [
    (experiment, flag) for flag, owner in _FLAG_OWNERS
    for experiment in ("genericity", "discrepancy", "clt", "clt-converse", "free-subgroup")
    if experiment != owner and (experiment, flag) not in _FIRST_STRAYS
])
def test_stray_flag_is_refused_by_name(monkeypatch, tmp_path, capsys, experiment, flag):
    [owner] = [owner for owned, owner in _FLAG_OWNERS if owned == flag]
    argv = ["run", "--experiment", experiment, "--n", "20,40", "--trials", "20", *flag]
    assert run_cli(monkeypatch, tmp_path, *argv) == EXIT_CONFIG
    assert capsys.readouterr().err == ("configuration error: %s applies only to --experiment %s, not %s\n"
                                       % (flag[0], owner, experiment))


@pytest.mark.parametrize("argv", _SCHOTTKY_ARGVS)
def test_empty_block_is_refused_by_name(monkeypatch, tmp_path, capsys, argv):
    (tmp_path / "zero.json").write_text(_INPUT_FILES["zero.json"])
    assert run_cli(monkeypatch, tmp_path, *argv, "--schottky", "zero.json") == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert "block 0 has no steps" in err and "NoneType" not in err


class TestUsage:
    def test_no_verb_is_config_error(self, monkeypatch, tmp_path):
        assert run_cli(monkeypatch, tmp_path) == EXIT_CONFIG

    def test_help_exits_clean(self, monkeypatch, tmp_path, capsys):
        assert run_cli(monkeypatch, tmp_path, "--help") == EXIT_PASS
        assert "pivotwalk" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# fuzz: argv drawn from small pools of verbs, flags and values, with input
# files that are valid or have one field replaced, exits 0, 1 or 2 and never
# raises.  Each verb gets its size flags, all tiny, so no default size runs.

# each pool lists valid values first, so that most draws reach the verb
_FUZZ_VALUES_OF = {
    "--size": ["2", "1", "0"],
    "--block": ["5", "6", "3"],
    "--n": ["8,16", "2", "8", "20", "0", "x"],
    "--trials": ["3", "5", "1", "0"],
    "--claim-n": ["12", "6", "0"],
    "--claim-trials": ["1", "0", "-1"],
    "--N0": ["5", "6", "4"],
    "--n-max": ["2", "3", "1"],
    "--experiment": ["genericity", "discrepancy", "clt", "clt-converse", "free-subgroup", "nope"],
    "--model": ["tree2", "tree3", "plane", "tree1", "cube"],
    "--measure": ["measure.json", "simple", "heavy", "nope"],
    "--seed": ["0", "7", "1", "-1", "x"],
    "--L": ["0.25", "nan", "-1"],
    "--K": ["0.5", "inf", "-2"],
    "--schottky": ["schottky.json", "missing.json"],
    "--config": ["config.json", "missing.json"],
    "--contrast": [None],
    "--svg": [None],
    "--out": ["plot.svg"],
    "--bogus": [None],
}
# per verb, the flags always given (every size whose default is not tiny)
# and the flags drawn from
_FUZZ_VERBS = {
    "schottky-find": (["--size", "--block"], ["--seed", "--config", "--bogus"]),
    "run": (["--experiment", "--n", "--trials"],
            ["--measure", "--schottky", "--claim-n", "--claim-trials", "--model", "--seed", "--L",
             "--contrast", "--svg", "--config", "--N0", "--bogus"]),
    "pivot-trace": (["--N0", "--n", "--trials"], ["--seed", "--config", "--model", "--bogus"]),
    "census": (["--n-max"], ["--schottky", "--K", "--model", "--seed", "--config", "--n", "--bogus"]),
    "report": ([], ["--out", "--bogus"]),
    "nope": ([], ["--bogus"]),
}
_FUZZ_VALUES = ["x", "a^99999999999999999999", "b^4611686018427387904", None, [1], {}, True, 1.5,
                -1, 0, 2 ** 63, 10 ** 20, 1e300, float("nan")]
# a heavy-tail descriptor builds all its weights before the digest is
# checked, so kmax stays small
_FUZZ_SMALL = ["x", None, [1], True, 1.5, -1, 0, 3]


@st.composite
def _fuzz_argv(draw):
    # run has five experiments, so it is drawn as often as the other verbs together
    verb = draw(st.sampled_from(["run"] * 5 + sorted(_FUZZ_VERBS)))
    given_flags, drawn_flags = _FUZZ_VERBS[verb]
    argv = [verb]
    if verb == "report":
        argv.append(draw(st.sampled_from(["samples.csv", "missing.csv", "measure.json"])))
    for flag in given_flags + draw(st.lists(st.sampled_from(drawn_flags), max_size=4, unique=True)):
        value = draw(st.sampled_from(_FUZZ_VALUES_OF[flag]))
        argv += [flag] if value is None else [flag, value]
    return argv


def _slots(doc):
    """(container, key) of every value in a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield doc, key
        yield from _slots(value)


@st.composite
def _fuzz_json(draw, text):
    """`text` as it is, or with one value replaced by a wrong type or an
    out-of-range number."""
    doc = json.loads(text)
    if draw(st.booleans()):
        container, key = draw(st.sampled_from(list(_slots(doc))))
        container[key] = draw(st.sampled_from(_FUZZ_SMALL if key == "kmax" else _FUZZ_VALUES))
    return json.dumps(doc)


_FUZZ_FILES = st.fixed_dictionaries({
    "measure.json": st.sampled_from(['{"support": ["a", "A", "b", "B"], "weights": [0.25, 0.25, 0.25, 0.25]}',
                                     heavy_tail(kmax=16).to_json()]).flatmap(_fuzz_json),
    "schottky.json": _fuzz_json(schottky_to_json(tree_schottky_set(2))),
    "config.json": _fuzz_json('{"seed": 3, "model": "tree2", "svg": true}'),
    "samples.csv": st.sampled_from(["n,trial,fail\n8,0,1\n8,1,0\n16,0,0\n", "n,trial,fail\n8,0,x\n", ""]),
})


@seed(2026)
@settings(max_examples=200, deadline=None, database=None)
@given(_fuzz_argv(), _FUZZ_FILES)
# exponents past 64 bits: in a word, and in a product of 8 steps
@example(["run", "--experiment", "genericity", "--n", "8", "--trials", "3", "--measure", "measure.json"],
         {"measure.json": _INPUT_FILES["exp-int64.json"]})
@example(["run", "--experiment", "clt", "--n", "8", "--trials", "3", "--measure", "measure.json"],
         {"measure.json": '{"support": ["b^4611686018427387904", "A"], "weights": [0.5, 0.5]}'})
def test_cli_fuzz_exits_cleanly(argv, files):
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, text in files.items():
                with open(name, "w") as fh:
                    fh.write(text)
            assert main(argv) in (EXIT_PASS, EXIT_CONFIG, EXIT_FAIL)
        finally:
            os.chdir(cwd)
