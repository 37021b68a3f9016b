import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gaussent
from gaussent import (
    classify_three_mode,
    final_cm,
    mu_m,
    reduced_pair_cm,
    sample_preparation,
    save_state,
    shared_cm,
    splitting_sigma,
    threshold_r_e,
    threshold_r_l,
    threshold_r_m,
    two_mode_metrics,
)
from gaussent.cli import _emit_json, _emit_profile, main
from gaussent.protocol import ROUTE_VIA_APRIME, STAGE_FINAL_VIA_A, STAGE_FINAL_VIA_APRIME, ProtocolParams, stage_state


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr()


def round12(x):
    return float(f"{x:.12g}")


class TestThresholdsCommand:
    def test_reference_values(self, capsys):
        code, out = run_cli(capsys, "thresholds", "--epsilon", "0.1")
        assert code == 0
        payload = json.loads(out.out)
        assert list(payload) == ["epsilon", "r_l", "r_e", "r_m", "gap"]
        assert payload["r_l"] == pytest.approx(0.079, abs=1e-3)
        assert payload["r_e"] == pytest.approx(0.106, abs=1e-3)
        assert payload["r_m"] == pytest.approx(0.277, abs=1e-3)

    def test_zero_noise(self, capsys):
        code, out = run_cli(capsys, "thresholds", "--epsilon", "0")
        payload = json.loads(out.out)
        assert payload["r_m"] == 0.0

    def test_numbers_come_from_library(self, capsys):
        _, out = run_cli(capsys, "thresholds", "--epsilon", "0.37")
        payload = json.loads(out.out)
        assert payload["r_l"] == round12(threshold_r_l(0.37))
        assert payload["r_e"] == round12(threshold_r_e(0.37))
        assert payload["r_m"] == round12(threshold_r_m(0.37))
        assert payload["gap"] == round12(threshold_r_m(0.37) - threshold_r_e(0.37))

    def test_output_file_round_trips(self, tmp_path, capsys):
        target = tmp_path / "thresholds.json"
        code, out = run_cli(capsys, "thresholds", "--epsilon", "0.1", "--output", str(target))
        assert code == 0 and out.out == ""
        assert json.loads(target.read_text())["epsilon"] == 0.1


class TestSweepCommand:
    def test_crossings_near_thresholds(self, capsys):
        code, out = run_cli(
            capsys, "sweep", "--epsilon", "0.1",
            "--r-min", "0", "--r-max", "0.6", "--steps", "600",
        )
        assert code == 0
        lines = out.out.strip().split("\n")
        assert lines[0] == ",".join(("r", "mu_pair", "mu_m", "sigma_shared_A", "class_final"))
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 600
        rs = np.array([float(row[0]) for row in rows])
        step = rs[1] - rs[0]
        assert np.all(np.diff(rs) > 0)
        mu_pair = np.array([float(row[1]) for row in rows])
        mu_meas = np.array([float(row[2]) for row in rows])
        first_pair = rs[np.argmax(mu_pair < 1)]
        first_meas = rs[np.argmax(mu_meas < 1)]
        assert abs(first_pair - 0.106) <= step
        assert abs(first_meas - 0.277) <= step

    def test_rows_match_library(self, capsys):
        _, out = run_cli(capsys, "sweep", "--epsilon", "0.2", "--r-min", "0.1",
                         "--r-max", "0.5", "--steps", "5")
        rows = [line.split(",") for line in out.out.strip().split("\n")[1:]]
        assert len(rows) == 5
        for row in rows:
            params = ProtocolParams(float(row[0]), 0.2)
            assert float(row[1]) == round12(two_mode_metrics(reduced_pair_cm(params)).mu)
            assert float(row[2]) == round12(mu_m(params))
            assert float(row[3]) == round12(splitting_sigma(shared_cm(params)[0].cm, 0).sigma)
            assert row[4] == classify_three_mode(final_cm(params, ROUTE_VIA_APRIME).cm).class_label

    def test_byte_identical_reruns(self, tmp_path, capsys):
        args = ("sweep", "--epsilon", "0.1", "--steps", "40")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, *args, "--output", str(a))
        run_cli(capsys, *args, "--output", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_json_format(self, capsys):
        _, out = run_cli(capsys, "sweep", "--epsilon", "0.1", "--steps", "3", "--format", "json")
        payload = json.loads(out.out)
        assert len(payload) == 3
        assert list(payload[0]) == ["r", "mu_pair", "mu_m", "sigma_shared_A", "class_final"]

    def test_rows_beyond_double_precision_exit_1(self, capsys):
        # from r of about 18.4 the stage entries (exp(2r) +- 1)/2 lose the +-1; analyze refuses those states too
        code, out = run_cli(capsys, "sweep", "--epsilon", "0.1", "--r-min", "18", "--r-max", "40")
        assert (code, out.out, out.err) == (1, "", "error: covariance matrix is not positive definite\n")
        assert run_cli(capsys, "sweep", "--epsilon", "0.1", "--r-min", "16", "--r-max", "18")[0] == 0

    def test_bounds_violation_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--epsilon", "0.1", "--r-min", "0.5", "--r-max", "0.1"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--epsilon", "0.1", "--steps", "1"])
        assert exc.value.code == 2


class TestGapSweepCommand:
    def test_bounds_violation_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gap-sweep", "--eps-min", "1", "--eps-max", "0.5"])
        assert exc.value.code == 2
        assert "--eps-min must be below --eps-max" in capsys.readouterr().err

    def test_gap_approaches_limit(self, capsys):
        code, out = run_cli(capsys, "gap-sweep", "--eps-min", "0.001", "--eps-max", "3",
                            "--steps", "60")
        assert code == 0
        lines = out.out.strip().split("\n")
        assert lines[0] == ",".join(("epsilon", "r_l", "r_e", "r_m", "gap"))
        gaps = [float(line.split(",")[4]) for line in lines[1:]]
        assert len(gaps) == 60
        assert all(b >= a for a, b in zip(gaps, gaps[1:]))
        assert abs(gaps[-1] - 0.314) < 5e-3


class TestAnalyzeCommand:
    def test_shared_stage_report(self, capsys):
        code, out = run_cli(capsys, "analyze", "--r", "0.3", "--epsilon", "0.1",
                            "--stage", "shared")
        assert code == 0
        payload = json.loads(out.out)
        assert payload["report"]["class"] == "one-mode-biseparable"
        assert payload["report"]["separable_splitting"] == "B|(AA')"
        assert len(payload["report"]["verdicts"]) == 3
        assert len(payload["report"]["pairwise"]) == 3
        assert payload["state"]["n_modes"] == 3
        assert len(payload["state"]["cm"]) == 36

    @pytest.mark.parametrize("stage,label", [
        ("initial", "ppt-all-splittings"),
        ("final-via-Aprime", "fully-inseparable"),
        ("final-via-A", "fully-inseparable"),
    ])
    def test_other_stages(self, capsys, stage, label):
        _, out = run_cli(capsys, "analyze", "--r", "0.3", "--epsilon", "0.1", "--stage", stage)
        assert json.loads(out.out)["report"]["class"] == label

    def test_boundary_splitting_at_high_noise(self, capsys):
        # sigma_B is 0 analytically; roundoff leaves about -1e-12, inside the scaled band
        _, out = run_cli(capsys, "analyze", "--r", "0.07401233538923155", "--epsilon", "3", "--stage", "shared")
        report = json.loads(out.out)["report"]
        assert report["class"] == "ppt-all-splittings"
        assert [(v["entangled"], v["boundary"]) for v in report["verdicts"]] == [(False, False)] * 2 + [(False, True)]
        assert "entangled_splitting" not in report


class TestMontecarloCommand:
    def test_schema_and_library_agreement(self, capsys):
        code, out = run_cli(capsys, "montecarlo", "--r", "0.3", "--epsilon", "0.1",
                            "--samples", "5000", "--seed", "7")
        assert code == 0
        payload = json.loads(out.out)
        assert set(payload) == {
            "count", "seed", "empirical_cm", "empirical_mean", "analytic_cm", "max_abs_dev",
        }
        batch = sample_preparation(ProtocolParams(0.3, 0.1), 5000, 7)
        assert payload["max_abs_dev"] == round12(batch.max_abs_dev)

    def test_bad_sample_count_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["montecarlo", "--r", "0.3", "--epsilon", "0.1", "--samples", "1"])
        assert exc.value.code == 2


class TestClassifyCommand:
    def test_vacuum_file(self, tmp_path, capsys):
        path = tmp_path / "vacuum.json"
        path.write_text(json.dumps({"n_modes": 3, "cm": np.eye(6).ravel().tolist()}))
        code, out = run_cli(capsys, "classify", "--input", str(path))
        assert code == 0
        assert json.loads(out.out)["class"] == "ppt-all-splittings"

    def test_unphysical_file_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n_modes": 3, "cm": (0.5 * np.eye(6)).ravel().tolist()}))
        code, out = run_cli(capsys, "classify", "--input", str(path))
        assert code == 1
        assert "symplectic eigenvalue" in out.err

    def test_non_finite_file_exits_1(self, tmp_path, capsys):
        cm = np.eye(6)
        cm[0, 1] = cm[1, 0] = np.nan
        path = tmp_path / "nan.json"
        path.write_text(json.dumps({"n_modes": 3, "cm": cm.ravel().tolist()}))
        code, out = run_cli(capsys, "classify", "--input", str(path))
        assert code == 1
        assert out.out == "" and "non-finite" in out.err

    @pytest.mark.parametrize("record,field", [
        ([], "JSON object"),
        ("x", "JSON object"),
        ({"n_modes": None, "cm": []}, "'n_modes'"),
        ({"n_modes": -1, "cm": [1.0, 0.0, 0.0, 1.0]}, "'n_modes'"),
        ({"n_modes": True, "cm": [1.0, 0.0, 0.0, 1.0]}, "'n_modes'"),
        ({"n_modes": 1.0, "cm": [1.0, 0.0, 0.0, 1.0]}, "'n_modes'"),
        ({"n_modes": 3, "cm": None}, "'cm'"),
        ({"n_modes": 3}, "'cm' must be a list of numbers, got null"),
        ({"n_modes": 3, "cm": {"x": 1}}, "'cm'"),
        ({"n_modes": 3, "cm": [1.0] * 35 + [{"x": 1}]}, "'cm'"),
        ({"n_modes": 3, "cm": "abc"}, "'cm'"),
        ({"n_modes": 3, "cm": np.eye(6).ravel().tolist(), "displacement": {"a": 1}}, "'displacement'"),
        ({"n_modes": 3, "cm": np.eye(6).ravel().tolist(), "displacement": [0.0] * 5 + [{"a": 1}]}, "'displacement'"),
        ({"n_modes": 3, "cm": np.eye(6).ravel().tolist(), "displacement": "abc"}, "'displacement'"),
        ({"n_modes": 1, "cm": [1.0, 0.0, 0.0, 1.0], "displacement": ["1", 0.0]}, "'displacement'"),
        ({"n_modes": 1, "cm": [1.0, 0.0, 0.0, 1.0], "displacement": [0.0, True]}, "'displacement'"),
        ({"n_modes": 1, "cm": ["1", "0", "0", "1"]}, "'cm'"),
        ({"n_modes": 1, "cm": [True, False, False, True]}, "'cm'"),
        ({"n_modes": 1, "cm": [1, 0, 0, 10 ** 400]}, "'cm'"),
    ])
    def test_malformed_record_exits_1(self, tmp_path, capsys, record, field):
        path = tmp_path / "record.json"
        path.write_text(json.dumps(record))
        code, out = run_cli(capsys, "classify", "--input", str(path))
        assert code == 1 and out.out == ""
        assert len(out.err.splitlines()) == 1 and out.err.startswith("error: ") and field in out.err

    @pytest.mark.parametrize("stage", [STAGE_FINAL_VIA_APRIME, STAGE_FINAL_VIA_A])
    @pytest.mark.parametrize("eps", [0.0, 0.1, 1.0])
    @pytest.mark.parametrize("r", [9.0, 12.0, 16.0])
    def test_saved_stage_state_round_trips(self, tmp_path, capsys, r, eps, stage):
        # a full-precision record of a physical stage matrix classifies as analyze reports it
        state = stage_state(ProtocolParams(r, eps), stage)
        path = tmp_path / "stage.json"
        save_state(state.state, path)
        code, out = run_cli(capsys, "classify", "--input", str(path))
        assert code == 0, out.err
        _, want = run_cli(capsys, "analyze", "--r", str(r), "--epsilon", str(eps), "--stage", stage)
        assert json.loads(out.out) == json.loads(want.out)["report"]

    def test_missing_file_exits_1(self, capsys):
        code, out = run_cli(capsys, "classify", "--input", "/nonexistent.json")
        assert code == 1


class TestUsageErrors:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["thresholds"])
        assert exc.value.code == 2

    def test_negative_epsilon_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["thresholds", "--epsilon", "-1"])
        assert exc.value.code == 2

    def test_negative_seed_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["montecarlo", "--r", "0.3", "--epsilon", "0.1", "--seed", "-1"])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == "" and "--seed" in out.err

    def test_shared_parser_matches_lone_calls(self, capsys, monkeypatch):
        # main reuses one parser per process; each call must still print and
        # exit as the same command run alone in a fresh process
        usage, valid = "analyze --r 0.4 --epsilon 0.1", "analyze --r 0.4 --epsilon 0.1 --stage shared"
        env = dict(os.environ, PYTHONPATH=str(Path(gaussent.__file__).parents[1]), COLUMNS="80")
        monkeypatch.setenv("COLUMNS", "80")  # usage text wraps at the terminal width
        lone = {}
        for argv in (usage, valid):
            proc = subprocess.run([sys.executable, "-m", "gaussent", *argv.split()],
                                  capture_output=True, text=True, env=env)
            lone[argv] = (proc.returncode, proc.stdout, proc.stderr)
        assert lone[usage][0] == 2 and lone[valid][0] == 0

        gaussent.cli.build_parser.cache_clear()
        for argv in (usage, valid, usage):
            try:
                code = main(argv.split())
            except SystemExit as exc:
                code = exc.code
            out = capsys.readouterr()
            assert (code, out.out, out.err) == lone[argv]
        assert gaussent.cli.build_parser.cache_info().misses == 1

    @pytest.mark.parametrize("argv", [
        "thresholds --epsilon nan",
        "analyze --r nan --epsilon 0.1 --stage shared",
        "sweep --epsilon nan",
        "montecarlo --r inf --epsilon 0.1",
    ])
    def test_non_finite_number_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv.split())
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == "" and "finite" in out.err


class TestNonFiniteOutput:
    def test_json_refuses_nan(self, capsys):
        with pytest.raises(ValueError):
            _emit_json({"x": float("nan")}, None)
        with pytest.raises(ValueError):
            _emit_profile({"x": np.array([np.inf])}, "json", None)
        assert capsys.readouterr().out == ""

    def test_json_error_names_the_key_path(self, capsys):
        nan = float("nan")
        with pytest.raises(ValueError, match=r"at a\.b\[2\]\.c = nan$"):
            _emit_json({"a": {"b": [1.0, {"c": 2.0}, {"c": nan}]}}, None)
        with pytest.raises(ValueError, match=r"at \[1\]\.x = inf$"):
            _emit_profile({"x": np.array([1.0, np.inf])}, "json", None)
        assert capsys.readouterr().out == ""

    def test_infinite_log_negativity_is_named(self, capsys):
        # the pair's mu cancels to 0 at this squeezing, so its log negativity is inf
        code, out = run_cli(capsys, "analyze", "--r", "25", "--epsilon", "0.1", "--stage", "initial")
        assert code == 1
        assert out.out == ""
        assert "at report.pairwise[0].log_negativity = inf" in out.err
        # the final stage's rounded matrix is no longer positive definite at this squeezing
        code, out = run_cli(capsys, "analyze", "--r", "25", "--epsilon", "0.1", "--stage", "final-via-A")
        assert code == 1 and out.out == ""
        assert out.err == "error: covariance matrix is not positive definite\n"

    @pytest.mark.parametrize("argv", [
        "sweep --epsilon 400 --steps 3",
        "thresholds --epsilon 400",
        "analyze --r 400 --epsilon 0.1 --stage shared",
    ])
    def test_overflow_fails_with_one_stderr_line(self, argv):
        # a child process, so numpy warnings would reach its stderr as they do a user's
        env = dict(os.environ, PYTHONPATH=str(Path(gaussent.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-m", "gaussent", *argv.split()],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.splitlines() == ["error: overflow encountered in exp"]

    # petabytes of rows or samples: numpy refuses the allocation before it takes any memory
    @pytest.mark.parametrize("argv", [
        "sweep --epsilon 0.1 --steps 1000000000000000",
        "gap-sweep --steps 1000000000000000",
        "montecarlo --r 0.3 --epsilon 0.1 --samples 1000000000000000",
    ])
    def test_unallocatable_size_fails_with_one_error_line(self, capsys, argv):
        code, out = run_cli(capsys, *argv.split())
        assert code == 1 and out.out == ""
        assert len(out.err.splitlines()) == 1 and out.err.startswith("error: Unable to allocate")

    def test_csv_refuses_nan(self, capsys):
        with pytest.raises(ValueError, match=r"^non-finite value in output at \[1\]\.x = nan$"):
            _emit_profile({"r": np.array([0.0, 0.1]), "x": np.array([1.0, np.nan])}, "csv", None)
        with pytest.raises(ValueError, match=r"at \[0\]\.r = -inf$"):
            _emit_profile({"r": np.array([-np.inf]), "x": np.array([1.0])}, "csv", None)
        assert capsys.readouterr().out == ""


class TestReferenceOutput:
    """Pinned sha256 of stdout: any changed byte in these outputs fails."""

    @pytest.mark.parametrize("argv,digest", [
        ("sweep --epsilon 0.1", "be1be61a975e610e35c52e005c8089279ea6e47fa4eb5f85c3bf6ceb37264893"),
        ("sweep --epsilon 2 --r-max 1.5 --format json",
         "658e95e770f9dada9493e1c7e6946af68e3511033b0e90cbcbf0740cfc2a337c"),
        ("gap-sweep", "8e6746fb195e5155db72b5b0e487d7b37a5cb0830226e6b99bd1e2f491f35669"),
        ("analyze --r 0.4 --epsilon 0.1 --stage shared",
         "4f20387a9322f425c7fbcb4a2f603f21ea8c0e38044a46ab044d3382913ed15a"),
        ("thresholds --epsilon 0.1", "d76da4df06499e26e7003d0467dcc3c759c6d251c12ebd043dc923be66ddec62"),
    ])
    def test_stdout_digest(self, capsys, argv, digest):
        code, out = run_cli(capsys, *argv.split())
        assert code == 0
        assert hashlib.sha256(out.out.encode()).hexdigest() == digest

    def test_montecarlo_digest(self, capsys):
        code, out = run_cli(capsys, *"montecarlo --r 0.3 --epsilon 0.1 --samples 10000 --seed 42".split())
        assert code == 0
        assert hashlib.sha256(out.out.encode()).hexdigest() == (
            "848b00f0313c4291c1984e6bb574fa130bfc555d91b1e91cd718a54411b31cab"
        )

    def test_classify_saved_shared_state_digest(self, tmp_path, capsys):
        path = tmp_path / "shared.json"
        save_state(shared_cm(ProtocolParams(0.4, 0.1))[0], path)
        code, out = run_cli(capsys, "classify", "--input", str(path))
        assert code == 0
        assert hashlib.sha256(out.out.encode()).hexdigest() == (
            "7f0bfdfd7687fa57d626035f3a19cd520d3f64f42f709b5447e63c8a141df51d"
        )
