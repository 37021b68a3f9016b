import hashlib
import json
import math
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import gaussent
from gaussent import (
    GaussianState,
    classify_three_mode,
    final_cm,
    load_state,
    mu_m,
    reduced_pair_cm,
    sample_preparation,
    save_state,
    shared_cm,
    splitting_sigma,
    sweep_profile,
    threshold_r_e,
    threshold_r_l,
    threshold_r_m,
    two_mode_metrics,
    validate_cm,
)
from gaussent.cli import _emit_json, _emit_profile, _json_text, main
from gaussent.protocol import (ROUTE_VIA_APRIME, STAGE_FINAL_VIA_A, STAGE_FINAL_VIA_APRIME, STAGE_SHARED, STAGES,
                               ProtocolParams, stage_state)

from helpers import random_physical_cm, random_pure_cm


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr()


def round12(x):
    return float(f"{x:.12g}")


def round12_walk(value, path: str = ""):
    """The rounding walk the CLI ran before ``json.dumps(..., indent=2)`` until one writer did both: floats to 12
    significant digits through containers, numpy scalars to Python ones, and a NaN or infinity a ``ValueError``
    naming its key path.  ``json.dumps`` of its result is the reference for the CLI's JSON bytes and errors."""
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        if not math.isfinite(value):
            raise ValueError(f"non-finite value in output at {path.lstrip('.') or 'top level'} = {float(value)}")
        return float(f"{float(value):.12g}")
    if isinstance(value, dict):
        return {k: round12_walk(v, f"{path}.{k}") for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [round12_walk(v, f"{path}[{i}]") for i, v in enumerate(value)]
    return value


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

    @pytest.mark.parametrize("eps", ["400", "700", "8.9e307", "9e307", "1e308", "1.7976931348623157e308"])
    def test_noise_past_the_exp_overflow(self, capsys, eps):
        # exp(2 epsilon) overflows from epsilon ~ 354.9, and 2 epsilon from DBL_MAX / 2; r_l is epsilon / 2 to the
        # printed digits there, and the gap its limit
        code, out = run_cli(capsys, "thresholds", "--epsilon", eps)
        assert (code, out.err) == (0, "")
        payload = json.loads(out.out)
        assert payload["r_l"] == round12(float(eps) / 2.0) and payload["gap"] == 0.314362920168
        code, out = run_cli(capsys, "gap-sweep", "--eps-min", "0", "--eps-max", eps, "--steps", "3")
        assert (code, out.err) == (0, "")

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
        profile = sweep_profile(np.linspace(0.1, 0.5, 5), 0.2)
        assert len(rows) == 5
        for k, row in enumerate(rows):
            assert [float(x) for x in row[:4]] == [round12(profile[name][k]) for name in list(profile)[:4]]
            assert row[4] == profile["class_final"][k]
            params = ProtocolParams(float(row[0]), 0.2)
            assert float(row[2]) == round12(mu_m(params))
            # the one-state kernels, to the 12 printed digits (tests/test_protocol.py bounds them on a wider grid)
            assert float(row[1]) == pytest.approx(two_mode_metrics(reduced_pair_cm(params)).mu, rel=1e-11)
            sigma = splitting_sigma(shared_cm(params)[0].cm, 0).sigma
            assert float(row[3]) == pytest.approx(sigma, rel=1e-11, abs=1e-14)
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

    def test_rows_past_the_rounded_stages_print(self, capsys):
        # from r of about 18.2 the stage entries (exp(2r) +- 1)/2 lose the +-1 and analyze refuses those states;
        # sweep builds no matrix, and its pair's mu is at its r -> inf limit
        code, out = run_cli(capsys, "sweep", "--epsilon", "0.1", "--r-min", "18", "--r-max", "40")
        assert (code, out.err) == (0, "")
        rows = [line.split(",") for line in out.out.splitlines()[1:]]
        assert len(rows) == 600 and {row[1] for row in rows} == {"0.622194357545"}
        assert run_cli(capsys, "sweep", "--epsilon", "0.1", "--r-min", "16", "--r-max", "18")[0] == 0

    def test_bounds_violation_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--epsilon", "0.1", "--r-min", "0.5", "--r-max", "0.1"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--epsilon", "0.1", "--steps", "1"])
        assert exc.value.code == 2


class TestOutputFile:
    """``--output`` goes through the package's one file writer: in place, the old tail cut, never truncated to 0."""

    def test_shorter_output_over_a_longer_file(self, tmp_path, capsys):
        target = tmp_path / "f.csv"
        for steps in ("600", "3"):
            code, out = run_cli(capsys, "sweep", "--epsilon", "0.1", "--steps", steps, "--output", str(target))
            assert (code, out.out, out.err) == (0, "", "")
        _, out = run_cli(capsys, "sweep", "--epsilon", "0.1", "--steps", "3")
        assert target.read_text() == out.out and out.out.count("\n") == 4

    def test_device_output_exits_0(self, capsys):
        # /dev/null is no regular file, so the writer cuts no tail (ftruncate would fail there with EINVAL)
        code, out = run_cli(capsys, "analyze", "--r", "0.3", "--epsilon", "0.1", "--stage", "shared",
                            "--output", os.devnull)
        assert (code, out.out, out.err) == (0, "", "")

    @pytest.mark.parametrize("where", ["directory", "missing/f.json"])
    def test_unwritable_path_exits_1_with_one_line(self, tmp_path, capsys, where):
        (tmp_path / "directory").mkdir()
        code, out = run_cli(capsys, "thresholds", "--epsilon", "0.1", "--output", str(tmp_path / where))
        assert (code, out.out) == (1, "")
        assert len(out.err.splitlines()) == 1 and out.err.startswith("error: [Errno ")

    def test_non_finite_refusal_leaves_the_file_untouched(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        target.write_bytes(b"old bytes\n")
        code, out = run_cli(capsys, "analyze", "--r", "354.5", "--epsilon", "354.866", "--stage", "final-via-A'",
                            "--output", str(target))
        assert (code, out.out) == (1, "")
        assert out.err == "error: non-finite value in output at report.pairwise[0].ppt_condition_value = inf\n"
        assert target.read_bytes() == b"old bytes\n"

    def test_new_file_mode_follows_the_umask(self, tmp_path, capsys):
        old = os.umask(0o020)
        try:
            code, _ = run_cli(capsys, "thresholds", "--epsilon", "0.1", "--output", str(tmp_path / "t.json"))
        finally:
            os.umask(old)
        assert code == 0 and stat.S_IMODE((tmp_path / "t.json").stat().st_mode) == 0o666 & ~0o020

    def test_writer_never_truncates_to_zero(self, tmp_path, capsys, monkeypatch):
        flags = []
        real_open = os.open
        monkeypatch.setattr(os, "open", lambda path, flag, *args: flags.append(flag) or real_open(path, flag, *args))
        target = tmp_path / "f.csv"
        for steps in ("40", "3"):
            assert run_cli(capsys, "sweep", "--epsilon", "0.1", "--steps", steps, "--output", str(target))[0] == 0
        assert len(flags) == 2 and not any(flag & os.O_TRUNC for flag in flags)


#: ``sweep``'s and ``analyze``'s domain: ``max(r, epsilon) <= ln(DBL_MAX) / 2``, past which ``exp(2r)`` or
#: ``exp(2 epsilon)`` leaves float64 and both refuse with ``protocol.stage_state``'s ``DomainError``.
LN_MAX = float(np.log(np.finfo(float).max))
EDGE = LN_MAX / 2.0
#: relative distance from an edge to the rows just inside and just past it
EDGE_STEP = 1e-13


def domain_line(r, eps):
    return (f"error: r and epsilon must be at most ln(DBL_MAX) / 2 = {EDGE!r}, past which exp(2 r) or "
            f"exp(2 epsilon) leaves float64, got r={r!r}, epsilon={eps!r}\n")


class TestSweepEnvelope:
    """Every row up to the edge prints, on both axes and at the edge itself, and a sweep past it prints the one
    ``DomainError`` line, naming its largest ``r``."""

    def assert_finite_rows(self, capsys, *argv):
        code, out = run_cli(capsys, "sweep", *argv, "--steps", "3")
        assert (code, out.err) == (0, "")
        rows = [line.split(",") for line in out.out.splitlines()[1:]]
        assert len(rows) == 3 and all(math.isfinite(float(x)) for row in rows for x in row[:4])

    def assert_fails(self, capsys, r_max, eps, *argv):
        code, out = run_cli(capsys, "sweep", "--epsilon", repr(eps), *argv, "--r-max", repr(r_max), "--steps", "3")
        assert (code, out.out, out.err) == (1, "", domain_line(r_max, eps))

    # at the edge itself exp(2 epsilon) expm1(2 (r - epsilon)) could round past DBL_MAX (at epsilon 0.355, 0.887,
    # ...); sigma_shared_A takes exp(2r) out instead there
    @pytest.mark.parametrize("eps", [0.0, 0.1, EDGE / 1000.0, 0.887228391116730, 100.0, 354.8, EDGE])
    def test_r_axis(self, capsys, eps):
        for r_max in (EDGE * (1 - EDGE_STEP), EDGE):
            self.assert_finite_rows(capsys, "--epsilon", repr(eps), "--r-min", repr(EDGE - 1.0), "--r-max",
                                    repr(r_max))
        self.assert_fails(capsys, EDGE * (1 + EDGE_STEP), eps, "--r-min", repr(EDGE - 1.0))

    @pytest.mark.parametrize("r", [0.0, 1.0, 5.0, 354.8])
    def test_epsilon_axis(self, capsys, r):
        rs = ("--r-min", repr(r), "--r-max", repr(r + 0.05))
        for eps in (EDGE * (1 - EDGE_STEP), EDGE):
            self.assert_finite_rows(capsys, "--epsilon", repr(eps), *rs)
        self.assert_fails(capsys, r + 0.05, EDGE * (1 + EDGE_STEP), *rs[:2])


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


#: ``analyze``'s envelope, derived from the stage matrices and the forms of ``protocol._stage_report``: on the
#: epsilon axis every stage prints while ``epsilon <= ln(DBL_MAX) / 2``, past which ``exp(2 epsilon)`` leaves
#: float64 and ``stage_state`` refuses; on the r axis the initial and shared stages print while
#: ``r <= ln(DBL_MAX) / 2``, past which ``exp(2r)`` does, and the finals while the entangled pair's
#: ``delta_tilde``, about ``(14 + 2 sqrt 2) / 16 exp(2r)``, is finite.  All agree with a bisection of the CLI to
#: the last float.
FINAL_R_EDGE = (LN_MAX - math.log((14.0 + 2.0 * math.sqrt(2.0)) / 16.0)) / 2.0


class TestAnalyzeEnvelope:
    def assert_prints(self, capsys, r, eps, stage):
        code, out = run_cli(capsys, "analyze", "--r", repr(r), "--epsilon", repr(eps), "--stage", stage)
        assert (code, out.err) == (0, "")
        report = json.loads(out.out)["report"]
        numbers = [v["sigma"] for v in report["verdicts"]] + [x for m in report["pairwise"] for x in m.values()
                                                               if type(x) is float]
        assert all(math.isfinite(x) for x in numbers)

    def assert_fails(self, capsys, r, eps, stage, line=None):
        code, out = run_cli(capsys, "analyze", "--r", repr(r), "--epsilon", repr(eps), "--stage", stage)
        assert (code, out.out, out.err) == (1, "", f"error: {line}\n" if line else domain_line(r, eps))

    @pytest.mark.parametrize("eps", [0.0, 0.1, 100.0])
    @pytest.mark.parametrize("stage", STAGES)
    def test_r_axis(self, capsys, stage, eps):
        if stage.startswith("final"):
            edge, k = FINAL_R_EDGE, 1 if stage == STAGE_FINAL_VIA_APRIME else 2
            line = f"non-finite value in output at report.pairwise[{k}].delta_tilde = inf"
        else:
            edge, line = EDGE, None
        assert edge == pytest.approx(354.8661 if stage.startswith("final") else 354.8914, abs=1e-4)
        self.assert_prints(capsys, edge * (1 - EDGE_STEP), eps, stage)
        self.assert_fails(capsys, edge * (1 + EDGE_STEP), eps, stage, line)

    @pytest.mark.parametrize("r", [0.0, 1.0, 5.0])
    @pytest.mark.parametrize("stage", STAGES)
    def test_epsilon_axis(self, capsys, stage, r):
        self.assert_prints(capsys, r, EDGE * (1 - EDGE_STEP), stage)
        self.assert_fails(capsys, r, EDGE * (1 + EDGE_STEP), stage)

    def test_corner_names_the_value_that_overflowed(self, capsys):
        # the A-A' pair's ppt_condition_value leaves float64 here; its mu, from quarter-scaled forms, does not
        line = "non-finite value in output at report.pairwise[0].ppt_condition_value = inf"
        self.assert_fails(capsys, 354.5, 354.866, STAGE_FINAL_VIA_APRIME, line)

    @pytest.mark.parametrize("eps", [EDGE / 1000.0, 0.887228391116730])
    def test_shared_sigma_is_finite_at_the_edge(self, capsys, eps):
        # there exp(2 epsilon) expm1(2 (r - epsilon)) could round past DBL_MAX; the form takes exp(2r) out instead
        self.assert_prints(capsys, EDGE, eps, STAGE_SHARED)

    def test_flags_read_the_printed_sigma_at_tiny_r(self, capsys):
        # (1 - exp(-2r))^2 is below the float64 range at r = 1e-170: sigma prints 0 and reads boundary at epsilon 0,
        # and exp(2 epsilon) lifts it back into range at epsilon 300
        for eps, sigma, flags in (("0", 0.0, (False, True)), ("300", 1.50920812037e-79, (False, False))):
            code, out = run_cli(capsys, "analyze", "--r", "1e-170", "--epsilon", eps, "--stage", "shared")
            verdict = json.loads(out.out)["report"]["verdicts"][0]
            assert (code, verdict["sigma"], (verdict["entangled"], verdict["boundary"])) == (0, sigma, flags)


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
        ({"n_modes": 3, "cm": np.eye(6).ravel().tolist(), "displacement": [np.nan, 0, 0, np.inf, 0, 0]}, "'displacement'"),
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
        # a full-precision record of a physical stage matrix classifies with the labels analyze reports; the numbers
        # differ, since classify reads the rounded matrix and analyze the closed forms
        state = stage_state(ProtocolParams(r, eps), stage)
        path = tmp_path / "stage.json"
        save_state(state.state, path)
        code, out = run_cli(capsys, "classify", "--input", str(path))
        assert code == 0, out.err
        _, want = run_cli(capsys, "analyze", "--r", str(r), "--epsilon", str(eps), "--stage", stage)
        got, want = json.loads(out.out), json.loads(want.out)["report"]
        labels = [("verdicts", ("splitting", "entangled", "boundary")), ("pairwise", ("pair", "entangled"))]
        assert got["class"] == want["class"]
        for key, fields in labels:
            assert [[v[f] for f in fields] for v in got[key]] == [[v[f] for f in fields] for v in want[key]]

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="sigma is 0 on every pure state, so every splitting reads boundary (ROADMAP item 8)")
    def test_two_mode_squeezed_vacuum_beside_vacuum(self, tmp_path, capsys):
        # squeezing r = 0.5 on A-A', B in vacuum: A|(A'B) and A'|(AB) are entangled, B|(AA') is not
        ch, sh, z = np.cosh(1.0), np.sinh(1.0), np.diag([1.0, -1.0])
        cm = np.eye(6)
        cm[:4, :4] = np.block([[ch * np.eye(2), sh * z], [sh * z, ch * np.eye(2)]])
        path = tmp_path / "tmsv.json"
        save_state(GaussianState(cm), path)
        code, out = run_cli(capsys, "classify", "--input", str(path))
        assert code == 0
        report = json.loads(out.out)
        assert report["pairwise"][0]["entangled"]
        assert (report["class"], report.get("separable_splitting")) == ("one-mode-biseparable", "B|(AA')")

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

    def test_stages_past_the_rounded_matrix_print(self, capsys):
        # the kernels give the rounded initial matrix's A-A' pair mu 0 here (log negativity inf); the forms give a
        # mode beside the vacuum mu 1
        code, out = run_cli(capsys, "analyze", "--r", "25", "--epsilon", "0.1", "--stage", "initial")
        assert (code, out.err) == (0, "")
        assert [m["mu"] for m in json.loads(out.out)["report"]["pairwise"]] == [1.0, 1.0, 1.0]
        # the final stage's rounded matrix is no longer positive definite at this squeezing
        code, out = run_cli(capsys, "analyze", "--r", "25", "--epsilon", "0.1", "--stage", "final-via-A")
        assert (code, out.err) == (0, "")
        assert json.loads(out.out)["report"]["class"] == "fully-inseparable"

    @pytest.mark.parametrize("argv,line", [
        ("sweep --epsilon 400 --steps 3",
         "error: r and epsilon must be at most ln(DBL_MAX) / 2 = 354.891356446692, past which exp(2 r) or "
         "exp(2 epsilon) leaves float64, got r=0.6, epsilon=400.0"),
        ("montecarlo --r 400 --epsilon 0.1 --samples 10", "error: overflow encountered in exp"),
        ("analyze --r 400 --epsilon 0.1 --stage shared",
         "error: r and epsilon must be at most ln(DBL_MAX) / 2 = 354.891356446692, past which exp(2 r) or "
         "exp(2 epsilon) leaves float64, got r=400.0, epsilon=0.1"),
    ])
    def test_overflow_fails_with_one_stderr_line(self, argv, line):
        # a child process, so numpy warnings would reach its stderr as they do a user's
        env = dict(os.environ, PYTHONPATH=str(Path(gaussent.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-m", "gaussent", *argv.split()],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.splitlines() == [line]

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

    def test_csv_is_the_cells_formatted_one_by_one(self, capsys):
        # one row template filled per row, against the per-cell f-strings it replaced; '%' in a label is data
        profile = {"r": np.array([0.0, -0.0, 5e-324, 1 / 3]), "k": np.arange(4), "label": np.array(["a", "%s", "c", "d"])}
        _emit_profile(profile, "csv", None)
        rows = zip(*(col.tolist() for col in profile.values()))
        assert capsys.readouterr().out == "r,k,label\n" + "".join(f"{r:.12g},{k},{c}\n" for r, k, c in rows)

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(v=st.floats())
    def test_row_template_formats_a_float_as_the_format_spec(self, v):
        # every float, signed zeros, subnormals, inf and nan included
        assert "%.12g" % v == format(v, ".12g")


# keys and strings with quotes, backslashes, control and non-ASCII characters, which JSON escapes
JSON_KEYS = st.one_of(st.text(max_size=6), st.sampled_from(['"', "\\", 'a"b\\c', "\n\t\x00\x1f\x7f", "é", "☃", "😀"]))
FINITE = st.floats(allow_nan=False, allow_infinity=False)  # subnormals included
JSON_LEAVES = st.one_of(
    FINITE,
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1.7976931348623157e308,
                     -1.7976931348623157e308, 1 / 3, 0.1 + 0.2, 999999999999.5, 9999999999995.0]),
    # the writer's fast path: integer-valued floats, the exponents repr drops, and subnormals
    st.integers(-2**53, 2**53).map(float),
    st.floats(1e12, 1e16, exclude_max=True).flatmap(lambda v: st.sampled_from([v, -v, float(round(v))])),
    st.floats(1e-311, 1e-309),
    FINITE.map(np.float64),
    st.integers(),
    st.integers(min_value=2**63, max_value=2**80) | st.integers(max_value=-2**63, min_value=-2**80),
    st.integers(min_value=-2**63, max_value=2**63 - 1).map(np.int64),
    st.booleans(),
    st.none(),
    JSON_KEYS,
)
JSON_PAYLOADS = st.recursive(
    JSON_LEAVES,
    lambda children: st.one_of(st.lists(children, max_size=4), st.lists(children, max_size=4).map(tuple),
                               st.dictionaries(JSON_KEYS, children, max_size=4)),
    max_leaves=24,
)


def plant(data, value, bad):
    """``value`` with ``bad`` at a path drawn from ``data``: in place of ``value``, of a node under it, or as a
    new item of a container under it."""
    if isinstance(value, (dict, list, tuple)) and data.draw(st.booleans()):
        if isinstance(value, dict):
            key = data.draw(st.sampled_from(list(value)) if value and data.draw(st.booleans()) else JSON_KEYS)
            return {**value, key: plant(data, value.get(key), bad)}
        i = data.draw(st.integers(0, len(value)))  # len(value) appends
        items = list(value)
        items[i:i + 1] = [plant(data, value[i] if i < len(value) else None, bad)]
        return type(value)(items)
    return bad


@pytest.mark.pinned
class TestJsonWriter:
    """The one-walk writer prints the bytes and errors of ``json.dumps(round12_walk(x), indent=2)``."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(payload=JSON_PAYLOADS)
    def test_writer_matches_rounding_then_dumps(self, payload):
        assert _json_text(payload) == json.dumps(round12_walk(payload), indent=2)

    def test_writer_matches_on_the_cli_payloads(self, capsys):
        state = stage_state(ProtocolParams(2.0, 0.1), STAGE_FINAL_VIA_APRIME)
        for payload in ({"state": state.state.to_json_dict(), "report": state.report.to_json_dict()},
                        {"empty": {}, "rows": [], "pair": (np.float64(0.1), np.int64(-3), True, None)}):
            _emit_json(payload, None)
            assert capsys.readouterr().out == json.dumps(round12_walk(payload), indent=2) + "\n"

    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(payload=JSON_PAYLOADS, data=st.data())
    def test_planted_non_finite_raises_the_rounding_walks_error(self, capsys, payload, data):
        bad = data.draw(st.sampled_from([math.nan, math.inf, -math.inf, np.float64(math.nan), np.float64(-math.inf)]))
        for _ in range(data.draw(st.integers(1, 2))):
            payload = plant(data, payload, bad)
        with pytest.raises(ValueError) as want:
            round12_walk(payload)
        with pytest.raises(ValueError) as got:
            _emit_json(payload, None)
        assert str(got.value) == str(want.value)
        assert capsys.readouterr().out == ""


# text that a finite payload may hold, and that a non-finite number prints as
NON_FINITE_TEXT = st.sampled_from(["nan", "inf", "-inf", "NaN", "Infinity", "info", "banana", "x_nan_inf"])


@st.composite
def profiles(draw):
    """Columns by name of one length, of finite floats (at least one such column), int64s and strings, whose
    names and strings may hold the text of a non-finite number."""
    n = draw(st.integers(1, 5))
    names = draw(st.lists(st.text(max_size=4) | NON_FINITE_TEXT, min_size=1, max_size=4, unique=True))
    kinds = ["f"] + [draw(st.sampled_from("fis")) for _ in names[1:]]
    cells = {"f": FINITE, "i": st.integers(-2**63, 2**63 - 1), "s": st.text(max_size=5) | NON_FINITE_TEXT}
    cols = [np.array(draw(st.lists(cells[k], min_size=n, max_size=n)), dtype={"f": float, "i": np.int64, "s": str}[k])
            for k in kinds]
    order = draw(st.permutations(range(len(names))))
    return {names[i]: cols[i] for i in order}


def csv_reference(profile):
    """The CSV of a profile with each cell formatted on its own, floats to 12 significant digits."""
    rows = zip(*(col.tolist() for col in profile.values()))
    fmt = [".12g" if col.dtype.kind == "f" else "" for col in profile.values()]
    return ",".join(profile) + "\n" + "".join(",".join(map(format, row, fmt)) + "\n" for row in rows)


@pytest.mark.pinned
class TestOneNonFiniteRule:
    """JSON and CSV refuse a non-finite number by one rule, on their finished text; text that merely reads
    ``nan`` or ``inf`` costs a walk that finds nothing, and prints."""

    @settings(max_examples=200, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(profile=profiles(), data=st.data())
    def test_planted_csv_cell_raises_the_row_walks_error(self, capsys, profile, data):
        floats = [name for name, col in profile.items() if col.dtype.kind == "f"]
        for _ in range(data.draw(st.integers(1, 2))):
            col = profile[data.draw(st.sampled_from(floats))]
            col[data.draw(st.integers(0, len(col) - 1))] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        rows = list(zip(*(col.tolist() for col in profile.values())))
        # the first non-finite cell, rows in order and columns in order within a row
        i, name, v = next((i, name, v) for i, row in enumerate(rows) for name, v in zip(profile, row)
                          if isinstance(v, float) and not math.isfinite(v))
        with pytest.raises(ValueError) as got:
            _emit_profile(profile, "csv", None)
        assert str(got.value) == f"non-finite value in output at [{i}].{name} = {v}"
        assert capsys.readouterr().out == ""

    @settings(max_examples=100, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(profile=profiles())
    def test_csv_text_reading_nan_or_inf_prints(self, capsys, profile):
        _emit_profile(profile, "csv", None)
        assert capsys.readouterr().out == csv_reference(profile)

    @settings(max_examples=100, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(payload=JSON_PAYLOADS, text=NON_FINITE_TEXT)
    def test_json_text_reading_nan_or_inf_prints(self, capsys, payload, text):
        payload = {text: payload, "inf": [text, {"nan": -0.0}]}
        _emit_json(payload, None)
        assert capsys.readouterr().out == json.dumps(round12_walk(payload), indent=2) + "\n"

    def test_false_positives_print_the_pinned_bytes(self, capsys):
        _emit_json({"nan": "inf", "info": [1.5, "-inf"]}, None)
        _emit_profile({"inf": np.array([0.25, 1 / 3]), "label": np.array(["nan", "Infinity"])}, "csv", None)
        assert capsys.readouterr().out == (
            '{\n  "nan": "inf",\n  "info": [\n    1.5,\n    "-inf"\n  ]\n}\n'
            "inf,label\n0.25,nan\n0.333333333333,Infinity\n"
        )


@pytest.mark.pinned
class TestClassifyValidatesOnce:
    """``classify`` reads a validated matrix from ``load_state`` and checks only its mode count after it;
    ``analyze`` reports the stage it builds from closed forms, judges no matrix and never calls ``validate_cm``."""

    @pytest.fixture
    def validate_calls(self, monkeypatch):
        """The shapes ``validate_cm`` is called with, wherever the library looks it up."""
        calls = []

        def counted(m):
            calls.append(m.shape)
            return validate_cm(m)

        for module in (gaussent.core, gaussent.separability, gaussent.protocol):
            monkeypatch.setattr(module, "validate_cm", counted, raising=False)
        return calls

    def test_validate_cm_runs_once(self, tmp_path, capsys, validate_calls):
        path = tmp_path / "shared.json"
        save_state(shared_cm(ProtocolParams(0.4, 0.1))[0], path)
        code, out = run_cli(capsys, "classify", "--input", str(path))
        assert code == 0 and validate_calls == [(6, 6)]

    def test_analyze_never_runs_validate_cm(self, capsys, validate_calls):
        for stage in STAGES:
            code, out = run_cli(capsys, "analyze", "--r", "0.4", "--epsilon", "0.1", "--stage", stage)
            assert code == 0, out.err
        # the rounded shared matrix is not positive definite here, and the stage prints
        code, out = run_cli(capsys, "analyze", "--r", "20", "--epsilon", "0.1", "--stage", "shared")
        assert (code, out.err) == (0, "")
        assert validate_calls == []

    @pytest.mark.parametrize("make", [random_physical_cm, random_pure_cm])
    def test_report_is_the_library_report(self, tmp_path, capsys, make):
        rng = np.random.default_rng(73)
        path = tmp_path / "state.json"
        for _ in range(40):
            save_state(GaussianState(make(3, rng)), path)
            code, out = run_cli(capsys, "classify", "--input", str(path))
            assert code == 0, out.err
            report = classify_three_mode(load_state(path).cm).to_json_dict()
            assert out.out == json.dumps(round12_walk(report), indent=2) + "\n"

    @pytest.mark.parametrize("n,nan,line", [
        (2, False, "error: expected a 3-mode (6x6) matrix, got (4, 4)"),
        (4, False, "error: expected a 3-mode (6x6) matrix, got (8, 8)"),
        (3, True, "error: covariance matrix has 2 non-finite entries"),
        (2, True, "error: covariance matrix has 2 non-finite entries"),
    ])
    def test_refused_file_prints_one_error_line(self, tmp_path, capsys, n, nan, line):
        cm = np.eye(2 * n)
        if nan:
            cm[0, 1] = cm[1, 0] = np.nan
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"n_modes": n, "cm": cm.ravel().tolist()}))
        code, out = run_cli(capsys, "classify", "--input", str(path))
        assert (code, out.out, out.err) == (1, "", line + "\n")


@pytest.mark.pinned
class TestReferenceOutput:
    """Pinned sha256 of stdout: any changed byte in these outputs fails."""

    @pytest.mark.parametrize("argv,digest", [
        ("sweep --epsilon 0.1", "7a75fe0e1fcdf651e85ca6e911fca86b59349079e13f01cc4bcbf9c5867588a7"),
        ("sweep --epsilon 2 --r-max 1.5 --format json",
         "82168f1d601b2601f8a1289752ba9b2ac26775058abc23d2501977b08899dd80"),
        ("gap-sweep", "8e6746fb195e5155db72b5b0e487d7b37a5cb0830226e6b99bd1e2f491f35669"),
        ("analyze --r 0.4 --epsilon 0.1 --stage shared",
         "5a795b7c060658d4b57125c7f51f04efaaf5ce76ff17d1777cbc45e3bbd2a6d1"),
        ("analyze --r 0.4 --epsilon 0.1 --stage initial",
         "7f8afcf5decfdc8359087dbe3883532128b1ee146e22ea3b6469f72732eef755"),
        ("analyze --r 0.4 --epsilon 0.1 --stage final-via-A'",
         "d13cbcb0d71744ee8c13855c4345ccae3cfa7fda2bea8683edcb54b0172cfde9"),
        ("analyze --r 0.4 --epsilon 0.1 --stage final-via-A",
         "759c572033126bd7ae159512463fcc43e64a8ee785a847abda14564279b6caae"),
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


README = Path(__file__).resolve().parents[1] / "README.md"


class TestReadmeExamples:
    """The README's examples print what their comments say."""

    def test_python_example(self, capsys):
        block = README.read_text().split("```python\n", 1)[1].split("```", 1)[0]
        exec(block, {})
        comments = [line.split("# ", 1)[1] for line in block.splitlines() if line.startswith("print(")]
        assert capsys.readouterr().out.splitlines() == comments == ["one-mode-biseparable", "B|(AA')"]

    def test_thresholds_example(self, capsys):
        lines = README.read_text().split("gaussent thresholds --epsilon 0.1\n", 1)[1].splitlines()
        comment = ""
        for line in lines:
            if not line.startswith("# "):
                break
            comment += line[2:]
        code, out = run_cli(capsys, "thresholds", "--epsilon", "0.1")
        assert code == 0
        assert json.loads(out.out) == json.loads(comment)
