"""Self-tests of the benchmark: run with ``python3 -m pytest perfbench -q`` from the repository root."""

import json
import shutil
import subprocess
import sys
import tempfile
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import gaussent  # noqa: E402
from gaussent import protocol, separability  # noqa: E402

import oracles as orc  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import UNEXPLAINED, WORKLOADS, canonical  # noqa: E402


@pytest.fixture
def tmp():
    (HERE / "out").mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=HERE / "out"))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def first(wl, seed, n):
    return list(islice(wl.items(seed), n))


def run_items(wl, items, recorder=None):
    """(digest, misses) per item, traced when a recorder is given."""
    if recorder is not None:
        recorder.install()
    try:
        outs = [wl.collect(item, wl.execute(item)) for item in items]
    finally:
        if recorder is not None:
            recorder.uninstall()
    return [(wl.digest(out), out, wl.check(item, out)) for item, out in zip(items, outs)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_inputs(name, tmp):
    a = [canonical(i) for i in first(WORKLOADS[name](tmp), 7, 60)]
    b = [canonical(i) for i in first(WORKLOADS[name](tmp), 7, 60)]
    c = [canonical(i) for i in first(WORKLOADS[name](tmp), 8, 60)]
    assert "\n".join(a).encode() == "\n".join(b).encode()
    assert a != c


def test_states_mix_is_fixed_per_cycle(tmp):
    kinds = [i["kind"] for i in first(workloads.States(tmp), 3, 200)]
    for start in range(0, 200, 20):
        assert sorted(kinds[start:start + 20]) == sorted(workloads.States.CYCLE)


GOOD = [(r, eps) for r in (0.0, 0.07, 0.3, 0.8, 1.5) for eps in (0.001, 0.1, 0.5, 1.2, 3.0)]


@pytest.mark.parametrize("r,eps", GOOD)
def test_oracles_agree_with_library(r, eps):
    params = protocol.ProtocolParams(r, eps)
    shared = protocol.shared_cm(params)[0].cm
    assert np.allclose(orc.stage_cm(r, eps, "shared"), shared, rtol=0, atol=1e-12)
    for stage, route in (("final-via-A'", protocol.ROUTE_VIA_APRIME), ("final-via-A", protocol.ROUTE_VIA_A)):
        assert np.allclose(orc.stage_cm(r, eps, stage), protocol.final_cm(params, route).cm, rtol=0, atol=1e-12)
    mu_pair = separability.two_mode_metrics(protocol.reduced_pair_cm(params)).mu
    assert orc.close(orc.reduced_pair_mu(r, eps), mu_pair)
    assert orc.close(orc.homodyne_mu(r, eps), separability.localizable_mu(shared, 2))
    assert orc.close(orc.homodyne_mu(r, eps), protocol.mu_m(params))
    assert orc.close(orc.sigma_shared_a(r, eps), separability.splitting_sigma(shared, 0).sigma)
    assert orc.close(orc.r_e(eps), protocol.threshold_r_e(eps))
    assert orc.close(orc.r_m(eps), protocol.threshold_r_m(eps))
    for stage in orc.STAGES:
        state = protocol.stage_state(params, stage)
        want = orc.expected_splittings(orc.stage_cm(r, eps, stage), stage, r, eps)
        got = [v.entangled for v in state.report.verdicts]
        assert all(w is None or w == g for w, g in zip(want, got)), (stage, want, got)


def test_random_state_oracle_agrees_with_library():
    rng = np.random.default_rng(5)
    for _ in range(50):
        cm = orc.random_physical_cm(rng)
        assert np.allclose(orc.symplectic_spectrum(cm), gaussent.symplectic_eigenvalues(cm), atol=1e-9)
        want = orc.expected_splittings(cm, None)
        got = [v.entangled for v in separability.classify_three_mode(cm).verdicts]
        assert all(w is None or w == g for w, g in zip(want, got))


@pytest.mark.parametrize("name,count", [("figures", 2), ("verify", 2), ("states", 60)])
def test_workload_items_have_no_unexplained_miss(name, count, tmp):
    wl = WORKLOADS[name](tmp)
    for _, _, misses in run_items(wl, first(wl, 1, count)):
        assert not [m for m in misses if m.cause == UNEXPLAINED], misses


def test_states_in_tested_range_have_no_miss(tmp):
    wl = workloads.States(tmp)
    items = [i for i in first(wl, 2, 600)
             if not i["kind"].endswith("-bad") and i.get("r", 0.0) <= workloads.TESTED_R_MAX]
    assert len(items) > 50
    for _, _, misses in run_items(wl, items):
        assert misses == []


def test_injected_wrong_mu_is_a_miss(tmp):
    wl = workloads.Figures(tmp)
    item = first(wl, 1, 1)[0]
    _, out, misses = run_items(wl, [item])[0]
    assert misses == []
    lines = out["cli"][0]["text"].splitlines()
    cells = lines[5].split(",")
    cells[1] = repr(float(cells[1]) * (1.0 + 1e-6))
    lines[5] = ",".join(cells)
    out["cli"][0]["text"] = "\n".join(lines) + "\n"
    assert [m.cause for m in wl.check(item, out)] == [UNEXPLAINED]

    wl = workloads.Verify(tmp)
    item = first(wl, 1, 1)[0]
    _, out, misses = run_items(wl, [item])[0]
    assert misses == []
    out["localizable_mu"] += 1e-6
    assert [m.cause for m in wl.check(item, out)] == [UNEXPLAINED]


def test_injected_wrong_label_is_a_miss(tmp):
    wl = workloads.States(tmp)
    items = [i for i in first(wl, 4, 200) if i["kind"] == "classify-random"]
    flipped = 0
    for _, out, misses in run_items(wl, items[:10]):
        assert misses == []
    for item, (_, out, _) in zip(items[:10], run_items(wl, items[:10])):
        report = json.loads(out["cli"][0]["text"])
        want = orc.expected_splittings(item["cm"], None)
        if want[0] is None:
            continue
        report["verdicts"][0]["entangled"] = not report["verdicts"][0]["entangled"]
        out["cli"][0]["text"] = json.dumps(report)
        assert [m.cause for m in wl.check(item, out)] == [UNEXPLAINED]
        report["verdicts"][0]["entangled"] = not report["verdicts"][0]["entangled"]
        report["class"] = "wrong"
        out["cli"][0]["text"] = json.dumps(report)
        assert [m.cause for m in wl.check(item, out)] == [UNEXPLAINED]
        flipped += 1
    assert flipped > 0


def test_out_of_domain_accepted_is_a_miss(tmp):
    wl = workloads.States(tmp)
    item = next(i for i in first(wl, 1, 100) if i["kind"] == "analyze-bad")
    out = {"cli": [{"code": 0, "raised": None, "text": "{}"}]}
    assert [m.cause for m in wl.check(item, out)] == ["roadmap-4"]
    out["cli"][0]["code"] = 1
    assert wl.check(item, out) == []


@pytest.mark.parametrize("name,count", [("figures", 2), ("verify", 1), ("states", 40)])
def test_tracing_leaves_outputs_byte_identical(name, count, tmp):
    wl = WORKLOADS[name](tmp)
    items = first(wl, 3, count)
    plain = run_items(wl, items)
    recorder = spans.Recorder()
    traced = run_items(wl, items, recorder)
    assert [d for d, _, _ in plain] == [d for d, _, _ in traced]
    if "cli" in plain[0][1]:
        assert [o["cli"] for _, o, _ in plain] == [o["cli"] for _, o, _ in traced]
    assert recorder.spans and all(s is not None for s in recorder.spans)
    assert gaussent.cli.main.__module__ == "gaussent.cli" and not hasattr(gaussent.cli.main, "__wrapped__")
    assert not hasattr(separability.classify_three_mode, "__wrapped__")


def test_metric_names_match_benchmark_json(tmp):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = workloads.States(tmp)
    recorder = spans.Recorder()
    run_items(wl, first(wl, 1, 20), recorder)
    report = recorder.report(20, 0.0)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(k, v["unit"]) for k, v in report.items()]
    result, _ = run.plain_run(wl, wl.items(1), 0.05, 0.2)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (k, v["unit"]) for k, v in result["metrics"].items()]


def test_self_time_excludes_children():
    recorder = spans.Recorder()
    recorder.spans[:] = [("outer", 0.0, 10.0, -1, 0), ("cli.main", 1.0, 4.0, 0, 0),
                         ("core.validate_cm", 2.0, 3.0, 1, 0)]
    report = recorder.report(1, 0.0)
    assert report["cli.main.self_ms"]["value"] == pytest.approx(2e3)
    assert report["core.validate_cm.self_ms"]["value"] == pytest.approx(1e3)


def test_refuses_to_run_without_the_package(tmp):
    shutil.copy(ROOT / "BENCHMARK.json", tmp)
    shutil.copytree(HERE, tmp / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "states", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp, capture_output=True, text=True,
                          timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
