"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json

import numpy as np

from gaussent import (
    classify_three_mode,
    final_cm,
    localizable_mu,
    measurement_scan_oracle,
    mu_m,
    numeric_threshold_r_e,
    numeric_threshold_r_m,
    reduced_pair_cm,
    sample_preparation,
    shared_cm,
    splitting_sigma,
    stage_state,
    threshold_r_e,
    threshold_r_l,
    threshold_r_m,
    threshold_report,
    two_mode_metrics,
)
from gaussent.ops import beam_splitter, embed_vacuum
from gaussent.core import apply_symplectic, reduce_modes
from gaussent.protocol import (
    ROUTE_VIA_A,
    ROUTE_VIA_APRIME,
    STAGE_FINAL_VIA_A,
    STAGE_FINAL_VIA_APRIME,
    STAGE_INITIAL,
    STAGE_SHARED,
    ProtocolParams,
    initial_cm,
)

from closed_forms import sigma_closed_form


def check(num, description, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description}")
    assert ok, f"criterion {num} failed: {description}"


def test_criterion_01_threshold_reproduction():
    rep = threshold_report(0.1)
    ok = (
        abs(rep.r_l - 0.079) <= 1e-3
        and abs(rep.r_e - 0.106) <= 1e-3
        and abs(rep.r_m - 0.277) <= 1e-3
    )
    check(1, f"thresholds at eps=0.1: r_l={rep.r_l:.6f}, r_e={rep.r_e:.6f}, r_m={rep.r_m:.6f}", ok)


def test_criterion_02_asymptotic_gap():
    gap = threshold_r_m(10.0) - threshold_r_e(10.0)
    limit = 0.5 * np.log(2 * (8 * np.sqrt(2) - 1) / 11)
    check(2, f"gap(eps=10) = {gap:.10f} vs limit {limit:.10f}", abs(gap - limit) < 1e-3)


def test_criterion_03_invariant_sigma_matches_closed_form():
    grid = np.linspace(0.0, 1.0, 50)
    worst = 0.0
    for r in grid:
        for eps in grid:
            state, _ = shared_cm(ProtocolParams(r, eps))
            sigma = splitting_sigma(state.cm, 0).sigma
            worst = max(worst, abs(sigma - sigma_closed_form(r, eps)))
    check(3, f"invariant-route sigma vs closed form on 50x50 grid, worst dev {worst:.3e}", worst < 1e-9)


def test_criterion_04_final_stage_quarter_identity():
    grid = np.linspace(0.0, 1.0, 50)
    worst = 0.0
    for r in grid:
        for eps in grid:
            params = ProtocolParams(r, eps)
            target = sigma_closed_form(r, eps) / 4
            tilde = splitting_sigma(final_cm(params, ROUTE_VIA_APRIME).cm, 1).sigma
            tildetilde = splitting_sigma(final_cm(params, ROUTE_VIA_A).cm, 0).sigma
            worst = max(worst, abs(tilde - target), abs(tildetilde - target))
    check(4, f"final-stage sigma = shared sigma / 4 on 50x50 grid, worst dev {worst:.3e}", worst < 1e-9)


def test_criterion_05_localizable_entanglement_oracle():
    rs = np.round(np.arange(0.1, 1.01, 0.1), 10)
    eps_values = (0.05, 0.1, 0.5)
    worst_closed = 0.0
    worst_beat = 0.0
    for eps in eps_values:
        for r in rs:
            params = ProtocolParams(float(r), eps)
            state, _ = shared_cm(params)
            numeric = localizable_mu(state.cm, 2)
            closed = mu_m(params)
            worst_closed = max(worst_closed, abs(numeric - closed))
            scan = measurement_scan_oracle(state.cm, 2, n_theta=64, n_t=64)
            worst_beat = max(worst_beat, closed - scan)
    ok = worst_closed < 1e-9 and worst_beat < 1e-4
    check(
        5,
        f"homodyne mu vs closed form (worst {worst_closed:.3e}) and 64x64 scan "
        f"never below closed form by more than {worst_beat:.3e}",
        ok,
    )


def test_criterion_06_threshold_self_consistency():
    worst_mu = 0.0
    worst_root = 0.0
    for eps in (0.0, 0.1, 0.5, 1.0):
        r_e, r_m = threshold_r_e(eps), threshold_r_m(eps)
        mu_pair = two_mode_metrics(reduced_pair_cm(ProtocolParams(r_e, eps))).mu
        worst_mu = max(worst_mu, abs(mu_pair - 1.0), abs(mu_m(ProtocolParams(r_m, eps)) - 1.0))
        worst_root = max(
            worst_root,
            abs(numeric_threshold_r_e(eps) - r_e),
            abs(numeric_threshold_r_m(eps) - r_m),
        )
    ok = worst_mu < 1e-6 and worst_root < 1e-8
    check(
        6,
        f"mu = 1 at thresholds (worst dev {worst_mu:.3e}) and bisection roots "
        f"match closed forms (worst dev {worst_root:.3e})",
        ok,
    )


def test_criterion_07_stage_class_ladder():
    params = ProtocolParams(0.3, 0.1)
    initial = stage_state(params, STAGE_INITIAL)
    shared = stage_state(params, STAGE_SHARED)
    finals = [stage_state(params, s) for s in (STAGE_FINAL_VIA_APRIME, STAGE_FINAL_VIA_A)]
    ok = (
        all(m.mu >= 1 - 1e-9 for _, m in initial.report.pairwise)
        and shared.report.class_label == "one-mode-biseparable"
        and shared.report.separable_splitting == "B|(AA')"
        and all(m.mu >= 1 - 1e-9 for _, m in shared.report.pairwise)
        and all(s.report.class_label == "fully-inseparable" for s in finals)
    )
    check(7, "stage ladder at (r, eps) = (0.3, 0.1): separable -> one-mode-biseparable -> fully-inseparable", ok)


def test_criterion_08_monte_carlo_preparation():
    params = ProtocolParams(0.3, 0.1)
    first = sample_preparation(params, 1_000_000, 42)
    second = sample_preparation(params, 1_000_000, 42)
    identical = (
        json.dumps(first.to_json_dict()).encode() == json.dumps(second.to_json_dict()).encode()
        and np.array_equal(first.empirical_cm, second.empirical_cm)
    )
    ok = first.max_abs_dev < 0.01 and identical
    check(
        8,
        f"1e6-sample empirical CM within 0.01 of the closed form "
        f"(max dev {first.max_abs_dev:.5f}), reruns byte-identical",
        ok,
    )


def test_criterion_09_pipeline_vs_closed_form():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        params = ProtocolParams(rng.uniform(0.0, 1.5), rng.uniform(0.0, 1.0))
        piped_shared = apply_symplectic(embed_vacuum(initial_cm(params), 1), beam_splitter(3, 0, 1))
        closed_shared, _ = shared_cm(params)
        worst = max(worst, np.abs(piped_shared.cm - closed_shared.cm).max())
        piped_ap = apply_symplectic(piped_shared, beam_splitter(3, 2, 1, "plus"))
        worst = max(worst, np.abs(piped_ap.cm - final_cm(params, ROUTE_VIA_APRIME).cm).max())
        piped_a = apply_symplectic(piped_shared, beam_splitter(3, 0, 2, "minus"))
        worst = max(worst, np.abs(piped_a.cm - final_cm(params, ROUTE_VIA_A).cm).max())
        pair = reduced_pair_cm(params)
        worst = max(worst, np.abs(reduce_modes(piped_ap.cm, [0, 2]) - pair).max())
        worst = max(worst, np.abs(reduce_modes(piped_a.cm, [1, 2]) - pair).max())
    check(9, f"closed forms vs transform pipeline, 100 random parameter pairs, worst dev {worst:.3e}", worst < 1e-12)


def test_criterion_10_branch_continuity():
    worst = 0.0
    for eps in (0.05, 0.1, 0.5, 1.0):
        r_l = threshold_r_l(eps)
        em = np.exp(-2 * r_l)
        second = np.sqrt(1 + em * (np.exp(2 * eps) - 1) - (em - 1) ** 2 / (2 - em))
        worst = max(worst, abs(np.exp(r_l) - second))
    check(10, f"branch continuity at r_l, worst dev {worst:.3e}", worst < 1e-6)
