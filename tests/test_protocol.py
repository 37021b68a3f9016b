import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussent import (
    GaussianState,
    NumericalFailureError,
    apply_symplectic,
    beam_splitter,
    classify_three_mode,
    embed_vacuum,
    final_cm,
    gap_profile,
    initial_cm,
    localizable_mu,
    mu_m,
    numeric_threshold_r_e,
    numeric_threshold_r_m,
    reduce_modes,
    reduced_pair_cm,
    shared_cm,
    splitting_sigma,
    stage_state,
    threshold_r_e,
    threshold_r_l,
    threshold_r_m,
    threshold_report,
    two_mode_metrics,
    validate_cm,
)
from gaussent import protocol
from gaussent.protocol import (
    ROUTE_VIA_A,
    ROUTE_VIA_APRIME,
    STAGE_FINAL_VIA_A,
    STAGE_FINAL_VIA_APRIME,
    STAGE_INITIAL,
    STAGE_SHARED,
    STAGES,
    ProtocolParams,
    cubic_pq,
)
from gaussent.separability import _classify

from helpers import random_pure_cm


def pipeline_shared(params):
    return apply_symplectic(embed_vacuum(initial_cm(params), 1), beam_splitter(3, 0, 1))


def pipeline_final(params, route):
    shared = pipeline_shared(params)
    if route == ROUTE_VIA_APRIME:
        return apply_symplectic(shared, beam_splitter(3, 2, 1, "plus"))
    return apply_symplectic(shared, beam_splitter(3, 0, 2, "minus"))


class TestInitialCm:
    def test_no_squeezing_no_noise_is_vacuum(self):
        assert np.array_equal(initial_cm(ProtocolParams(0.0, 0.0)).cm, np.eye(4))

    def test_entries(self):
        cm = initial_cm(ProtocolParams(0.3, 0.1)).cm
        assert cm[0, 0] == pytest.approx(1 + np.exp(-0.6) * (np.exp(0.2) - 1), abs=1e-15)
        assert cm[1, 1] == pytest.approx(np.exp(0.6), abs=1e-15)
        assert cm[2, 2] == pytest.approx(2 - np.exp(-0.6), abs=1e-15)

    def test_correlation_block_is_singular_hence_separable(self):
        for r, eps in [(0.2, 0.0), (0.8, 0.3), (1.5, 1.0)]:
            cm = initial_cm(ProtocolParams(r, eps)).cm
            assert np.linalg.det(cm[:2, 2:]) == pytest.approx(0.0, abs=1e-15)
            assert two_mode_metrics(cm).mu >= 1 - 1e-9

    def test_physical_over_grid(self):
        for r in np.linspace(0, 1.5, 7):
            for eps in np.linspace(0, 1.5, 7):
                validate_cm(initial_cm(ProtocolParams(r, eps)).cm)

    def test_params_validated(self):
        with pytest.raises(ValueError):
            ProtocolParams(-0.1, 0.0)

    @pytest.mark.parametrize("r,eps", [
        (float("nan"), 0.1), (0.3, float("nan")), (float("inf"), 0.1), (0.3, float("inf")),
    ])
    def test_params_must_be_finite(self, r, eps):
        with pytest.raises(ValueError, match="finite"):
            ProtocolParams(r, eps)


class TestClosedFormsMatchPipeline:
    def test_shared_vacuum_limit(self):
        state, _ = shared_cm(ProtocolParams(0.0, 0.0))
        assert np.array_equal(state.cm, np.eye(6))

    def test_final_vacuum_limit(self):
        for route in (ROUTE_VIA_APRIME, ROUTE_VIA_A):
            assert np.allclose(final_cm(ProtocolParams(0.0, 0.0), route).cm, np.eye(6), atol=1e-15)

    def test_hundred_random_parameter_pairs(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            params = ProtocolParams(rng.uniform(0, 1.5), rng.uniform(0, 1.0))
            closed, _ = shared_cm(params)
            assert np.abs(closed.cm - pipeline_shared(params).cm).max() < 1e-12
            for route in (ROUTE_VIA_APRIME, ROUTE_VIA_A):
                dev = np.abs(final_cm(params, route).cm - pipeline_final(params, route).cm).max()
                assert dev < 1e-12

    def test_both_routes_reduce_to_the_same_pair(self):
        params = ProtocolParams(0.3, 0.1)
        pair = reduced_pair_cm(params)
        assert np.abs(reduce_modes(final_cm(params, ROUTE_VIA_APRIME).cm, [0, 2]) - pair).max() < 1e-15
        assert np.abs(reduce_modes(final_cm(params, ROUTE_VIA_A).cm, [1, 2]) - pair).max() < 1e-15

    def test_bad_route(self):
        with pytest.raises(ValueError):
            final_cm(ProtocolParams(0.1, 0.1), "via-B")

    def test_array_builders_are_bitwise_the_scalar_wrappers(self):
        eps = 0.7
        rs = np.linspace(0.0, 1.5, 11)
        blocks = protocol._blocks(rs, eps)
        shared = protocol._shared_matrix(blocks)
        finals = {route: protocol._final_matrix(blocks, route) for route in (ROUTE_VIA_APRIME, ROUTE_VIA_A)}
        pair = protocol._reduced_pair_matrix(blocks)
        mus = protocol._mu_m(rs, eps)
        assert shared.shape == (11, 6, 6) and pair.shape == (11, 4, 4)
        assert np.any(rs < threshold_r_l(eps)) and np.any(rs > threshold_r_l(eps))
        for k, r in enumerate(rs.tolist()):
            params = ProtocolParams(r, eps)
            assert np.array_equal(shared[k], shared_cm(params)[0].cm)
            for route, stack in finals.items():
                assert np.array_equal(stack[k], final_cm(params, route).cm)
            assert np.array_equal(pair[k], reduced_pair_cm(params))
            assert mus[k] == mu_m(params)


class TestThresholds:
    def test_reference_values_at_tenth_noise(self):
        assert threshold_r_l(0.1) == pytest.approx(0.079, abs=1e-3)
        assert threshold_r_e(0.1) == pytest.approx(0.106, abs=1e-3)
        assert threshold_r_m(0.1) == pytest.approx(0.277, abs=1e-3)

    def test_zero_noise_thresholds_vanish(self):
        # the closed form for r_e collapses to (1/2) ln 1 at eps = 0:
        # (8 sqrt(2) - 2)^2 + 4 (8 sqrt(2) - 1) = 128 exactly
        assert abs(threshold_r_e(0.0)) < 1e-12
        assert threshold_r_m(0.0) == 0.0
        assert abs(threshold_r_l(0.0)) < 1e-12

    def test_no_overflow_at_large_noise(self):
        for eps in (10.0, 50.0, 150.0):
            report = threshold_report(eps)
            assert np.isfinite([report.r_l, report.r_e, report.r_m, report.gap]).all()

    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.5, 1.0])
    def test_pair_mu_is_one_at_r_e(self, eps):
        mu = two_mode_metrics(reduced_pair_cm(ProtocolParams(threshold_r_e(eps), eps))).mu
        assert mu == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.5, 1.0])
    def test_mu_m_is_one_at_r_m(self, eps):
        assert mu_m(ProtocolParams(threshold_r_m(eps), eps)) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.5, 1.0])
    def test_closed_forms_agree_with_bisection(self, eps):
        assert numeric_threshold_r_e(eps) == pytest.approx(threshold_r_e(eps), abs=1e-8)
        assert numeric_threshold_r_m(eps) == pytest.approx(threshold_r_m(eps), abs=1e-8)

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            threshold_r_e(-0.1)

    @pytest.mark.parametrize("fn", [threshold_r_e, threshold_r_m, threshold_r_l, gap_profile])
    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), -0.1])
    def test_bad_noise_rejected(self, fn, eps):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            fn(eps if fn is not gap_profile else [0.1, eps])
        with pytest.raises(ValueError, match="finite and nonnegative"):
            fn(np.array([0.1, eps, 0.2]))

    @settings(max_examples=30, deadline=None)
    @given(eps=st.lists(st.floats(0.0, 350.0), min_size=1, max_size=40))
    def test_array_calls_are_bitwise_the_float_calls(self, eps):
        grid = np.array(eps)
        for fn in (threshold_r_e, threshold_r_m, threshold_r_l):
            assert np.array_equal(fn(grid), [fn(e) for e in eps])
        p, q = cubic_pq(grid)
        assert np.array_equal(p, [cubic_pq(e)[0] for e in eps])
        assert np.array_equal(q, [cubic_pq(e)[1] for e in eps])


#: Seeded noise values for the pinned numeric roots, both ends included.
PINNED_EPSILONS = np.concatenate(([0.0, 4.0], np.random.default_rng(2016).uniform(0.0, 4.0, 10)))


class TestNumericRoots:
    def test_pinned_roots(self):
        # sha256 of the float64 roots, taken when each grid point was its own
        # scalar call; the whole-grid scan must find the same bits
        h = hashlib.sha256()
        for eps in PINNED_EPSILONS.tolist():
            h.update(np.float64(numeric_threshold_r_e(eps)).tobytes())
            h.update(np.float64(numeric_threshold_r_m(eps)).tobytes())
        assert h.hexdigest() == "318dad8661a2700f60251e1bc74aa7a872a70528e7ac7844d8fb7d69ec7fede9"

    @settings(max_examples=40, deadline=None)
    @given(eps=st.just(0.0) | st.floats(1e-4, 4.0))
    def test_roots_match_closed_forms(self, eps):
        assert abs(numeric_threshold_r_e(eps) - threshold_r_e(eps)) <= 1e-8
        assert abs(numeric_threshold_r_m(eps) - threshold_r_m(eps)) <= 1e-8

    @pytest.mark.parametrize("root,closed,eps", [
        (numeric_threshold_r_e, threshold_r_e, 1e-6),
        (numeric_threshold_r_m, threshold_r_m, 3.171415415268996e-05),
    ])
    def test_roots_at_tiny_noise(self, root, closed, eps):
        assert abs(root(eps) - closed(eps)) <= 1e-8

    def test_roots_on_a_tiny_noise_log_grid(self):
        # grid points between the last one above the noise floor and the
        # crossing may sit in (0, floor]; the bracket must still find the root
        for eps in np.logspace(-6.0, -4.0, 41).tolist():
            assert abs(numeric_threshold_r_e(eps) - threshold_r_e(eps)) <= 1e-8
            assert abs(numeric_threshold_r_m(eps) - threshold_r_m(eps)) <= 1e-8

    @pytest.mark.parametrize("root", [numeric_threshold_r_e, numeric_threshold_r_m])
    def test_bad_noise_rejected(self, root):
        for eps in (float("nan"), -0.1, float("inf")):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                root(eps)

    @pytest.mark.parametrize("root", [numeric_threshold_r_e, numeric_threshold_r_m])
    def test_no_crossing_below_r_max(self, root):
        with pytest.raises(NumericalFailureError):
            root(5.0)


class TestMuM:
    def test_cubic_coefficients(self):
        p, q = cubic_pq(0.0)
        assert p == pytest.approx(1 / 6 - 1, abs=1e-15)
        assert q == pytest.approx(5 / 54 + 1 / 6, abs=1e-15)
        assert cubic_pq(2.0)[0] < 0  # trigonometric root stays real

    def test_first_branch_below_r_l(self):
        eps = 0.5
        r = 0.5 * threshold_r_l(eps)
        assert mu_m(ProtocolParams(r, eps)) == pytest.approx(np.exp(r), abs=1e-15)

    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.5, 1.0])
    def test_branch_continuity_at_r_l(self, eps):
        r_l = threshold_r_l(eps)
        em = np.exp(-2 * r_l)
        second = np.sqrt(1 + em * (np.exp(2 * eps) - 1) - (em - 1) ** 2 / (2 - em))
        assert abs(np.exp(r_l) - second) < 1e-6

    def test_outer_grid_is_bitwise_the_scalar_calls(self):
        rs, eps = np.linspace(0.0, 1.5, 31), np.linspace(0.0, 3.0, 17)
        grid = protocol._mu_m(rs[:, None], eps[None, :])
        assert grid.shape == (31, 17)
        for i, r in enumerate(rs.tolist()):
            for j, e in enumerate(eps.tolist()):
                assert grid[i, j] == mu_m(ProtocolParams(r, e))

    def test_agrees_with_numeric_conditioning(self):
        for eps in (0.05, 0.1, 0.5):
            for r in np.arange(0.1, 1.01, 0.1):
                state, _ = shared_cm(ProtocolParams(r, eps))
                diff = abs(localizable_mu(state.cm, 2) - mu_m(ProtocolParams(r, eps)))
                assert diff < 1e-9


class TestGapProfile:
    def test_gap_positive_and_monotone(self):
        reports = gap_profile(np.linspace(0.001, 3.0, 60))
        gaps = [rep.gap for rep in reports]
        assert all(g > 0 for g in gaps)
        assert all(b >= a for a, b in zip(gaps, gaps[1:]))

    def test_report_is_the_profile_entry(self):
        grid = np.linspace(0.0, 5.0, 23)
        for eps, entry in zip(grid.tolist(), gap_profile(grid)):
            assert threshold_report(eps) == entry

    def test_gap_at_zero_noise_vanishes(self):
        assert threshold_report(0.0).gap == pytest.approx(0.0, abs=1e-12)

    def test_large_noise_asymptote(self):
        limit = 0.5 * np.log(2 * (8 * np.sqrt(2) - 1) / 11)
        assert threshold_report(10.0).gap == pytest.approx(limit, abs=1e-3)

    def test_threshold_ordering_on_grid(self):
        for eps in np.linspace(0, 2, 51)[1:]:
            rep = threshold_report(eps)
            assert rep.r_l < rep.r_e < rep.r_m

    def test_report_json_keys(self):
        payload = threshold_report(0.1).to_json_dict()
        assert list(payload) == ["epsilon", "r_l", "r_e", "r_m", "gap", "p", "q"]


class TestStageLadder:
    def test_ladder_at_reference_point(self):
        params = ProtocolParams(0.3, 0.1)
        initial = stage_state(params, STAGE_INITIAL)
        assert initial.report.class_label == "ppt-all-splittings"
        assert all(m.mu >= 1 - 1e-9 for _, m in initial.report.pairwise)

        shared = stage_state(params, STAGE_SHARED)
        assert shared.report.class_label == "one-mode-biseparable"
        assert shared.report.separable_splitting == "B|(AA')"
        assert all(m.mu >= 1 - 1e-9 for _, m in shared.report.pairwise)

        for stage in (STAGE_FINAL_VIA_APRIME, STAGE_FINAL_VIA_A):
            assert stage_state(params, stage).report.class_label == "fully-inseparable"

    def test_ladder_for_random_parameters_above_threshold(self):
        rng = np.random.default_rng(51)
        for _ in range(10):
            eps = rng.uniform(0.02, 0.8)
            r = threshold_r_e(eps) + rng.uniform(0.02, 1.0)
            params = ProtocolParams(r, eps)
            assert stage_state(params, STAGE_INITIAL).report.class_label == "ppt-all-splittings"
            assert stage_state(params, STAGE_SHARED).report.class_label == "one-mode-biseparable"
            assert stage_state(params, STAGE_FINAL_VIA_APRIME).report.class_label == "fully-inseparable"

    @pytest.mark.parametrize("r", [4.0, 8.0, 12.0, 16.0])
    @pytest.mark.parametrize("eps", [0.01, 0.1, 1.0, 3.0])
    def test_ladder_at_large_squeezing(self, r, eps):
        # the analytic boundaries (every initial splitting, B|(AA') of the shared
        # stage) cancel to |sigma| of 1e-12 up to 0.3 here; the scaled band holds them
        labels = [stage_state(ProtocolParams(r, eps), stage).report.class_label for stage in STAGES]
        assert labels == ["ppt-all-splittings", "one-mode-biseparable", "fully-inseparable", "fully-inseparable"]

    def test_shared_stage_at_high_noise_is_ppt(self):
        # sigma_B is 0 analytically and A|(A'B) is separable for r < epsilon
        r = np.linspace(0.0, 1.5, 6000)
        (_, entangled, boundary), _, labels = _classify(protocol._shared_matrix(protocol._blocks(r, 3.0)))
        assert (labels == "ppt-all-splittings").all()
        assert not entangled.any()
        assert boundary[:, 2].all() and not boundary[1:, :2].any()  # sigma_A is 0 at r = 0 only

    def test_unknown_stage(self):
        with pytest.raises(ValueError):
            stage_state(ProtocolParams(0.1, 0.1), "halfway")


class TestPureStateObstruction:
    def test_no_pure_state_mimics_the_shared_separability_pattern(self):
        # separable across B|(AA'), separable in the A-A' pair, and yet
        # entangled across A|(A'B): impossible for pure states
        rng = np.random.default_rng(52)
        for _ in range(200):
            cm = random_pure_cm(3, rng)
            b_separable = not splitting_sigma(cm, 2).entangled
            pair_separable = two_mode_metrics(reduce_modes(cm, [0, 1])).mu >= 1 - 1e-9
            a_entangled = splitting_sigma(cm, 0).entangled
            assert not (b_separable and pair_separable and a_entangled)
