import hashlib
import json
from itertools import permutations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gaussent import (
    BadModeIndexError,
    DimensionMismatchError,
    GaussianState,
    MeasurementSpec,
    NotBisymmetricError,
    NotSymmetricError,
    UnphysicalError,
    apply_symplectic,
    beam_splitter,
    char_poly_invariants,
    classify_three_mode,
    condition_on_measurement,
    embed_vacuum,
    final_cm,
    initial_cm,
    localizable_mu,
    log_negativity,
    measurement_scan_oracle,
    mode_permutation,
    mu_m,
    partial_transpose,
    reduce_modes,
    shared_cm,
    splitting_sigma,
    threshold_r_e,
    threshold_r_m,
    two_mode_metrics,
)
from gaussent.core import _pt_invariants
from gaussent.protocol import ROUTE_VIA_A, ROUTE_VIA_APRIME, STAGES, ProtocolParams, stage_state
from gaussent.ops import HOMODYNE_SV_CUTOFF
from gaussent.separability import (
    BISYMMETRY_TOL,
    BOUNDARY_TOL,
    CLASS_PPT_ALL,
    PAIR_LABELS,
    PAIR_MODES,
    SPLITTING_BAND,
    SPLITTING_LABELS,
    _CLASS_BY_COUNT,
    _PAIR_QUADS,
    _entanglement_metrics,
    _localizable_mu,
    _pt_metrics,
    _splittings,
)

from closed_forms import sigma_closed_form
from helpers import pt_mu_oracle, random_physical_cm, random_pure_cm, rotation, sympl_eigs_oracle, tmsv_cm


def assert_shared_minors_match_each_transpose(cm):
    """The shared-minor kernel and ``_splittings`` give, byte for byte, what the
    invariants of each partially transposed matrix itself give."""
    i1, i2, i3 = _pt_invariants(cm, [0, 1, 2])
    splits = _splittings(cm)
    for mode in range(3):
        w1, w2, w3 = (np.asarray(x) for x in char_poly_invariants(partial_transpose(cm, mode)))
        for got, want in zip((i1[..., mode], i2[..., mode], i3[..., 0]), (w1, w2, w3)):
            assert got.tobytes() == want.tobytes()
        sigma = w3 - w2 + w1 - 1.0
        band = SPLITTING_BAND * (1.0 + np.abs(w1) + np.abs(w2) + np.abs(w3))
        for got, want in zip(splits, (sigma, sigma < -band, np.abs(sigma) <= band)):
            assert got[..., mode].tobytes() == np.asarray(want).tobytes()


#: every stage on a grid reaching large squeezing; the initial stage has exact zeros
LADDER_CMS = np.array([
    stage_state(ProtocolParams(r, eps), stage).state.cm
    for r in (0.0, 0.3, 1.5, 4.0, 8.0, 12.0, 16.0)
    for eps in (0.0, 0.001, 0.1, 1.0, 3.0)
    for stage in STAGES
])


def local_image(cm, theta, z):
    """``cm`` with each mode k squeezed by ``z[k]`` and then rotated by ``theta[k]``, symmetrized."""
    s = np.zeros((6, 6))
    for k in range(3):
        s[2 * k:2 * k + 2, 2 * k:2 * k + 2] = rotation(theta[k]) @ np.diag([np.exp(z[k]), np.exp(-z[k])])
    image = s @ cm @ s.T
    return 0.5 * (image + image.T)


# symmetric indefinite 4x4 with delta_tilde^2 - 4 det < 0 (no real PT
# symplectic spectrum); found by random search, frozen here
INDEFINITE_CM = np.array([
    [0.125730221093393, -0.333887118226206, -0.031656292681855, -1.110065328742897],
    [-0.333887118226206, 0.361595054909485, 0.019289287042042, 0.364144649598348],
    [-0.031656292681855, 0.019289287042042, -0.623274462537352, -0.602292483952911],
    [-1.110065328742897, 0.364144649598348, -0.602292483952911, -0.732267354703452],
])


class TestSplittingSigma:
    def test_matches_closed_form_on_grid(self):
        grid = np.linspace(0, 1, 12)
        for r in grid:
            for eps in grid:
                state, _ = shared_cm(ProtocolParams(r, eps))
                sigma = splitting_sigma(state.cm, 0).sigma
                assert abs(sigma - sigma_closed_form(r, eps)) < 1e-9

    def test_bisymmetry_of_shared_state(self):
        for r, eps in [(0.3, 0.1), (0.7, 0.4), (1.0, 0.0)]:
            state, _ = shared_cm(ProtocolParams(r, eps))
            s_a = splitting_sigma(state.cm, 0).sigma
            s_ap = splitting_sigma(state.cm, 1).sigma
            assert abs(s_a - s_ap) < 1e-10

    def test_equal_noise_and_squeezing_is_boundary(self):
        state, _ = shared_cm(ProtocolParams(0.3, 0.3))
        verdict = splitting_sigma(state.cm, 0)
        assert verdict.boundary
        assert not verdict.entangled

    def test_mode_b_never_entangled(self):
        for r in np.linspace(0, 1, 9):
            for eps in np.linspace(0, 1, 9):
                state, _ = shared_cm(ProtocolParams(r, eps))
                assert not splitting_sigma(state.cm, 2).entangled

    def test_labels(self):
        state, _ = shared_cm(ProtocolParams(0.3, 0.1))
        assert [splitting_sigma(state.cm, m).splitting for m in range(3)] == list(SPLITTING_LABELS)

    def test_bad_mode_rejected(self):
        with pytest.raises(BadModeIndexError):
            splitting_sigma(np.eye(6), 3)

    @pytest.mark.pinned
    def test_stack_kernel_is_bitwise_per_matrix(self):
        rng = np.random.default_rng(41)
        cms = [random_physical_cm(3, rng) for _ in range(12)]
        cms += [final_cm(ProtocolParams(r, 0.4), ROUTE_VIA_APRIME).cm for r in (0.0, 0.2, 0.9, 1.5)]
        stack = np.stack(cms).reshape(4, 4, 6, 6)
        results = _splittings(stack)
        assert [x.shape for x in results] == [(4, 4, 3)] * 3
        sigma, entangled, boundary = (x.reshape(-1, 3) for x in results)
        for k, cm in enumerate(cms):
            for mode in range(3):
                i1, i2, i3 = char_poly_invariants(partial_transpose(cm, mode))
                verdict = splitting_sigma(cm, mode)
                assert sigma[k, mode] == verdict.sigma == i3 - i2 + i1 - 1.0
                assert (entangled[k, mode], boundary[k, mode]) == (verdict.entangled, verdict.boundary)

    @pytest.mark.pinned
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seeds=st.lists(st.integers(0, 2**32 - 1), min_size=6, max_size=6))
    def test_shared_minors_are_bitwise_each_transpose_on_random_states(self, seeds):
        cms = np.stack([random_physical_cm(3, np.random.default_rng(seed)) for seed in seeds])
        for cm in cms:
            assert_shared_minors_match_each_transpose(cm)
        assert_shared_minors_match_each_transpose(cms.reshape(2, 3, 6, 6))

    @pytest.mark.pinned
    def test_shared_minors_are_bitwise_each_transpose_on_every_stage(self):
        for cm in LADDER_CMS:
            assert_shared_minors_match_each_transpose(cm)
        assert_shared_minors_match_each_transpose(LADDER_CMS.reshape(7, -1, 6, 6))


class TestFinalStateSigmas:
    def test_quarter_identity_on_grid(self):
        # the final-stage sigma of the non-participating mode is a quarter of
        # the shared-stage value, for both routes
        grid = np.linspace(0, 1, 8)
        for r in grid:
            for eps in grid:
                params = ProtocolParams(r, eps)
                shared, _ = shared_cm(params)
                s_a = splitting_sigma(shared.cm, 0).sigma
                tilde = splitting_sigma(final_cm(params, ROUTE_VIA_APRIME).cm, 1).sigma
                tildetilde = splitting_sigma(final_cm(params, ROUTE_VIA_A).cm, 0).sigma
                assert abs(tilde - s_a / 4) < 1e-9
                assert abs(tildetilde - s_a / 4) < 1e-9


class TestTwoModeMetrics:
    def test_vacuum_is_boundary(self):
        m = two_mode_metrics(np.eye(4))
        assert m.mu == pytest.approx(1.0, abs=1e-12)
        assert not m.entangled
        assert m.boundary

    def test_two_mode_squeezed_vacuum(self):
        m = two_mode_metrics(tmsv_cm(0.5))
        assert m.mu == pytest.approx(pt_mu_oracle(tmsv_cm(0.5)), abs=1e-10)
        assert m.mu == pytest.approx(np.exp(-1), abs=1e-12)
        assert m.log_negativity == pytest.approx(np.log2(np.e), abs=1e-10)

    def test_boundary_at_pair_threshold(self):
        from gaussent import reduced_pair_cm

        mu = two_mode_metrics(reduced_pair_cm(ProtocolParams(threshold_r_e(0.1), 0.1))).mu
        assert mu == pytest.approx(1.0, abs=1e-6)

    def test_verdict_matches_determinant_form(self):
        rng = np.random.default_rng(31)
        cms = [random_physical_cm(2, rng) for _ in range(200)]
        cms += [tmsv_cm(r) for r in (0.1, 0.5, 1.0)]
        from gaussent import reduced_pair_cm

        cms += [reduced_pair_cm(ProtocolParams(r, 0.1)) for r in np.linspace(0, 1, 15)]
        for cm in cms:
            m = two_mode_metrics(cm)
            if abs(m.mu - 1) > 1e-9:
                assert np.sign(m.ppt_condition_value) == np.sign(m.mu - 1)

    def test_mu_against_oracle_on_randoms(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            cm = random_physical_cm(2, rng)
            assert two_mode_metrics(cm).mu == pytest.approx(pt_mu_oracle(cm), abs=1e-8)

    def test_unphysical_input_raises(self):
        with pytest.raises(UnphysicalError, match="not positive definite"):
            two_mode_metrics(INDEFINITE_CM)

    def test_stack_matches_one_at_a_time(self):
        rng = np.random.default_rng(33)
        cms = [random_physical_cm(2, rng) for _ in range(18)] + [np.eye(4), tmsv_cm(0.5)]
        results = _pt_metrics(np.stack(cms).reshape(4, 5, 4, 4))
        assert [x.shape for x in results] == [(4, 5)] * 3
        mu, delta_tilde, det_cm = (x.ravel() for x in results)
        # the pair band as an array expression; the records decide it one float at a time
        entangled, boundary = mu < 1.0 - BOUNDARY_TOL, np.abs(mu - 1.0) <= BOUNDARY_TOL
        assert entangled.any() and boundary.any() and not (entangled | boundary).all()
        for k, cm in enumerate(cms):
            m = two_mode_metrics(cm)
            assert (m.mu, m.delta_tilde, m.entangled, m.boundary) == (mu[k], delta_tilde[k], entangled[k], boundary[k])
            assert type(m.entangled) is type(m.boundary) is bool
            assert m.ppt_condition_value == det_cm[k] - delta_tilde[k] + 1.0

    @pytest.mark.parametrize("edge", [1.0 - BOUNDARY_TOL, 1.0 + BOUNDARY_TOL])
    def test_band_edges_match_the_array_expression(self, edge):
        # the edge and its two neighbours: one flag flips among the three at either edge
        mus = np.array([np.nextafter(edge, 0.0), edge, np.nextafter(edge, 2.0)])
        flags = [(m.entangled, m.boundary) for m in (_entanglement_metrics(mu, 2.0, 1.0) for mu in mus.tolist())]
        assert flags == list(zip(mus < 1.0 - BOUNDARY_TOL, np.abs(mus - 1.0) <= BOUNDARY_TOL))
        assert len(set(flags)) == 2


class TestLogNegativity:
    @pytest.mark.parametrize(
        "mu,expected",
        [(1.0, 0.0), (0.5, 1.0), (np.exp(-1), 1.4426950408889634), (2.0, 0.0)],
    )
    def test_values(self, mu, expected):
        assert log_negativity(mu) == pytest.approx(expected, abs=1e-12)

    def test_negative_mu_rejected(self):
        with pytest.raises(ValueError):
            log_negativity(-0.1)

    def test_nan_mu_rejected(self):
        with pytest.raises(ValueError, match="nonnegative, got nan"):
            log_negativity(float("nan"))


def _with_nan_pair(n_modes):
    cm = np.eye(2 * n_modes)
    cm[0, 1] = cm[1, 0] = np.nan
    return cm


#: the five public entry points: the mode count each takes and a call on one matrix
ENTRY_POINTS = {
    "classify_three_mode": (3, classify_three_mode),
    "splitting_sigma": (3, lambda cm: splitting_sigma(cm, 0)),
    "two_mode_metrics": (2, two_mode_metrics),
    "localizable_mu": (3, lambda cm: localizable_mu(cm, 2)),
    "measurement_scan_oracle": (3, lambda cm: measurement_scan_oracle(cm, 2, n_theta=4, n_t=4)),
}


class TestNonFiniteInput:
    # under the suite's filter that makes every warning an error, a NaN that reached the
    # arithmetic would raise RuntimeWarning instead of a verdict or an error
    @pytest.mark.parametrize("call", ENTRY_POINTS)
    def test_entry_points_refuse_nan(self, call):
        n, entry = ENTRY_POINTS[call]
        with pytest.raises(UnphysicalError, match="^covariance matrix has 2 non-finite entries$"):
            entry(_with_nan_pair(n))

    @pytest.mark.parametrize("call", ENTRY_POINTS)
    @pytest.mark.parametrize("diagonal,match", [((0.5, 0.5), "smallest symplectic eigenvalue 0.5"),
                                                ((1.0, -1.0), "not positive definite"),
                                                ((1e15, 1.0, 0.5, 0.5), "smallest symplectic eigenvalue 0.5")],
                             ids=["below-vacuum", "negative-diagonal", "below-vacuum-beside-a-large-mode"])
    def test_entry_points_refuse_unphysical_input(self, call, diagonal, match):
        # 0.5 * I is positive definite with nu = 0.5; a negative variance fails the Cholesky factor
        n, entry = ENTRY_POINTS[call]
        with pytest.raises(UnphysicalError, match=match):
            entry(np.diag(np.resize(diagonal, 2 * n)))

    @pytest.mark.parametrize("call", ENTRY_POINTS)
    def test_entry_points_refuse_asymmetric_input(self, call):
        # no symmetrizing here: a one-sided entry is refused, not read from one triangle
        n, entry = ENTRY_POINTS[call]
        cm = np.eye(2 * n)
        cm[0, 3] = 5.0
        with pytest.raises(NotSymmetricError, match="asymmetry 5.000e\\+00"):
            entry(cm)

    @pytest.mark.parametrize("call", ENTRY_POINTS)
    def test_entry_points_refuse_the_wrong_mode_count(self, call):
        # a two-mode matrix where three modes are expected, and a three-mode one where two are
        n, entry = ENTRY_POINTS[call]
        with pytest.raises(DimensionMismatchError, match=f"expected a {n}-mode"):
            entry(np.eye(2 * (5 - n)))

    def test_infinite_entry_refused(self):
        cm = np.eye(6)
        cm[4, 4] = np.inf
        with pytest.raises(UnphysicalError, match="1 non-finite"):
            classify_three_mode(cm)


class TestClassifyThreeMode:
    def test_triple_vacuum(self):
        report = classify_three_mode(np.eye(6))
        assert report.class_label == "ppt-all-splittings"
        assert report.separable_splitting is None

    def test_shared_state_is_one_mode_biseparable(self):
        state, _ = shared_cm(ProtocolParams(0.3, 0.1))
        report = classify_three_mode(state.cm)
        assert report.class_label == "one-mode-biseparable"
        assert report.separable_splitting == "B|(AA')"
        assert all(m.mu >= 1 - 1e-9 for _, m in report.pairwise)
        assert [label for label, _ in report.pairwise] == list(PAIR_LABELS)

    @pytest.mark.parametrize("route", [ROUTE_VIA_APRIME, ROUTE_VIA_A])
    def test_final_state_is_fully_inseparable(self, route):
        report = classify_three_mode(final_cm(ProtocolParams(0.3, 0.1), route).cm)
        assert report.class_label == "fully-inseparable"

    def test_json_shape(self):
        state, _ = shared_cm(ProtocolParams(0.3, 0.1))
        payload = classify_three_mode(state.cm).to_json_dict()
        assert set(payload) == {"verdicts", "pairwise", "class", "separable_splitting"}
        assert len(payload["verdicts"]) == 3
        assert len(payload["pairwise"]) == 3

    @pytest.mark.pinned
    def test_reports_unchanged_by_the_stacked_kernels(self):
        # sha256 of the full-precision reports, taken with the one-splitting-at-a-time
        # implementation that preceded the stacked kernels
        # the stages through the kernels; stage_state itself reports from closed forms
        reports = [classify_three_mode(stage_state(ProtocolParams(r, eps), stage).state.cm)
                   for r in (0.0, 0.3, 0.9, 1.5, 2.5) for eps in (0.001, 0.1, 1.0) for stage in STAGES]
        rng = np.random.default_rng(21)
        reports += [classify_three_mode(random_physical_cm(3, rng)) for _ in range(40)]
        payload = json.dumps([report.to_json_dict() for report in reports]).encode()
        assert hashlib.sha256(payload).hexdigest() == (
            "7b8a4a495388e286b5c72e9104c60415abf6e6ee81654e6121831ffde60812c0"
        )

    def test_stacked_labels_match_reports(self):
        rng = np.random.default_rng(42)
        cms = [random_physical_cm(3, rng) for _ in range(8)]
        cms += [stage_state(ProtocolParams(0.3, 0.1), stage).state.cm for stage in STAGES]
        stack = np.stack(cms).reshape(3, 4, 6, 6)
        sigma, entangled, boundary = _splittings(stack)
        labels = _CLASS_BY_COUNT[entangled.sum(-1)]
        pairs = _pt_metrics(stack[..., _PAIR_QUADS[:, :, None], _PAIR_QUADS[:, None, :]])
        assert labels.shape == (3, 4)
        for k, cm in enumerate(cms):
            report = classify_three_mode(cm)
            assert labels.flat[k] == report.class_label
            assert [(v.sigma, v.entangled, v.boundary) for v in report.verdicts] == list(
                zip(sigma.reshape(-1, 3)[k], entangled.reshape(-1, 3)[k], boundary.reshape(-1, 3)[k])
            )
            mu = pairs[0].reshape(-1, 3)[k]
            pair_entangled, pair_boundary = mu < 1.0 - BOUNDARY_TOL, np.abs(mu - 1.0) <= BOUNDARY_TOL
            assert [(m.mu, m.entangled, m.boundary) for _, m in report.pairwise] == list(
                zip(mu, pair_entangled, pair_boundary)
            )

    # derandomized: sigma's relative error under a permutation grows as sigma nears 0,
    # reaching 2e-10 in 12 000 seeded draws, so a fresh draw could pass 1e-9 rarely
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_equivariant_under_mode_permutation(self, seed):
        cm = random_physical_cm(3, np.random.default_rng(seed))
        state = GaussianState(0.5 * (cm + cm.T))
        report = classify_three_mode(state.cm)
        pair_index = {frozenset(pair): k for k, pair in enumerate(PAIR_MODES)}
        for perm in permutations(range(3)):
            # new mode k is old mode perm[k]; a permutation moves entries exactly
            moved = classify_three_mode(apply_symplectic(state, mode_permutation(3, perm)).cm)
            verdicts = report.verdicts + moved.verdicts
            pairs = report.pairwise + moved.pairwise
            assume(not any(v.boundary for v in verdicts) and not any(m.boundary for _, m in pairs))
            assert moved.class_label == report.class_label
            for k, verdict in enumerate(moved.verdicts):
                old = report.verdicts[perm[k]]
                assert verdict.entangled == old.entangled
                assert verdict.sigma == pytest.approx(old.sigma, rel=1e-9, abs=0.0)
            for (a, b), (_, metrics) in zip(PAIR_MODES, moved.pairwise):
                old = report.pairwise[pair_index[frozenset((perm[a], perm[b]))]][1]
                assert metrics.entangled == old.entangled
                assert metrics.mu == pytest.approx(old.mu, rel=1e-9, abs=0.0)

    # derandomized, so that every run checks the same 240 images
    @settings(max_examples=240, deadline=None, derandomize=True)
    @given(r=st.sampled_from([0.3, 1.0, 1.5]), eps=st.sampled_from([0.0, 0.1, 1.0]), stage=st.sampled_from(STAGES),
           theta=st.lists(st.floats(0.0, 2 * np.pi), min_size=3, max_size=3),
           z=st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3))
    def test_resolved_splitting_verdicts_survive_local_squeezing(self, r, eps, stage, theta, z):
        # local symplectic maps leave every splitting's separability unchanged
        state = stage_state(ProtocolParams(r, eps), stage)
        image = classify_three_mode(local_image(state.state.cm, theta, z))
        for before, after in zip(state.report.verdicts, image.verdicts):
            if not before.boundary:
                assert (after.entangled, after.boundary) == (before.entangled, False)

    @pytest.mark.xfail(strict=True, reason="the splitting band does not widen with local squeezing (ROADMAP item 8)")
    def test_class_is_unchanged_by_local_squeezing(self):
        # about 17 dB on each mode: the shared stage's B|(AA') sigma is 0, its image's -6.5e-11, outside the band
        cm = shared_cm(ProtocolParams(1.0, 0.1))[0].cm
        image = local_image(cm, (0.3, 1.1, 2.0), (2.0, 2.0, 2.0))
        assert classify_three_mode(image).class_label == classify_three_mode(cm).class_label

    def test_indefinite_pair_block_is_refused(self):
        bad = np.eye(6)
        bad[:4, :4] = INDEFINITE_CM
        with pytest.raises(UnphysicalError, match="not positive definite"):
            classify_three_mode(bad)


class TestLocalizableMu:
    def test_matches_piecewise_closed_form(self):
        state, _ = shared_cm(ProtocolParams(0.4, 0.1))
        mu = localizable_mu(state.cm, 2)
        assert mu == pytest.approx(mu_m(ProtocolParams(0.4, 0.1)), abs=1e-9)

    def test_boundary_at_measurement_threshold(self):
        for eps in (0.1, 0.5):
            state, _ = shared_cm(ProtocolParams(threshold_r_m(eps), eps))
            assert localizable_mu(state.cm, 2) == pytest.approx(1.0, abs=1e-6)

    def test_bisymmetric_product_cannot_be_entangled_by_conditioning(self):
        cm = np.eye(6)
        cm[4:, 4:] = np.diag([1.5, 2.0])  # vacuum x vacuum x noisy mode
        assert localizable_mu(cm, 2) >= 1 - 1e-12

    def test_non_bisymmetric_input_rejected(self):
        embedded = embed_vacuum(initial_cm(ProtocolParams(0.3, 0.1)), 1)
        with pytest.raises(NotBisymmetricError):
            localizable_mu(embedded.cm, 2)
        with pytest.raises(NotBisymmetricError):
            localizable_mu(final_cm(ProtocolParams(0.3, 0.1)).cm, 0)

    @pytest.mark.pinned
    def test_scalar_values_pinned(self):
        # sha256 of the float64 results on 40 seeded shared states, taken
        # before localizable_mu became a wrapper of the stacked kernel
        rng = np.random.default_rng(44)
        h = hashlib.sha256()
        for r, eps in rng.uniform([0.0, 0.0], [3.0, 3.0], (40, 2)):
            state, _ = shared_cm(ProtocolParams(r, eps))
            h.update(np.float64(localizable_mu(state.cm, 2)).tobytes())
        assert h.hexdigest() == "f5cb3552af0a0033f7d8113cccaf57a37407ce80679de1f5ced832b3e132ba2c"

    def test_stack_matches_one_at_a_time(self):
        params = np.random.default_rng(3).uniform(0.0, 3.0, (50, 2))
        cms = np.stack([shared_cm(ProtocolParams(r, eps))[0].cm for r, eps in params])
        stacked = _localizable_mu(cms.reshape(5, 10, 6, 6), 2)
        assert stacked.shape == (5, 10)
        np.testing.assert_array_max_ulp(stacked.ravel(), [localizable_mu(cm, 2) for cm in cms], maxulp=4)

    @staticmethod
    def round_trip(r):
        """The shared stage at epsilon 0.1 and its image under the A'-B beam splitter applied twice,
        an identity up to rounding that leaves the A-A' exchange off by a few eps of max|cm|."""
        shared = shared_cm(ProtocolParams(r, 0.1))[0]
        splitter = beam_splitter(3, 2, 1, "plus")
        return shared.cm, apply_symplectic(apply_symplectic(shared, splitter), splitter).cm

    @pytest.mark.parametrize("r", [10.0, 12.0])
    def test_bisymmetry_is_judged_relative_to_the_matrix(self, r):
        shared, image = self.round_trip(r)
        swap = [2, 3, 0, 1, 4, 5]
        assert np.abs(image[np.ix_(swap, swap)] - image).max() > BISYMMETRY_TOL  # 8.9e-8 and 3.8e-6
        assert localizable_mu(image, 2) == localizable_mu(shared, 2)

    def test_kernel_leaves_the_bisymmetry_check_to_localizable_mu(self):
        # the stacked kernel judges nothing; each matrix is judged alone, against its own scale
        params = ProtocolParams(0.3, 0.1)
        shared, embedded = shared_cm(params)[0].cm, embed_vacuum(initial_cm(params), 1).cm
        image = self.round_trip(12.0)[1]
        mu = _localizable_mu(np.stack([shared, embedded, image]), 2)
        np.testing.assert_array_max_ulp(mu[[0, 2]], [localizable_mu(shared, 2), localizable_mu(image, 2)], maxulp=4)
        assert np.isfinite(mu[1])
        with pytest.raises(NotBisymmetricError):
            localizable_mu(embedded, 2)

    def test_stack_honours_homodyne_cutoff_per_matrix(self):
        shared = shared_cm(ProtocolParams(0.4, 0.1))[0].cm
        below = shared.copy()
        below[4, 4] = HOMODYNE_SV_CUTOFF / 2  # measured x variance below the cutoff: nothing conditioned
        mu = _localizable_mu(np.stack([shared, below]), 2)
        assert mu[0] == localizable_mu(shared, 2) < 1.0
        assert mu[1] == two_mode_metrics(shared[:4, :4]).mu > 1.0


class TestMeasurementScanOracle:
    def test_never_beats_homodyne_route_and_gets_close(self):
        state, _ = shared_cm(ProtocolParams(0.4, 0.1))
        best = measurement_scan_oracle(state.cm, 2)
        target = localizable_mu(state.cm, 2)
        assert best >= target - 1e-4
        assert abs(best - target) < 1e-4

    def test_fine_grid_accepts_its_own_strongly_squeezed_seeds(self):
        # the grid's most squeezed seeds, with entries of order 1e6, carry a rounding asymmetry above 1e-10
        state, _ = shared_cm(ProtocolParams(0.4, 0.1))
        best = measurement_scan_oracle(state.cm, 2, n_theta=200, n_t=200)
        assert abs(best - localizable_mu(state.cm, 2)) < 1e-4

    def test_minimum_attained_at_x_homodyne_corner(self):
        # under the seed convention diag(t, 1/t), homodyne-x is theta = 0,
        # t -> 0; scan the grid by hand and locate the argmin
        state, _ = shared_cm(ProtocolParams(0.4, 0.1))
        best, arg = np.inf, None
        for theta in np.linspace(0, np.pi, 16, endpoint=False):
            rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
            for t in np.logspace(-6, 6, 17):
                seed = rot @ np.diag([t, 1 / t]) @ rot.T
                spec = MeasurementSpec.general_gaussian(2, seed)
                mu = two_mode_metrics(condition_on_measurement(GaussianState(state.cm), spec).cm).mu
                if mu < best:
                    best, arg = mu, (theta, t)
        assert arg[0] == 0.0
        assert arg[1] == pytest.approx(1e-6)
        assert measurement_scan_oracle(state.cm, 2, n_theta=16, n_t=17) == best

    def test_product_state_minimum_at_least_one(self):
        embedded = embed_vacuum(initial_cm(ProtocolParams(0.3, 0.1)), 1)
        assert measurement_scan_oracle(embedded.cm, 2, n_theta=12, n_t=13) >= 1 - 1e-12

    @pytest.mark.parametrize("n_theta,n_t", [(0, 8), (8, 0), (0, 0)])
    def test_empty_grid_rejected(self, n_theta, n_t):
        state, _ = shared_cm(ProtocolParams(0.3, 0.1))
        with pytest.raises(ValueError, match="grid is empty"):
            measurement_scan_oracle(state.cm, 2, n_theta=n_theta, n_t=n_t)

    def test_grid_refinement_never_raises_minimum(self):
        state, _ = shared_cm(ProtocolParams(0.35, 0.1))
        coarse = measurement_scan_oracle(state.cm, 2, n_theta=12, n_t=13)
        fine = measurement_scan_oracle(state.cm, 2, n_theta=24, n_t=25)
        assert fine <= coarse + 1e-15


def assert_entangled_pairs_entangle_their_splittings(cms) -> int:
    """Tracing out a mode is local, so a pair X-Y flagged entangled needs X|rest and Y|rest
    entangled; returns how many of the reports flag a pair."""
    flagged = 0
    for cm in cms:
        report = classify_three_mode(cm)
        for (x, y), (_, pair) in zip(PAIR_MODES, report.pairwise):
            if pair.entangled:
                assert report.verdicts[x].entangled and report.verdicts[y].entangled
        flagged += any(pair.entangled for _, pair in report.pairwise)
    return flagged


def assert_ppt_all_has_no_entangled_pair(cms) -> int:
    """A state PPT across every splitting has no entangled pair, since an entangled pair
    X-Y entangles X|rest; returns how many of the reports read ``ppt-all-splittings``."""
    n_ppt_all = 0
    for cm in cms:
        report = classify_three_mode(cm)
        if report.class_label == CLASS_PPT_ALL:
            n_ppt_all += 1
            assert not any(pair.entangled for _, pair in report.pairwise)
    return n_ppt_all


class TestReportInvariants:
    """Self-consistency of a report on seeded three-mode states (ROADMAP item 9)."""

    def test_ppt_all_splittings_has_no_entangled_pair(self):
        # max_nu 1.0001 and 1.01 draw no ppt-all-splittings state from this seed
        rng = np.random.default_rng(52)
        assert assert_ppt_all_has_no_entangled_pair(random_physical_cm(3, rng, 3.0) for _ in range(400)) == 40

    def test_ppt_all_splittings_has_no_entangled_pair_on_stage_states(self):
        cms = (stage_state(ProtocolParams(r, eps), stage).state.cm
               for r in np.linspace(0.0, 16.0, 33).tolist() for eps in (0.0, 0.01, 0.1, 1.0, 3.0) for stage in STAGES)
        assert assert_ppt_all_has_no_entangled_pair(cms) == 204

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="sigma is 0 on every pure state, so entangled pure states read ppt-all-splittings "
                              "(ROADMAP item 8)")
    def test_ppt_all_splittings_has_no_entangled_pair_on_pure_states(self):
        rng = np.random.default_rng(52)
        assert_ppt_all_has_no_entangled_pair(random_pure_cm(3, rng) for _ in range(400))

    @pytest.mark.parametrize("max_nu", [1.0001, 3.0])
    def test_entangled_pair_entangles_both_its_splittings(self, max_nu):
        rng = np.random.default_rng(52)
        assert assert_entangled_pairs_entangle_their_splittings(
            random_physical_cm(3, rng, max_nu) for _ in range(200)
        ) > 100  # 200 and 143

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="sigma is 0 on every pure state, so no splitting reads entangled (ROADMAP item 8)")
    def test_entangled_pair_entangles_both_its_splittings_on_pure_states(self):
        rng = np.random.default_rng(52)
        assert_entangled_pairs_entangle_their_splittings(random_pure_cm(3, rng) for _ in range(200))

    @pytest.mark.parametrize("max_nu,n_decided", [(1.0001, 599), (3.0, 600)])
    def test_splitting_verdicts_agree_with_the_spectrum_oracle(self, max_nu, n_decided):
        # the PPT verdict of each splitting, wherever the oracle's nu_min is clear of 1
        rng = np.random.default_rng(52)
        decided = 0
        for _ in range(200):
            cm = random_physical_cm(3, rng, max_nu)
            for k, verdict in enumerate(classify_three_mode(cm).verdicts):
                nu = sympl_eigs_oracle(partial_transpose(cm, k))[0]
                if abs(nu - 1.0) > 1e-6:
                    decided += 1
                    assert verdict.entangled == (nu < 1.0)
        assert decided == n_decided


class TestPairwiseOfShared:
    def test_reduced_pairs_of_shared_state_are_separable(self):
        state, _ = shared_cm(ProtocolParams(0.3, 0.1))
        for modes in ((0, 1), (0, 2), (1, 2)):
            assert two_mode_metrics(reduce_modes(state.cm, modes)).mu >= 1 - 1e-9
