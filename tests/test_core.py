import json
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gaussent import (
    BadModeIndexError,
    DimensionMismatchError,
    GaussentError,
    GaussianState,
    NotSymmetricError,
    UnphysicalError,
    apply_symplectic,
    beam_splitter,
    char_poly_invariants,
    initial_cm,
    is_classical,
    load_state,
    partial_transpose,
    reduce_modes,
    save_state,
    shared_cm,
    symplectic_eigenvalues,
    symplectic_form,
    validate_cm,
)
from gaussent.core import _cholesky
from gaussent.protocol import ProtocolParams

from helpers import (
    random_physical_cm,
    random_pure_cm,
    random_symmetric,
    random_symplectic,
    rotation,
    sympl_eigs_oracle,
    tmsv_cm,
)


class TestSymplecticForm:
    def test_antisymmetric_squares_to_minus_identity(self):
        for n in (1, 2, 3, 5):
            omega = symplectic_form(n)
            assert np.array_equal(omega, -omega.T)
            assert np.array_equal(omega @ omega, -np.eye(2 * n))

    def test_rejects_nonpositive_mode_count(self):
        with pytest.raises(DimensionMismatchError):
            symplectic_form(0)


class TestValidateCm:
    def test_vacuum_is_valid(self):
        assert np.array_equal(validate_cm(np.eye(6)), np.eye(6))

    def test_squeezed_below_vacuum_is_unphysical(self):
        with pytest.raises(UnphysicalError) as exc:
            validate_cm(np.diag([0.5, 0.5]))
        assert exc.value.smallest_eigenvalue == pytest.approx(0.5, abs=1e-12)

    def test_initial_protocol_cm_is_physical(self):
        cm = initial_cm(ProtocolParams(0.3, 0.1)).cm
        validated = validate_cm(cm)
        assert sympl_eigs_oracle(validated).min() >= 1 - 1e-9

    def test_rejects_asymmetry(self):
        m = np.eye(4)
        m[0, 1] = 1e-6
        with pytest.raises(NotSymmetricError):
            validate_cm(m)

    def test_symmetrizes_tiny_asymmetry(self):
        m = np.eye(4) * 2.0
        m[0, 1] = 1e-11
        out = validate_cm(m)
        assert np.array_equal(out, out.T)

    def test_symmetry_is_judged_relative_to_the_entries(self):
        # a hot rotated squeezed mode: entries of order 1e7 round to an asymmetry above 1e-10
        m = 3.0 * rotation(0.5) @ np.diag([1e7, 1e-7]) @ rotation(0.5).T
        assert np.abs(m - m.T).max() > 1e-10
        out = validate_cm(m)
        assert np.array_equal(out, out.T)
        m = np.diag([3e6, 1e-6])
        m[0, 1] = 1e-3  # at 3e6, the tolerance is 3e-4
        with pytest.raises(NotSymmetricError, match="asymmetry 1.000e-03 exceeds tolerance 3.0e-04"):
            validate_cm(m)

    def test_rejects_odd_dimension(self):
        with pytest.raises(DimensionMismatchError):
            validate_cm(np.eye(5))

    @pytest.mark.parametrize("coupling,p_variance", [(0.0, 1.0), (1e-3, 1.0), (0.0, 1e15)], ids=["0.0", "0.001", "hot"])
    def test_large_mode_does_not_hide_a_violation_in_another(self, coupling, p_variance):
        # ||m||_F is about 1e15, so the norm-scaled slack alone is about 1.8 and would pass nu = 0.5; a hot
        # first mode also has nu = 1e15, which a slack read from the eigensolver's rounding eps nu_max would pass
        m = np.diag([1e15, p_variance, 0.5, 0.5, 1.0, 1.0])
        m[0, 2] = m[2, 0] = coupling
        with pytest.raises(UnphysicalError) as exc:
            validate_cm(m)
        assert exc.value.smallest_eigenvalue == pytest.approx(0.5, abs=1e-9)

    def test_violation_beside_a_rounded_stage_state_is_refused(self):
        # at r = 18 the shared stage's own computed nu_min is about 0.87 (the true value is 1) and
        # ||m||_F is about 4e15, so only the Rayleigh quotient of the second Williamson vector sees 0.9
        m = np.eye(8)
        m[:6, :6] = shared_cm(ProtocolParams(18.0, 0.1))[0].cm
        assert np.array_equal(validate_cm(m), m)
        m[6, 6] = m[7, 7] = 0.9
        with pytest.raises(UnphysicalError):
            validate_cm(m)

    def test_violation_mixed_into_large_modes_is_refused(self):
        # mixed into modes with nu ~ 1e7, nu_min is 1e-5 below 1: outside both rounding bounds,
        # 8 eps ||m||_F ~ 3e-7 and the Rayleigh quotient's 2e-6
        s = random_symplectic(3, np.random.default_rng(29))
        m = s @ np.diag(np.repeat([1.0 - 1e-5, 2e7, 3e7], 2)) @ s.T
        m = 0.5 * (m + m.T)
        with pytest.raises(UnphysicalError, match="smallest symplectic eigenvalue 0.99998"):
            validate_cm(m)

    @pytest.mark.parametrize("draw,printed", [(41, "0.99999935"), (109, "0.99999954")])
    def test_small_violation_beside_modes_up_to_1e8_is_refused(self, draw, printed):
        # a seeded battery of S diag(nu, nu) S^T with nu_min just below 1 and the other modes up to 1e8;
        # these two violations (6.5e-7, 4.5e-7) exceed the smaller rounding bound of their Williamson value
        rng = np.random.default_rng(7)
        for _ in range(draw + 1):
            n = rng.integers(1, 4)
            s = random_symplectic(n, rng, max_squeeze=0.8)
            nu = np.concatenate(([1.0 - 10 ** rng.uniform(-12, -6)], rng.uniform(1.0, 1e8, n - 1)))
        m = s @ np.diag(np.repeat(nu, 2)) @ s.T
        m = 0.5 * (m + m.T)
        with pytest.raises(UnphysicalError, match=f"smallest symplectic eigenvalue {printed}"):
            validate_cm(m)

    def test_large_mode_keeps_the_absolute_slack_of_the_others(self):
        m = np.diag([2.0**50, 2.0**-50, 1.0, 1.0, 1.0, 1.0])
        assert np.array_equal(validate_cm(m), m)
        m[2, 2] = m[3, 3] = 1.0 - 1e-7
        with pytest.raises(UnphysicalError, match="smallest symplectic eigenvalue 0.9999999"):
            validate_cm(m)

    @pytest.mark.parametrize("entries", [
        {(0, 1): np.nan, (1, 0): np.nan},  # a symmetric NaN pair
        {(3, 3): np.inf},
    ])
    def test_rejects_non_finite_entries_without_warnings(self, entries):
        m = np.eye(6)
        for ij, value in entries.items():
            m[ij] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UnphysicalError, match="non-finite"):
                validate_cm(m)

    def test_subnormal_matrix_is_refused_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UnphysicalError, match="smallest symplectic eigenvalue 1e-310 "):
                validate_cm(1e-310 * np.eye(4))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n_modes=st.integers(1, 3),
           nu_min=st.just(1.0) | st.floats(1.0, 3.0) | st.floats(1e-3, 1.0 - 1e-6))
    def test_accepts_exactly_the_physical_williamson_forms(self, seed, n_modes, nu_min):
        # S diag(nu) S^T is physical exactly when its smallest Williamson value is >= 1
        rng = np.random.default_rng(seed)
        nu = np.concatenate(([nu_min], rng.uniform(1.0, 3.0, n_modes - 1)))
        s = random_symplectic(n_modes, rng)
        cm = s @ np.diag(np.repeat(nu, 2)) @ s.T
        cm = 0.5 * (cm + cm.T)
        assert np.allclose(symplectic_eigenvalues(cm), sympl_eigs_oracle(cm), rtol=1e-9, atol=1e-9)
        assert np.allclose(symplectic_eigenvalues(cm), np.sort(nu), rtol=1e-9, atol=1e-9)
        if nu_min >= 1.0:
            assert np.array_equal(validate_cm(cm), cm)
        else:
            with pytest.raises(UnphysicalError):
                validate_cm(cm)


class TestSymplecticEigenvalues:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_vacuum_eigenvalues_are_one(self, n):
        assert np.allclose(symplectic_eigenvalues(np.eye(2 * n)), 1.0, atol=1e-12)

    def test_one_sided_entry_raises_not_symmetric(self):
        # the Cholesky factor reads one triangle only, so an asymmetric matrix must not pass as its symmetrization
        m = np.eye(6)
        m[0, 3] = 5.0
        with pytest.raises(NotSymmetricError, match="asymmetry 5.000e\\+00"):
            symplectic_eigenvalues(m)
        m[0, 3] = 1e-11  # below TAU_SYM
        assert np.allclose(symplectic_eigenvalues(m), 1.0, atol=1e-10)

    def test_single_mode_is_sqrt_det(self):
        assert symplectic_eigenvalues(np.diag([4.0, 1.0]))[0] == pytest.approx(2.0, abs=1e-12)

    def test_two_mode_squeezed_vacuum_is_pure(self):
        nu = symplectic_eigenvalues(tmsv_cm(0.5))
        assert np.allclose(nu, sympl_eigs_oracle(tmsv_cm(0.5)), atol=1e-10)
        assert np.allclose(nu, 1.0, atol=1e-8)

    def test_matches_direct_eigensolve_on_random_symmetric(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            a = rng.normal(size=(6, 6))
            m = a @ a.T + 0.1 * np.eye(6)  # positive definite, not necessarily physical
            assert np.allclose(symplectic_eigenvalues(m), sympl_eigs_oracle(m), atol=1e-8)
        indefinite = random_symmetric(6, rng)
        assert np.linalg.eigvalsh(indefinite).min() < 0
        with pytest.raises(UnphysicalError, match="not positive definite"):
            symplectic_eigenvalues(indefinite)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_entries_raise_without_warnings(self, value):
        m = np.eye(4)
        m[0, 1] = m[1, 0] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UnphysicalError, match="non-finite"):
                symplectic_eigenvalues(m)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_cholesky_refuses_a_non_finite_factor(self, value):
        # LAPACK factors diag(inf, 1) and diag(nan, 1) without error; one such matrix refuses the whole stack
        stack = np.array([np.eye(2), np.diag([value, 1.0])])
        assert np.linalg.cholesky(stack[:1]).tobytes() == _cholesky(stack[:1]).tobytes()
        for m in (stack[1], stack):
            with pytest.raises(UnphysicalError, match="^covariance matrix is not positive definite$"):
                _cholesky(m)

    def test_physical_states_bounded_below_by_one(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            cm = random_physical_cm(3, rng)
            assert symplectic_eigenvalues(cm).min() >= 1 - 1e-9

    def test_pure_states_have_unit_spectrum(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            cm = random_pure_cm(3, rng)
            assert abs(np.linalg.det(cm) - 1) < 1e-9
            assert np.allclose(symplectic_eigenvalues(cm), 1.0, atol=1e-8)


class TestPartialTranspose:
    def test_vacuum_unchanged(self):
        assert np.array_equal(partial_transpose(np.eye(6), [0, 2]), np.eye(6))

    @pytest.mark.pinned
    def test_involution_is_bitwise(self):
        rng = np.random.default_rng(3)
        cm = random_physical_cm(3, rng)
        assert np.array_equal(partial_transpose(partial_transpose(cm, [1]), [1]), cm)

    def test_shared_state_pt_detects_entanglement(self):
        cm, _ = shared_cm(ProtocolParams(0.3, 0.1))
        nu_min = symplectic_eigenvalues(partial_transpose(cm.cm, 0)).min()
        assert nu_min < 1.0

    def test_stack_matches_one_at_a_time(self):
        rng = np.random.default_rng(16)
        stack = np.stack([random_physical_cm(3, rng) for _ in range(6)]).reshape(2, 3, 6, 6)
        flipped = partial_transpose(stack, [0, 2])
        for k in np.ndindex(2, 3):
            assert np.array_equal(flipped[k], partial_transpose(stack[k], [0, 2]))

    def test_bad_mode_raises(self):
        with pytest.raises(BadModeIndexError):
            partial_transpose(np.eye(6), [3])
        with pytest.raises(BadModeIndexError):
            partial_transpose(np.eye(6), [])


class TestCharPolyInvariants:
    def test_vacuum_pins_sign_convention(self):
        # det(Omega - q I) = (q^2 + 1)^3 = q^6 + 3 q^4 + 3 q^2 + 1
        i1, i2, i3 = char_poly_invariants(np.eye(6))
        assert (i1, i2, i3) == pytest.approx((3.0, 3.0, 1.0), abs=1e-12)

    def test_i3_matches_independent_determinant(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            m = random_symmetric(6, rng)
            i3 = char_poly_invariants(m).i3
            det = np.linalg.det(m)
            assert i3 == pytest.approx(det, rel=1e-9, abs=1e-12)

    def test_polynomial_annihilates_spectrum(self):
        rng = np.random.default_rng(9)
        omega = symplectic_form(3)
        for _ in range(500):
            m = random_symmetric(6, rng)
            i1, i2, i3 = char_poly_invariants(m)
            for q in np.linalg.eigvals(omega @ m):
                value = q**6 + i1 * q**4 + i2 * q**2 + i3
                assert abs(value) < 1e-6 * max(1.0, abs(q) ** 6)

    def test_shared_state_sigma_value(self):
        cm, _ = shared_cm(ProtocolParams(0.3, 0.1))
        i1, i2, i3 = char_poly_invariants(partial_transpose(cm.cm, 0))
        sigma = i3 - i2 + i1 - 1
        expected = 8 * np.exp(0.1 - 0.3) * np.sinh(0.1 - 0.3) * np.sinh(0.3) ** 2
        assert sigma == pytest.approx(expected, abs=1e-9)
        assert sigma == pytest.approx(-0.12228832922420, abs=1e-11)

    def test_rejects_wrong_shape(self):
        with pytest.raises(DimensionMismatchError):
            char_poly_invariants(np.eye(4))
        with pytest.raises(DimensionMismatchError):
            char_poly_invariants(np.zeros((2, 4, 4)))

    @pytest.mark.pinned
    def test_stack_is_bitwise_the_per_matrix_minor_sums(self):
        # reference: the principal minors taken one at a time, i1 summed left to
        # right and the 4x4 minors by one np.sum, as a single-matrix loop would
        def reference(cm):
            m = symplectic_form(3) @ cm
            i1 = sum(m[a, a] * m[b, b] - m[a, b] * m[b, a] for a, b in combinations(range(6), 2))
            quads = np.stack([m[np.ix_(c, c)] for c in combinations(range(6), 4)])
            return (float(i1), float(np.linalg.det(quads).sum()), float(np.linalg.det(m)))

        rng = np.random.default_rng(15)
        stack = np.stack([random_symmetric(6, rng, scale) for scale in (0.1, 1.0, 30.0) * 8])
        stack = stack.reshape(4, 6, 6, 6)
        i1, i2, i3 = char_poly_invariants(stack)
        assert i1.shape == i2.shape == i3.shape == (4, 6)
        for k, cm in enumerate(stack.reshape(-1, 6, 6)):
            want = reference(cm)
            assert tuple(char_poly_invariants(cm)) == want
            assert (i1.flat[k], i2.flat[k], i3.flat[k]) == want


class TestReduceModes:
    def test_vacuum_reduction(self):
        assert np.array_equal(reduce_modes(np.eye(6), [0]), np.eye(2))

    def test_mode_order_is_respected(self):
        rng = np.random.default_rng(4)
        cm = random_physical_cm(3, rng)
        swapped = reduce_modes(cm, [2, 0])
        direct = reduce_modes(cm, [0, 2])
        assert np.array_equal(swapped[:2, :2], direct[2:, 2:])
        assert np.array_equal(swapped[:2, 2:], direct[2:, :2])

    def test_shared_state_single_mode_block(self):
        params = ProtocolParams(0.3, 0.1)
        state, blocks = shared_cm(params)
        assert np.array_equal(reduce_modes(state.cm, [0]), blocks.alpha)

    def test_bad_index(self):
        with pytest.raises(BadModeIndexError):
            reduce_modes(np.eye(6), [0, 0])


class TestIsClassical:
    def test_vacuum_is_classical(self):
        assert is_classical(np.eye(2))

    def test_squeezed_mode_is_not(self):
        assert not is_classical(np.diag([np.exp(-0.4), np.exp(0.6)]))

    def test_noisy_marginal_is_classical(self):
        # mode-A marginal of the initial state at (r, eps) = (0.3, 0.1)
        cm = np.diag([1 + np.exp(-0.6) * (np.exp(0.2) - 1), np.exp(0.6)])
        assert is_classical(cm)

    @pytest.mark.parametrize("vx,accepted", [(1.0, True), (1.0 - 1e-6, False)])
    def test_rotated_large_variance(self, vx, accepted):
        # eigvalsh rounds the unit eigenvalue of cm - I by about eps ||cm||, far above TAU_PSD at 1e8
        for theta in np.random.default_rng(3).uniform(0.0, np.pi, 200):
            cm = rotation(theta) @ np.diag([vx, 1e8]) @ rotation(theta).T
            assert is_classical(0.5 * (cm + cm.T)) is accepted

    def test_one_sided_entry_raises_not_symmetric(self):
        # eigvalsh reads one triangle, which here is the vacuum's
        with pytest.raises(NotSymmetricError, match="asymmetry 5.000e\\+00"):
            is_classical(np.array([[1.0, 5.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_entry_raises(self, value):
        with pytest.raises(UnphysicalError, match="1 non-finite"):
            is_classical(np.diag([1.0, value]))


class TestApplySymplectic:
    def test_identity_transform(self):
        state = GaussianState.vacuum(2)
        out = apply_symplectic(state, np.eye(4))
        assert np.array_equal(out.cm, state.cm)
        assert np.array_equal(out.displacement, state.displacement)

    def test_beam_splitter_on_vacua_is_trivial(self):
        out = apply_symplectic(GaussianState.vacuum(2), beam_splitter(2, 0, 1))
        assert np.allclose(out.cm, np.eye(4), atol=1e-15)

    def test_determinant_preserved_by_symplectics(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            cm = random_physical_cm(3, rng)
            s = random_symplectic(3, rng)
            out = apply_symplectic(GaussianState(cm), s)
            assert np.linalg.det(out.cm) == pytest.approx(np.linalg.det(cm), rel=1e-9)

    def test_reduce_commutes_when_transform_acts_on_kept_modes(self):
        rng = np.random.default_rng(13)
        cm = random_physical_cm(3, rng)
        big = apply_symplectic(GaussianState(cm), beam_splitter(3, 0, 1))
        small = apply_symplectic(GaussianState(reduce_modes(cm, [0, 1])), beam_splitter(2, 0, 1))
        assert np.allclose(reduce_modes(big.cm, [0, 1]), small.cm, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            apply_symplectic(GaussianState.vacuum(2), np.eye(6))


class TestStateJson:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(14)
        state = GaussianState(random_physical_cm(2, rng), rng.normal(size=4))
        path = tmp_path / "state.json"
        save_state(state, path)
        loaded = load_state(path)
        assert np.allclose(loaded.cm, state.cm, atol=1e-12)
        assert np.array_equal(loaded.displacement, state.displacement)

    # a physical matrix with up to four entries replaced, by any float or by NaN, an infinity, -0 or a subnormal
    @settings(max_examples=200, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**32 - 1), displaced=st.booleans(),
           entries=st.dictionaries(st.integers(0, 35), st.floats() | st.sampled_from(
               [np.nan, np.inf, -np.inf, -0.0, 5e-324, -1e-310, 2.2250738585072014e-308]), max_size=4))
    def test_writer_is_the_indented_dump_and_reads_back(self, tmp_path, seed, displaced, entries):
        rng = np.random.default_rng(seed)
        cm = random_physical_cm(3, rng)
        for k, v in entries.items():
            cm.flat[k] = v
        state = GaussianState(cm, rng.normal(size=6) if displaced else None)
        path = tmp_path / "state.json"
        save_state(state, path)
        assert path.read_text() == json.dumps(state.to_json_dict(), indent=2) + "\n"
        # the file holds every entry's repr, so reading it is the gate on the matrix itself
        try:
            want = validate_cm(cm)
        except GaussentError as exc:
            with pytest.raises(type(exc)) as got:
                load_state(path)
            assert str(got.value) == str(exc)
        else:
            assert load_state(path).cm.tobytes() == want.tobytes()

    def test_reader_enforces_physicality(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n_modes": 1, "cm": [0.5, 0, 0, 0.5]}))
        with pytest.raises(UnphysicalError):
            load_state(path)

    def test_reader_checks_length(self, tmp_path):
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"n_modes": 2, "cm": [1.0] * 4}))
        with pytest.raises(DimensionMismatchError):
            load_state(path)

    def test_displacement_length_checked(self):
        with pytest.raises(DimensionMismatchError):
            GaussianState(np.eye(4), np.zeros(3))
