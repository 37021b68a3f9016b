import hashlib

import numpy as np
import pytest

from gaussent import (
    BadCountError,
    BadModeIndexError,
    DimensionMismatchError,
    GaussianState,
    MeasurementSpec,
    NotSymmetricError,
    NotSymplecticError,
    SingularConditioningError,
    SymplecticTransform,
    UnphysicalError,
    apply_symplectic,
    beam_splitter,
    condition_on_measurement,
    embed_vacuum,
    initial_cm,
    mode_permutation,
    reduce_modes,
    sample_preparation,
    shared_cm,
    symplectic_form,
    two_mode_metrics,
)
from gaussent.ops import HOMODYNE_SV_CUTOFF, _condition, _preparation_cm
from gaussent.protocol import ProtocolParams

from helpers import pt_mu_oracle, random_physical_cm


class TestBeamSplitter:
    def test_plus_block(self):
        s = beam_splitter(2, 0, 1, "plus").matrix
        c = 1 / np.sqrt(2)
        expected = c * np.block([[np.eye(2), np.eye(2)], [np.eye(2), -np.eye(2)]])
        assert np.allclose(s, expected, atol=1e-15)

    def test_minus_block(self):
        s = beam_splitter(2, 0, 1, "minus").matrix
        c = 1 / np.sqrt(2)
        expected = c * np.block([[np.eye(2), -np.eye(2)], [np.eye(2), np.eye(2)]])
        assert np.allclose(s, expected, atol=1e-15)

    @pytest.mark.parametrize("variant", ["plus", "minus"])
    def test_orthogonal_and_symplectic(self, variant):
        s = beam_splitter(3, 2, 0, variant).matrix
        omega = symplectic_form(3)
        assert np.abs(s @ s.T - np.eye(6)).max() < 1e-10
        assert np.abs(s @ omega @ s.T - omega).max() < 1e-10

    def test_bad_modes(self):
        with pytest.raises(BadModeIndexError):
            beam_splitter(2, 0, 2)
        with pytest.raises(BadModeIndexError):
            beam_splitter(2, 1, 1)

    def test_bad_variant(self):
        with pytest.raises(ValueError):
            beam_splitter(2, 0, 1, "both")

    def test_constructor_rejects_non_symplectic(self):
        with pytest.raises(NotSymplecticError):
            SymplecticTransform(np.diag([2.0, 2.0]))


class TestModePermutation:
    def test_swap_is_symplectic_involution(self):
        s = mode_permutation(3, [1, 0, 2]).matrix
        assert np.array_equal(s @ s, np.eye(6))

    def test_rejects_partial_permutation(self):
        with pytest.raises(BadModeIndexError):
            mode_permutation(3, [0, 1])


class TestEmbedVacuum:
    def test_vacuum_grows_to_vacuum(self):
        out = embed_vacuum(GaussianState.vacuum(1), 0)
        assert np.array_equal(out.cm, np.eye(4))

    def test_embed_then_reduce_round_trips(self):
        params = ProtocolParams(0.4, 0.2)
        state = initial_cm(params)
        embedded = embed_vacuum(state, 1)
        assert np.array_equal(reduce_modes(embedded.cm, [0, 2]), state.cm)
        assert np.array_equal(reduce_modes(embedded.cm, [1]), np.eye(2))

    def test_pipeline_reproduces_shared_state(self):
        params = ProtocolParams(0.3, 0.1)
        piped = apply_symplectic(embed_vacuum(initial_cm(params), 1), beam_splitter(3, 0, 1))
        closed, _ = shared_cm(params)
        assert np.abs(piped.cm - closed.cm).max() < 1e-12

    def test_position_out_of_range(self):
        with pytest.raises(BadModeIndexError):
            embed_vacuum(GaussianState.vacuum(1), 2)


class TestMeasurementSpec:
    def test_general_needs_physical_seed(self):
        with pytest.raises(UnphysicalError):
            MeasurementSpec.general_gaussian(0, np.diag([0.5, 0.5]))
        with pytest.raises(ValueError):
            MeasurementSpec(0, "general-gaussian")

    def test_homodyne_takes_no_seed(self):
        with pytest.raises(ValueError):
            MeasurementSpec(0, "homodyne-x", np.eye(2))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            MeasurementSpec(0, "heterodyne")

    def test_stack_with_one_unphysical_seed_raises(self):
        seeds = np.stack([np.eye(2), np.diag([4.0, 0.25]), np.diag([0.5, 0.5])])
        MeasurementSpec.general_gaussian(0, seeds[:2])
        with pytest.raises(UnphysicalError):
            MeasurementSpec.general_gaussian(0, seeds)
        # strongly squeezed seeds whose det (1e-3, 1e-2) is far below 1, not rounding error
        for seed in (np.diag([1e6, 1e-9]), np.diag([1e5, 1e-7])):
            with pytest.raises(UnphysicalError):
                MeasurementSpec.general_gaussian(0, np.stack([np.eye(2), seed]))

    def test_seed_symmetry_is_judged_relative_to_its_entries(self):
        # a seed of the measurement scan's grid: entries of order 1e6, rounded to an asymmetry above 1e-10
        theta = 37 * np.pi / 200
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        seed = rot @ np.diag([1e-6, 1e6]) @ rot.T
        assert np.abs(seed - seed.T).max() > 1e-10
        MeasurementSpec.general_gaussian(0, np.stack([np.eye(2), seed]))
        with pytest.raises(NotSymmetricError, match="asymmetry 1.000e-03"):
            MeasurementSpec.general_gaussian(0, np.array([[1.0, 1e-3], [0.0, 1.0]]))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_seed_is_refused_at_construction(self, value):
        # refused before the det rule, so no numpy warning reaches the suite's error filter
        seed = np.eye(2)
        seed[1, 1] = value
        for seeds in (seed, np.stack([np.eye(2), seed])):
            with pytest.raises(UnphysicalError, match="^covariance matrix has 1 non-finite entries$"):
                MeasurementSpec.general_gaussian(0, seeds)

    def test_seed_must_be_two_by_two(self):
        with pytest.raises(DimensionMismatchError, match="seed_cm must be 2x2"):
            MeasurementSpec.general_gaussian(0, np.eye(3))


class TestConditioning:
    def test_product_state_is_untouched(self):
        rng = np.random.default_rng(21)
        cm = np.zeros((6, 6))
        cm[:4, :4] = random_physical_cm(2, rng)
        cm[4:, 4:] = random_physical_cm(1, rng)
        state = GaussianState(cm)
        for spec in (MeasurementSpec.homodyne_x(2), MeasurementSpec.general_gaussian(2, np.diag([2.0, 1.0]))):
            out = condition_on_measurement(state, spec)
            assert np.array_equal(out.cm, cm[:4, :4])

    def test_homodyne_x_matches_closed_form_variance(self):
        # conditioned mu at (r, eps) = (0.4, 0.1); value recomputed from the
        # conditional-variance expression sqrt(1 + e^{-2r}(e^{2eps}-1)
        #   - (e^{-2r}-1)^2 / (2 - e^{-2r})) = 0.9507520876882701
        state, _ = shared_cm(ProtocolParams(0.4, 0.1))
        out = condition_on_measurement(state, MeasurementSpec.homodyne_x(2))
        mu = two_mode_metrics(out.cm).mu
        assert mu == pytest.approx(pt_mu_oracle(out.cm), abs=1e-10)
        em = np.exp(-0.8)
        expected = np.sqrt(1 + em * (np.exp(0.2) - 1) - (em - 1) ** 2 / (2 - em))
        assert mu == pytest.approx(expected, abs=1e-12)
        assert mu == pytest.approx(0.9507520876882701, abs=1e-12)

    def test_strong_x_squeezed_seed_approaches_homodyne_x(self):
        state, _ = shared_cm(ProtocolParams(0.4, 0.1))
        hx = condition_on_measurement(state, MeasurementSpec.homodyne_x(2))
        t = 1e-6  # seed diag(t, 1/t): vanishing position variance
        gen = condition_on_measurement(
            state, MeasurementSpec.general_gaussian(2, np.diag([t, 1 / t]))
        )
        assert np.abs(gen.cm - hx.cm).max() < 1e-5

    def test_strong_p_squeezed_seed_approaches_homodyne_p(self):
        state, _ = shared_cm(ProtocolParams(0.4, 0.1))
        hp = condition_on_measurement(state, MeasurementSpec.homodyne_p(2))
        t = 1e6
        gen = condition_on_measurement(
            state, MeasurementSpec.general_gaussian(2, np.diag([t, 1 / t]))
        )
        assert np.abs(gen.cm - hp.cm).max() < 1e-5

    def test_homodyne_p_on_protocol_state_equals_reduction(self):
        # the measured mode carries no momentum correlations, so homodyne-p
        # learns nothing about the kept pair
        state, _ = shared_cm(ProtocolParams(0.4, 0.1))
        out = condition_on_measurement(state, MeasurementSpec.homodyne_p(2))
        assert np.allclose(out.cm, reduce_modes(state.cm, [0, 1]), atol=1e-12)

    def test_conditioned_state_is_exchange_symmetric(self):
        state, _ = shared_cm(ProtocolParams(0.5, 0.2))
        out = condition_on_measurement(state, MeasurementSpec.homodyne_x(2))
        swap = mode_permutation(2, [1, 0]).matrix
        assert np.abs(swap @ out.cm @ swap.T - out.cm).max() < 1e-10

    def test_singular_conditioning_raises(self):
        cm = np.eye(6)
        cm[4, 4] = 0.0  # deliberately broken measured block
        state = GaussianState(cm)
        with pytest.raises(SingularConditioningError):
            condition_on_measurement(
                state, MeasurementSpec.general_gaussian(2, np.diag([1e-14, 1e14]))
            )
        seeds = np.stack([np.diag([2.0, 0.5]), np.diag([1e-14, 1e14])])
        with pytest.raises(SingularConditioningError):
            _condition(cm, MeasurementSpec.general_gaussian(2, seeds))

    def test_stacked_seeds_match_one_at_a_time(self):
        state, _ = shared_cm(ProtocolParams(0.4, 0.1))
        seeds = np.stack([np.diag([1e-3, 1e3]), np.eye(2), [[2.0, 0.5], [0.5, 1.0]]])
        stacked, _ = _condition(state.cm, MeasurementSpec.general_gaussian(2, seeds))
        for seed, out in zip(seeds, stacked):
            one = condition_on_measurement(state, MeasurementSpec.general_gaussian(2, seed))
            assert np.array_equal(out, one.cm)

    def test_homodyne_below_cutoff_returns_kept_block(self):
        cm = np.eye(6)
        cm[4, 4] = HOMODYNE_SV_CUTOFF / 2  # measured x variance below the cutoff
        cm[0, 4] = cm[4, 0] = 0.3
        out = condition_on_measurement(GaussianState(cm), MeasurementSpec.homodyne_x(2))
        assert np.array_equal(out.cm, cm[:4, :4])

    @pytest.mark.parametrize("kind", ["homodyne-x", "homodyne-p"])
    def test_stacked_homodyne_matches_one_at_a_time(self, kind):
        below = np.eye(6)
        below[4, 4] = below[5, 5] = HOMODYNE_SV_CUTOFF / 2  # conditions nothing
        below[0, 4] = below[4, 0] = below[1, 5] = below[5, 1] = 0.3
        cms = np.stack([shared_cm(ProtocolParams(0.4, 0.1))[0].cm, below, shared_cm(ProtocolParams(1.1, 0.7))[0].cm])
        spec = MeasurementSpec(2, kind)
        stacked, _ = _condition(cms, spec)
        for cm, out in zip(cms, stacked):
            assert np.array_equal(out, condition_on_measurement(GaussianState(cm), spec).cm)
        assert np.array_equal(stacked[1], below[:4, :4])

    def test_one_mode_state_is_refused(self):
        with pytest.raises(DimensionMismatchError, match="at least two modes"):
            condition_on_measurement(GaussianState.vacuum(1), MeasurementSpec.homodyne_x(0))

    def test_non_finite_state_is_refused(self):
        state = GaussianState(np.diag([np.nan, 1.0, 1.0, 1.0, 1.0, 1.0]))
        with pytest.raises(UnphysicalError, match="1 non-finite"):
            condition_on_measurement(state, MeasurementSpec.homodyne_x(2))

    def test_one_sided_state_is_refused(self):
        # the kept block would read one triangle's correlation and print it as a symmetric result
        cm = np.eye(6)
        cm[0, 4] = 0.5
        with pytest.raises(NotSymmetricError, match="asymmetry 5.000e-01"):
            condition_on_measurement(GaussianState(cm), MeasurementSpec.homodyne_x(2))


class TestSamplePreparation:
    def test_rejects_tiny_count(self):
        with pytest.raises(BadCountError):
            sample_preparation(ProtocolParams(0.3, 0.1), 1, 0)

    def test_model_cm_matches_protocol_initial_cm(self):
        for r, eps in [(0.0, 0.0), (0.3, 0.1), (1.0, 0.5), (0.2, 0.7)]:
            model = _preparation_cm(r, eps)
            closed = initial_cm(ProtocolParams(r, eps)).cm
            assert np.abs(model - closed).max() < 1e-14

    def test_analytic_cm_is_bitwise_the_initial_stage(self):
        for r, eps in np.random.default_rng(61).uniform(0.0, 3.0, (200, 2)).tolist():
            params = ProtocolParams(r, eps)
            assert np.array_equal(sample_preparation(params, 2, 0).analytic_cm, initial_cm(params).cm)

    def test_zero_squeezing_targets_vacuum(self):
        batch = sample_preparation(ProtocolParams(0.0, 0.0), 50_000, 7)
        assert np.array_equal(batch.analytic_cm, np.eye(4))
        assert batch.max_abs_dev < 0.05

    def test_empirical_cm_converges_to_analytic(self):
        batch = sample_preparation(ProtocolParams(0.3, 0.1), 200_000, 123)
        assert batch.max_abs_dev < 0.025
        max_var = batch.analytic_cm.diagonal().max() / 2
        bound = 5 * np.sqrt(max_var / batch.count)
        assert np.abs(batch.empirical_mean).max() < bound

    def test_same_seed_is_bitwise_reproducible(self):
        a = sample_preparation(ProtocolParams(0.3, 0.1), 10_000, 99)
        b = sample_preparation(ProtocolParams(0.3, 0.1), 10_000, 99)
        assert np.array_equal(a.empirical_cm, b.empirical_cm)
        assert np.array_equal(a.empirical_mean, b.empirical_mean)

    @pytest.mark.parametrize("r,eps,seed,digest", [
        (0.3, 0.1, 1, "919b43d991c9570a31d7626b66c8097955dedace7ff5709a850ef68bbef09e3d"),
        (1.2, 0.5, 7, "6d2a20933ca24967d0e38c21e0b36ee17a919e1ea3a5e291bb71026853a70454"),
        (0.05, 2.0, 2016, "c22be9bf73980fc8ff743e49bf713b6c395953b2bd868e56604796f207113231"),
    ])
    def test_pinned_pcg64_stream(self, r, eps, seed, digest):
        # digests taken when each quadrature had its own rng.normal call; the
        # one-call draw must reproduce that stream bit for bit
        batch = sample_preparation(ProtocolParams(r, eps), 5000, seed)
        data = batch.empirical_cm.tobytes() + batch.empirical_mean.tobytes()
        assert hashlib.sha256(data).hexdigest() == digest

    def test_rms_error_scales_as_inverse_sqrt_count(self):
        params = ProtocolParams(0.3, 0.1)
        ratios = []
        for seed in range(12):
            small = sample_preparation(params, 40_000, seed)
            large = sample_preparation(params, 80_000, seed + 1000)
            rms = lambda b: np.sqrt(np.mean((b.empirical_cm - b.analytic_cm) ** 2))
            ratios.append(rms(large) / rms(small))
        assert np.mean(ratios) == pytest.approx(1 / np.sqrt(2), rel=0.2)

    def test_json_dict_schema(self):
        batch = sample_preparation(ProtocolParams(0.3, 0.1), 1000, 5)
        payload = batch.to_json_dict()
        assert set(payload) == {
            "count", "seed", "empirical_cm", "empirical_mean", "analytic_cm", "max_abs_dev",
        }
        assert payload["count"] == 1000
        assert payload["max_abs_dev"] == batch.max_abs_dev
