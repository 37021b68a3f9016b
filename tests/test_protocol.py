import functools
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussent import (
    DomainError,
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
    partial_transpose,
    reduce_modes,
    reduced_pair_cm,
    shared_cm,
    splitting_sigma,
    stage_state,
    sweep_profile,
    symplectic_eigenvalues,
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
from gaussent.core import _quadratures
from gaussent.separability import _splittings

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

    @pytest.mark.parametrize("eps", [0.1, 0.7, 3.0])
    def test_both_routes_reduce_to_the_same_pair(self, eps):
        # bit for bit, so sweep_profile may read mu_pair from the pair builder; tobytes so signed zeros count
        rs = np.concatenate((np.linspace(0.0, 1.5, 11), np.linspace(2.0, 18.0, 17)))
        for r in [rs, *rs.tolist()]:
            b = protocol._blocks(r, eps)
            pair = protocol._reduced_pair_matrix(b)
            for stage, modes in ((STAGE_FINAL_VIA_APRIME, [0, 2]), (STAGE_FINAL_VIA_A, [1, 2])):
                quads = _quadratures(modes)
                sliced = protocol._stage_matrix(b, stage)[..., quads[:, None], quads]
                assert (sliced.shape, sliced.tobytes()) == (pair.shape, pair.tobytes()), stage
            if np.ndim(r) == 0:
                params = ProtocolParams(r, eps)
                assert reduce_modes(final_cm(params, ROUTE_VIA_APRIME).cm, [0, 2]).tobytes() == pair.tobytes()
                assert reduce_modes(final_cm(params, ROUTE_VIA_A).cm, [1, 2]).tobytes() == pair.tobytes()

    @pytest.mark.parametrize("eps", [0.001, 0.7, 3.0])
    def test_sweep_profile_is_bitwise_the_one_state_functions(self, eps):
        # mu_pair comes from the reduced pair, which is bit for bit the A-B pair of the final state via A'
        rs = np.concatenate((np.linspace(0.0, 1.5, 11), [4.0, 8.0, 12.0]))
        profile = sweep_profile(rs, eps)
        assert np.array_equal(profile["r"], rs)
        for k, r in enumerate(rs.tolist()):
            params = ProtocolParams(r, eps)
            assert profile["mu_pair"][k] == two_mode_metrics(reduced_pair_cm(params)).mu
            assert profile["mu_m"][k] == mu_m(params)
            assert profile["sigma_shared_A"][k] == splitting_sigma(shared_cm(params)[0].cm, 0).sigma
            assert profile["class_final"][k] == classify_three_mode(final_cm(params, ROUTE_VIA_APRIME).cm).class_label

    def test_sweep_profile_is_bitwise_the_one_state_functions_on_a_fine_grid(self):
        # at r = 0.156 a float64 scalar's ** (C pow) rounds delta_tilde^2 one ulp
        # away from the product an array's ** forms, so the kernel squares by product
        rs = np.linspace(0.0, 0.6, 601)
        profile = sweep_profile(rs, 0.1)
        pair = [two_mode_metrics(reduced_pair_cm(ProtocolParams(r, 0.1))).mu for r in rs.tolist()]
        assert np.array_equal(profile["mu_pair"], pair)
        assert np.array_equal(profile["mu_m"], [mu_m(ProtocolParams(r, 0.1)) for r in rs.tolist()])

    def test_mu_m_is_bitwise_the_sweep_column_where_pow_rounded_apart(self):
        # here a float64 scalar's ** rounds (exp(-2r) - 1)^2 one ulp away from an array's product
        r, eps = 1.4135713244209003, 0.9045877914410432
        assert sweep_profile([r], eps)["mu_m"][0] == mu_m(ProtocolParams(r, eps)) == 0.9198272463370877

    @pytest.mark.parametrize("r,eps", [([0.1, float("nan")], 0.1), ([0.1, -0.2], 0.1), ([0.1], float("inf"))])
    def test_sweep_profile_rejects_bad_input(self, r, eps):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            sweep_profile(r, eps)

    def test_bad_route(self):
        with pytest.raises(ValueError, match="route must be"):
            final_cm(ProtocolParams(0.1, 0.1), "via-B")

    @pytest.mark.parametrize("eps", [0.1, 0.7, 3.0])
    def test_array_builders_are_bitwise_the_scalar_wrappers(self, eps):
        rs = np.concatenate((np.linspace(0.0, 1.5, 11), np.linspace(2.0, 18.0, 17)))
        blocks = protocol._blocks(rs, eps)
        shared = protocol._stage_matrix(blocks, STAGE_SHARED)
        finals = {route: protocol._stage_matrix(blocks, "final-" + route) for route in (ROUTE_VIA_APRIME, ROUTE_VIA_A)}
        pair = protocol._reduced_pair_matrix(blocks)
        mus = protocol._mu_m(rs, eps)
        assert shared.shape == (28, 6, 6) and pair.shape == (28, 4, 4)
        assert np.any(rs < threshold_r_l(eps)) and np.any(rs > threshold_r_l(eps))
        for k, r in enumerate(rs.tolist()):
            params = ProtocolParams(r, eps)
            assert np.array_equal(shared[k], shared_cm(params)[0].cm)
            for route, stack in finals.items():
                assert np.array_equal(stack[k], final_cm(params, route).cm)
            assert np.array_equal(pair[k], reduced_pair_cm(params))
            assert mus[k] == mu_m(params)

    @pytest.mark.parametrize("eps", [0.1, 0.7, 3.0])
    def test_stage_builders_are_bitwise_np_block(self, eps):
        # the np.block expressions the concatenating builders replaced; tobytes so signed zeros count
        rs = np.concatenate((np.linspace(0.0, 1.5, 11), np.linspace(2.0, 18.0, 17)))
        for r in [rs, *rs.tolist()]:
            b = protocol._blocks(r, eps)
            al, be, ta, de, s = b.alpha, b.beta, b.tau, b.delta, np.sqrt(2.0)
            reference = {
                STAGE_SHARED: np.block([[al, de, ta], [de, al, ta], [ta, ta, be]]),
                STAGE_FINAL_VIA_APRIME: np.block([
                    [al, (ta - de) / s, (ta + de) / s],
                    [(ta - de) / s, (al + be - 2.0 * ta) / 2.0, (be - al) / 2.0],
                    [(ta + de) / s, (be - al) / 2.0, (al + be + 2.0 * ta) / 2.0],
                ]),
                STAGE_FINAL_VIA_A: np.block([
                    [(al + be - 2.0 * ta) / 2.0, (de - ta) / s, (al - be) / 2.0],
                    [(de - ta) / s, al, (de + ta) / s],
                    [(al - be) / 2.0, (de + ta) / s, (al + be + 2.0 * ta) / 2.0],
                ]),
            }
            built = {stage: protocol._stage_matrix(b, stage) for stage in reference}
            reference["pair"] = np.block([[al, (de + ta) / s], [(de + ta) / s, (al + be + 2.0 * ta) / 2.0]])
            built["pair"] = protocol._reduced_pair_matrix(b)
            for key, expected in reference.items():
                assert (built[key].shape, built[key].tobytes()) == (expected.shape, expected.tobytes()), key

    def test_shared_stage_is_bitwise_its_a_aprime_swap(self):
        # the homodyne root hands these stacks to the kernel with no bisymmetry check; their exchange
        # symmetry is structural: A and A' hold the same blocks, so the swap is exact, not within a tolerance
        swap = _quadratures([1, 0, 2])
        rs = np.concatenate((np.linspace(0.0, 5.0, 51), np.linspace(6.0, 18.0, 13)))
        for eps in (0.0, 1e-6, 0.1, 0.7, 3.0, 4.99, 30.0, 300.0):
            for r in [rs, *rs[::7].tolist()]:
                shared = protocol._stage_matrix(protocol._blocks(r, eps), STAGE_SHARED)
                assert np.array_equal(shared[..., swap[:, None], swap], shared)


#: (r_e, r_m) by epsilon: their closed forms at 80 digits, rounded to float64 (``tests/derive_closed_forms.py``).
THRESHOLD_REFERENCE = {
    1e-15: (1.0606601717798214e-15, 2.23606802749979e-08),
    1e-12: (1.0606601717797683e-12, 7.071072811866653e-07),
    1e-8: (1.0606601712501608e-08, 7.071567823650589e-05),
    1e-4: (0.0001060654875423661, 0.007121185663584908),
    1e-3: (0.0010606072305761752, 0.022864406741232843),
    0.1: (0.10556094378469452, 0.27735154257026773),
    1: (1.027637224042202, 1.3287272270765387),
    3: (3.0321263264454648, 3.346263457850675),
    30: (30.032210670111592, 30.346573590279974),
    300: (300.03221067011157, 300.34657359027995),
}


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

    @pytest.mark.parametrize("eps", sorted(THRESHOLD_REFERENCE))
    def test_full_precision_against_the_reference(self, eps):
        # within 2 ulp: at small noise, 1 - exp(-2 eps) and a log of a number near 1 would cancel the leading digits
        want_e, want_m = THRESHOLD_REFERENCE[eps]
        assert abs(threshold_r_e(eps) - want_e) <= 4e-16 * want_e
        assert abs(threshold_r_m(eps) - want_m) <= 4e-16 * want_m

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            threshold_r_e(-0.1)

    def test_r_l_refuses_an_overflowed_argument(self):
        # exp(2 epsilon) overflows at 400, making the arccos argument inf * 0 = NaN
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DomainError, match=r"^arccos argument nan outside"):
                threshold_r_l(400.0)
            with pytest.raises(DomainError, match=r"^arccos argument \[.* nan\] outside"):
                gap_profile([0.1, 400.0])

    @pytest.mark.parametrize("fn", [threshold_r_e, threshold_r_m, threshold_r_l, gap_profile])
    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), -0.1])
    def test_bad_noise_rejected(self, fn, eps):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            fn(eps if fn is not gap_profile else [0.1, eps])
        with pytest.raises(ValueError, match="finite and nonnegative"):
            fn(np.array([0.1, eps, 0.2]))

    @settings(max_examples=30, deadline=None, derandomize=True)
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

    @settings(max_examples=40, deadline=None, derandomize=True)
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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("eps", [5.0, 21.4, 23.75, 50.0, 300.0, 400.0, 700.0])
    def test_no_crossing_from_r_max_on(self, eps, monkeypatch):
        # both thresholds are epsilon plus a nonnegative log1p, so no crossing lies on [0, 5]; scanning mu
        # there found spurious roots near 21.4 and 23.75, read 0.0 from 300 and warned from about 355
        def mu(r, epsilon):
            raise AssertionError("mu is not called")

        monkeypatch.setattr(protocol, "_pair_mu", mu)
        monkeypatch.setattr(protocol, "_homodyne_mu", mu)
        for root in (numeric_threshold_r_e, numeric_threshold_r_m):
            with pytest.raises(NumericalFailureError, match=r"^no threshold crossing found on \[0, 5\.0\]$"):
                root(eps)


def _one_midpoint_bisect(mu, epsilon, lo, hi):
    """Reference: one-midpoint bisection of ``[lo, hi]``, one one-element call of ``mu`` per step."""
    def f(r):
        return float(mu(np.array([r]), epsilon)[0]) - 1.0

    flo = f(lo)
    while hi - lo > protocol._ROOT_XTOL:
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if np.sign(fmid) == np.sign(flo):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@functools.cache
def _reference_roots(mu):
    """Hex roots of ``TestBisectionPath.EPSILONS``: the bracket of a scan on the threshold grid,
    then :func:`_one_midpoint_bisect`."""
    grid = np.concatenate(([0.0], np.logspace(-9.0, np.log10(5.0), 120)))
    roots = []
    for eps in TestBisectionPath.EPSILONS:
        vals = mu(grid, eps) - 1.0
        above = np.flatnonzero(vals > protocol._NOISE_FLOOR)
        if not above.size:
            roots.append(0.0.hex())
            continue
        k = above[-1] + np.flatnonzero(vals[above[-1]:] <= 0.0)[0]
        roots.append(float(_one_midpoint_bisect(mu, eps, grid[k - 1], grid[k])).hex())
    return roots


class TestBisectionPath:
    """The path walker must return the bits of one-midpoint bisection, whatever its hint."""

    EPSILONS = [0.0, *np.logspace(-6.0, -4.0, 41).tolist(), *np.random.default_rng(8).uniform(0.0, 4.0, 40).tolist()]
    #: The closed-form hint and wrong ones, as functions of the closed form.
    HINTS = {
        "closed-form": lambda x: x,
        "rel-1e-9": lambda x: x * (1.0 - 1e-9),
        "rel+1e-7": lambda x: x * (1.0 + 1e-7),
        "rel+1e-3": lambda x: x * (1.0 + 1e-3),
        "plus-0.3": lambda x: x + 0.3,
        "zero": lambda x: 0.0,
        "nan": lambda x: float("nan"),
        "beyond-grid": lambda x: 7.0,
    }

    @pytest.mark.parametrize("mu,closed", [(protocol._pair_mu, threshold_r_e), (protocol._homodyne_mu, threshold_r_m)],
                             ids=["r_e", "r_m"])
    @pytest.mark.parametrize("hint", list(HINTS))
    def test_roots_bitwise_equal_to_one_midpoint_bisection(self, mu, closed, hint):
        walked = [protocol._threshold_root(mu, eps, self.HINTS[hint](closed(eps))) for eps in self.EPSILONS]
        assert [float(x).hex() for x in walked] == _reference_roots(mu)

    @pytest.mark.parametrize("name,root", [("_pair_mu", numeric_threshold_r_e), ("_homodyne_mu", numeric_threshold_r_m)],
                             ids=["r_e", "r_m"])
    def test_one_mu_call_per_pinned_root(self, name, root, monkeypatch):
        calls, mu = [], getattr(protocol, name)
        monkeypatch.setattr(protocol, name, lambda r, epsilon: calls.append(epsilon) or mu(r, epsilon))
        for eps in PINNED_EPSILONS.tolist():
            root(eps)
        assert calls == PINNED_EPSILONS.tolist()

    def test_exact_zero_midpoint_is_returned(self):
        # c is the third midpoint of the grid bracket around r = 1: m1, then m2, then c
        grid = protocol._ROOT_GRID
        k = np.searchsorted(grid, 1.0)
        lo, hi = grid[k - 1], grid[k]
        m1 = 0.5 * (lo + hi)
        m2 = 0.5 * (lo + m1)
        c = 0.5 * (m2 + m1)
        calls = []

        def mu(r, epsilon):
            calls.append(r.size)
            return 1.0 + (c - r)  # exactly 1.0 at r = c

        assert protocol._threshold_root(mu, 0.0, c) == c
        assert len(calls) == 1
        assert protocol._threshold_root(mu, 0.0, float("nan")) == c == _one_midpoint_bisect(mu, 0.0, lo, hi)

    def test_bracket_already_narrow(self, monkeypatch):
        lo, hi = 0.25, 0.25 + 0.5 * protocol._ROOT_XTOL
        monkeypatch.setattr(protocol, "_ROOT_GRID", np.array([0.0, lo, hi, 1.0]))
        calls = []

        def mu(r, epsilon):
            calls.append(r.size)
            return np.where(r <= lo, 1.5, 0.5)

        # a hint inside the bracket predicts no midpoint, so the one call is the grid's
        assert protocol._threshold_root(mu, 0.0, lo + 0.25 * protocol._ROOT_XTOL) == 0.5 * (lo + hi)
        assert calls == [4]
        # a hint elsewhere evaluates a path the walk never reads, and needs no second call
        assert protocol._threshold_root(mu, 0.0, 0.6) == 0.5 * (lo + hi)
        assert len(calls) == 2

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(eps=st.floats(0.0, 4.0), r=st.lists(st.floats(0.0, 5.0), min_size=160, max_size=160))
    def test_array_calls_are_bitwise_per_element(self, eps, r):
        # one call evaluates the grid and the predicted path; each value must be the one-element value
        for mu in (protocol._pair_mu, protocol._homodyne_mu):
            single = np.array([mu(np.array([x]), eps)[0] for x in r])
            for n in (15, 63, 160):
                assert mu(np.array(r[:n]), eps).tobytes() == single[:n].tobytes()


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
        gaps = gap_profile(np.linspace(0.001, 3.0, 60))["gap"].tolist()
        assert all(g > 0 for g in gaps)
        assert all(b >= a for a, b in zip(gaps, gaps[1:]))

    def test_report_is_the_profile_entry(self):
        grid = np.linspace(0.0, 5.0, 23)
        profile = gap_profile(grid)
        for k, eps in enumerate(grid.tolist()):
            assert threshold_report(eps).to_json_dict() == {name: col[k] for name, col in profile.items()}

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
        assert list(payload) == ["epsilon", "r_l", "r_e", "r_m", "gap"]


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
        _, entangled, boundary, labels = _splittings(protocol._stage_matrix(protocol._blocks(r, 3.0), STAGE_SHARED))
        assert (labels == "ppt-all-splittings").all()
        assert not entangled.any()
        assert boundary[:, 2].all() and not boundary[1:, :2].any()  # sigma_A is 0 at r = 0 only

    def test_unknown_stage(self):
        with pytest.raises(ValueError):
            stage_state(ProtocolParams(0.1, 0.1), "halfway")


def pure_products(count):
    """Seeded pure ``(A, A')`` states times a pure ``B``: the A-A' pair is a random
    pure two-mode state in even draws and a product of pure modes in odd ones."""
    rng = np.random.default_rng(52)
    for k in range(count):
        cm = np.zeros((6, 6))
        if k % 2 == 0:
            cm[:4, :4] = random_pure_cm(2, rng)
        else:
            cm[:2, :2], cm[2:4, 2:4] = random_pure_cm(1, rng), random_pure_cm(1, rng)
        cm[4:, 4:] = random_pure_cm(1, rng)
        yield cm


def pt_entangled(cm):
    """PT test on mode 0 by the full symplectic spectrum, which sees pure states;
    the pair ``mu`` formula loses half its digits on pure product pairs."""
    return symplectic_eigenvalues(partial_transpose(cm, 0))[0] < 1 - 1e-9


class TestPureStateObstruction:
    def test_no_pure_state_mimics_the_shared_separability_pattern(self):
        # with B|(AA') separable, a pure state is entangled across A|(A'B) exactly
        # when its A-A' pair is, so the shared stage's pattern (pair separable,
        # A|(A'B) entangled) needs a mixed state
        pair_entangled = []
        for cm in pure_products(200):
            pair_entangled.append(pt_entangled(reduce_modes(cm, [0, 1])))
            assert pt_entangled(cm) == pair_entangled[-1]
        assert 0 < sum(pair_entangled) < len(pair_entangled)

    @pytest.mark.xfail(strict=True, reason="sigma is 0 on every pure state (ROADMAP item 3)")
    def test_splitting_sigma_sees_pure_state_entanglement(self):
        entangled = [cm for cm in pure_products(20) if pt_entangled(cm)]
        assert entangled
        assert all(splitting_sigma(cm, 0).entangled for cm in entangled)
