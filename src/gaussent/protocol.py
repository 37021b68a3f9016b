"""Closed forms for the three-mode entanglement-sharing protocol.

The protocol has two dimensionless knobs: squeezing ``r`` and noise
``epsilon``.  A correlated-displacement preparation leaves Alice and Bob
with a separable two-mode state; Alice splits her mode on a balanced beam
splitter (mode order (A, A', B)); Bob finally superimposes his mode with
whichever of A, A' he receives.  Every covariance matrix and threshold of
that story has a closed form here, and each one is cross-checked against
the generic transform pipeline and root finders in the test suite.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .core import GaussianState
from .errors import DomainError, NumericalFailureError
from .ops import embed_vacuum
from .separability import SeparabilityReport, _localizable_mu, _pt_metrics, classify_three_mode

_SQRT2 = np.sqrt(2.0)
_C8 = 8.0 * _SQRT2  # recurring constant in the pair-entanglement threshold

STAGE_INITIAL = "initial"
STAGE_SHARED = "shared"
STAGE_FINAL_VIA_APRIME = "final-via-A'"
STAGE_FINAL_VIA_A = "final-via-A"
STAGES = (STAGE_INITIAL, STAGE_SHARED, STAGE_FINAL_VIA_APRIME, STAGE_FINAL_VIA_A)

ROUTE_VIA_APRIME = "via-A'"
ROUTE_VIA_A = "via-A"


@dataclass(frozen=True)
class ProtocolParams:
    """Squeezing and noise parameters, both dimensionless and nonnegative."""

    r: float
    epsilon: float

    def __post_init__(self):
        _check_domain(r=self.r, epsilon=self.epsilon)


def _check_domain(**values) -> None:
    """Raise ``ValueError`` unless every value (floats, or arrays of one shape) is finite and >= 0."""
    v = np.asarray(tuple(values.values()), dtype=float)
    if not ((v >= 0.0) & (v < np.inf)).all():
        got = ", ".join(f"{name}={value}" for name, value in values.items())
        raise ValueError(f"{' and '.join(values)} must be finite and nonnegative, got {got}")


@dataclass
class BlockSet:
    """The four diagonal 2x2 blocks the shared three-mode matrix is built from.

    Each is one 2x2 matrix, or a ``(..., 2, 2)`` stack over an array of ``r``.
    """

    alpha: np.ndarray
    beta: np.ndarray
    tau: np.ndarray
    delta: np.ndarray


@dataclass
class ThresholdReport:
    """All squeezing thresholds at one noise value."""

    epsilon: float
    r_l: float
    r_e: float
    r_m: float
    gap: float
    p: float
    q: float

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass
class StageState:
    """A protocol stage: its three-mode state plus the separability report."""

    stage: str
    state: GaussianState
    report: SeparabilityReport


def initial_cm(params: ProtocolParams) -> GaussianState:
    """Two-mode state shared by Alice and Bob after the correlated displacement.

    The off-diagonal block is diag(exp(-2r) - 1, 0); its determinant vanishes,
    so the state is separable for every parameter choice.
    """
    r, eps = params.r, params.epsilon
    em = np.exp(-2.0 * r)
    cm = np.array([
        [1.0 + em * (np.exp(2.0 * eps) - 1.0), 0.0, em - 1.0, 0.0],
        [0.0, np.exp(2.0 * r), 0.0, 0.0],
        [em - 1.0, 0.0, 2.0 - em, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ])
    return GaussianState(cm)


def _diag2(x, y) -> np.ndarray:
    """2x2 diagonal matrices ``diag(x, y)``, stacked over the shape of ``x``."""
    out = np.zeros(np.shape(x) + (2, 2))
    out[..., 0, 0] = x
    out[..., 1, 1] = y
    return out


def _blocks(r, epsilon: float) -> BlockSet:
    """Shared-stage blocks at squeezing ``r`` (a float or an array) and noise ``epsilon``."""
    em, ep = np.exp(-2.0 * r), np.exp(2.0 * r)
    noise = np.exp(2.0 * epsilon) - 1.0
    return BlockSet(
        alpha=_diag2(2.0 + em * noise, ep + 1.0) / 2.0,
        beta=_diag2(2.0 - em, 1.0),
        tau=_diag2(em - 1.0, 0.0) / _SQRT2,
        delta=_diag2(em * noise, ep - 1.0) / 2.0,
    )


def _shared_matrix(b: BlockSet) -> np.ndarray:
    return np.block([
        [b.alpha, b.delta, b.tau],
        [b.delta, b.alpha, b.tau],
        [b.tau, b.tau, b.beta],
    ])


def _final_matrix(b: BlockSet, route: str) -> np.ndarray:
    al, be, ta, de = b.alpha, b.beta, b.tau, b.delta
    if route == ROUTE_VIA_APRIME:
        return np.block([
            [al, (ta - de) / _SQRT2, (ta + de) / _SQRT2],
            [(ta - de) / _SQRT2, (al + be - 2.0 * ta) / 2.0, (be - al) / 2.0],
            [(ta + de) / _SQRT2, (be - al) / 2.0, (al + be + 2.0 * ta) / 2.0],
        ])
    if route == ROUTE_VIA_A:
        return np.block([
            [(al + be - 2.0 * ta) / 2.0, (de - ta) / _SQRT2, (al - be) / 2.0],
            [(de - ta) / _SQRT2, al, (de + ta) / _SQRT2],
            [(al - be) / 2.0, (de + ta) / _SQRT2, (al + be + 2.0 * ta) / 2.0],
        ])
    raise ValueError(f"route must be {ROUTE_VIA_APRIME!r} or {ROUTE_VIA_A!r}, got {route!r}")


def _reduced_pair_matrix(b: BlockSet) -> np.ndarray:
    off = (b.delta + b.tau) / _SQRT2
    corner = (b.alpha + b.beta + 2.0 * b.tau) / 2.0
    return np.block([[b.alpha, off], [off, corner]])


def shared_blocks(params: ProtocolParams) -> BlockSet:
    return _blocks(params.r, params.epsilon)


def shared_cm(params: ProtocolParams) -> tuple[GaussianState, BlockSet]:
    """Three-mode state after Alice splits her mode with a vacuum ancilla.

    Equals the transform pipeline (vacuum embedding at slot A', then the
    'plus' beam splitter on (A, A')) applied to :func:`initial_cm`.
    """
    b = shared_blocks(params)
    return GaussianState(_shared_matrix(b)), b


def final_cm(params: ProtocolParams, route: str = ROUTE_VIA_APRIME) -> GaussianState:
    """Three-mode state after Bob's beam splitter.

    ``via-A'``: Bob superimposes the received mode A' with B ('plus'
    splitter on (B, A')).  ``via-A``: Bob mixes the received mode A with B
    ('minus' splitter on (A, B)).
    """
    return GaussianState(_final_matrix(shared_blocks(params), route))


def reduced_pair_cm(params: ProtocolParams) -> np.ndarray:
    """Two-mode matrix of the finally entangled pair (A with B, or A' with B).

    Both final routes reduce to the same matrix.
    """
    return _reduced_pair_matrix(shared_blocks(params))


def threshold_r_e(epsilon):
    """Squeezing above which Bob's beam splitter entangles the reduced pair.

    ``epsilon`` is a float or an array, as for every threshold below.
    Evaluated with exp(2 epsilon) factored out of the square root so large
    noise values cannot overflow.
    """
    _check_domain(epsilon=epsilon)
    em = np.exp(-2.0 * epsilon)
    u = 11.0 + (_C8 - 13.0) * em
    return epsilon + 0.5 * np.log((u + np.sqrt(u * u + 4.0 * (_C8 - 1.0) * em)) / (2.0 * (_C8 - 1.0)))


def threshold_r_m(epsilon):
    """Squeezing above which a Gaussian measurement on B can localize entanglement."""
    _check_domain(epsilon=epsilon)
    return epsilon + 0.5 * np.log1p(np.sqrt(1.0 - np.exp(-2.0 * epsilon)))


def cubic_pq(epsilon):
    """Depressed-cubic coefficients behind the branch point of :func:`mu_m`.

    ``p`` is negative for every epsilon >= 0, so the trigonometric root is
    always real.
    """
    e2 = np.exp(2.0 * epsilon)
    return 1.0 / 6.0 - e2, 5.0 / 54.0 + e2 / 6.0


def threshold_r_l(epsilon):
    """Squeezing at which the two branches of :func:`mu_m` meet."""
    _check_domain(epsilon=epsilon)
    p, q = cubic_pq(epsilon)
    # -(q/2) sqrt(-27/p^3) written so p^3 is never formed (overflows early);
    # np.power, unlike a float64 scalar's **, rounds a float as it does an array
    arg = -(q / 2.0) * np.sqrt(27.0) * np.power(-p, -1.5)
    if (np.abs(arg) > 1.0 + 1e-12).any():
        raise DomainError(f"arccos argument {arg!r} outside [-1, 1]")
    root = 2.0 * np.sqrt(-p / 3.0) * np.cos(np.arccos(np.clip(arg, -1.0, 1.0)) / 3.0)
    return 0.5 * np.log(1.0 / 3.0 + root)


def mu_m(params: ProtocolParams) -> float:
    """Minimal conditioned PT eigenvalue over all Gaussian measurements on B.

    Piecewise: ``exp(r)`` below the branch squeezing, otherwise the square
    root of the conditional position variance left after homodyne detection
    of x_B.
    """
    return float(_mu_m(params.r, params.epsilon))


def _mu_m(r, epsilon):
    """:func:`mu_m` at squeezing ``r`` and noise ``epsilon``, floats or arrays that broadcast."""
    em = np.exp(-2.0 * r)
    homodyne = np.sqrt(1.0 + em * (np.exp(2.0 * epsilon) - 1.0) - (em - 1.0) ** 2 / (2.0 - em))
    return np.where(r < threshold_r_l(epsilon), np.exp(r), homodyne)


_ROOT_R_MAX = 5.0  # upper end of the threshold scan grid
_ROOT_XTOL = 1e-10  # bracket width at which bisection stops


def _bisect_root(f, lo: float, hi: float) -> float:
    """Plain bisection on a bracketing interval, terminating at width ``_ROOT_XTOL``."""
    flo = f(lo)
    while hi - lo > _ROOT_XTOL:
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if np.sign(fmid) == np.sign(flo):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


_NOISE_FLOOR = 1e-7  # mu - 1 loses half precision where its discriminant degenerates


def _threshold_root(mu, epsilon: float) -> float:
    """Locate where ``mu(r, epsilon) - 1`` crosses from positive to negative on [0, ``_ROOT_R_MAX``].

    ``mu`` maps an array of ``r`` to an array of ``mu`` values; it evaluates
    the whole scan grid in one call and each bisection step on a one-element
    array.  The protocol's mu curves all satisfy mu(0) = 1 exactly (the
    unsqueezed state sits on the separability boundary), rise for small r,
    and cross down once at the threshold.  The bracket on a log-augmented
    scan grid ends at the first value ``<= 0`` after the last one above a
    small noise floor; curves that never clear the floor resolve to 0.
    """
    _check_domain(epsilon=epsilon)
    grid = np.concatenate(([0.0], np.logspace(-9.0, np.log10(_ROOT_R_MAX), 120)))
    vals = mu(grid, epsilon) - 1.0
    above = np.flatnonzero(vals > _NOISE_FLOOR)
    if not above.size:
        return 0.0
    after = np.flatnonzero(vals[above[-1]:] <= 0.0)
    if not after.size:
        raise NumericalFailureError(f"no threshold crossing found on [0, {_ROOT_R_MAX}]")
    k = above[-1] + after[0]
    return _bisect_root(lambda r: float(mu(np.array([r]), epsilon)[0]) - 1.0, grid[k - 1], grid[k])


def _pair_mu(r, epsilon: float) -> np.ndarray:
    return _pt_metrics(_reduced_pair_matrix(_blocks(r, epsilon)))[0]


def _homodyne_mu(r, epsilon: float) -> np.ndarray:
    return _localizable_mu(_shared_matrix(_blocks(r, epsilon)), 2)


def numeric_threshold_r_e(epsilon: float) -> float:
    """Bisection root of mu(reduced pair) - 1 in r; verifies :func:`threshold_r_e`."""
    return _threshold_root(_pair_mu, epsilon)


def numeric_threshold_r_m(epsilon: float) -> float:
    """Bisection root of the homodyne-conditioned mu - 1; verifies :func:`threshold_r_m`."""
    return _threshold_root(_homodyne_mu, epsilon)


def threshold_report(epsilon: float) -> ThresholdReport:
    return gap_profile([epsilon])[0]


def gap_profile(epsilons) -> list[ThresholdReport]:
    """Threshold reports over a grid of noise values, one array call per column."""
    eps = np.asarray(epsilons, dtype=float)
    r_e, r_m = threshold_r_e(eps), threshold_r_m(eps)
    columns = (eps, threshold_r_l(eps), r_e, r_m, r_m - r_e, *cubic_pq(eps))
    return [ThresholdReport(*row) for row in zip(*(c.tolist() for c in columns))]


def stage_state(params: ProtocolParams, stage: str) -> StageState:
    """Three-mode state and separability report at one protocol stage.

    The initial stage is represented as the fully separable three-mode
    product of the two-mode initial state with the vacuum ancilla A'.
    """
    if stage == STAGE_INITIAL:
        state = embed_vacuum(initial_cm(params), 1)
    elif stage == STAGE_SHARED:
        state, _ = shared_cm(params)
    elif stage == STAGE_FINAL_VIA_APRIME:
        state = final_cm(params, ROUTE_VIA_APRIME)
    elif stage == STAGE_FINAL_VIA_A:
        state = final_cm(params, ROUTE_VIA_A)
    else:
        raise ValueError(f"stage must be one of {STAGES}, got {stage!r}")
    return StageState(stage, state, classify_three_mode(state.cm))
