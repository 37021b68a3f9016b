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

from dataclasses import dataclass, fields

import numpy as np

from .core import GaussianState, _cholesky
from .errors import DomainError, NumericalFailureError
from .ops import _preparation_cm, embed_vacuum
from .separability import (_PAIR_QUADS, SeparabilityReport, _localizable_mu, _pt_metrics, _splittings,
                           classify_three_mode)

_SQRT2 = np.sqrt(2.0)
_C8 = 8.0 * _SQRT2  # recurring constant in the pair-entanglement threshold
_AB = _PAIR_QUADS[1]  # quadratures of the entangled pair: modes A and B of the final stage via A'

ROUTE_VIA_APRIME = "via-A'"
ROUTE_VIA_A = "via-A"

STAGE_INITIAL = "initial"
STAGE_SHARED = "shared"
STAGE_FINAL_VIA_APRIME = "final-" + ROUTE_VIA_APRIME
STAGE_FINAL_VIA_A = "final-" + ROUTE_VIA_A
STAGES = (STAGE_INITIAL, STAGE_SHARED, STAGE_FINAL_VIA_APRIME, STAGE_FINAL_VIA_A)


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

    def to_json_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class StageState:
    """A protocol stage: its three-mode state plus the separability report."""

    stage: str
    state: GaussianState
    report: SeparabilityReport


def initial_cm(params: ProtocolParams) -> GaussianState:
    """Two-mode state shared by Alice and Bob after the correlated displacement.

    The off-diagonal block is diag(exp(-2r) - 1, 0); its determinant vanishes,
    so the state is separable for every parameter choice.  It is bit for bit
    the ``analytic_cm`` of :func:`~gaussent.ops.sample_preparation`.
    """
    return GaussianState(_preparation_cm(params.r, params.epsilon))


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


def _join(rows) -> np.ndarray:
    """``np.block(rows)`` for a square grid of equal ``(..., 2, 2)`` blocks: columns side by side, then rows."""
    return np.concatenate(np.concatenate(list(zip(*rows)), axis=-1), axis=-2)


def _stage_matrix(b: BlockSet, stage: str) -> np.ndarray:
    """The shared or a final stage's matrix, or its ``(..., 6, 6)`` stack, from the four blocks."""
    al, be, ta, de = b.alpha, b.beta, b.tau, b.delta
    if stage == STAGE_SHARED:
        return _join([[al, de, ta], [de, al, ta], [ta, ta, be]])
    if stage == STAGE_FINAL_VIA_APRIME:
        return _join([
            [al, (ta - de) / _SQRT2, (ta + de) / _SQRT2],
            [(ta - de) / _SQRT2, (al + be - 2.0 * ta) / 2.0, (be - al) / 2.0],
            [(ta + de) / _SQRT2, (be - al) / 2.0, (al + be + 2.0 * ta) / 2.0],
        ])
    if stage == STAGE_FINAL_VIA_A:
        return _join([
            [(al + be - 2.0 * ta) / 2.0, (de - ta) / _SQRT2, (al - be) / 2.0],
            [(de - ta) / _SQRT2, al, (de + ta) / _SQRT2],
            [(al - be) / 2.0, (de + ta) / _SQRT2, (al + be + 2.0 * ta) / 2.0],
        ])
    raise ValueError(f"stage must be one of {STAGES}, got {stage!r}")


def _reduced_pair_matrix(b: BlockSet) -> np.ndarray:
    """The entangled pair's matrix, or its ``(..., 4, 4)`` stack: the A-B slice of the final stage via A'."""
    return _stage_matrix(b, STAGE_FINAL_VIA_APRIME)[..., _AB[:, None], _AB]


def shared_cm(params: ProtocolParams) -> tuple[GaussianState, BlockSet]:
    """Three-mode state after Alice splits her mode with a vacuum ancilla.

    Equals the transform pipeline (vacuum embedding at slot A', then the
    'plus' beam splitter on (A, A')) applied to :func:`initial_cm`.
    """
    b = _blocks(params.r, params.epsilon)
    return GaussianState(_stage_matrix(b, STAGE_SHARED)), b


def final_cm(params: ProtocolParams, route: str = ROUTE_VIA_APRIME) -> GaussianState:
    """Three-mode state after Bob's beam splitter.

    ``via-A'``: Bob superimposes the received mode A' with B ('plus'
    splitter on (B, A')).  ``via-A``: Bob mixes the received mode A with B
    ('minus' splitter on (A, B)).
    """
    if route not in (ROUTE_VIA_APRIME, ROUTE_VIA_A):
        raise ValueError(f"route must be {ROUTE_VIA_APRIME!r} or {ROUTE_VIA_A!r}, got {route!r}")
    return GaussianState(_stage_matrix(_blocks(params.r, params.epsilon), "final-" + route))


def reduced_pair_cm(params: ProtocolParams) -> np.ndarray:
    """Two-mode matrix of the finally entangled pair (A with B, or A' with B).

    Both final routes reduce to the same matrix.
    """
    return _reduced_pair_matrix(_blocks(params.r, params.epsilon))


def threshold_r_e(epsilon):
    """Squeezing above which Bob's beam splitter entangles the reduced pair.

    ``epsilon`` is a float or an array, as for every threshold below.  With
    exp(2 epsilon) factored out of the square root, large noise cannot
    overflow; as ``log1p``, rationalized by ``a - b^2 = 4 (C8 - 1)(12 - C8) x``
    with ``x = 1 - exp(-2 epsilon)``, small noise keeps its digits.
    """
    _check_domain(epsilon=epsilon)
    em, x = np.exp(-2.0 * epsilon), -np.expm1(-2.0 * epsilon)
    u = 11.0 + (_C8 - 13.0) * em
    a, b = u * u + 4.0 * (_C8 - 1.0) * em, _C8 + (_C8 - 13.0) * x
    return epsilon + 0.5 * np.log1p(2.0 * (12.0 - _C8) * x / (np.sqrt(a) + b))


def threshold_r_m(epsilon):
    """Squeezing above which a Gaussian measurement on B can localize entanglement; full digits at small noise."""
    _check_domain(epsilon=epsilon)
    return epsilon + 0.5 * np.log1p(np.sqrt(-np.expm1(-2.0 * epsilon)))


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
    if (~(np.abs(arg) <= 1.0)).any():  # NaN, from overflow at large epsilon, fails too
        raise DomainError(f"arccos argument {arg} outside [-1, 1]")
    root = 2.0 * np.sqrt(-p / 3.0) * np.cos(np.arccos(arg) / 3.0)
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
    homodyne = np.sqrt(1.0 + em * (np.exp(2.0 * epsilon) - 1.0) - np.square(em - 1.0) / (2.0 - em))
    return np.where(r < threshold_r_l(epsilon), np.exp(r), homodyne)


_ROOT_R_MAX = 5.0  # upper end of the threshold scan grid
_ROOT_GRID = np.concatenate(([0.0], np.logspace(-9.0, np.log10(_ROOT_R_MAX), 120)))  # log-augmented scan grid
_ROOT_XTOL = 1e-10  # bracket width at which bisection stops
_NOISE_FLOOR = 1e-7  # mu - 1 loses half precision where its discriminant degenerates


def _bisection_path(lo: float, hi: float, hint: float) -> list:
    """Midpoints that one-midpoint bisection of ``[lo, hi]`` visits if ``mu - 1`` is positive below ``hint``."""
    path = []
    while hi - lo > _ROOT_XTOL:
        mid = 0.5 * (lo + hi)
        path.append(mid)
        lo, hi = (mid, hi) if mid < hint else (lo, mid)
    return path


def _threshold_root(mu, epsilon: float, hint: float) -> float:
    """Locate where ``mu(r, epsilon) - 1`` crosses from positive to negative on [0, ``_ROOT_R_MAX``].

    ``mu`` maps an array of ``r`` to an array of ``mu`` values.  The protocol's
    mu curves all satisfy mu(0) = 1 exactly (the unsqueezed state sits on the
    separability boundary), rise for small r, and cross down once at the
    threshold.  The bracket on ``_ROOT_GRID`` ends at the first value ``<= 0``
    after the last one above a small noise floor; curves that never clear the
    floor resolve to 0.  One-midpoint bisection then narrows it to ``_ROOT_XTOL``.
    One call of ``mu`` evaluates the grid and the bisection path toward ``hint``;
    a bracket that leaves the path evaluates a new one in one more call.  Every
    step reads the sign of ``mu``, so the root has the bits of one-midpoint
    bisection whatever the hint.  Both thresholds are ``epsilon`` plus a
    nonnegative ``log1p``: from ``epsilon = _ROOT_R_MAX`` no crossing can lie on the grid.
    """
    _check_domain(epsilon=epsilon)
    if epsilon >= _ROOT_R_MAX:
        raise NumericalFailureError(f"no threshold crossing found on [0, {_ROOT_R_MAX}]")
    n = len(_ROOT_GRID)
    k = min(max(int(np.searchsorted(_ROOT_GRID, hint)), 1), n - 1)  # grid[k - 1] < hint <= grid[k]
    path = _bisection_path(*_ROOT_GRID[k - 1:k + 1].tolist(), hint)
    vals = mu(np.concatenate((_ROOT_GRID, path)), epsilon) - 1.0
    known = dict(zip(path, vals[n:].tolist()))
    vals = vals[:n]
    above = np.flatnonzero(vals > _NOISE_FLOOR)
    if not above.size:
        return 0.0
    after = np.flatnonzero(vals[above[-1]:] <= 0.0)
    if not after.size:
        raise NumericalFailureError(f"no threshold crossing found on [0, {_ROOT_R_MAX}]")
    k = above[-1] + after[0]
    lo, hi = _ROOT_GRID[k - 1:k + 1].tolist()  # mu - 1 at lo is positive, so a positive midpoint moves lo
    while hi - lo > _ROOT_XTOL:
        mid = 0.5 * (lo + hi)
        if mid not in known:
            path = _bisection_path(lo, hi, hint)
            known.update(zip(path, (mu(np.array(path), epsilon) - 1.0).tolist()))
        if known[mid] == 0.0:
            return mid
        lo, hi = (mid, hi) if known[mid] > 0.0 else (lo, mid)
    return 0.5 * (lo + hi)


def _pair_mu(r, epsilon: float) -> np.ndarray:
    return _pt_metrics(_reduced_pair_matrix(_blocks(r, epsilon)))[0]


def _homodyne_mu(r, epsilon: float) -> np.ndarray:
    return _localizable_mu(_stage_matrix(_blocks(r, epsilon), STAGE_SHARED), 2)


def numeric_threshold_r_e(epsilon: float) -> float:
    """Bisection root of mu(reduced pair) - 1 in r; verifies :func:`threshold_r_e`, which
    only steers the path each call of ``mu`` evaluates.  Raises ``NumericalFailureError`` from epsilon 5."""
    return _threshold_root(_pair_mu, epsilon, threshold_r_e(epsilon))


def numeric_threshold_r_m(epsilon: float) -> float:
    """Bisection root of the homodyne-conditioned mu - 1; verifies :func:`threshold_r_m` as the hint,
    like :func:`numeric_threshold_r_e`."""
    return _threshold_root(_homodyne_mu, epsilon, threshold_r_m(epsilon))


def threshold_report(epsilon: float) -> ThresholdReport:
    """The one row of :func:`gap_profile` at ``epsilon``."""
    return ThresholdReport(**{name: col.item() for name, col in gap_profile([epsilon]).items()})


def gap_profile(epsilons) -> dict:
    """Threshold columns by name over a grid of noise values, one array call per
    column: ``epsilon``, ``r_l``, ``r_e``, ``r_m`` and ``gap`` (``r_m - r_e``)."""
    eps = np.asarray(epsilons, dtype=float)
    r_e, r_m = threshold_r_e(eps), threshold_r_m(eps)
    return {"epsilon": eps, "r_l": threshold_r_l(eps), "r_e": r_e, "r_m": r_m, "gap": r_m - r_e}


def sweep_profile(r, epsilon: float) -> dict:
    """Sweep columns by name over the squeezing values ``r``, each an array with the
    bits of the one-state functions: ``r``, ``mu_pair`` (of the reduced pair, sliced from
    the final state via A'), ``mu_m``, ``sigma_shared_A`` (the shared state's ``A|(A'B)`` value)
    and ``class_final`` (the label of the final state via A').  Two stage stacks are built.
    A row whose shared or final matrix is not positive definite raises ``UnphysicalError``."""
    r = np.asarray(r, dtype=float)
    _check_domain(r=r)
    _check_domain(epsilon=epsilon)
    blocks = _blocks(r, epsilon)
    shared, final = _stage_matrix(blocks, STAGE_SHARED), _stage_matrix(blocks, STAGE_FINAL_VIA_APRIME)
    # from r ~ 18.4 the entries (exp(2r) +- 1)/2 lose the +-1; analyze refuses those states too
    _cholesky(shared)
    _cholesky(final)
    return {"r": r, "mu_pair": _pt_metrics(final[..., _AB[:, None], _AB])[0], "mu_m": _mu_m(r, epsilon),
            "sigma_shared_A": _splittings(shared)[0][..., 0], "class_final": _splittings(final)[3]}


def stage_state(params: ProtocolParams, stage: str) -> StageState:
    """Three-mode state and separability report at one protocol stage.

    The initial stage is represented as the fully separable three-mode
    product of the two-mode initial state with the vacuum ancilla A'.
    """
    if stage == STAGE_INITIAL:
        state = embed_vacuum(initial_cm(params), 1)
    else:
        state = GaussianState(_stage_matrix(_blocks(params.r, params.epsilon), stage))
    return StageState(stage, state, classify_three_mode(state.cm))
