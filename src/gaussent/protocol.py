"""Closed forms for the three-mode entanglement-sharing protocol.

The protocol has two dimensionless knobs: squeezing ``r`` and noise
``epsilon``.  A correlated-displacement preparation leaves Alice and Bob
with a separable two-mode state; Alice splits her mode on a balanced beam
splitter (mode order (A, A', B)); Bob finally superimposes his mode with
whichever of A, A' he receives.  Every covariance matrix, threshold and
stage report of that story has a closed form here, and each one is
cross-checked against the generic transform pipeline, root finders and
kernels in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .core import GaussianState, _quadratures
from .errors import DomainError, NumericalFailureError
from .ops import _preparation_cm, embed_vacuum
from .separability import (_CLASS_BY_COUNT, _PAIR_QUADS, SeparabilityReport, _localizable_mu, _pair_record,
                           _pt_metrics, _report)

_SQRT2 = math.sqrt(2.0)
_LN4 = math.log(4.0)
#: ``ln(DBL_MAX)``: ``exp(x)`` is finite iff ``x <= _LN_MAX``.
_LN_MAX = math.log(np.finfo(float).max)
_SQRT3_2 = math.sqrt(3.0) / 2.0
_C8 = 8.0 * _SQRT2  # recurring constant in the pair-entanglement threshold
_AB = _PAIR_QUADS[1]  # quadratures of the entangled pair: modes A and B of the final stage via A'
_MIRROR = _quadratures([1, 0, 2])  # swaps A and A'

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
    """Raise ``ValueError`` unless every value (a float or an array of any shape) is finite and >= 0."""
    v = np.concatenate([np.asarray(x, dtype=float).ravel() for x in values.values()])
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
    """The shared or a final stage's matrix, or its ``(..., 6, 6)`` stack, from the four blocks.  The shared state
    is symmetric under A <-> A', so the stage via A mirrors the one via A': swap A and A', then flip the new A's
    sign (a local phase of pi) as ``0.0 - x``, which is exact and keeps a zero ``+0.0``."""
    al, be, ta, de = b.alpha, b.beta, b.tau, b.delta
    if stage == STAGE_SHARED:
        return _join([[al, de, ta], [de, al, ta], [ta, ta, be]])
    if stage not in (STAGE_FINAL_VIA_APRIME, STAGE_FINAL_VIA_A):
        raise ValueError(f"stage must be one of {STAGES}, got {stage!r}")
    m = _join([
        [al, (ta - de) / _SQRT2, (ta + de) / _SQRT2],
        [(ta - de) / _SQRT2, (al + be - 2.0 * ta) / 2.0, (be - al) / 2.0],
        [(ta + de) / _SQRT2, (be - al) / 2.0, (al + be + 2.0 * ta) / 2.0],
    ])
    if stage == STAGE_FINAL_VIA_A:
        m = m[..., _MIRROR[:, None], _MIRROR]
        m[..., :2, 2:] = 0.0 - m[..., :2, 2:]
        m[..., 2:, :2] = 0.0 - m[..., 2:, :2]
    return m


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
    return epsilon + _threshold_excesses(epsilon)[0]


def threshold_r_m(epsilon):
    """Squeezing above which a Gaussian measurement on B can localize entanglement; full digits at small noise."""
    return epsilon + _threshold_excesses(epsilon)[1]


def _threshold_excesses(epsilon):
    """The ``log1p`` terms ``threshold_r_e - epsilon`` and ``threshold_r_m - epsilon``, after checking ``epsilon``."""
    _check_domain(epsilon=epsilon)
    e2 = -2.0 * np.minimum(epsilon, 400.0)  # exp(e2) is 0 from epsilon 373 on; the cap keeps 2 epsilon finite
    em, x = np.exp(e2), -np.expm1(e2)
    u = 11.0 + (_C8 - 13.0) * em
    a, b = u * u + 4.0 * (_C8 - 1.0) * em, _C8 + (_C8 - 13.0) * x
    return 0.5 * np.log1p(2.0 * (12.0 - _C8) * x / (np.sqrt(a) + b)), 0.5 * np.log1p(np.sqrt(x))


def threshold_r_l(epsilon):
    """Squeezing at which the two branches of :func:`mu_m` cross, an output only.  ``a = exp(2 r_l)`` is the
    largest root of ``2a^3 - 2a^2 - (2n + 1) a + n + 1``, ``n = exp(2 epsilon) - 1``; in ``w = a t`` with
    ``t = exp(-epsilon)`` it is ``2w^3 - 2t w^2 - (2 - t^2) w + t``, whose trigonometric root never overflows.
    One Newton step in ``r``, its terms in ``b = exp(-2r)``, ``y = 1 - b`` and ``m = n b^2``, restores the
    digits that the log of ``w`` near 1 loses at small noise.  The start is clamped to ``r_l < epsilon``
    (``epsilon > 0``), so ``r_l(0)`` is 0."""
    _check_domain(epsilon=epsilon)
    t = np.exp(-epsilon)
    p, q = t * t / 6.0 - 1.0, t / 6.0 + 5.0 / 54.0 * t * t * t
    # -(q/2) sqrt(-27/p^3) in [-0.89, 0]; np.power, unlike a float64 scalar's **, rounds a float as it does an array
    w = t / 3.0 + 2.0 * np.sqrt(-p / 3.0) * np.cos(np.arccos(-(q / 2.0) * np.sqrt(27.0) * np.power(-p, -1.5)) / 3.0)
    r = np.minimum(0.5 * (epsilon + np.log(w)), epsilon)
    b, y = np.exp(-2.0 * r), -np.expm1(-2.0 * r)
    # 2 epsilon - 4r doubled last, and epsilon capped where expm1(-2 epsilon) is -1, so both stay finite
    m = np.exp(2.0 * (epsilon - 2.0 * r)) * -np.expm1(-2.0 * np.minimum(epsilon, 400.0))
    residual = y * (2.0 * y * y + 4.0 * y * b + b * b) - m * (1.0 + y)  # the cubic over a^3
    return r - residual / (2.0 * (b * b - 2.0 * m + 8.0 * y * b + 6.0 * y * y))


def mu_m(params: ProtocolParams) -> float:
    """Minimal conditioned PT eigenvalue over all Gaussian measurements on B.

    The (A, A') pair left after homodyne detection of x_B has two PT
    symplectic eigenvalues, ``exp(r)`` and the square root of the
    conditional position variance; ``mu_m`` is the lower of these two
    branches, which cross at :func:`threshold_r_l`.
    """
    return float(_mu_m(params.r, params.epsilon))


def _mu_m(r, epsilon):
    """:func:`mu_m` at squeezing ``r`` and noise ``epsilon``, floats or arrays that broadcast."""
    em = np.exp(-2.0 * r)
    homodyne = np.sqrt(1.0 + em * (np.exp(2.0 * epsilon) - 1.0) - np.square(em - 1.0) / (2.0 - em))
    return np.minimum(np.exp(r), homodyne)


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
    nonnegative ``log1p``: from ``epsilon = _ROOT_R_MAX`` no crossing can lie on the grid.  Each caller's
    ``hint``, the closed form at ``epsilon``, has checked ``epsilon``'s domain.
    """
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
    """Threshold columns by name over a grid of noise values, one array call per column: ``epsilon``, ``r_l``,
    ``r_e``, ``r_m`` and ``gap`` (``r_m - r_e`` as the difference of their ``log1p`` terms, with no ``epsilon``)."""
    eps = np.asarray(epsilons, dtype=float)
    ex_e, ex_m = _threshold_excesses(eps)
    return {"epsilon": eps, "r_l": threshold_r_l(eps), "r_e": eps + ex_e, "r_m": eps + ex_m, "gap": ex_m - ex_e}


def sweep_profile(r, epsilon: float) -> dict:
    """Sweep columns by name over the squeezing values ``r``: ``r``, ``mu_pair`` (the entangled pair's PT value),
    ``mu_m``, ``sigma_shared_A`` (the shared ``A|(A'B)`` value) and ``class_final`` (the final state via A'): the forms
    :func:`stage_state` reports from, on arrays, so each row holds its report's bits.  No matrix; every row is finite.
    ``ValueError`` on a NaN, infinite or negative value; past ``ln(DBL_MAX) / 2``, ``DomainError`` naming ``max(r)``."""
    r = np.asarray(r, dtype=float)
    _check_domain(r=r, epsilon=epsilon)
    _check_edge(r.max(initial=0.0), epsilon)
    u, n, b, x, sigma = _prelude(r, epsilon)
    _, entangled = _stage_splittings(STAGE_FINAL_VIA_APRIME, sigma)
    return {"r": r, "mu_pair": _pair_step(*_pair_forms("entangled", u, n, b, x, n * b))[1], "mu_m": _mu_m(r, epsilon),
            "sigma_shared_A": sigma, "class_final": _CLASS_BY_COUNT[sum(entangled)]}


def stage_state(params: ProtocolParams, stage: str) -> StageState:
    """Three-mode state and separability report at one protocol stage.

    The state is the stage's correctly rounded matrix; the initial stage is the product of the two-mode initial
    state with the vacuum ancilla A'.  The report comes from the closed forms in ``(r, epsilon)`` of
    :func:`_stage_report`, not from the matrix, whose rounding costs about ``exp(2r) 2^-53`` from r ~ 4 on; no gate
    judges the matrix, so past r ~ 18.4, where it is no longer positive definite, the stage still reports.  Up to
    ``max(r, epsilon) = ln(DBL_MAX) / 2 = 354.89`` the matrix, each ``sigma`` and ``mu`` are finite and no
    floating-point error is raised, under any ``np.errstate``; a ``delta_tilde`` or ``ppt_condition_value`` above
    ``DBL_MAX`` reads ``inf`` (a final stage's ``delta_tilde`` from r = 354.866, more where epsilon is that large).

    Raises:
        DomainError: ``max(r, epsilon) > ln(DBL_MAX) / 2``, checked before any arithmetic.
    """
    _check_edge(params.r, params.epsilon)
    if stage == STAGE_INITIAL:
        state = embed_vacuum(initial_cm(params), 1)
    else:
        state = GaussianState(_stage_matrix(_blocks(params.r, params.epsilon), stage))
    return StageState(stage, state, _stage_report(stage, params.r, params.epsilon))


#: Each stage's pair kinds (:func:`_pair_forms`) in ``PAIR_LABELS`` order; the stage via A mirrors the one via A'.
_STAGE_PAIRS = {
    STAGE_INITIAL: ("vacuum-A", "preparation", "vacuum-B"),
    STAGE_SHARED: ("noise", "shared", "shared"),
    STAGE_FINAL_VIA_APRIME: ("final", "entangled", "port"),
    STAGE_FINAL_VIA_A: ("final", "port", "entangled"),
}
#: Each stage's splitting ``sigma`` in ``SPLITTING_LABELS`` order, as multiples of the shared ``A|(A'B)`` one.
_SIGMA_MULTIPLES = {STAGE_INITIAL: (0.0, 0.0, 0.0), STAGE_SHARED: (1.0, 1.0, 0.0),
                    STAGE_FINAL_VIA_APRIME: (1.0, 0.25, 0.25), STAGE_FINAL_VIA_A: (0.25, 1.0, 0.25)}


def _check_edge(r: float, epsilon: float) -> None:
    """The one domain of the stage reports and sweep rows, checked before any arithmetic."""
    if 2.0 * max(r, epsilon) > _LN_MAX:
        raise DomainError(f"r and epsilon must be at most ln(DBL_MAX) / 2 = {_LN_MAX / 2.0!r}, past which exp(2 r) "
                          f"or exp(2 epsilon) leaves float64, got r={float(r)}, epsilon={float(epsilon)}")


def _prelude(r, epsilon):
    """``u = expm1(2r)``, ``n = expm1(2 epsilon)``, ``b = exp(-2r)``, ``x = 1 - b`` and the shared ``A|(A'B)``
    ``sigma = -x^2 exp(2 epsilon) expm1(2d)``, ``d = r - epsilon``, for a float or an array ``r``; ``x^2`` is squared
    as ``x 2^k`` in [1/2, 1], so it underflows only where ``sigma`` does, and from ``d > 1`` on ``sigma`` is
    ``x^2 exp(2r) expm1(-2d)``, whose error does not grow with ``d`` and which stays below ``exp(2r)``."""
    u, n, b, x = np.expm1(2.0 * r), np.expm1(2.0 * epsilon), np.exp(-2.0 * r), -np.expm1(-2.0 * r)
    k, d = np.maximum(-np.frexp(x)[1], 0), r - epsilon
    xk, far = np.ldexp(x, k), d > 1.0
    sign = 1.0 - 2.0 * far  # -1 from d > 1 on, where exp(2r) is taken out
    e, tail = np.exp(2.0 * np.maximum(epsilon, r * far)), sign * np.expm1(2.0 * sign * d)
    return u, n, b, x, np.ldexp(-(xk * xk) * e * tail, -2 * k) + 0.0  # + 0.0 prints r = 0 and r == epsilon as 0


def _pair_forms(kind: str, u, n, b, x, c):
    """``(S, P, p, f, g)`` of one pair kind in :func:`_prelude`'s ``(u, n, b, x)`` and ``c = n b``, a quarter in each
    coefficient (exact but in subnormals, and finite up to ``ln(DBL_MAX) / 2``): ``4S = nu_1^2 + nu_2^2 - 2``
    (``delta_tilde - 2``) and ``4P = (nu_1^2 - 1)(nu_2^2 - 1)`` (``ppt_condition_value``) over the partially
    transposed spectrum, and its discriminant ``(nu_1^2 - nu_2^2)^2 = 16 (p^2 + f^2 g)``, the square completed in
    ``n``, which keeps its digits where the two values meet.  Only the route pairs' ``P`` and each ``p`` mix signs;
    no term exceeds the value it sums to, so none overflows first.  Plain arithmetic, for sympy symbols too."""
    if kind == "vacuum-A":  # initial A-A', A beside the vacuum A'
        return 0.25 * n + 0.25 * u, 0.0, 0.25 * n + 0.25 * u, 0.0, 0.0
    if kind == "vacuum-B":  # initial A'-B
        return 0.25 * x, 0.0, 0.25 * x, 0.0, 0.0
    if kind == "preparation":  # initial A-B
        return 0.25 * n + 0.25 * u + 0.25 * x, 0.25 * n * x, 0.25 * n + 0.25 * u - 0.25 * x, 0.5 * x, u + 1.0
    if kind == "noise":  # shared A-A': the spectrum is {exp(2r), 1 + c}
        return 0.25 * c + 0.25 * u, 0.25 * n * x, 0.25 * c - 0.25 * u, 0.0, 0.0
    if kind == "shared":  # shared A-B and A'-B
        h = n * (0.0625 + 0.0625 * b) + 0.125 * u
        return h + 0.25 * x, n * (0.0625 * x * (1.0 + b)) + u * (0.0625 * x * x), h - 0.25 * x, 0.25 * x, u + 2.0
    if kind == "port":  # Bob's output ports: A'-B via A', A-B via A
        return (0.125 * (c + x) + 0.25 * u, n * (0.0625 * x * (2.0 + b)) - (0.0625 * x * x) * (u + 2.0),
                0.125 * (c - x) - 0.25 * u, 0.25 * x, u + 2.0)
    # final A-A' (k = -1) and the pair the protocol entangles (k = 1) differ in the sign of each sqrt(2) term
    k = -1.0 if kind == "final" else 1.0
    h, s = n * (0.015625 + 0.171875 * b), k * _SQRT2
    return (h + x * ((0.21875 + 0.03125 * s) * u + 0.3125 - 0.125 * s),
            n * (0.015625 * x * (11.0 + b)) + x * x * ((0.015625 - 0.125 * s) * u - 0.125 * s),
            h + x * ((0.21875 + 0.03125 * s) * u - 5.1875 - 0.125 * s + 60.0 / (u + 12.0)),
            0.25 * x * (5.0 * _SQRT2 + k - 60.0 * _SQRT2 / (u + 12.0)) * _SQRT3_2, u + 4.0 / 3.0)


def _pair_step(s, prod, p, f, g):
    """``t = nu^2 - 1`` of the lower PT value, ``P / ((S + sqrt(p^2 + f^2 g)) / 2)`` from :func:`_pair_forms` (0 where
    ``P`` is, as at r = 0, where the denominator can be 0 too), and ``mu = sqrt(1 + t)``, over pairs or rows."""
    t = prod / (0.5 * s + 0.5 * np.hypot(p, f * np.sqrt(g)) + (prod == 0.0))
    return t, np.sqrt(1.0 + t)


def _stage_splittings(stage: str, sigma):
    """A stage's splitting ``sigma`` as printed, multiples of the shared one, and its entangled flags (``< 0``)."""
    sigmas = [m * sigma + 0.0 if m else 0.0 for m in _SIGMA_MULTIPLES[stage]]  # + 0.0 prints -0 as 0
    return sigmas, [v < 0.0 for v in sigmas]


def _stage_report(stage: str, r: float, epsilon: float) -> SeparabilityReport:
    """A stage's report from the forms :func:`sweep_profile` evaluates on arrays (:func:`_prelude`, :func:`_pair_forms`,
    :func:`_pair_step`, :func:`_stage_splittings`); a splitting is ``boundary`` iff its printed ``sigma`` is 0, and a
    pair prints ``delta_tilde = 4S + 2``, ``ppt_condition_value = 4P`` and log negativity ``-log1p(t) / ln 4``."""
    u, n, b, x, sigma = map(float, _prelude(float(r), float(epsilon)))
    pairs = []
    for kind in _STAGE_PAIRS[stage]:
        s, prod, *rest = _pair_forms(kind, u, n, b, x, n * b)
        t, mu = map(float, _pair_step(s, prod, *rest))
        pairs.append(_pair_record(mu, max(0.0, -math.log1p(t) / _LN4), 4.0 * s + 2.0, 4.0 * prod))
    sigmas, entangled = _stage_splittings(stage, sigma)
    return _report(sigmas, entangled, [v == 0.0 for v in sigmas], pairs)
