"""Entanglement and separability criteria for two- and three-mode Gaussian states.

Three-mode states use the fixed mode naming (A, A', B) = (0, 1, 2).  A 1x2
splitting is judged by the sign of the invariant combination
``sigma = i3 - i2 + i1 - 1`` of the partially transposed matrix: negative
means entangled.  Two-mode states are judged by the lower symplectic
eigenvalue ``mu`` of the partial transpose: below 1 means entangled.  Each
verdict is decided once: a splitting's by the stacked kernel ``_splittings``,
a pair's by ``_entanglement_metrics``, the one constructor of the pair record,
from the numbers the stacked kernel ``_pt_metrics`` returns.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .core import _as_even_square, _check_modes, _pt_invariants, _quadratures, validate_cm
from .errors import DimensionMismatchError, NotBisymmetricError
from .ops import MeasurementSpec, _condition

#: Pair verdicts with ``|mu - 1|`` within this band are reported as boundary cases.
BOUNDARY_TOL = 1e-12
#: Splitting verdicts with ``|sigma|`` within this multiple of ``1 + |i1| + |i2| + |i3|``
#: are reported as boundary cases; the band scales with the terms ``sigma`` cancels.
SPLITTING_BAND = 1e-13
#: Tolerated asymmetry under exchange of the two unmeasured modes, relative to max(1, max|m|) of the matrix.
BISYMMETRY_TOL = 1e-8

SPLITTING_LABELS = ("A|(A'B)", "A'|(AB)", "B|(AA')")
PAIR_LABELS = ("A-A'", "A-B", "A'-B")
PAIR_MODES = ((0, 1), (0, 2), (1, 2))

CLASS_FULLY_INSEPARABLE = "fully-inseparable"
CLASS_ONE_MODE_BISEPARABLE = "one-mode-biseparable"
CLASS_TWO_MODE_BISEPARABLE = "two-mode-biseparable"
CLASS_PPT_ALL = "ppt-all-splittings"
#: Class label by the number of entangled splittings.
_CLASS_BY_COUNT = np.array(
    [CLASS_PPT_ALL, CLASS_TWO_MODE_BISEPARABLE, CLASS_ONE_MODE_BISEPARABLE, CLASS_FULLY_INSEPARABLE]
)
#: Quadrature indices of the two-mode reductions, in ``PAIR_MODES`` order.
_PAIR_QUADS = np.array([_quadratures(pair) for pair in PAIR_MODES])


@dataclass
class SplittingVerdict:
    """Invariant test value and verdict for one 1x2 splitting."""

    splitting: str
    sigma: float
    entangled: bool
    boundary: bool

    def to_json_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class EntanglementMetrics:
    """Partial-transpose metrics of a two-mode state.

    ``mu`` is the lower symplectic eigenvalue of the partial transpose,
    ``delta_tilde`` the invariant ``det A + det B - 2 det C`` it derives
    from, and ``ppt_condition_value`` the equivalent determinant-form test
    value ``det cm - delta_tilde + 1`` (negative iff entangled).
    """

    mu: float
    log_negativity: float
    delta_tilde: float
    ppt_condition_value: float
    entangled: bool
    boundary: bool

    def to_json_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "boundary"}


@dataclass
class SeparabilityReport:
    """Splitting verdicts, pairwise metrics, and the resulting class label.

    ``ppt-all-splittings`` deliberately does not distinguish three-mode
    biseparable from fully separable states; the invariant tests carry no
    such discriminator.
    """

    verdicts: tuple[SplittingVerdict, ...]
    pairwise: tuple[tuple[str, EntanglementMetrics], ...]
    class_label: str
    separable_splitting: str | None = None
    entangled_splitting: str | None = None

    def to_json_dict(self) -> dict:
        out = {
            "verdicts": [v.to_json_dict() for v in self.verdicts],
            "pairwise": [{"pair": label, **m.to_json_dict()} for label, m in self.pairwise],
            "class": self.class_label,
        }
        if self.separable_splitting is not None:
            out["separable_splitting"] = self.separable_splitting
        if self.entangled_splitting is not None:
            out["entangled_splitting"] = self.entangled_splitting
        return out


def _of_modes(cm: np.ndarray, n: int) -> np.ndarray:
    """Float array of one ``n``-mode matrix, or ``DimensionMismatchError``."""
    cm = _as_even_square(cm, "cm")
    if cm.shape != (2 * n, 2 * n):
        raise DimensionMismatchError(f"expected a {n}-mode ({2 * n}x{2 * n}) matrix, got {cm.shape}")
    return cm


def _as_modes(cm: np.ndarray, n: int) -> np.ndarray:
    """``_of_modes``, then an unphysical matrix raises as in ``validate_cm``, whose symmetrized copy is
    dropped: the verdicts read ``cm`` as given."""
    cm = _of_modes(cm, n)
    validate_cm(cm)
    return cm


def _splittings(cm: np.ndarray):
    """``sigma`` of the three 1x2 splittings of ``(..., 6, 6)`` stacks, with its entangled and
    boundary masks, each shaped ``(..., 3)``, and the class label their entangled count implies."""
    i1, i2, i3 = _pt_invariants(cm, [0, 1, 2])
    sigma = i3 - i2 + i1 - 1.0
    band = SPLITTING_BAND * (1.0 + np.abs(i1) + np.abs(i2) + np.abs(i3))
    entangled = sigma < -band
    return sigma, entangled, np.abs(sigma) <= band, _CLASS_BY_COUNT[entangled.sum(-1)]


def splitting_sigma(cm: np.ndarray, mode: int) -> SplittingVerdict:
    """Invariant separability test of one mode against the remaining pair."""
    (mode,) = _check_modes(mode, 3)
    sigma, entangled, boundary = (x[mode].item() for x in _splittings(_as_modes(cm, 3))[:3])
    return SplittingVerdict(SPLITTING_LABELS[mode], sigma, entangled, boundary)


def _pt_metrics(cm: np.ndarray):
    """PT lower eigenvalue ``mu``, ``delta_tilde`` and ``det cm`` of two-mode matrices
    stacked as ``(..., 4, 4)``."""
    # block (i, j) of each matrix sits at [..., i, j, :, :]
    blocks = np.swapaxes(cm.reshape(cm.shape[:-2] + (2, 2, 2, 2)), -3, -2)
    block_det = np.linalg.det(blocks)
    delta_tilde = block_det[..., 0, 0] + block_det[..., 1, 1] - 2.0 * block_det[..., 0, 1]
    det_cm = np.linalg.det(cm)
    # a product, not **: a float64 scalar's ** rounds through pow, an array's does not
    disc = delta_tilde * delta_tilde - 4.0 * det_cm
    mu = np.sqrt(np.maximum(0.5 * (delta_tilde - np.sqrt(np.maximum(disc, 0.0))), 0.0))
    return mu, delta_tilde, det_cm


def two_mode_metrics(cm: np.ndarray) -> EntanglementMetrics:
    """Partial-transpose entanglement metrics of a two-mode state.

    Raises:
        UnphysicalError: the matrix is not physical (see ``validate_cm``).
    """
    return _entanglement_metrics(*(x.item() for x in _pt_metrics(_as_modes(cm, 2))))


def _entanglement_metrics(mu: float, delta_tilde: float, det_cm: float) -> EntanglementMetrics:
    """The pair record of one matrix's ``_pt_metrics``, with its verdict against ``BOUNDARY_TOL``."""
    return EntanglementMetrics(mu, log_negativity(mu), delta_tilde, det_cm - delta_tilde + 1.0,
                               mu < 1.0 - BOUNDARY_TOL, abs(mu - 1.0) <= BOUNDARY_TOL)


def log_negativity(mu: float) -> float:
    """Logarithmic negativity ``max(0, -log2 mu)`` of a PT lower eigenvalue."""
    if not mu >= 0:  # NaN fails too
        raise ValueError(f"mu must be nonnegative, got {mu}")
    if mu == 0:
        return float("inf")
    return max(0.0, float(-np.log2(mu)))


def classify_three_mode(cm: np.ndarray) -> SeparabilityReport:
    """Full separability report of a three-mode state.

    Runs the invariant test on all three 1x2 splittings and the
    partial-transpose metrics on all three two-mode reductions, then maps
    the number of entangled splittings to the class label (3: fully
    inseparable, 2: one-mode biseparable, 1: two-mode biseparable,
    0: PPT across all splittings).
    """
    return _three_mode_report(_as_modes(cm, 3))


def _three_mode_report(cm: np.ndarray) -> SeparabilityReport:
    """:func:`classify_three_mode` of a 6x6 matrix already judged physical."""
    sigma, entangled, boundary, label = _splittings(cm)
    pairs = _pt_metrics(cm[_PAIR_QUADS[:, :, None], _PAIR_QUADS[:, None, :]])
    label = label.item()
    verdicts = map(SplittingVerdict, SPLITTING_LABELS, sigma.tolist(), entangled.tolist(), boundary.tolist())
    pairwise = zip(PAIR_LABELS, map(_entanglement_metrics, *(x.tolist() for x in pairs)))
    separable = SPLITTING_LABELS[entangled.argmin()] if label == CLASS_ONE_MODE_BISEPARABLE else None
    entangled_one = SPLITTING_LABELS[entangled.argmax()] if label == CLASS_TWO_MODE_BISEPARABLE else None
    return SeparabilityReport(tuple(verdicts), tuple(pairwise), label, separable, entangled_one)


def _localizable_mu(cm: np.ndarray, measured_mode: int) -> np.ndarray:
    """:func:`localizable_mu` of three-mode matrices stacked as ``(..., 6, 6)``, shaped
    ``cm.shape[:-2]``, with no bisymmetry check: the protocol's shared stages are exactly bisymmetric."""
    return _pt_metrics(_condition(cm, MeasurementSpec.homodyne_x(measured_mode))[0])[0]


def localizable_mu(cm: np.ndarray, measured_mode: int) -> float:
    """PT lower eigenvalue left between two exchange-symmetric modes after
    homodyne detection of the position quadrature on the third.

    Position homodyne is the optimal Gaussian measurement for bisymmetric
    states, so the input must be symmetric under exchange of the two
    unmeasured modes (otherwise :class:`NotBisymmetricError`).
    """
    (measured_mode,) = _check_modes(measured_mode, 3)
    cm = _as_modes(cm, 3)
    i, j = (m for m in range(3) if m != measured_mode)
    swap = _quadratures([m if m == measured_mode else i + j - m for m in range(3)])
    dev = np.abs(cm[swap[:, None], swap] - cm).max()
    if dev > BISYMMETRY_TOL * max(1.0, np.abs(cm).max()):
        raise NotBisymmetricError(f"state deviates by {dev:.3e} under exchange of modes {i} and {j}")
    return float(_localizable_mu(cm, measured_mode))


def measurement_scan_oracle(cm: np.ndarray, measured_mode: int, n_theta: int = 64, n_t: int = 64) -> float:
    """Minimum conditioned ``mu`` over a grid of Gaussian measurement seeds.

    Seeds are ``R(theta) diag(t, 1/t) R(theta)^T`` with theta uniform on
    [0, pi) and t log-spaced over ``[1e-6, 1e6]``, which
    brackets both homodyne limits.  Used as a brute-force check that no
    scanned Gaussian measurement beats the homodyne-x route.  All seeds are
    evaluated as one stack, with the same per-seed checks as a single
    measurement: physicality of each seed and a non-singular ``B + seed``.
    An empty grid raises ``ValueError``.
    """
    cm = _as_modes(cm, 3)
    if n_theta < 1 or n_t < 1:
        raise ValueError(f"the measurement grid is empty: n_theta={n_theta}, n_t={n_t}")
    theta = np.linspace(0.0, np.pi, n_theta, endpoint=False)
    cos, sin = np.cos(theta), np.sin(theta)
    # rotations shaped (n_theta, 1, 2, 2) broadcast against the (n_t, 2, 2) squeezes
    rot = np.moveaxis(np.array([[cos, -sin], [sin, cos]]), -1, 0)[:, None]
    t = np.logspace(-6.0, 6.0, n_t)
    squeeze = np.zeros((n_t, 2, 2))
    squeeze[:, 0, 0], squeeze[:, 1, 1] = t, 1.0 / t
    spec = MeasurementSpec.general_gaussian(measured_mode, rot @ squeeze @ np.swapaxes(rot, -1, -2))
    return float(_pt_metrics(_condition(cm, spec)[0])[0].min())
