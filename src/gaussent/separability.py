"""Entanglement and separability criteria for two- and three-mode Gaussian states.

Three-mode states use the fixed mode naming (A, A', B) = (0, 1, 2).  A 1x2
splitting is judged by the sign of the invariant combination
``sigma = i3 - i2 + i1 - 1`` of the partially transposed matrix: negative
means entangled.  Two-mode states are judged by the lower symplectic
eigenvalue ``mu`` of the partial transpose: below 1 means entangled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _as_even_square, _check_modes, char_poly_invariants, partial_transpose
from .errors import ComplexEigenvalueError, DimensionMismatchError, NotBisymmetricError
from .ops import MeasurementSpec, _measurement_blocks, _schur_complement

#: Verdicts within this band of the threshold are reported as boundary cases.
BOUNDARY_TOL = 1e-12
#: Tolerated asymmetry under exchange of the two unmeasured modes.
BISYMMETRY_TOL = 1e-8

MODE_NAMES = ("A", "A'", "B")
SPLITTING_LABELS = ("A|(A'B)", "A'|(AB)", "B|(AA')")
PAIR_LABELS = ("A-A'", "A-B", "A'-B")
PAIR_MODES = ((0, 1), (0, 2), (1, 2))

CLASS_FULLY_INSEPARABLE = "fully-inseparable"
CLASS_ONE_MODE_BISEPARABLE = "one-mode-biseparable"
CLASS_TWO_MODE_BISEPARABLE = "two-mode-biseparable"
CLASS_PPT_ALL = "ppt-all-splittings"
#: Class label by the number of entangled splittings.
_CLASS_BY_COUNT = (
    CLASS_PPT_ALL, CLASS_TWO_MODE_BISEPARABLE, CLASS_ONE_MODE_BISEPARABLE, CLASS_FULLY_INSEPARABLE,
)
#: Quadrature indices of the two-mode reductions, in ``PAIR_MODES`` order.
_PAIR_QUADS = np.array([[2 * a, 2 * a + 1, 2 * b, 2 * b + 1] for a, b in PAIR_MODES])


@dataclass
class SplittingVerdict:
    """Invariant test value and verdict for one 1x2 splitting."""

    splitting: str
    sigma: float

    @property
    def entangled(self) -> bool:
        return self.sigma < -BOUNDARY_TOL

    @property
    def boundary(self) -> bool:
        return abs(self.sigma) <= BOUNDARY_TOL

    def to_json_dict(self) -> dict:
        return {
            "splitting": self.splitting,
            "sigma": self.sigma,
            "entangled": self.entangled,
            "boundary": self.boundary,
        }


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

    @property
    def entangled(self) -> bool:
        return self.mu < 1.0 - BOUNDARY_TOL

    @property
    def boundary(self) -> bool:
        return abs(self.mu - 1.0) <= BOUNDARY_TOL

    def to_json_dict(self) -> dict:
        return {
            "mu": self.mu,
            "log_negativity": self.log_negativity,
            "delta_tilde": self.delta_tilde,
            "ppt_condition_value": self.ppt_condition_value,
            "entangled": self.entangled,
        }


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


def _as_three_mode(cm: np.ndarray) -> np.ndarray:
    cm = _as_even_square(cm, "cm")
    if cm.shape != (6, 6):
        raise DimensionMismatchError(f"expected a 3-mode (6x6) matrix, got {cm.shape}")
    return cm


def _sigma(cm: np.ndarray, modes=(0, 1, 2)) -> np.ndarray:
    """``sigma`` of the splittings of ``modes`` from the rest, for three-mode
    matrices stacked as ``(..., 6, 6)``; shaped ``(..., len(modes))``."""
    pt = np.stack([partial_transpose(cm, mode) for mode in modes], axis=-3)
    i1, i2, i3 = char_poly_invariants(pt)
    return i3 - i2 + i1 - 1.0


def splitting_sigma(cm: np.ndarray, mode: int) -> SplittingVerdict:
    """Invariant separability test of one mode against the remaining pair."""
    (mode,) = _check_modes(mode, 3)
    return SplittingVerdict(SPLITTING_LABELS[mode], float(_sigma(_as_three_mode(cm), [mode])[0]))


def _pt_metrics(cm: np.ndarray):
    """PT lower eigenvalue ``mu``, ``delta_tilde`` and ``det cm`` of two-mode
    matrices stacked as ``(..., 4, 4)``."""
    # block (i, j) of each matrix sits at [..., i, j, :, :]
    blocks = np.swapaxes(cm.reshape(cm.shape[:-2] + (2, 2, 2, 2)), -3, -2)
    block_det = np.linalg.det(blocks)
    delta_tilde = block_det[..., 0, 0] + block_det[..., 1, 1] - 2.0 * block_det[..., 0, 1]
    det_cm = np.linalg.det(cm)
    disc = delta_tilde**2 - 4.0 * det_cm
    # initial=0.0 makes each check's test value the most negative entry, if any
    if (worst := disc.min(initial=0.0)) < -1e-9:
        raise ComplexEigenvalueError(f"discriminant {worst:.3e} is negative: unphysical input")
    mu_sq = 0.5 * (delta_tilde - np.sqrt(np.maximum(disc, 0.0)))
    if (worst := mu_sq.min(initial=0.0)) < -1e-9:
        raise ComplexEigenvalueError(f"squared eigenvalue {worst:.3e} is negative: unphysical input")
    return np.sqrt(np.maximum(mu_sq, 0.0)), delta_tilde, det_cm


def two_mode_metrics(cm: np.ndarray) -> EntanglementMetrics:
    """Partial-transpose entanglement metrics of a two-mode state.

    Raises:
        ComplexEigenvalueError: the discriminant ``delta_tilde^2 - 4 det cm``
            is negative beyond tolerance, i.e. the partial transpose has no
            real symplectic spectrum (unphysical input).
    """
    cm = _as_even_square(cm, "cm")
    if cm.shape != (4, 4):
        raise DimensionMismatchError(f"expected a 2-mode (4x4) matrix, got {cm.shape}")
    return _entanglement_metrics(*_pt_metrics(cm))


def _entanglement_metrics(mu, delta_tilde, det_cm) -> EntanglementMetrics:
    mu, delta_tilde, det_cm = float(mu), float(delta_tilde), float(det_cm)
    return EntanglementMetrics(
        mu=mu,
        log_negativity=log_negativity(mu),
        delta_tilde=delta_tilde,
        ppt_condition_value=det_cm - delta_tilde + 1.0,
    )


def _pair_metrics(cm: np.ndarray):
    """``_pt_metrics`` of the ``PAIR_MODES`` reductions of ``(..., 6, 6)`` matrices,
    each result shaped ``(..., 3)``."""
    return _pt_metrics(cm[..., _PAIR_QUADS[:, :, None], _PAIR_QUADS[:, None, :]])


def log_negativity(mu: float) -> float:
    """Logarithmic negativity ``max(0, -log2 mu)`` of a PT lower eigenvalue."""
    if mu < 0:
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
    cm = _as_three_mode(cm)
    verdicts = tuple(SplittingVerdict(label, float(x)) for label, x in zip(SPLITTING_LABELS, _sigma(cm)))
    pairwise = tuple(
        (label, _entanglement_metrics(*metrics)) for label, *metrics in zip(PAIR_LABELS, *_pair_metrics(cm))
    )
    entangled = [v.splitting for v in verdicts if v.entangled]
    separable = [v.splitting for v in verdicts if not v.entangled]
    return SeparabilityReport(
        verdicts, pairwise, _CLASS_BY_COUNT[len(entangled)],
        separable_splitting=separable[0] if len(entangled) == 2 else None,
        entangled_splitting=entangled[0] if len(entangled) == 1 else None,
    )


def _class_labels(cm: np.ndarray) -> list[str]:
    """Class label of each matrix of a ``(..., 6, 6)`` stack, flattened.

    Runs every check :func:`classify_three_mode` runs, including the
    ``ComplexEigenvalueError`` checks on the two-mode reductions.
    """
    _pair_metrics(cm)
    counts = (_sigma(cm) < -BOUNDARY_TOL).sum(-1)
    return [_CLASS_BY_COUNT[n] for n in counts.ravel()]


def _localizable_mu(cm: np.ndarray, measured_mode: int) -> np.ndarray:
    """:func:`localizable_mu` of three-mode matrices stacked as ``(..., 6, 6)``,
    shaped ``cm.shape[:-2]``; the bisymmetry check covers every matrix."""
    i, j = (m for m in range(3) if m != measured_mode)
    modes = [0, 1, 2]
    modes[i], modes[j] = j, i
    swap = np.array([q for m in modes for q in (2 * m, 2 * m + 1)])
    dev = np.abs(cm[..., swap[:, None], swap] - cm).max(initial=0.0)
    if dev > BISYMMETRY_TOL:
        raise NotBisymmetricError(f"state deviates by {dev:.3e} under exchange of modes {i} and {j}")
    a, b, c, _ = _measurement_blocks(cm, measured_mode)
    mu, _, _ = _pt_metrics(_schur_complement(a, b, c, MeasurementSpec.homodyne_x(measured_mode)))
    return mu


def localizable_mu(cm: np.ndarray, measured_mode: int) -> float:
    """PT lower eigenvalue left between two exchange-symmetric modes after
    homodyne detection of the position quadrature on the third.

    Position homodyne is the optimal Gaussian measurement for bisymmetric
    states, so the input must be symmetric under exchange of the two
    unmeasured modes (otherwise :class:`NotBisymmetricError`).
    """
    (measured_mode,) = _check_modes(measured_mode, 3)
    return float(_localizable_mu(_as_three_mode(cm), measured_mode))


def measurement_scan_oracle(
    cm: np.ndarray,
    measured_mode: int,
    n_theta: int = 64,
    n_t: int = 64,
    t_decades: float = 6.0,
) -> float:
    """Minimum conditioned ``mu`` over a grid of Gaussian measurement seeds.

    Seeds are ``R(theta) diag(t, 1/t) R(theta)^T`` with theta uniform on
    [0, pi) and t log-spaced over ``[10^-t_decades, 10^t_decades]``, which
    brackets both homodyne limits.  Used as a brute-force check that no
    scanned Gaussian measurement beats the homodyne-x route.  All seeds are
    evaluated as one stack, with the same per-seed checks as a single
    measurement: physicality of each seed and a non-singular ``B + seed``.
    """
    cm = _as_three_mode(cm)
    theta = np.linspace(0.0, np.pi, n_theta, endpoint=False)
    cos, sin = np.cos(theta), np.sin(theta)
    # rotations shaped (n_theta, 1, 2, 2) broadcast against the (n_t, 2, 2) squeezes
    rot = np.moveaxis(np.array([[cos, -sin], [sin, cos]]), -1, 0)[:, None]
    t = np.logspace(-t_decades, t_decades, n_t)
    squeeze = np.zeros((n_t, 2, 2))
    squeeze[:, 0, 0], squeeze[:, 1, 1] = t, 1.0 / t
    spec = MeasurementSpec.general_gaussian(measured_mode, rot @ squeeze @ np.swapaxes(rot, -1, -2))
    a, b, c, _ = _measurement_blocks(cm, measured_mode)
    mu, _, _ = _pt_metrics(_schur_complement(a, b, c, spec))
    return float(mu.min(initial=np.inf))
