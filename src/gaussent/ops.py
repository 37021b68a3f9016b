"""Symplectic building blocks, Gaussian measurement conditioning, and sampling."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .core import GaussianState, TAU_PSD, _as_even_square, _check_entries, _check_modes, _quadratures, symplectic_form
from .errors import (
    BadCountError,
    BadModeIndexError,
    DimensionMismatchError,
    NotSymplecticError,
    SingularConditioningError,
    UnphysicalError,
)

if TYPE_CHECKING:  # pragma: no cover
    from .protocol import ProtocolParams

#: Tolerated violation of S Omega S^T = Omega at construction.
TAU_SYMPLECTIC = 1e-10
#: A measured-quadrature variance at or below this conditions nothing in homodyne.
HOMODYNE_SV_CUTOFF = 1e-12


@dataclass
class SymplecticTransform:
    """A 2n x 2n matrix preserving the symplectic form, checked at construction."""

    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = _as_even_square(self.matrix, "symplectic matrix")
        omega = symplectic_form(self.n_modes)
        dev = np.abs(self.matrix @ omega @ self.matrix.T - omega).max()
        if dev > TAU_SYMPLECTIC:
            raise NotSymplecticError(f"S Omega S^T deviates from Omega by {dev:.3e}")

    @property
    def n_modes(self) -> int:
        return self.matrix.shape[0] // 2


def beam_splitter(n_modes: int, i: int, j: int, variant: str = "plus") -> SymplecticTransform:
    """Balanced (50:50) beam splitter between modes ``i`` and ``j``.

    On the ordered pair ``(i, j)`` the transform acts, per quadrature, as

    * ``plus``:  ``(1/sqrt(2)) [[1, 1], [1, -1]]``  (mode i takes the sum),
    * ``minus``: ``(1/sqrt(2)) [[1, -1], [1, 1]]``  (mode i takes the difference),

    and as the identity elsewhere.  Both variants are orthogonal and
    symplectic.
    """
    _check_modes([i, j], n_modes)
    if variant not in ("plus", "minus"):
        raise ValueError(f"variant must be 'plus' or 'minus', got {variant!r}")
    mix = np.array([[1.0, 1.0], [1.0, -1.0]] if variant == "plus" else [[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0)
    s = np.eye(2 * n_modes)
    for quadrature in _quadratures([i, j]).reshape(2, 2).T:  # (x_i, x_j), then (p_i, p_j)
        s[np.ix_(quadrature, quadrature)] = mix
    return SymplecticTransform(s)


def mode_permutation(n_modes: int, perm: Sequence[int]) -> SymplecticTransform:
    """Symplectic transform relabeling modes so that new mode k is old mode perm[k]."""
    perm = _check_modes(list(perm), n_modes)
    if len(perm) != n_modes:
        raise BadModeIndexError(f"permutation must list all {n_modes} modes, got {perm}")
    return SymplecticTransform(np.eye(2 * n_modes)[_quadratures(perm)])


def embed_vacuum(state: GaussianState, position: int) -> GaussianState:
    """Direct-sum a vacuum mode into the state at the given mode slot."""
    n = state.n_modes
    if not 0 <= position <= n:
        raise BadModeIndexError(f"position {position} out of range for inserting into {n} modes")
    idx = _quadratures(k if k < position else k + 1 for k in range(n))
    cm = np.eye(2 * (n + 1))
    cm[np.ix_(idx, idx)] = state.cm
    d = np.zeros(2 * (n + 1))
    d[idx] = state.displacement
    return GaussianState(cm, d)


@dataclass
class MeasurementSpec:
    """A Gaussian measurement on one mode.

    ``kind`` is one of ``homodyne-x``, ``homodyne-p`` or ``general-gaussian``.
    For the general case ``seed_cm`` is the 2x2 covariance matrix of the
    Gaussian state the detector projects onto, or a stack of them shaped
    ``(..., 2, 2)`` whose every seed is checked; homodyne-x is the
    ``diag(t, 1/t), t -> 0`` limit (vanishing position variance) and
    homodyne-p the ``t -> inf`` limit.
    """

    mode: int
    kind: str
    seed_cm: np.ndarray | None = None

    KINDS = ("homodyne-x", "homodyne-p", "general-gaussian")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"kind must be one of {self.KINDS}, got {self.kind!r}")
        if self.kind == "general-gaussian":
            if self.seed_cm is None:
                raise ValueError("general-gaussian measurement needs a seed_cm")
            seed = np.asarray(self.seed_cm, dtype=float)
            if seed.shape[-2:] != (2, 2):
                raise DimensionMismatchError(f"seed_cm must be 2x2 or (..., 2, 2), got {seed.shape}")
            _check_entries(seed)
            det = np.linalg.det(seed)  # a squeezed seed R diag(t, 1/t) R^T rounds its det to eps t^2
            tol = TAU_PSD + 8.0 * np.finfo(float).eps * np.abs(seed).max(axis=(-2, -1)) ** 2
            bad = (det < 1.0 - tol) | (seed[..., 0, 0] <= 0)
            if bad.any():
                raise UnphysicalError(f"seed_cm is unphysical (det {det[bad].flat[0]:.6g} < 1)")
            self.seed_cm = seed
        elif self.seed_cm is not None:
            raise ValueError(f"seed_cm is only meaningful for general-gaussian, not {self.kind}")

    @classmethod
    def homodyne_x(cls, mode: int) -> "MeasurementSpec":
        return cls(mode, "homodyne-x")

    @classmethod
    def homodyne_p(cls, mode: int) -> "MeasurementSpec":
        return cls(mode, "homodyne-p")

    @classmethod
    def general_gaussian(cls, mode: int, seed_cm: np.ndarray) -> "MeasurementSpec":
        return cls(mode, "general-gaussian", seed_cm)


def _condition(cm: np.ndarray, spec: MeasurementSpec):
    """``A - C M C^T`` of :func:`condition_on_measurement` and the kept quadrature
    indices, for one matrix or each matrix of a ``(..., 2n, 2n)`` stack, broadcast
    over the stacked seeds of ``spec``."""
    n = cm.shape[-1] // 2
    mode = _check_modes(spec.mode, n)[0]
    if n < 2:
        raise DimensionMismatchError("conditioning needs at least two modes")
    ki, mi = _quadratures(m for m in range(n) if m != mode), _quadratures([mode])
    a, b, c = cm[..., ki[:, None], ki], cm[..., mi[:, None], mi], cm[..., ki[:, None], mi]
    if spec.kind == "general-gaussian":
        total = b + spec.seed_cm
        cond = np.linalg.cond(total)
        bad = ~(cond <= 1e13)  # NaN and inf fail too
        if bad.any():
            raise SingularConditioningError(
                f"measured block plus seed is numerically singular (cond {cond[bad].flat[0]:.3e})"
            )
        m = np.linalg.inv(total)
    else:
        k = 0 if spec.kind == "homodyne-x" else 1
        b_kk = b[..., k, k]
        measured = np.abs(b_kk) > HOMODYNE_SV_CUTOFF
        m = np.zeros(b.shape)
        m[..., k, k] = np.where(measured, 1.0 / np.where(measured, b_kk, 1.0), 0.0)
    # symmetrize only the correction so an uncorrelated mode (C = 0) leaves
    # the kept block bitwise untouched
    correction = c @ m @ np.swapaxes(c, -1, -2)
    return a - 0.5 * (correction + np.swapaxes(correction, -1, -2)), ki


def condition_on_measurement(state: GaussianState, spec: MeasurementSpec) -> GaussianState:
    """Condition a state on a Gaussian measurement of one mode; a non-finite or asymmetric ``state.cm`` raises.

    With the covariance matrix partitioned around the measured mode into
    kept block A, measured block B and correlation block C, the conditional
    matrix is ``A - C M C^T`` where M is ``(B + seed)^{-1}`` for a general
    Gaussian measurement.  For homodyne detection M is ``1/B_kk`` on the
    measured quadrature k and zero elsewhere, or all zero when
    ``|B_kk| <= HOMODYNE_SV_CUTOFF``.  The result does not depend on the
    measurement outcome, so the kept displacement entries are returned
    unchanged (outcome-averaged analysis).
    """
    _check_entries(state.cm)
    cm, kept = _condition(state.cm, spec)
    return GaussianState(cm, state.displacement[kept])


@dataclass
class SampleBatch:
    """Empirical second moments from a correlated-displacement preparation run.

    ``empirical_cm`` uses the same normalization as the analytic matrices
    (entry = 2 x sample covariance) and is symmetric by construction but not
    necessarily physical.
    """

    count: int
    seed: int
    empirical_cm: np.ndarray
    empirical_mean: np.ndarray
    analytic_cm: np.ndarray

    @property
    def max_abs_dev(self) -> float:
        return float(np.abs(self.empirical_cm - self.analytic_cm).max())

    def to_json_dict(self) -> dict:
        return {
            "count": self.count,
            "seed": self.seed,
            "empirical_cm": self.empirical_cm.tolist(),
            "empirical_mean": self.empirical_mean.tolist(),
            "analytic_cm": self.analytic_cm.tolist(),
            "max_abs_dev": self.max_abs_dev,
        }


def _preparation_cm(r: float, epsilon: float) -> np.ndarray:
    """Second moments predicted by the preparation model below, which are the
    initial two-mode state of :func:`gaussent.protocol.initial_cm`."""
    em = np.exp(-2.0 * r)
    return np.array([
        [1.0 + em * (np.exp(2.0 * epsilon) - 1.0), 0.0, em - 1.0, 0.0],
        [0.0, np.exp(2.0 * r), 0.0, 0.0],
        [em - 1.0, 0.0, 2.0 - em, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ])


def sample_preparation(params: "ProtocolParams", count: int, seed: int) -> SampleBatch:
    """Monte Carlo run of the correlated-displacement preparation.

    Mode A starts in a squeezed state with covariance
    ``diag(exp(-2(r - eps)), exp(2r))`` (physical for all r, eps >= 0 since
    its determinant is exp(2 eps) >= 1), mode B in vacuum.  A classical
    displacement ``xbar`` of variance ``(1 - exp(-2r))/2`` is added to x_A
    and subtracted from x_B.  Sampling uses ``numpy.random.default_rng``
    (PCG64), so results are reproducible bit-for-bit given (seed, count).
    """
    if count < 2:
        raise BadCountError(f"count must be at least 2, got {count}")
    r, epsilon = params.r, params.epsilon
    # rows x_A, p_A, x_B, p_B, xbar in one draw: bit for bit the stream of five
    # successive rng.normal(0.0, scale, count) calls, which compute 0.0 + scale * z
    twice_var = np.array([np.exp(-2.0 * (r - epsilon)), np.exp(2.0 * r), 1.0, 1.0, 1.0 - np.exp(-2.0 * r)])
    draws = np.random.default_rng(seed).standard_normal((5, count))
    draws *= np.sqrt(twice_var / 2.0)[:, None]
    draws[0] += draws[4]
    draws[2] -= draws[4]
    samples = draws[:4]
    empirical_cm = 2.0 * np.cov(samples)
    return SampleBatch(
        count=int(count),
        seed=int(seed),
        empirical_cm=0.5 * (empirical_cm + empirical_cm.T),
        empirical_mean=samples.mean(axis=1),
        analytic_cm=_preparation_cm(r, epsilon),
    )
