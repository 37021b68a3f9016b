"""Phase-space core: covariance matrices, the symplectic form, and mode bookkeeping.

Conventions used throughout the package:

* quadrature ordering ``(x1, p1, x2, p2, ...)``;
* the vacuum covariance matrix is the identity (a quadrature of variance
  ``v`` contributes ``2 v`` to the corresponding diagonal entry);
* a matrix is physical when all its symplectic eigenvalues are >= 1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (
    BadModeIndexError,
    DimensionMismatchError,
    NotSymmetricError,
    NumericalFailureError,
    UnphysicalError,
)

#: Maximum tolerated asymmetry |m - m^T| before a matrix is rejected.
TAU_SYM = 1e-10
#: Slack on the physicality bound: symplectic eigenvalues must be >= 1 - TAU_PSD.
TAU_PSD = 1e-9


def symplectic_form(n_modes: int) -> np.ndarray:
    """Return the 2n x 2n symplectic form, block-diagonal in [[0, 1], [-1, 0]]."""
    if n_modes < 1:
        raise DimensionMismatchError(f"n_modes must be positive, got {n_modes}")
    x, p = _quadratures(range(n_modes)).reshape(-1, 2).T
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    omega[x, p], omega[p, x] = 1.0, -1.0
    return omega


def _as_even_square(m: np.ndarray, what: str = "matrix", stack: bool = False) -> np.ndarray:
    """Float array of one even-dimension square matrix, or of a ``(..., 2n, 2n)``
    stack of them when ``stack`` is set."""
    m = np.asarray(m, dtype=float)
    ndim_ok = m.ndim == 2 or (stack and m.ndim > 2)
    if not ndim_ok or m.shape[-1] != m.shape[-2] or m.shape[-1] % 2 != 0 or m.shape[-1] == 0:
        raise DimensionMismatchError(f"{what} must be square with even dimension, got shape {m.shape}")
    return m


def symplectic_eigenvalues(cm: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of a symmetric matrix, ascending.

    Computed as square roots of the eigenvalue moduli of ``-(Omega cm)^2``,
    which pairs up exactly; each pair is averaged into one of the n returned
    values.  Physicality is *not* required, so the routine is safe to use on
    partial transposes.

    Args:
        cm: symmetric 2n x 2n matrix.

    Returns:
        Array of n nonnegative reals, sorted ascending.
    """
    cm = _as_even_square(cm, "cm")
    n = cm.shape[0] // 2
    m = symplectic_form(n) @ cm
    try:
        ev = np.linalg.eigvals(-m @ m)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigenvalue iteration failed: {exc}") from exc
    nu = np.sort(np.sqrt(np.abs(ev)))
    return 0.5 * (nu[0::2] + nu[1::2])


def _check_finite(m: np.ndarray) -> None:
    """Raise ``UnphysicalError`` if an entry of the covariance matrix ``m`` is NaN or infinite."""
    finite = np.isfinite(m)
    if not finite.all():
        raise UnphysicalError(f"covariance matrix has {finite.size - finite.sum()} non-finite entries")


def validate_cm(m: np.ndarray) -> np.ndarray:
    """Validate and symmetrize a covariance matrix.

    Args:
        m: candidate 2n x 2n matrix.

    Returns:
        The symmetrized matrix as a fresh float array.

    Raises:
        UnphysicalError: an entry is NaN or infinite, or the smallest
            symplectic eigenvalue is below ``1 - TAU_PSD``.
        NotSymmetricError: asymmetry exceeds ``TAU_SYM``.
    """
    m = _as_even_square(m, "covariance matrix")
    _check_finite(m)
    asym = np.abs(m - m.T).max()
    if asym >= TAU_SYM:
        raise NotSymmetricError(f"asymmetry {asym:.3e} exceeds tolerance {TAU_SYM:.0e}")
    m = 0.5 * (m + m.T)
    smallest = symplectic_eigenvalues(m)[0]
    if smallest < 1.0 - TAU_PSD:
        raise UnphysicalError(
            f"smallest symplectic eigenvalue {smallest!r} violates the uncertainty bound",
            smallest_eigenvalue=float(smallest),
        )
    return m


def _check_modes(modes: Iterable[int] | int, n_modes: int) -> list[int]:
    if isinstance(modes, (int, np.integer)):
        modes = [int(modes)]
    modes = [int(m) for m in modes]
    if not modes:
        raise BadModeIndexError("mode selection is empty")
    if len(set(modes)) != len(modes):
        raise BadModeIndexError(f"repeated mode index in {modes}")
    for m in modes:
        if not 0 <= m < n_modes:
            raise BadModeIndexError(f"mode {m} out of range for {n_modes} modes")
    return modes


def _quadratures(modes: Iterable[int]) -> np.ndarray:
    """Indices ``2m, 2m + 1`` of the ``(x, p)`` quadratures of each listed mode, in order."""
    return np.array([q for m in modes for q in (2 * m, 2 * m + 1)], dtype=int)


def partial_transpose(cm: np.ndarray, modes: Iterable[int] | int) -> np.ndarray:
    """Flip the momentum sign of the listed modes (Gaussian partial transpose).

    Accepts one matrix or a ``(..., 2n, 2n)`` stack.  The operation is an
    exact involution: applying it twice returns the original entries bitwise.
    """
    cm = _as_even_square(cm, "cm", stack=True)
    modes = _check_modes(modes, cm.shape[-1] // 2)
    signs = np.ones(cm.shape[-1])
    signs[_quadratures(modes)[1::2]] = -1.0
    return cm * np.outer(signs, signs)


class InvariantTriple(NamedTuple):
    """Symplectic invariants (i1, i2, i3) of a three-mode matrix, or arrays of
    them over a stack of matrices.

    They are the coefficients of the characteristic polynomial
    ``q^6 + i1 q^4 + i2 q^2 + i3`` of ``Omega @ cm``.  For the identity
    (vacuum) the polynomial is ``(q^2 + 1)^3``, pinning the sign
    convention to ``(3, 3, 1)``.
    """

    i1: float
    i2: float
    i3: float


#: Indices of the 15 principal 2x2 minors of a 6x6 matrix (as rows a and b) and
#: of its 15 principal 4x4 minors, in ``combinations`` order.
_PAIRS = np.array(list(combinations(range(6), 2))).T
_QUADS = np.array(list(combinations(range(6), 4)))


def char_poly_invariants(cm: np.ndarray) -> InvariantTriple:
    """Characteristic-polynomial invariants of (partially transposed) 6x6 matrices.

    ``i1`` and ``i2`` are sums of principal 2x2 and 4x4 minors of
    ``Omega @ cm`` (an exact polynomial identity: odd-order minor sums
    vanish because the spectrum comes in +/- pairs); ``i3`` is the
    determinant of ``Omega @ cm``.  Accepts one matrix, giving floats, or a
    ``(..., 6, 6)`` stack, giving arrays of shape ``cm.shape[:-2]``; each
    matrix of a stack gets the same bits as on its own.
    """
    cm = _as_even_square(cm, "cm", stack=True)
    if cm.shape[-2:] != (6, 6):
        raise DimensionMismatchError(f"expected a 6x6 matrix, got {cm.shape}")
    m = symplectic_form(3) @ cm
    a, b = _PAIRS
    # builtin sum adds the minors left to right; np.sum's pairwise order differs in the last bits
    i1 = sum(np.moveaxis(m[..., a, a] * m[..., b, b] - m[..., a, b] * m[..., b, a], -1, 0))
    # fancy indexing puts the stack axis innermost; summing along a contiguous axis
    # gives each matrix numpy's pairwise order, as for a single matrix
    i2 = np.ascontiguousarray(np.linalg.det(m[..., _QUADS[:, :, None], _QUADS[:, None, :]])).sum(-1)
    i3 = np.linalg.det(m)
    if cm.ndim == 2:
        return InvariantTriple(float(i1), float(i2), float(i3))
    return InvariantTriple(i1, i2, i3)


def reduce_modes(cm: np.ndarray, modes: Sequence[int] | int) -> np.ndarray:
    """Principal submatrix on the selected quadrature pairs, in the given order."""
    cm = _as_even_square(cm, "cm")
    modes = _check_modes(modes, cm.shape[0] // 2)
    idx = _quadratures(modes)
    return cm[np.ix_(idx, idx)]


def is_classical(cm: np.ndarray) -> bool:
    """Whether the normally ordered matrix ``cm - I`` is positive semidefinite.

    Classical states remain separable under passive mixing with vacuum.
    """
    cm = _as_even_square(cm, "cm")
    return bool(np.linalg.eigvalsh(cm - np.eye(cm.shape[0])).min() >= -TAU_PSD)


@dataclass
class GaussianState:
    """A Gaussian state: covariance matrix plus coherent displacement.

    The displacement defaults to zero.  Construction performs shape checks
    only; run the matrix through :func:`validate_cm` to enforce physicality
    (the JSON reader does).
    """

    cm: np.ndarray
    displacement: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        self.cm = _as_even_square(self.cm, "cm")
        if self.displacement is None:
            self.displacement = np.zeros(self.cm.shape[0])
        else:
            self.displacement = np.asarray(self.displacement, dtype=float)
        if self.displacement.shape != (self.cm.shape[0],):
            raise DimensionMismatchError(
                f"displacement length {self.displacement.shape} does not match "
                f"a {self.cm.shape[0] // 2}-mode covariance matrix"
            )

    @property
    def n_modes(self) -> int:
        return self.cm.shape[0] // 2

    @classmethod
    def vacuum(cls, n_modes: int) -> "GaussianState":
        return cls(np.eye(2 * n_modes))

    def to_json_dict(self) -> dict:
        """The JSON covariance-matrix record read by :func:`load_state`."""
        return {
            "n_modes": self.n_modes,
            "cm": self.cm.ravel().tolist(),
            "displacement": self.displacement.tolist(),
        }


def apply_symplectic(state: GaussianState, transform) -> GaussianState:
    """Apply a symplectic transform: ``cm -> S cm S^T``, ``d -> S d``.

    Args:
        state: input state.
        transform: a :class:`~gaussent.ops.SymplecticTransform` or a bare
            2n x 2n matrix.
    """
    s = np.asarray(getattr(transform, "matrix", transform), dtype=float)
    if s.shape != state.cm.shape:
        raise DimensionMismatchError(
            f"transform shape {s.shape} does not match state shape {state.cm.shape}"
        )
    cm = s @ state.cm @ s.T
    return GaussianState(0.5 * (cm + cm.T), s @ state.displacement)


def load_state(path: str | Path) -> GaussianState:
    """Read a state from the JSON covariance-matrix file format.

    The schema is ``{"n_modes": int, "cm": [4 n^2 numbers, row-major],
    "displacement": [2 n numbers, optional]}``.  The matrix is passed
    through :func:`validate_cm`.
    """
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ValueError("a state file must hold a JSON object with 'n_modes' and 'cm'")
    n = data.get("n_modes")
    if type(n) is not int or n < 1:  # bool and float are refused too
        raise DimensionMismatchError(f"'n_modes' must be a positive integer, got {json.dumps(n)}")
    cm = np.asarray(data["cm"], dtype=float)
    if cm.shape != (4 * n * n,):
        raise DimensionMismatchError(
            f"'cm' must hold {4 * n * n} row-major entries for n_modes={n}, got shape {cm.shape}"
        )
    cm = validate_cm(cm.reshape(2 * n, 2 * n))
    displacement = data.get("displacement")
    if displacement is not None:
        displacement = np.asarray(displacement, dtype=float)
    return GaussianState(cm, displacement)


def save_state(state: GaussianState, path: str | Path) -> None:
    """Write a state in the JSON covariance-matrix file format."""
    Path(path).write_text(json.dumps(state.to_json_dict(), indent=2) + "\n")
