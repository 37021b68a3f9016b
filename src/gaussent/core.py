"""Phase-space core: covariance matrices, the symplectic form, and mode bookkeeping.

Conventions used throughout the package:

* quadrature ordering ``(x1, p1, x2, p2, ...)``;
* the vacuum covariance matrix is the identity (a quadrature of variance
  ``v`` contributes ``2 v`` to the corresponding diagonal entry);
* a matrix is physical when all its symplectic eigenvalues are >= 1.
"""

from __future__ import annotations

import json
import os
import stat
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (
    BadModeIndexError,
    DimensionMismatchError,
    NotSymmetricError,
    UnphysicalError,
)

#: Maximum tolerated asymmetry |m - m^T|, relative to max(1, max|m|), before a matrix is rejected.
TAU_SYM = 1e-10
#: Fixed part of the physicality slack: symplectic eigenvalues must be >= 1 - TAU_PSD, up to rounding.
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


def _check_entries(m: np.ndarray) -> None:
    """``UnphysicalError`` if an entry of ``m``, one matrix or a ``(..., k, k)`` stack, is NaN or infinite, then
    ``NotSymmetricError`` if a matrix's ``max|m - m^T|`` reaches ``TAU_SYM max(1, max|m|)``, its rounding's scale."""
    finite = np.isfinite(m)
    if not finite.all():
        raise UnphysicalError(f"covariance matrix has {finite.size - finite.sum()} non-finite entries")
    asym, tol = np.abs(m - np.swapaxes(m, -1, -2)).max((-2, -1)), TAU_SYM * np.maximum(1.0, np.abs(m).max((-2, -1)))
    if (bad := asym >= tol).any():
        raise NotSymmetricError(f"asymmetry {asym[bad].flat[0]:.3e} exceeds tolerance {tol[bad].flat[0]:.1e}")


def _cholesky(m: np.ndarray) -> np.ndarray:
    """Finite Cholesky factor of ``m`` or of each stacked matrix; ``UnphysicalError`` if one has none."""
    try:
        if np.isfinite(chol := np.linalg.cholesky(m)).all():  # LAPACK factors a matrix holding inf without error
            return chol
    except np.linalg.LinAlgError:
        pass
    raise UnphysicalError("covariance matrix is not positive definite")


def _williamson(cm: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Williamson values ``nu`` (ascending) of a finite symmetric ``cm``, the eigenvectors ``v`` of
    ``i L^T Omega L`` that carry them, and ``L``: one factor ``cm = L L^T`` and one ``eigh``."""
    chol, n = _cholesky(cm), cm.shape[0] // 2
    a = chol[0::2].T @ chol[1::2]  # L^T Omega L = a - a^T: Omega swaps each (x, p) row pair of L, negating one
    nu, v = np.linalg.eigh(1j * (a - a.T))
    return nu[n:], v[:, n:], chol


def symplectic_eigenvalues(cm: np.ndarray) -> np.ndarray:
    """Williamson spectrum of a symmetric positive-definite 2n x 2n matrix: n values, ascending.

    ``i L^T Omega L``, with ``cm = L L^T`` by Cholesky, is similar to ``i Omega cm``
    and has eigenvalues ``+-nu_k``; the positive half is the spectrum.  Every
    physical matrix, and every partial transpose of one, is positive definite.
    Any other matrix, or a non-finite entry, raises ``UnphysicalError``, and an
    asymmetry of ``TAU_SYM max(1, max|cm|)`` or more ``NotSymmetricError``.
    """
    cm = _as_even_square(cm, "cm")
    _check_entries(cm)
    return _williamson(cm)[0]


def validate_cm(m: np.ndarray) -> np.ndarray:
    """Validate and symmetrize a covariance matrix: the physicality gate.

    The finite test comes first, then the symmetry test, then positive definiteness.  A Williamson value
    ``nu_k`` below ``1 - TAU_PSD`` is refused when the smaller of two upper bounds on it stays below
    ``1 - TAU_PSD``: ``nu_k + 8 eps ||m||_F``, the kernel's global rounding, and the Rayleigh quotient
    ``x_k^H m x_k / |x_k^H Omega x_k| >= nu_min`` of ``x_k = L^-T v_k``, widened by its own rounding
    ``8 eps |x_k|^T |m| |x_k| / |x_k^H Omega x_k|``.  The quotient reads only the modes ``x_k`` spans,
    so a large mode does not hide a violation in another.

    Args:
        m: candidate 2n x 2n matrix.

    Returns:
        The symmetrized matrix as a fresh float array.

    Raises:
        UnphysicalError: an entry is NaN or infinite, the matrix is not
            positive definite, or a symplectic eigenvalue is refused by
            the two bounds above.
        NotSymmetricError: asymmetry reaches ``TAU_SYM max(1, max|m|)``.
    """
    m = _as_even_square(m, "covariance matrix")
    _check_entries(m)
    m = 0.5 * (m + m.T)
    nu, v, chol = _williamson(m)
    low, eps = nu < 1.0 - TAU_PSD, np.finfo(float).eps
    if low.any():
        x = np.linalg.solve(chol.T, v[:, low])
        x /= np.abs(x).max(0)  # the quotients are unchanged by scaling x; this keeps a tiny m's products finite
        ax, omega_x = np.abs(x), np.abs((x.conj() * (symplectic_form(len(nu)) @ x)).sum(0))
        rayleigh = ((x.conj() * (m @ x)).sum(0).real + 8.0 * eps * (ax * (np.abs(m) @ ax)).sum(0)) / omega_x
        if (np.minimum(nu[low] + 8.0 * eps * np.linalg.norm(m), rayleigh) < 1.0 - TAU_PSD).any():
            raise UnphysicalError(f"smallest symplectic eigenvalue {float(nu[0])!r} violates the uncertainty bound",
                                  smallest_eigenvalue=float(nu[0]))
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
#: Sign that the partial transpose of mode k puts on each principal 2x2 and 4x4 minor of ``Omega @ cm``
#: (``[k, 0]`` and ``[k, 1]``; mode 3 is absent, so row 3 flips none): one per x or p of mode k it holds.
_PT_SIGNS = np.array([[[(-1.0) ** len({*s} & {*_quadratures([k])}) for s in q.tolist()] for q in (_PAIRS.T, _QUADS)]
                      for k in range(4)])
#: The three-mode symplectic form.
_OMEGA3 = symplectic_form(3)


def _pt_invariants(cm: np.ndarray, rows) -> InvariantTriple:
    """Invariants of ``(..., 6, 6)`` stacks after each partial transpose in ``rows`` of ``_PT_SIGNS``, shaped
    ``(..., len(rows))`` (``i3``, unchanged by all, ``(..., 1)``), from one set of signed minors of ``Omega @ cm``."""
    m = _OMEGA3 @ cm
    a, b = _PAIRS
    minors = (m[..., a, a] * m[..., b, b] - m[..., a, b] * m[..., b, a])[..., None, :] * _PT_SIGNS[rows, 0]
    # a running sum adds the minors left to right; np.sum's pairwise order differs in the last bits
    i1 = np.add.accumulate(minors, axis=-1)[..., -1]
    # a C-ordered det4 sums each matrix's 15 minors in pairwise order, as the single-matrix np.sum does
    det4 = np.ascontiguousarray(np.linalg.det(m[..., _QUADS[:, :, None], _QUADS[:, None, :]]))
    return InvariantTriple(i1, (det4[..., None, :] * _PT_SIGNS[rows, 1]).sum(-1), np.linalg.det(m)[..., None])


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
    triple = InvariantTriple(*(x[..., 0] for x in _pt_invariants(cm, [3])))
    return InvariantTriple(*map(float, triple)) if cm.ndim == 2 else triple


def reduce_modes(cm: np.ndarray, modes: Sequence[int] | int) -> np.ndarray:
    """Principal submatrix on the selected quadrature pairs, in the given order."""
    cm = _as_even_square(cm, "cm")
    modes = _check_modes(modes, cm.shape[0] // 2)
    idx = _quadratures(modes)
    return cm[np.ix_(idx, idx)]


def is_classical(cm: np.ndarray) -> bool:
    """Whether the normally ordered ``cm - I`` is positive semidefinite, up to ``TAU_PSD + 8 eps ||cm||_F``;
    a non-finite or asymmetric ``cm`` raises.

    Classical states remain separable under passive mixing with vacuum.
    """
    cm = _as_even_square(cm, "cm")
    _check_entries(cm)
    tol = TAU_PSD + 8.0 * np.finfo(float).eps * np.linalg.norm(cm)  # the physicality gate's global term
    return bool(np.linalg.eigvalsh(cm - np.eye(cm.shape[0])).min() >= -tol)


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
    "displacement": [2 n finite numbers, optional]}``.  The matrix is passed
    through :func:`validate_cm`.
    """
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ValueError("a state file must hold a JSON object with 'n_modes' and 'cm'")
    n = data.get("n_modes")
    if type(n) is not int or n < 1:  # bool and float are refused too
        raise DimensionMismatchError(f"'n_modes' must be a positive integer, got {json.dumps(n)}")
    cm = _float_field(data, "cm")
    if cm.shape != (4 * n * n,):
        raise DimensionMismatchError(
            f"'cm' must hold {4 * n * n} row-major entries for n_modes={n}, got shape {cm.shape}"
        )
    cm = validate_cm(cm.reshape(2 * n, 2 * n))
    d = None if data.get("displacement") is None else _float_field(data, "displacement")
    if d is not None and not np.isfinite(d).all():
        raise ValueError(f"'displacement' must hold finite numbers, got {json.dumps(data['displacement'])[:80]}")
    return GaussianState(cm, d)


def _float_field(data: dict, key: str) -> np.ndarray:
    """``data[key]`` as a float array; a missing field or anything but a list of JSON numbers
    (``int`` or ``float``, not ``bool``) raises ``ValueError`` naming the field."""
    value = data.get(key)
    if not isinstance(value, list) or not all(type(x) in (int, float) for x in value):
        raise ValueError(f"'{key}' must be a list of numbers, got {json.dumps(value)[:80]}")
    try:
        return np.array(value, dtype=float)
    except OverflowError as exc:  # an integer beyond the float range
        raise ValueError(f"'{key}' must hold float-range numbers: {exc}") from None


def save_state(state: GaussianState, path: str | Path) -> None:
    """Write a state in the JSON covariance-matrix file format: the bytes of ``json.dumps(record, indent=2)``
    and a newline, ``NaN`` and ``Infinity`` included.  Each field goes through the C encoder on one line, which
    an indent would replace by the pure-Python one at twice the cost; the record's lists are flat and nonempty, so
    breaking their ``[``, ``, `` and ``]`` indents them as that would."""
    fields = ",\n  ".join(f'"{key}": {json.dumps(value)}' for key, value in state.to_json_dict().items())
    text = fields.replace("[", "[\n    ").replace(", ", ",\n    ").replace("]", "\n  ]")
    _write_file(path, "{\n  " + text + "\n}\n")


def _write_file(path: str | Path, text: str) -> None:
    """Write ``text`` (UTF-8, ASCII in practice) to ``path`` in place, the package's one file writer.

    The file is opened without ``O_TRUNC`` (created with mode ``0o666 & ~umask``), written from its start, and only
    then cut to the new length if ``fstat`` shows a regular file that is longer; a device such as ``/dev/null``,
    whose ``ftruncate`` fails, is left as it is.  Truncating a file that holds data to zero makes ext4 (under its
    default ``auto_da_alloc``) start writeback at close, which cost several times the write itself.  A failed write
    (say ``ENOSPC``) raises ``OSError`` and leaves the part written over the old tail."""
    data = text.encode()
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        done = 0
        while done < len(data):  # os.write may write less than it is given
            done += os.write(fd, data[done:])
        info = os.fstat(fd)
        if stat.S_ISREG(info.st_mode) and info.st_size > done:
            os.ftruncate(fd, done)
    finally:
        os.close(fd)
