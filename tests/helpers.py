"""Shared test utilities: independent oracle routes and random-state generators.

The oracle functions here deliberately avoid the library's computation
paths (a general complex eigensolve of ``i Omega cm`` instead of the
Cholesky-based Hermitian route, explicit 2x2-block determinants instead of
the invariant machinery) so that agreement between the two is a real check.
"""

import numpy as np

from gaussent import symplectic_form


def sympl_eigs_oracle(cm):
    """Moduli of the eigenvalues of i Omega cm via a direct complex eigensolve."""
    n = cm.shape[0] // 2
    ev = np.linalg.eigvals(1j * symplectic_form(n) @ cm)
    mods = np.sort(np.abs(ev))
    return 0.5 * (mods[0::2] + mods[1::2])


def pt_mu_oracle(cm):
    """Lower PT symplectic eigenvalue of a two-mode state via explicit sign flip."""
    signs = np.array([1.0, 1.0, 1.0, -1.0])
    return sympl_eigs_oracle(cm * np.outer(signs, signs))[0]


def rotation(theta):
    return np.array([[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]])


def random_symplectic(n_modes, rng, layers=3, max_squeeze=0.8):
    """Random symplectic built from local rotations, squeezers, and beam splitters."""
    c = 1.0 / np.sqrt(2.0)
    s = np.eye(2 * n_modes)
    for _ in range(layers):
        for m in range(n_modes):
            z = rng.uniform(-max_squeeze, max_squeeze)
            local = rotation(rng.uniform(0, 2 * np.pi)) @ np.diag([np.exp(z), np.exp(-z)])
            lift = np.eye(2 * n_modes)
            lift[2 * m : 2 * m + 2, 2 * m : 2 * m + 2] = local
            s = lift @ s
        if n_modes > 1:
            i, j = rng.choice(n_modes, 2, replace=False)
            bs = np.eye(2 * n_modes)
            bs[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = c * np.eye(2)
            bs[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = c * np.eye(2)
            bs[2 * j : 2 * j + 2, 2 * i : 2 * i + 2] = c * np.eye(2)
            bs[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = -c * np.eye(2)
            s = bs @ s
    return s


def random_physical_cm(n_modes, rng, max_nu=3.0):
    """Random physical covariance matrix S diag(nu) S^T with all nu >= 1."""
    s = random_symplectic(n_modes, rng)
    nu = rng.uniform(1.0, max_nu, n_modes)
    return s @ np.diag(np.repeat(nu, 2)) @ s.T


def random_pure_cm(n_modes, rng):
    """Random pure-state covariance matrix S S^T."""
    s = random_symplectic(n_modes, rng)
    return s @ s.T


def tmsv_cm(r):
    """Two-mode squeezed vacuum at squeezing ``r``: a pure state."""
    ch, sh = np.cosh(2 * r), np.sinh(2 * r)
    z = np.diag([1.0, -1.0])
    return np.block([[ch * np.eye(2), sh * z], [sh * z, ch * np.eye(2)]])


def random_symmetric(dim, rng, scale=1.0):
    m = rng.normal(0.0, scale, (dim, dim))
    return 0.5 * (m + m.T)
