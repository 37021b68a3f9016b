"""Independent oracles for the benchmark's correctness checks.

Nothing here calls gaussent.  States are built through the physical
pipeline (preparation model, vacuum embedding, beam splitters) rather than
the library's closed forms; symplectic spectra come from a direct complex
eigensolve of ``i Omega cm`` rather than the library's squared-form route or
its characteristic-polynomial invariants; thresholds use the closed forms
written without the library's exponential factoring.
"""

from __future__ import annotations

from functools import cache

import numpy as np

#: Oracle verdicts closer than this to the separability boundary are not judged.
LABEL_MARGIN = 1e-6
#: Closed forms and library values must agree to this relative tolerance
#: (the CLI rounds to 12 significant digits).
REL_TOL = 1e-9
#: mu must equal 1 at the thresholds to this tolerance (acceptance criterion 6).
THRESHOLD_MU_TOL = 1e-6
#: Bisection roots must match the closed forms to this (acceptance criterion 6).
ROOT_TOL = 1e-8
#: The scanned minimum may differ from the homodyne optimum by at most this
#: (acceptance criterion 5 bounds the side where the scan beats homodyne).
SCAN_TOL = 1e-4
#: Empirical second moments may deviate from the model by this many standard errors.
SAMPLE_SIGMAS = 6.0

STAGES = ("initial", "shared", "final-via-A'", "final-via-A")
SPLITTINGS = ("A|(A'B)", "A'|(AB)", "B|(AA')")
CLASS_BY_COUNT = {
    3: "fully-inseparable",
    2: "one-mode-biseparable",
    1: "two-mode-biseparable",
    0: "ppt-all-splittings",
}
_C8 = 8.0 * np.sqrt(2.0)


@cache
def omega(n_modes: int) -> np.ndarray:
    """Symplectic form; cached, so callers must not write to it."""
    return np.kron(np.eye(n_modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def symplectic_spectrum(cm: np.ndarray) -> np.ndarray:
    """Moduli of the eigenvalues of ``i Omega cm``, paired and ascending."""
    ev = np.linalg.eigvals(1j * omega(cm.shape[0] // 2) @ cm)
    mods = np.sort(np.abs(ev))
    return 0.5 * (mods[0::2] + mods[1::2])


def flip_momentum(cm: np.ndarray, mode: int) -> np.ndarray:
    signs = np.ones(cm.shape[0])
    signs[2 * mode + 1] = -1.0
    return cm * np.outer(signs, signs)


def pt_mu(cm: np.ndarray, mode: int) -> float:
    """Smallest symplectic eigenvalue of the partial transpose on ``mode``."""
    return float(symplectic_spectrum(flip_momentum(cm, mode))[0])


def beam_splitter(n_modes: int, i: int, j: int, minus: bool = False) -> np.ndarray:
    """Balanced splitter: mode i takes (i + j)/sqrt2 (or (i - j)/sqrt2 if minus)."""
    c = np.sqrt(0.5) * np.eye(2)
    s = np.eye(2 * n_modes)
    si, sj = slice(2 * i, 2 * i + 2), slice(2 * j, 2 * j + 2)
    s[si, si], s[si, sj] = c, (-c if minus else c)
    s[sj, si], s[sj, sj] = c, (c if minus else -c)
    return s


def preparation_cm(r: float, eps: float) -> np.ndarray:
    """Second moments of the correlated-displacement preparation, order (xA, pA, xB, pB).

    Squeezed mode A with variances ``e^{-2(r-eps)}/2``, ``e^{2r}/2``, vacuum
    mode B, and a classical displacement of variance ``(1 - e^{-2r})/2``
    added to x_A and subtracted from x_B; entries are twice the covariances.
    """
    spread = np.array([1.0, 0.0, -1.0, 0.0])
    return (np.diag([np.exp(-2.0 * (r - eps)), np.exp(2.0 * r), 1.0, 1.0])
            + (1.0 - np.exp(-2.0 * r)) * np.outer(spread, spread))


def stage_cm(r: float, eps: float, stage: str) -> np.ndarray:
    """Three-mode (A, A', B) matrix of a protocol stage, built by the pipeline."""
    cm = np.eye(6)
    ab = [0, 1, 4, 5]
    cm[np.ix_(ab, ab)] = preparation_cm(r, eps)
    if stage == "initial":
        return cm
    s = beam_splitter(3, 0, 1)
    cm = s @ cm @ s.T
    if stage == "shared":
        return cm
    s = {"final-via-A'": beam_splitter(3, 2, 1), "final-via-A": beam_splitter(3, 0, 2, minus=True)}[stage]
    return s @ cm @ s.T


def reduced_pair_mu(r: float, eps: float) -> float:
    """PT eigenvalue of the pair (A, B) after Bob's splitter (route via A')."""
    cm = stage_cm(r, eps, "final-via-A'")[np.ix_([0, 1, 4, 5], [0, 1, 4, 5])]
    return pt_mu(cm, 1)


def homodyne_mu(r: float, eps: float) -> float:
    """PT eigenvalue of (A, A') after position homodyne on B in the shared stage."""
    cm = stage_cm(r, eps, "shared")
    corr = cm[:4, 4]
    return pt_mu(cm[:4, :4] - np.outer(corr, corr) / cm[4, 4], 1)


def sigma_shared_a(r: float, eps: float) -> float:
    """Closed-form invariant test value of the A|(A'B) splitting in the shared stage."""
    return 8.0 * np.exp(eps - r) * np.sinh(eps - r) * np.sinh(r) ** 2


def r_e(eps: float) -> float:
    e2 = np.exp(2.0 * eps)
    u = 11.0 * e2 + _C8 - 13.0
    return 0.5 * np.log((u + np.sqrt(u * u + 4.0 * (_C8 - 1.0) * e2)) / (2.0 * (_C8 - 1.0)))


def r_m(eps: float) -> float:
    return 0.5 * np.log(np.exp(2.0 * eps) * (1.0 + np.sqrt(1.0 - np.exp(-2.0 * eps))))


def expected_splittings(cm: np.ndarray, stage: str | None, r: float = 0.0, eps: float = 0.0):
    """Expected ``entangled`` flag per splitting; None where it is not judged.

    Protocol stages that sit on the boundary use the analytic ladder: the
    initial state is separable across every splitting, and in the shared
    stage ``B|(AA')`` is never entangled while A and A' are entangled iff
    ``r > eps``.  Other states use the PT eigensolve, judged only where the
    smallest PT eigenvalue is more than ``LABEL_MARGIN`` away from 1.
    """
    if stage == "initial":
        return [False, False, False]
    if stage == "shared":
        side = None if abs(r - eps) <= LABEL_MARGIN or r <= LABEL_MARGIN else r > eps
        return [side, side, False]
    flags = []
    for mode in range(3):
        mu = pt_mu(cm, mode)
        flags.append(None if abs(mu - 1.0) <= LABEL_MARGIN else mu < 1.0)
    return flags


def on_boundary(stage: str | None, mode: int) -> bool:
    """Whether a protocol splitting is analytically on the separability boundary."""
    return stage == "initial" or (stage == "shared" and mode == 2)


def expected_class(flags) -> str | None:
    if any(f is None for f in flags):
        return None
    return CLASS_BY_COUNT[sum(flags)]


def close(value: float, target: float, rel: float = REL_TOL) -> bool:
    return bool(abs(value - target) <= rel * max(1.0, abs(target)))


def sample_deviation(empirical: np.ndarray, model: np.ndarray, count: int) -> float:
    """Largest entrywise deviation of an empirical matrix in standard errors.

    For Gaussian samples with matrix ``A`` (twice the covariance) the entry
    ``2 cov_ij`` has variance ``(A_ii A_jj + A_ij^2) / count``.
    """
    d = np.diag(model)
    stderr = np.sqrt((np.outer(d, d) + model**2) / count)
    return float((np.abs(empirical - model) / stderr).max())


def random_symplectic(rng: np.random.Generator, n_modes: int = 3, layers: int = 3,
                      max_squeeze: float = 0.8) -> np.ndarray:
    """Random symplectic from local rotations and squeezers and balanced splitters."""
    s = np.eye(2 * n_modes)
    for _ in range(layers):
        for m in range(n_modes):
            z = rng.uniform(-max_squeeze, max_squeeze)
            th = rng.uniform(0.0, 2.0 * np.pi)
            rot = np.array([[np.cos(th), np.sin(th)], [-np.sin(th), np.cos(th)]])
            lift = np.eye(2 * n_modes)
            lift[2 * m:2 * m + 2, 2 * m:2 * m + 2] = rot @ np.diag([np.exp(z), np.exp(-z)])
            s = lift @ s
        i, j = rng.choice(n_modes, 2, replace=False)
        s = beam_splitter(n_modes, int(i), int(j)) @ s
    return s


def random_physical_cm(rng: np.random.Generator, max_nu: float = 3.0) -> np.ndarray:
    """Random physical three-mode matrix ``S diag(nu) S^T`` with every nu >= 1."""
    s = random_symplectic(rng)
    nu = rng.uniform(1.0, max_nu, 3)
    cm = s @ np.diag(np.repeat(nu, 2)) @ s.T
    return 0.5 * (cm + cm.T)
