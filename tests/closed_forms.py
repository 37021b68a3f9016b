"""Exact splitting verdicts of every protocol stage, as plain numpy formulas.

Derived once with sympy by ``tests/derive_closed_forms.py`` (run by hand; no sympy or mpmath at test time).
With ``a = exp(2r)`` and ``n = exp(2 epsilon) - 1``, every stage matrix splits into x and p blocks, so a
splitting's ``sigma``, the product of ``nu_k^2 - 1`` over its partially transposed spectrum, is
``det(X D P D - I)``:

* shared: ``A|(A'B)`` and ``A'|(AB)`` are ``-(a - 1)^2 (a - n - 1) / a^2``; ``B|(AA')`` is 0;
* each final stage: that form for its route's splitting (``A|(A'B)`` via A', ``A'|(AB)`` via A), a quarter
  of it for the other two;
* initial: 0 for all three, since A' is a vacuum beside the pair.

So every splitting that is not identically 0 is entangled iff ``r > epsilon``.
"""

import numpy as np

from gaussent.protocol import STAGE_FINAL_VIA_A, STAGE_FINAL_VIA_APRIME, STAGE_INITIAL, STAGE_SHARED

#: Each stage's splitting ``sigma`` in ``SPLITTING_LABELS`` order, as multiples of ``shared_sigma``.
SIGMA_MULTIPLES = {
    STAGE_INITIAL: (0.0, 0.0, 0.0),
    STAGE_SHARED: (1.0, 1.0, 0.0),
    STAGE_FINAL_VIA_APRIME: (1.0, 0.25, 0.25),
    STAGE_FINAL_VIA_A: (0.25, 1.0, 0.25),
}


def shared_sigma(r, epsilon):
    """``sigma`` of the shared stage's ``A|(A'B)`` splitting at squeezing ``r`` and noise ``epsilon``."""
    a, n = np.exp(2.0 * r), np.expm1(2.0 * epsilon)
    return -np.square(a - 1.0) * (a - n - 1.0) / np.square(a)


def sigma_closed_form(r, eps):
    """:func:`shared_sigma` in the acceptance criteria's form ``8 exp(eps - r) sinh(eps - r) sinh^2 r``, which
    rounds differently."""
    return 8 * np.exp(eps - r) * np.sinh(eps - r) * np.sinh(r) ** 2


def stage_sigmas(stage: str, r, epsilon) -> np.ndarray:
    """The three splittings' ``sigma`` of ``stage``, shaped ``np.shape(r) + (3,)``."""
    return np.multiply.outer(shared_sigma(r, epsilon), SIGMA_MULTIPLES[stage])


def stage_entangled(stage: str, r, epsilon) -> np.ndarray:
    """Which splittings of ``stage`` are entangled, decided exactly: a splitting that is not identically 0 is
    entangled iff ``r > epsilon``."""
    return np.multiply.outer(np.asarray(r) > epsilon, np.array(SIGMA_MULTIPLES[stage]) != 0.0)
