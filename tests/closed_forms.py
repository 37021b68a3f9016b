"""Exact splitting and pair verdicts of every protocol stage, as plain numpy formulas.

Derived with sympy by ``tests/derive_closed_forms.py``, which also checks these numpy forms against the
derivation (run by hand and in CI; no sympy or mpmath at test time).  With ``a = exp(2r)`` and
``n = exp(2 epsilon) - 1``, every stage matrix splits into x and p blocks, so a
splitting's ``sigma``, the product of ``nu_k^2 - 1`` over its partially transposed spectrum, is
``det(X D P D - I)``:

* shared: ``A|(A'B)`` and ``A'|(AB)`` are ``-(a - 1)^2 (a - n - 1) / a^2``; ``B|(AA')`` is 0;
* each final stage: that form for its route's splitting (``A|(A'B)`` via A', ``A'|(AB)`` via A), a quarter
  of it for the other two;
* initial: 0 for all three, since A' is a vacuum beside the pair.

So every splitting that is not identically 0 is entangled iff ``r > epsilon``.

A pair's product of ``nu^2 - 1`` over its partially transposed spectrum is ``det(X D P D - I)`` of its 2x2
blocks, negative iff the pair is entangled:

* ``n (a - 1) / a`` for initial A-B and shared A-A', and 0 for the initial pairs with the vacuum A';
* shared A-B and A'-B: ``(a - 1)((a - 1)^2 + n (a + 1)) / (4 a^2)``;
* final A-A': ``(a - 1)((8 sqrt 2 + 1) a^2 + (11 n - 8 sqrt 2 - 2) a + n + 1) / (16 a^2)``;
* the pair the protocol entangles (A-B via A', A'-B via A), entangled iff ``r > r_e``:
  ``-(a - 1)((8 sqrt 2 - 1) a^2 - (11 n + 8 sqrt 2 - 2) a - (n + 1)) / (16 a^2)``;
* the pair at Bob's output ports (A'-B via A', A-B via A), entangled iff
  ``r > r_b = (1/2) ln(n + sqrt(n^2 + n + 1))``: ``-(a - 1)(a^2 - 2 a n - n - 1) / (4 a^2)``.
"""

import numpy as np

from gaussent.protocol import STAGE_FINAL_VIA_A, STAGE_FINAL_VIA_APRIME, STAGE_INITIAL, STAGE_SHARED

_C8 = 8.0 * np.sqrt(2.0)

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


def pair_products(stage: str, r, epsilon) -> np.ndarray:
    """The three pairs' ``(nu_1^2 - 1)(nu_2^2 - 1)`` of ``stage`` in ``PAIR_LABELS`` order, shaped
    ``np.shape(r) + (3,)``."""
    a, n = np.exp(2.0 * r), np.expm1(2.0 * epsilon)
    a2, zero = np.square(a), np.zeros_like(a)
    noise_form = n * (a - 1.0) / a
    shared_ab = (a - 1.0) * (np.square(a - 1.0) + n * (a + 1.0)) / (4.0 * a2)
    final_aa = (a - 1.0) * ((_C8 + 1.0) * a2 + (11.0 * n - _C8 - 2.0) * a + n + 1.0) / (16.0 * a2)
    entangled = -(a - 1.0) * ((_C8 - 1.0) * a2 - (11.0 * n + _C8 - 2.0) * a - (n + 1.0)) / (16.0 * a2)
    port = -(a - 1.0) * (a2 - 2.0 * a * n - n - 1.0) / (4.0 * a2)
    return np.stack({
        STAGE_INITIAL: (zero, noise_form, zero),
        STAGE_SHARED: (noise_form, shared_ab, shared_ab),
        STAGE_FINAL_VIA_APRIME: (final_aa, entangled, port),
        STAGE_FINAL_VIA_A: (final_aa, port, entangled),
    }[stage], axis=-1)


def pair_entangled(stage: str, r, epsilon) -> np.ndarray:
    """Which pairs of ``stage`` are entangled: those whose :func:`pair_products` is negative."""
    return pair_products(stage, r, epsilon) < 0.0
