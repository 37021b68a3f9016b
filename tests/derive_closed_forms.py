"""Derive the closed forms and reference values that the tests hold as literals.  Run by hand:

    python tests/derive_closed_forms.py

It needs sympy and mpmath, which the tests do not import; pytest does not collect it.  It prints

* each protocol stage's three splitting ``sigma`` values, factored, with ``a = exp(2r)`` and
  ``n = exp(2 epsilon) - 1`` (held in ``tests/closed_forms.py``);
* ``r_e`` and ``r_m`` at 80 digits, from their closed forms, rounded to float64 (held in
  ``tests/test_protocol.py``).

Every stage matrix has no x-p correlation, so it is ``X`` on the positions and ``P`` on the momenta.  The
partial transpose of mode k flips the sign of ``p_k``, ``P -> D P D``, and the product of ``nu^2 - 1`` over
the partially transposed spectrum, the library's ``sigma = i3 - i2 + i1 - 1``, is ``det(X D P D - I)``.
"""

import mpmath as mp
import sympy as sp

a, n = sp.symbols("a n", positive=True)
S2 = sp.sqrt(2)


def diag2(x, y):
    return sp.Matrix([[x, 0], [0, y]])


# the shared-stage blocks, exp(-2r) = 1/a and exp(2r) = a
alpha = diag2(2 + n / a, a + 1) / 2
beta = diag2(2 - 1 / a, 1)
tau = diag2(1 / a - 1, 0) / S2
delta = diag2(n / a, a - 1) / 2
zero = sp.zeros(2, 2)

STAGES = {
    # the two-mode preparation with a vacuum A' in slot 1
    "initial": sp.BlockMatrix([
        [diag2(1 + n / a, a), zero, diag2(1 / a - 1, 0)],
        [zero, sp.eye(2), zero],
        [diag2(1 / a - 1, 0), zero, diag2(2 - 1 / a, 1)],
    ]),
    "shared": sp.BlockMatrix([[alpha, delta, tau], [delta, alpha, tau], [tau, tau, beta]]),
    "final-via-A'": sp.BlockMatrix([
        [alpha, (tau - delta) / S2, (tau + delta) / S2],
        [(tau - delta) / S2, (alpha + beta - 2 * tau) / 2, (beta - alpha) / 2],
        [(tau + delta) / S2, (beta - alpha) / 2, (alpha + beta + 2 * tau) / 2],
    ]),
    "final-via-A": sp.BlockMatrix([
        [(alpha + beta - 2 * tau) / 2, (delta - tau) / S2, (alpha - beta) / 2],
        [(delta - tau) / S2, alpha, (delta + tau) / S2],
        [(alpha - beta) / 2, (delta + tau) / S2, (alpha + beta + 2 * tau) / 2],
    ]),
}
SPLITTINGS = ("A|(A'B)", "A'|(AB)", "B|(AA')")


def splitting_sigmas(cm):
    m = sp.Matrix(cm)
    x, p = m[0::2, 0::2], m[1::2, 1::2]
    assert m[0::2, 1::2] == sp.zeros(3, 3), "the stage has an x-p correlation"
    for k in range(3):
        d = sp.diag(*[-1 if j == k else 1 for j in range(3)])
        yield sp.factor(sp.simplify((x * d * p * d - sp.eye(3)).det()))


mp.mp.dps = 80
C8 = 8 * mp.sqrt(2)


def r_e(eps):
    em = mp.exp(-2 * eps)
    u = 11 + (C8 - 13) * em
    return eps + mp.log((u + mp.sqrt(u * u + 4 * (C8 - 1) * em)) / (2 * (C8 - 1))) / 2


def r_m(eps):
    return eps + mp.log(1 + mp.sqrt(1 - mp.exp(-2 * eps))) / 2


def main():
    for stage, cm in STAGES.items():
        for splitting, sigma in zip(SPLITTINGS, splitting_sigmas(cm)):
            print(f"{stage:13} {splitting:8} sigma = {sigma}")
    print("# epsilon: (r_e, r_m)")
    for eps in ("1e-15", "1e-12", "1e-8", "1e-4", "1e-3", "0.1", "1", "3", "30", "300"):
        e = mp.mpf(float(eps))  # the float64 epsilon the library sees
        print(f"    {eps}: ({float(r_e(e))!r}, {float(r_m(e))!r}),")


if __name__ == "__main__":
    main()
