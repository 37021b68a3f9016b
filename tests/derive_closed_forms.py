"""Derive the closed forms and reference values that the tests hold as literals.  Run by hand, and in CI:

    PYTHONPATH=src python tests/derive_closed_forms.py

It needs sympy and mpmath, which the tests do not import; pytest does not collect it.  It asserts

* that the final stage via A is the mirror of the one via A' (swap A and A', flip the sign of the new A),
  as ``protocol._stage_matrix`` builds it;
* that the (A, A') pair left after x-homodyne detection of B has the PT spectrum ``nu^2`` in
  ``{exp(2r), homodyne^2}``, the two branches whose lower one is ``protocol.mu_m``;

prints

* each protocol stage's three splitting ``sigma`` values and three pair products, factored, with
  ``a = exp(2r)`` and ``n = exp(2 epsilon) - 1`` (held in ``tests/closed_forms.py``);
* ``r_e`` and ``r_m`` at 80 digits, from their closed forms, rounded to float64 (held in
  ``tests/test_protocol.py``);

and exits nonzero unless every numpy form of ``tests/closed_forms.py`` agrees with the derived one at a few
dyadic ``(r, epsilon)``, in value and in the sign that decides entanglement.

Every stage matrix has no x-p correlation, so it is ``X`` on the positions and ``P`` on the momenta.  The
partial transpose of mode k flips the sign of ``p_k``, ``P -> D P D``, and the product of ``nu^2 - 1`` over
the partially transposed spectrum, the library's ``sigma = i3 - i2 + i1 - 1``, is ``det(X D P D - I)``; a
pair's is the same determinant of its 2x2 blocks.
"""

import sys

import mpmath as mp
import numpy as np
import sympy as sp

import closed_forms

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
PAIRS = {"A-A'": (0, 1), "A-B": (0, 2), "A'-B": (1, 2)}


def pt_product(x, p, k):
    """``det(X D P D - I)``: the product of ``nu^2 - 1`` over the spectrum with mode ``k``'s momentum flipped."""
    d = sp.diag(*[-1 if j == k else 1 for j in range(x.rows)])
    return sp.factor(sp.simplify((x * d * p * d - sp.eye(x.rows)).det()))


def x_and_p(cm):
    m = sp.Matrix(cm)
    assert m[0::2, 1::2] == sp.zeros(m.rows // 2, m.rows // 2), "the stage has an x-p correlation"
    return m[0::2, 0::2], m[1::2, 1::2]


def splitting_sigmas(cm):
    x, p = x_and_p(cm)
    return [pt_product(x, p, k) for k in range(3)]


def pair_products(cm):
    x, p = x_and_p(cm)
    return [pt_product(x.extract(modes, modes), p.extract(modes, modes), 1) for modes in map(list, PAIRS.values())]


def check_mirror():
    """The via-A layout above, written by hand, is the via-A' one with A and A' swapped and the new A's sign flipped."""
    swap = [2, 3, 0, 1, 4, 5]
    flip = sp.diag(-1, -1, 1, 1, 1, 1)
    mirrored = flip * sp.Matrix(STAGES["final-via-A'"]).extract(swap, swap) * flip
    assert sp.simplify(mirrored - sp.Matrix(STAGES["final-via-A"])) == sp.zeros(6, 6), "via A is not the mirror"


def check_conditioned_pair():
    """x-homodyne on B updates only the positions of (A, A'); the PT spectrum left is {exp(2r), homodyne^2}."""
    x, p = x_and_p(STAGES["shared"])
    x_cond = x[:2, :2] - x[:2, 2] * x[2, :2] / x[2, 2]
    d = sp.diag(1, -1)
    lam = sp.Symbol("lam")
    homodyne2 = 1 + n / a - (1 / a - 1) ** 2 / (2 - 1 / a)  # protocol._mu_m's radicand, with exp(-2r) = 1/a
    charpoly = (x_cond * d * p[:2, :2] * d).charpoly(lam).as_expr()
    assert sp.simplify(charpoly - (lam - a) * (lam - homodyne2)) == 0, "the conditioned pair's spectrum moved"


mp.mp.dps = 80
C8 = 8 * mp.sqrt(2)


def r_e(eps):
    em = mp.exp(-2 * eps)
    u = 11 + (C8 - 13) * em
    return eps + mp.log((u + mp.sqrt(u * u + 4 * (C8 - 1) * em)) / (2 * (C8 - 1))) / 2


def r_m(eps):
    return eps + mp.log(1 + mp.sqrt(1 - mp.exp(-2 * eps))) / 2


#: Dyadic (r, epsilon), exact in float64: at 1/8 noise, below r_e, between r_e and r_b, and above r_b.
POINTS = ((sp.Rational(1, 16), sp.Rational(1, 8)), (sp.Rational(5, 32), sp.Rational(1, 8)),
          (sp.Rational(1, 4), sp.Rational(1, 8)), (1, sp.Rational(1, 8)), (sp.Rational(1, 4), 1),
          (2, sp.Rational(1, 2)), (1, 3), (4, sp.Rational(5, 2)))


def check_numpy_forms(derived):
    """One message per ``closed_forms`` call whose values miss the derived ones by more than 1e-12 (1 + |value|),
    or whose entangled flags disagree with the derived signs."""
    bad = []
    for r, eps in POINTS:
        at = {a: sp.exp(2 * r), n: sp.exp(2 * eps) - 1}
        for stage, (sigmas, pairs) in derived.items():
            forms = {
                "stage_sigmas": (closed_forms.stage_sigmas(stage, float(r), float(eps)), sigmas,
                                 closed_forms.stage_entangled(stage, float(r), float(eps))),
                "pair_products": (closed_forms.pair_products(stage, float(r), float(eps)), pairs,
                                  closed_forms.pair_entangled(stage, float(r), float(eps))),
            }
            if stage == "shared":
                for name in ("shared_sigma", "sigma_closed_form"):
                    value = getattr(closed_forms, name)(float(r), float(eps))
                    forms[name] = (np.array([value]), sigmas[:1], np.array([value < 0]))
            for name, (values, exprs, entangled) in forms.items():
                exact = [float(sp.N(e.subs(at), 30)) for e in exprs]
                close = np.abs(values - exact) <= 1e-12 * (1.0 + np.abs(exact))
                if not (close.all() and np.array_equal(entangled, np.array(exact) < 0)):
                    bad.append(f"{name}({stage!r}, r={r}, epsilon={eps}): {values.tolist()} != {exact}")
    return bad


def main():
    check_mirror()
    check_conditioned_pair()
    derived = {}
    for stage, cm in STAGES.items():
        derived[stage] = sigmas, pairs = splitting_sigmas(cm), pair_products(cm)
        for splitting, sigma in zip(SPLITTINGS, sigmas):
            print(f"{stage:13} {splitting:8} sigma = {sigma}")
        for pair, product in zip(PAIRS, pairs):
            print(f"{stage:13} {pair:8} (nu_1^2 - 1)(nu_2^2 - 1) = {product}")
    print("# epsilon: (r_e, r_m)")
    for eps in ("1e-15", "1e-12", "1e-8", "1e-4", "1e-3", "0.1", "1", "3", "30", "300"):
        e = mp.mpf(float(eps))  # the float64 epsilon the library sees
        print(f"    {eps}: ({float(r_e(e))!r}, {float(r_m(e))!r}),")
    bad = check_numpy_forms(derived)
    if bad:
        sys.exit("closed_forms disagrees with the derivation:\n" + "\n".join(bad))
    print(f"the mirror, the conditioned pair and every closed_forms value at {len(POINTS)} points agree")


if __name__ == "__main__":
    main()
