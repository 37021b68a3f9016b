"""Derive the closed forms and reference values that the tests hold as literals.  Run by hand, and in CI:

    PYTHONPATH=src python tests/derive_closed_forms.py

It needs sympy and mpmath, which the tests do not import; pytest does not collect it.  It asserts

* that the final stage via A is the mirror of the one via A' (swap A and A', flip the sign of the new A),
  as ``protocol._stage_matrix`` builds it;
* that the (A, A') pair left after x-homodyne detection of B has the PT spectrum ``nu^2`` in
  ``{exp(2r), homodyne^2}``, the two branches whose lower one is ``protocol.mu_m``, and that they cross where
  ``a = exp(2r)`` is a root of the cubic ``protocol.threshold_r_l`` solves;
* that any two parties are separable at every ``(r, epsilon)`` outside the two route pairs: with ``a = 1 + u``,
  the initial A-A' and A'-B products are 0, and the other six never-entangled pair products are a numerator
  with only positive coefficients in ``(u, n)`` over a positive denominator, while the four route pairs' keep
  mixed signs;
* that ``protocol._pair_forms``, from which ``stage_state`` reports every built stage and ``sweep_profile`` takes
  ``mu_pair``, holds a quarter of each pair's ``delta_tilde - 2`` and ``det - delta_tilde + 1`` and a sixteenth of
  its discriminant ``delta_tilde^2 - 4 det``, coefficient by coefficient in ``(u, n)``, and
  ``protocol._SIGMA_MULTIPLES`` each splitting's ``sigma`` over the shared one;

prints

* each protocol stage's three splitting ``sigma`` values and three pair products, factored, with
  ``a = exp(2r)`` and ``n = exp(2 epsilon) - 1`` (held in ``tests/closed_forms.py``);
* ``r_e`` and ``r_m`` at 80 digits, from their closed forms, their ``gap`` at 80 digits, from their ``log1p``
  terms, and ``r_l`` at 80 digits, the root of the branch crossing, rounded to float64 (held in
  ``tests/test_protocol.py``);
* ``sweep``'s ``mu_pair``, ``mu_m`` and ``sigma_shared_A`` at 60 digits, from the stage matrices and the
  conditioned pair, rounded to float64 (held in ``tests/test_protocol.py``);
* the stage rows: the shared ``sigma`` and the lower PT value ``mu`` of the six pairs that are not a mode beside
  the vacuum, at 60 digits from the stage matrices, rounded to float64 (held in ``tests/test_closed_forms.py``);

and exits nonzero unless every numpy form of ``tests/closed_forms.py``, every ``sweep_profile`` column and every
number and flag of ``protocol._stage_report`` agrees with the derived one at a few dyadic ``(r, epsilon)``, in
value and in the sign that decides entanglement.

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
from gaussent.protocol import _SIGMA_MULTIPLES, _STAGE_PAIRS, _pair_forms, _stage_report, sweep_profile
from gaussent.separability import _CLASS_BY_COUNT

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


def pair_invariants(cm):
    """``(delta_tilde, det)`` of each pair, in ``PAIRS`` order: the trace and determinant of ``X D P D``."""
    x, p = x_and_p(cm)
    d, out = sp.diag(1, -1), []
    for modes in map(list, PAIRS.values()):
        xx, pp = x.extract(modes, modes), p.extract(modes, modes)
        out.append((sp.simplify((xx * d * pp * d).trace()), sp.factor(xx.det() * pp.det())))
    return out


#: The pairs that no stage entangles, by stage; the rest are the route pairs, A-B and A'-B of each final stage.
NEVER_ENTANGLED = {"initial": ("A-A'", "A-B", "A'-B"), "shared": ("A-A'", "A-B", "A'-B"),
                   "final-via-A'": ("A-A'",), "final-via-A": ("A-A'",)}


def check_pairs_separable(derived):
    """Any two parties outside the route pairs are separable at every ``a = 1 + u >= 1`` and ``n >= 0``: their
    product is 0 or has a numerator with only positive coefficients in ``(u, n)`` over a positive denominator.
    The route pairs' numerators keep mixed signs, so the test tells the two kinds apart."""
    u = sp.Symbol("u", positive=True)
    for stage, (_, products) in derived.items():
        for pair, product in zip(PAIRS, products):
            num, den = (sp.Poly(sp.expand(e), u, n) for e in sp.fraction(sp.cancel(product.subs(a, 1 + u))))
            signs = {bool(k.is_positive) for k in num.coeffs()}
            where = f"{stage} {pair}"
            if stage == "initial" and pair != "A-B":
                assert num.is_zero, f"{where} is not identically 0"
            elif pair in NEVER_ENTANGLED[stage]:
                assert signs == {True}, f"{where} has a coefficient that is not positive in (u, n)"
                assert all(k.is_positive for k in den.coeffs()), f"{where}'s denominator is not positive"
            else:
                assert signs == {True, False}, f"{where} keeps one sign in (u, n)"


def check_mirror():
    """The via-A layout above, written by hand, is the via-A' one with A and A' swapped and the new A's sign flipped."""
    swap = [2, 3, 0, 1, 4, 5]
    flip = sp.diag(-1, -1, 1, 1, 1, 1)
    mirrored = flip * sp.Matrix(STAGES["final-via-A'"]).extract(swap, swap) * flip
    assert sp.simplify(mirrored - sp.Matrix(STAGES["final-via-A"])) == sp.zeros(6, 6), "via A is not the mirror"


#: ``protocol._mu_m``'s radicand, with ``exp(-2r) = 1/a``; ``mu_m`` is the lower of ``sqrt(a)`` and its root.
HOMODYNE2 = 1 + n / a - (1 / a - 1) ** 2 / (2 - 1 / a)


def check_conditioned_pair():
    """x-homodyne on B updates only the positions of (A, A'); the PT spectrum left is {exp(2r), homodyne^2}."""
    x, p = x_and_p(STAGES["shared"])
    x_cond = x[:2, :2] - x[:2, 2] * x[2, :2] / x[2, 2]
    d = sp.diag(1, -1)
    lam = sp.Symbol("lam")
    charpoly = (x_cond * d * p[:2, :2] * d).charpoly(lam).as_expr()
    assert sp.simplify(charpoly - (lam - a) * (lam - HOMODYNE2)) == 0, "the conditioned pair's spectrum moved"
    # the branches cross where exp(2r) = homodyne^2: a - homodyne^2 is r_l's cubic over a (2a - 1) > 0
    cubic = 2 * a**3 - 2 * a**2 - (2 * n + 1) * a + n + 1
    assert sp.simplify((a - HOMODYNE2) * a * (2 * a - 1) - cubic) == 0, "r_l's cubic moved"


mp.mp.dps = 80
C8 = 8 * mp.sqrt(2)


def r_e(eps):
    em = mp.exp(-2 * eps)
    u = 11 + (C8 - 13) * em
    return eps + mp.log((u + mp.sqrt(u * u + 4 * (C8 - 1) * em)) / (2 * (C8 - 1))) / 2


def r_m(eps):
    return eps + mp.log(1 + mp.sqrt(1 - mp.exp(-2 * eps))) / 2


def gap(eps):
    """``r_m - r_e`` without ``epsilon``: the difference of their two log terms."""
    em = mp.exp(-2 * eps)
    u = 11 + (C8 - 13) * em
    return (mp.log(1 + mp.sqrt(1 - em)) - mp.log((u + mp.sqrt(u * u + 4 * (C8 - 1) * em)) / (2 * (C8 - 1)))) / 2


def r_l(eps):
    """Bisection of the sign of r_l's cubic at ``a = exp(2r)`` on [0, epsilon]: it is ``-n`` at ``r = 0`` and
    ``2 n^2 (n + 1) > 0`` at ``r = epsilon``."""
    n = mp.expm1(2 * eps)
    lo, hi = mp.mpf(0), eps
    for _ in range(400):
        mid = (lo + hi) / 2
        e = mp.exp(2 * mid)
        lo, hi = (mid, hi) if 2 * e**3 - 2 * e**2 - (2 * n + 1) * e + n + 1 < 0 else (lo, mid)
    return (lo + hi) / 2


def entangled_pair():
    """``delta_tilde``, ``det X`` and ``det P`` of the entangled pair, A-B of the final stage via A'."""
    x, p = x_and_p(STAGES["final-via-A'"])
    x, p, d = x.extract([0, 2], [0, 2]), p.extract([0, 2], [0, 2]), sp.diag(1, -1)
    return sp.simplify((x * d * p * d).trace()), sp.factor(x.det()), sp.factor(p.det())


def check_sweep_columns(trace, det_x, det_p, derived):
    """One message per ``sweep_profile`` column that misses the derivation at a dyadic point: ``mu_pair``, ``mu_m``
    and ``sigma_shared_A`` by more than 1e-14 (1 + |value|), ``class_final`` at all."""
    bad = []
    for r, eps in POINTS:
        at = {a: sp.exp(2 * r), n: sp.exp(2 * eps) - 1}
        tr, det = trace.subs(at), (det_x * det_p).subs(at)
        mu = float(sp.N(sp.sqrt(2 * det / (tr + sp.sqrt(tr**2 - 4 * det))), 30))
        sigma = float(sp.N(derived["shared"][0][0].subs(at), 30))
        homodyne = float(sp.N(sp.Min(sp.sqrt(at[a]), sp.sqrt(HOMODYNE2.subs(at))), 30))
        count = sum(bool(sp.N(e.subs(at), 30) < 0) for e in derived["final-via-A'"][0])
        got = sweep_profile([float(r)], float(eps))
        for name, want in (("mu_pair", mu), ("mu_m", homodyne), ("sigma_shared_A", sigma)):
            if not abs(got[name][0] - want) <= 1e-14 * (1 + abs(want)):
                bad.append(f"sweep_profile {name} at r={r}, epsilon={eps}: {got[name][0]!r} != {want!r}")
        if got["class_final"][0] != _CLASS_BY_COUNT[count]:
            bad.append(f"sweep_profile class_final at r={r}, epsilon={eps}: {got['class_final'][0]} with {count}")
    return bad


def check_stage_forms(derived, invariants):
    """One message per ``protocol._pair_forms`` value whose coefficient of some ``u^i n^j`` misses the derived one
    by more than 1e-12 (1 + |coefficient|), each side over the other's denominator: ``4S`` against
    ``delta_tilde - 2``, ``4P`` against ``det - delta_tilde + 1`` and ``16 (p^2 + f^2 g)`` against
    ``delta_tilde^2 - 4 det``, with ``a = 1 + u``, ``b = 1/a``, ``x = u/a`` and ``c = n/a``; and one per stage whose
    ``protocol._SIGMA_MULTIPLES`` are not its ``sigma`` over the shared one."""
    u = sp.Symbol("u", positive=True)
    bad = []
    shared = derived["shared"][0][0]
    for stage, (sigmas, _) in derived.items():
        if [sp.simplify(s - sp.Rational(m) * shared) for s, m in zip(sigmas, _SIGMA_MULTIPLES[stage])] != [0] * 3:
            bad.append(f"_SIGMA_MULTIPLES[{stage!r}] = {_SIGMA_MULTIPLES[stage]} misses {sigmas}")
        for pair, kind, (dt, det) in zip(PAIRS, _STAGE_PAIRS[stage], invariants[stage]):
            s, prod, p, f, g = _pair_forms(kind, u, n, 1 / (1 + u), u / (1 + u), n / (1 + u))
            for name, got, want in (("4S", 4 * s, dt - 2), ("4P", 4 * prod, det - dt + 1),
                                    ("16 (p^2 + f^2 g)", 16 * (p * p + f * f * g), dt * dt - 4 * det)):
                got_num, got_den = sp.fraction(sp.together(sp.sympify(got)))
                want_num, want_den = sp.fraction(sp.cancel(want.subs(a, 1 + u)))
                lhs = sp.Poly(sp.expand(got_num * want_den), u, n).as_dict()
                rhs = sp.Poly(sp.expand(want_num * got_den), u, n).as_dict()
                miss = {m: (float(lhs.get(m, 0)), float(rhs.get(m, 0))) for m in set(lhs) | set(rhs)}
                if any(abs(g - w) > 1e-12 * (1 + abs(w)) for g, w in miss.values()):
                    bad.append(f"_pair_forms({kind!r}) {name} for {stage} {pair}: (u, n) powers -> {miss}")
    return bad


def check_stage_reports(derived, invariants):
    """One message per ``protocol._stage_report`` number that misses the derivation at a dyadic point by more than
    1e-14 (1 + |value|): each splitting's ``sigma``, each pair's ``mu``, ``delta_tilde`` and
    ``ppt_condition_value``; and one per entangled flag that disagrees with the derived sign."""
    bad = []
    for r, eps in POINTS:
        at = {a: sp.exp(2 * r), n: sp.exp(2 * eps) - 1}
        for stage, (sigmas, products) in derived.items():
            report = _stage_report(stage, float(r), float(eps))
            want, got = [], []
            for sigma, verdict in zip(sigmas, report.verdicts):
                value = float(sp.N(sigma.subs(at), 30))
                want.append(("sigma", value, value < 0))
                got.append((verdict.sigma, verdict.entangled))
            for (dt, det), product, (_, m) in zip(invariants[stage], products, report.pairwise):
                mu = float(sp.N(sp.sqrt((dt - sp.sqrt(dt * dt - 4 * det)) / 2).subs(at), 30))
                dt, value = (float(sp.N(e.subs(at), 30)) for e in (dt, product))
                want += [("mu", mu, value < 0), ("delta_tilde", dt, None), ("ppt_condition_value", value, None)]
                got += [(m.mu, m.entangled), (m.delta_tilde, None), (m.ppt_condition_value, None)]
            for (name, w, flag), (g, got_flag) in zip(want, got):
                if not abs(g - w) <= 1e-14 * (1 + abs(w)) or flag != got_flag:
                    bad.append(f"_stage_report({stage!r}) {name} at r={r}, epsilon={eps}: {g!r} != {w!r}")
    return bad


#: The stage rows' grid: each epsilon with r at 0, near 0 (1e-170, where the printed ``sigma`` underflows to 0), at
#: epsilon, across the r ~ 18.37 where the rounded stage matrices stop being positive definite, and up to 354, below
#: the ln(DBL_MAX) / 2 = 354.89 where ``exp(2r)`` overflows.
STAGE_EPSILONS = (0.0, 1e-8, 0.1, 3.0, 20.0, 300.0)
STAGE_RS = (0.0, 1e-170, 1e-8, 0.01, 0.5, 2.0, 6.0, 12.0, 18.3, 19.0, 50.0, 200.0, 354.0)
#: The rows' pairs: (stage, pair) for initial A-B, shared A-A' and A-B, and the final via A' stage's three pairs.
STAGE_ROW_PAIRS = (("initial", 1), ("shared", 0), ("shared", 1), ("final-via-A'", 0), ("final-via-A'", 1),
                   ("final-via-A'", 2))


def print_stage_reference(derived, invariants):
    """The shared ``A|(A'B)`` ``sigma`` and the ``STAGE_ROW_PAIRS``' ``mu`` at 60 digits at the float64
    ``(r, epsilon)`` of the grid, from the derived pair invariants at 900 working digits, which survive their
    cancellation where ``exp(2r)`` nears ``DBL_MAX``.  The other stages' splittings are multiples of the shared one,
    and the other pairs are these or a mode beside the vacuum, whose ``mu`` is 1."""
    with mp.workdps(900):
        sigma = sp.lambdify((a, n), derived["shared"][0][0], "mpmath")
        pairs = [sp.lambdify((a, n), invariants[stage][k], "mpmath") for stage, k in STAGE_ROW_PAIRS]
        print("# (r, epsilon): (sigma_shared_A, mu of initial A-B, shared A-A', shared A-B, final via A' A-A', A-B, "
              "A'-B)")
        for eps in STAGE_EPSILONS:
            for r in sorted({*STAGE_RS, eps}):
                at = mp.exp(2 * mp.mpf(r)), mp.expm1(2 * mp.mpf(eps))
                mus = []
                for invariants_at in pairs:
                    dt, det = invariants_at(*at)
                    mus.append(float(mp.sqrt((dt - mp.sqrt(max(dt * dt - 4 * det, 0))) / 2)))
                values = [repr(float(sigma(*at)))] + list(map(repr, mus))
                print(f"    ({r!r}, {eps!r}):\n        ({', '.join(values[:4])},\n         {', '.join(values[4:])}),")


#: The sweep reference grid: each epsilon with r at 0, near 0, at epsilon, across the r ~ 18.37 where the
#: rounded stage matrices stop being positive definite, and up to 354.8, below the ln(DBL_MAX) / 2 = 354.89
#: where ``exp(2r)`` and ``exp(2 epsilon)`` overflow; epsilon 300 and r 200 need the pair form's scaling where
#: ``b`` is small.
SWEEP_EPSILONS = (0.0, 1e-8, 0.1, 0.2, 3.0, 10.0, 20.0, 100.0, 170.0, 200.0, 300.0, 354.8)
SWEEP_RS = (0.0, 1e-8, 1e-4, 0.01, 0.5, 1.0, 2.0, 4.0, 6.0, 8.0, 12.0, 16.0, 18.3, 50.0, 200.0, 354.0, 354.8)


def print_sweep_reference(trace, det_x, det_p, shared_sigma):
    """``mu_pair``, ``mu_m`` and ``sigma_shared_A`` at 60 digits at the float64 ``(r, epsilon)`` of the grid.  A
    ``sigma`` below 1e-40 of ``exp(2 max(r, epsilon))`` is the determinant's 60-digit rounding at ``r == epsilon``,
    where it is 0."""
    with mp.workdps(60):
        tr, det, sigma, homodyne2 = (sp.lambdify((a, n), e, "mpmath")
                                     for e in (trace, det_x * det_p, shared_sigma, HOMODYNE2))
        print("# (r, epsilon): (mu_pair, mu_m, sigma_shared_A)")
        for eps in SWEEP_EPSILONS:
            for r in sorted({*SWEEP_RS, eps}):
                at = mp.exp(2 * mp.mpf(r)), mp.expm1(2 * mp.mpf(eps))
                t, d = tr(*at), det(*at)
                mu = mp.sqrt(2 * d / (t + mp.sqrt(max(t * t - 4 * d, 0))))
                mu_m = min(mp.sqrt(at[0]), mp.sqrt(homodyne2(*at)))
                sig = mp.chop(sigma(*at), 1e-40 * mp.exp(2 * max(r, eps)))
                print(f"    ({r!r}, {eps!r}): ({float(mu)!r}, {float(mu_m)!r}, {float(sig)!r}),")


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
    print("# epsilon: gap")
    for eps in ("0.1", "3", "30", "1e3", "1e6", "1e12", "1e16", "1e300"):
        print(f"    {eps}: {float(gap(mp.mpf(float(eps))))!r},")
    print("# epsilon: r_l")
    for eps in ("1e-15", "1e-12", "1e-8", "1e-4", "1e-3", "0.01", "0.03", "0.1", "1", "3", "30", "300", "354",
                "360", "700"):
        print(f"    {eps}: {float(r_l(mp.mpf(float(eps))))!r},")
    check_pairs_separable(derived)
    pair = entangled_pair()
    print_sweep_reference(*pair, derived["shared"][0][0])
    invariants = {stage: pair_invariants(cm) for stage, cm in STAGES.items()}
    print_stage_reference(derived, invariants)
    bad = (check_numpy_forms(derived) + check_sweep_columns(*pair, derived)
           + check_stage_forms(derived, invariants) + check_stage_reports(derived, invariants))
    if bad:
        sys.exit("closed_forms disagrees with the derivation:\n" + "\n".join(bad))
    print(f"the mirror, the conditioned pair, r_l's cubic, the separable pairs, the sweep and stage forms and every "
          f"closed_forms value, sweep column and stage report at {len(POINTS)} points agree")


if __name__ == "__main__":
    main()
