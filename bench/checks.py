"""Output checks for the benchmark, independent of the package.

Every check works on plain data (``Fraction`` pairs, integer dicts and
tuples) with arithmetic written here, never with the package's own
scalar, polynomial or matrix types, so a fault in the package cannot
hide itself by also being in the oracle.  Each check returns a list of
error strings; an empty list means the output passed.

Representations:

* a Gaussian rational is a pair ``(re, im)`` of ``Fraction``;
* a polynomial over Q(i) is a list of such pairs, ascending in t;
* an integer Laurent polynomial is a dict ``exponent -> coefficient``
  without zero coefficients;
* a Conway polynomial is a tuple of ints, ascending in z.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

# Conway polynomials of the table knots whose Seifert matrices the
# seifert workload sums (Rolfsen's table, sign fixed by C(0) = 1).
CONWAY_TABLE = {
    "trefoil": (1, 0, 1),
    "figure8": (1, 0, -1),
    "5_1": (1, 0, 3, 0, 1),
    "5_2": (1, 0, 2),
}

# Rational points s at which det(sV - V^T/s) is evaluated exactly.
SEIFERT_POINTS = (Fraction(2), Fraction(3, 2), Fraction(-5, 3))

_ZERO = (Fraction(0), Fraction(0))


# -- Gaussian-rational polynomials -----------------------------------------


def _gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def gpoly_trim(p):
    out = list(p)
    while out and out[-1] == _ZERO:
        out.pop()
    return out


def gpoly_mul(a, b):
    if not a or not b:
        return []
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            xy = _gmul(x, y)
            r, s = out[i + j]
            out[i + j] = (r + xy[0], s + xy[1])
    return gpoly_trim(out)


def gpoly_eval(p, x: Fraction):
    """Value at a real rational point, by Horner's rule."""
    re = im = Fraction(0)
    for cr, ci in reversed(p):
        re, im = re * x + cr, im * x + ci
    return re, im


def gpoly_valuation(p, x: Fraction) -> int:
    """Multiplicity of the real rational root x of a nonzero polynomial."""
    p = gpoly_trim(p)
    if not p:
        raise ValueError("valuation of the zero polynomial")
    order = 0
    while True:
        # synthetic division by (t - x)
        quotient = []
        carry = _ZERO
        for cr, ci in reversed(p):
            carry = (carry[0] * x + cr, carry[1] * x + ci)
            quotient.append(carry)
        remainder = quotient.pop()
        if remainder != _ZERO:
            return order
        order += 1
        p = list(reversed(quotient))


def ratfunc_valuation(num, den, x: Fraction) -> int:
    return gpoly_valuation(num, x) - gpoly_valuation(den, x)


def real_sign(num, den, x: Fraction) -> int:
    """Sign of num(x)/den(x); the value must be real and nonzero."""
    nr, ni = gpoly_eval(num, x)
    dr, di = gpoly_eval(den, x)
    # num/den = num * conj(den) / |den|^2
    re = nr * dr + ni * di
    im = ni * dr - nr * di
    if im != 0:
        raise ValueError(f"torsion is not real at t = {x}")
    if re == 0:
        raise ValueError(f"torsion vanishes at t = {x}")
    return 1 if re > 0 else -1


def interval_points(centers):
    """One rational point inside every interval cut out by the centers."""
    cs = sorted(Fraction(c) for c in centers)
    pts = [cs[0] - Fraction(1, 2)]
    pts += [(a + b) / 2 for a, b in zip(cs, cs[1:])]
    pts.append(cs[-1] + Fraction(1, 2))
    return pts


# -- families ----------------------------------------------------------------


def family_errors(out) -> list[str]:
    """Check one analyzed family.

    ``out`` holds ``m`` (top degree), ``tau`` = (num, den), ``reports``
    (dicts with t0, nu, chi, dims, duality_ok, near), ``signs`` (the
    interval signs the program derived) and ``ledger_ok`` /
    ``mutations_rejected`` from the eta ledger.
    """
    errs = []
    m = out["m"]
    num, den = out["tau"]
    for rep in out["reports"]:
        t0 = rep["t0"]
        dims = rep["dims"]
        where = f"t0={t0}"
        chi = sum((-1) ** i * d for i, d in enumerate(dims))
        if rep["nu"] != chi or rep["chi"] != chi:
            errs.append(f"{where}: nu {rep['nu']} != chi {chi} from dims {dims}")
        val = ratfunc_valuation(num, den, t0)
        if rep["nu"] != val:
            errs.append(f"{where}: nu {rep['nu']} != torsion valuation {val}")
        if len(dims) != m + 1 or dims[m] != 0:
            errs.append(f"{where}: dims {dims} do not end in 0 at degree {m}")
        elif any(dims[i] != dims[m - 1 - i] for i in range(m)):
            errs.append(f"{where}: dims {dims} not symmetric")
        elif (rep["nu"] - dims[(m - 1) // 2]) % 2:
            errs.append(f"{where}: nu {rep['nu']} and middle dim differ mod 2")
        if rep["duality_ok"] is not True:
            errs.append(f"{where}: duality not certified")
        for delta, plus, minus in rep["near"]:
            if plus * minus != (-1) ** rep["nu"]:
                errs.append(f"{where}: sign flip law fails at distance {delta}")
    try:
        evaluated = [real_sign(num, den, x) for x in interval_points(out["centers"])]
    except ValueError as exc:
        errs.append(str(exc))
    else:
        signs = list(out["signs"])
        if evaluated not in (signs, [-s for s in signs]):
            errs.append(f"interval signs {signs} != evaluated torsion signs {evaluated}")
    if not out["ledger_ok"]:
        errs.append("synthesized ledger fails the ray check")
    if not out["mutations_rejected"]:
        errs.append("a single-sign mutation of the ledger passes the ray check")
    return errs


def direct_sum_errors(total, parts) -> list[str]:
    """tau(A + B + ...) == tau(A) * tau(B) * ... exactly."""
    num, den = total
    pn, pd = [(Fraction(1), Fraction(0))], [(Fraction(1), Fraction(0))]
    for n, d in parts:
        pn, pd = gpoly_mul(pn, n), gpoly_mul(pd, d)
    if gpoly_mul(num, pd) != gpoly_mul(pn, den):
        return ["torsion of the direct sum != product of the parts' torsions"]
    return []


# -- two-bridge knots --------------------------------------------------------


def laurent_normalize(d: dict) -> dict:
    """Center a symmetric Laurent polynomial and make its value at 1 positive."""
    d = {e: c for e, c in d.items() if c}
    if not d:
        return {}
    lo, hi = min(d), max(d)
    shift = (lo + hi) // 2
    sign = 1 if sum(d.values()) > 0 else -1
    return {e - shift: sign * c for e, c in d.items()}


def hartley_minkus(p: int, q: int) -> dict:
    """Alexander polynomial of S(p, q) in closed form.

    sum_{k=0}^{p-1} (-1)^k t^{sigma_k}, sigma_k = e_1 + ... + e_k with
    e_i = (-1)^floor(i q / p), centered with Delta(1) = 1.
    """
    out: dict = {}
    sigma = 0
    for k in range(p):
        if k:
            sigma += (-1) ** ((k * q) // p)
        out[sigma] = out.get(sigma, 0) + (-1) ** k
    return laurent_normalize(out)


def conway_to_alexander(conway):
    """Substitute z^2 = t - 2 + 1/t into a Conway polynomial.

    Returns None when an odd power of z occurs, which no knot has.
    """
    out: dict = {}
    power = {0: 1}  # (t - 2 + 1/t)^k
    for k, c in enumerate(conway):
        if k % 2 == 0:
            for e, a in power.items():
                out[e] = out.get(e, 0) + c * a
            nxt: dict = {}
            for e, a in power.items():
                for de, b in ((-1, 1), (0, -2), (1, 1)):
                    nxt[e + de] = nxt.get(e + de, 0) + a * b
            power = nxt
        elif c:
            return None
    return {e: c for e, c in out.items() if c}


def knot_errors(p: int, q: int, delta: dict, conway) -> list[str]:
    errs = []
    delta = {e: c for e, c in delta.items() if c}
    want = hartley_minkus(p, q)
    if delta != want:
        errs.append(f"S({p},{q}): Delta {delta} != closed form {want}")
    at_minus_one = sum(c * (-1) ** (e % 2) for e, c in delta.items())
    if abs(at_minus_one) != p:
        errs.append(f"S({p},{q}): |Delta(-1)| = {abs(at_minus_one)} != {p}")
    if conway_to_alexander(conway) != delta:
        errs.append(f"S({p},{q}): Conway {tuple(conway)} does not give Delta back")
    return errs


def schubert_partner(p: int, q: int) -> int:
    """The odd q' in (0, p) with q q' = +-1 (mod p)."""
    inv = pow(q, -1, p)
    return inv if inv % 2 else p - inv


def two_bridge_qs(p: int) -> list[int]:
    """Odd q in (0, p) prime to p: each gives a knot S(p, q)."""
    return [q for q in range(1, p, 2) if gcd(p, q) == 1]


# -- Seifert matrices ------------------------------------------------------


def conway_product(components) -> tuple:
    out = [1]
    for name in components:
        table = CONWAY_TABLE[name]
        prod = [0] * (len(out) + len(table) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(table):
                prod[i + j] += a * b
        out = prod
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def frac_det(rows) -> Fraction:
    """Determinant by Gaussian elimination over Fraction."""
    work = [list(r) for r in rows]
    n = len(work)
    det = Fraction(1)
    for col in range(n):
        piv = next((j for j in range(col, n) if work[j][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            work[col], work[piv] = work[piv], work[col]
            det = -det
        p = work[col][col]
        det *= p
        for j in range(col + 1, n):
            f = work[j][col] / p
            if f:
                for k in range(col, n):
                    work[j][k] -= f * work[col][k]
    return det


def seifert_errors(v, components, conway) -> list[str]:
    errs = []
    conway = tuple(conway)
    want = conway_product(components)
    if conway != want:
        errs.append(f"Conway {conway} != product {want} of {'#'.join(components)}")
    n = len(v)
    for s in SEIFERT_POINTS:
        det = frac_det(
            [[s * v[j][k] - v[k][j] / s for k in range(n)] for j in range(n)]
        )
        z = s - 1 / s
        value = sum(c * z**k for k, c in enumerate(conway))
        if det != value:
            errs.append(f"det(sV - V^T/s) = {det} != Conway(z) = {value} at s = {s}")
    return errs
