"""Laurent references for the Seifert oracle and the z-rewrite.

``knots.conway_from_seifert`` used to take det(s V - V^T / s) by
Bareiss elimination over Z[s, 1/s] on ``LaurentInt`` entries, with an
exact Laurent division at every step.  The package now evaluates
det(t V - V^T) at t = 2^b and reads its digits; this module keeps the
old elimination so that ``tests/test_knots.py`` can compare the two on
seeded corpora.  It also keeps the rewrite in z = s - 1/s by
``LaurentInt`` products, the reference for ``knots._conway_in_z``,
which works on integer lists.  Nothing in the package imports this
module.
"""

from __future__ import annotations

from torsionfam.knots import ConwayPolynomial, LaurentInt


def conway_in_z(work: LaurentInt) -> ConwayPolynomial:
    """Rewrite a Laurent polynomial in s in z = s - 1/s, top term first."""
    coeffs: dict[int, int] = {}
    z = LaurentInt({1: 1, -1: -1})
    zpowers = [LaurentInt({0: 1})]
    while not work.is_zero():
        d = work.support()[-1]
        if d < 0:
            raise ValueError("Laurent polynomial is not a polynomial in z = s - 1/s")
        a = work.terms.get(d, 0)
        coeffs[d] = a
        while len(zpowers) <= d:
            zpowers.append(zpowers[-1] * z)
        work = work - zpowers[d] * LaurentInt({0: a})
    top = max(coeffs, default=0)
    return ConwayPolynomial(tuple(coeffs.get(d, 0) for d in range(top + 1)))


def exact_div(a: LaurentInt, b: LaurentInt) -> LaurentInt:
    """The q with q * b == a, by long division from the top term.

    Raises ``ArithmeticError`` when a coefficient does not divide or
    q would reach below ``min(a) - min(b)``: b does not divide a.
    """
    if b.is_zero():
        raise ZeroDivisionError("LaurentInt division by zero")
    top = max(b.terms)
    lead = b.terms[top]
    rem = dict(a.terms)
    floor = min(rem) - min(b.terms) if rem else 0
    quot: dict[int, int] = {}
    while rem:
        e = max(rem)
        q, r = divmod(rem[e], lead)
        if r or e - top < floor:
            raise ArithmeticError(f"{b!r} does not divide {a!r}")
        quot[e - top] = q
        for eb, cb in b.terms.items():
            at = e - top + eb
            new = rem.get(at, 0) - q * cb
            if new:
                rem[at] = new
            else:
                del rem[at]
    return LaurentInt(quot)


def _laurent_det(rows: list[list[LaurentInt]]) -> LaurentInt:
    """Bareiss fraction-free determinant over Z[s, 1/s], O(n^3) products.

    Step k replaces every entry right of and below the pivot by the
    2x2 minor ``a_ij a_kk - a_ik a_kj`` divided by the previous pivot;
    Sylvester's identity makes that division exact in the integral
    domain Z[s, 1/s].  The pivot is the first nonzero entry of its
    column, every row swap flips the sign, and the last pivot is the
    determinant.
    """
    a = [list(row) for row in rows]
    n = len(a)
    prev, sign = LaurentInt({0: 1}), 1
    for k in range(n):
        piv = next((i for i in range(k, n) if not a[i][k].is_zero()), None)
        if piv is None:
            return LaurentInt({})
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        pivot, pivot_row = a[k][k], a[k]
        for row in a[k + 1 :]:
            lead = row[k]
            for j in range(k + 1, n):
                entry = row[j] * pivot
                if not lead.is_zero():
                    entry = entry - lead * pivot_row[j]
                row[j] = exact_div(entry, prev)
        prev = pivot
    return prev if sign > 0 else -prev
