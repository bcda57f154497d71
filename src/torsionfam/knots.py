"""Knot invariants through the torsion engine, with a Seifert oracle.

The Fox-calculus path: under the abelianization every meridian goes to
t, so the Fox Jacobian of a knot group presentation is the Alexander
matrix over Z[t, 1/t], read directly off the relators (the general
``groupring.presentation_complex`` is the reference).  Its twisted
complex is fed to the torsion engine, and the Alexander polynomial is
recovered from

    (t - 1) / torsion  =  +- t^k * Delta(t),

then normalized to the symmetric representative with Delta(1) = 1.
The Conway form substitutes z = s - 1/s with s^2 = t, on integer
coefficient lists throughout.

The independent oracle takes f(t) = det(t V - V^T) for a Seifert
matrix V: an integer Bareiss determinant at each of t = 0, 1, ..., n,
read back by Newton interpolation over Z.  Then det(s V - V^T / s) is
s^-n f(s^2), rewritten in z; for a genuine knot Seifert matrix the
constant term is 1, which pins the sign.  Both paths must agree
exactly on the bundled knots, and they do; that agreement is the
package's computable version of the statement that the torsion
function of a knot determines its Conway polynomial.

:class:`LaurentInt` is the group ring Z[t, 1/t] of the infinite cyclic
group, as ``groupring.GroupRingElem`` is Z[F] of the free group; both
are one implementation, ``groupring._GroupRing``, keyed by the exponent
here and by the word there.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import comb, gcd

from .complexes import BasedChainComplex, torsion
from .groupring import Word, _GroupRing, format_word
from .linalg import Matrix
from .poly import _raw
from .ratfunc import RatFunc

__all__ = [
    "LaurentInt",
    "KnotPresentation",
    "ConwayPolynomial",
    "SeifertMatrix",
    "alexander_from_fox",
    "conway_normalize",
    "conway_from_seifert",
    "bundled_knots",
]

_ZERO = RatFunc.zero()


class LaurentInt(_GroupRing):
    """Integer Laurent polynomial: an element of the group ring Z[t, 1/t]
    of the infinite cyclic group, stored as exponent -> coefficient."""

    __slots__ = ()
    _key = int
    _key_mul = staticmethod(operator.add)
    # bound here, not inherited: the benchmark's tracer rebinds a method
    # only in the class whose namespace holds it
    __mul__ = _GroupRing.__mul__

    @classmethod
    def constant(cls, c: int) -> "LaurentInt":
        return cls({0: c})

    def coeff(self, e: int) -> int:
        return self.terms.get(e, 0)

    def support(self) -> list[int]:
        return sorted(self.terms)

    def shift(self, k: int) -> "LaurentInt":
        """Multiply by the k-th power of the variable."""
        return LaurentInt({e + k: c for e, c in self.terms.items()})

    def evaluate_at_one(self) -> int:
        return sum(self.terms.values())

    def reciprocal(self) -> "LaurentInt":
        """Substitute the inverse variable."""
        return LaurentInt({-e: c for e, c in self.terms.items()})

    def is_symmetric(self) -> bool:
        return self == self.reciprocal()

    def __repr__(self):
        return _format_terms([(e, self.terms[e]) for e in self.support()], "t")


def _format_terms(terms, var: str) -> str:
    """Nonzero (exponent, coefficient) pairs as ``c*var^e`` joined by signs."""
    parts = []
    for e, c in terms:
        power = var if e == 1 else f"{var}^{e}"
        if e == 0:
            parts.append(f"{c}")
        else:
            parts.append(f"{c}*{power}" if abs(c) != 1 else ("-" if c < 0 else "") + power)
    return " + ".join(parts).replace("+ -", "- ") or "0"


@dataclass(frozen=True)
class KnotPresentation:
    """Presentation of a knot group by meridian generators.

    Relators must be conjugation-shaped: after abelianizing, each is
    a difference of two meridians (or trivial), which is what the
    Wirtinger form x_k = w x_j w^-1 reduces to.
    """

    strands: int
    wirtinger_relators: tuple[Word, ...]
    meridian: int = 0

    def __post_init__(self):
        object.__setattr__(
            self, "wirtinger_relators", tuple(self.wirtinger_relators)
        )
        if self.strands < 1:
            raise ValueError("presentation needs at least one generator")
        if not 0 <= self.meridian < self.strands:
            raise ValueError("meridian index out of range")
        for rel in self.wirtinger_relators:
            if rel.max_generator() >= self.strands:
                raise ValueError("relator uses an undeclared generator")
            sums: dict[int, int] = {}
            for g, e in rel.letters:
                sums[g] = sums.get(g, 0) + e
            nonzero = sorted(v for v in sums.values() if v)
            if nonzero not in ([], [-1, 1]):
                raise ValueError(
                    "relator is not conjugation-shaped (needs exponent sums "
                    "one +1, one -1, rest 0)"
                )


@dataclass(frozen=True)
class ConwayPolynomial:
    """Sign-determined Conway polynomial; coefficients ascending in z.

    The constant term is 1 (the normalization that fixes the sign);
    knots only produce even powers of z.
    """

    coefficients: tuple[int, ...]

    def __post_init__(self):
        coeffs = [int(c) for c in self.coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        if not coeffs or coeffs[0] != 1:
            raise ValueError("Conway normalization failed: constant term is not 1")
        object.__setattr__(self, "coefficients", tuple(coeffs))

    def degree(self) -> int:
        return len(self.coefficients) - 1

    def even_only(self) -> bool:
        return all(
            c == 0 for k, c in enumerate(self.coefficients) if k % 2 == 1
        )

    def __repr__(self):
        return _format_terms([(k, c) for k, c in enumerate(self.coefficients) if c], "z")


@dataclass(frozen=True)
class SeifertMatrix:
    """Square integer Seifert matrix of a knot."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(int(e) for e in row) for row in self.entries)
        if any(len(r) != len(rows) for r in rows):
            raise ValueError("Seifert matrix must be square")
        object.__setattr__(self, "entries", rows)

    @property
    def size(self) -> int:
        return len(self.entries)

    def transpose(self) -> "SeifertMatrix":
        return SeifertMatrix(tuple(zip(*self.entries)))


def _alexander_complex(k: KnotPresentation) -> BasedChainComplex:
    """The complex of k twisted by x_g -> t: d_1 is (t - 1, ..., t - 1), and
    column i of d_2 holds the Fox derivatives of relator i, from one pass
    keeping the prefix's exponent sum s: x_g adds t^s to entry g, then
    s <- s + 1; x_g^-1 sets s <- s - 1, then subtracts t^s."""
    n, columns = k.strands, []
    for rel in k.wirtinger_relators:
        fox, s = [{} for _ in range(n)], 0
        for g, e in rel.letters:
            at = s if e == 1 else s - 1
            fox[g][at] = fox[g].get(at, 0) + e
            s += e
        if s:
            raise ValueError(
                f"relator {format_word(rel)!r} is not respected by the representation"
            )
        columns.append([_laurent_ratfunc(terms) for terms in fox])
    d1 = Matrix([[RatFunc.var() - 1] * n], n)
    if not columns:
        return BasedChainComplex([1, n], [d1])
    return BasedChainComplex([1, n, len(columns)], [d1, Matrix(zip(*columns), len(columns))])


def _laurent_ratfunc(terms: dict[int, int]) -> RatFunc:
    """sum c t^e as a reduced RatFunc: with lowest exponent lo < 0, the
    numerator over t^-lo, coprime to it because its constant term is nonzero."""
    exps = [e for e, c in terms.items() if c]
    if not exps:
        return _ZERO
    lo, hi = min(0, *exps), max(exps)
    re = tuple(terms.get(e, 0) for e in range(lo, hi + 1))
    den = _raw((0,) * -lo + (1,), (0,) * (1 - lo), 1)  # t^-lo
    return RatFunc._reduced(_raw(re, (0,) * len(re), 1), den)


def alexander_from_fox(k: KnotPresentation) -> LaurentInt:
    """Alexander polynomial via the torsion of the presentation complex.

    The Alexander matrix is read directly over Z[t, 1/t]; the general
    :func:`groupring.presentation_complex` gives the same complex under
    the abelianization family and is its reference.  Returns the
    symmetric representative with Delta(1) = 1; raises on presentations
    whose twisted complex is not generically acyclic or whose torsion
    does not have the knot shape.
    """
    cplx = _alexander_complex(k)
    try:
        tau = torsion(cplx).value
    except ValueError as exc:
        raise ValueError(f"degenerate presentation: {exc}") from exc
    t_minus_1 = RatFunc.var() - 1
    raw = t_minus_1 / tau
    # expect +- t^k * Delta with integer coefficients: the reduced
    # denominator, always monic, must be a power of t
    den, num = raw.den, raw.num
    if any(den.re[:-1]) or any(den.im):
        raise ValueError("degenerate presentation: torsion lacks the knot shape")
    if num.den != 1 or any(num.im):
        raise ValueError("degenerate presentation: non-integral Alexander data")
    return _centered_unit_form(
        LaurentInt(enumerate(num.re, -den.degree)), "degenerate presentation"
    )


def _centered_unit_form(delta: LaurentInt, prefix: str) -> LaurentInt:
    """delta shifted symmetric about t^0 with Delta(1) = 1, or "<prefix>: <why>" raised."""
    if delta.is_zero():
        raise ValueError(f"{prefix}: zero polynomial")
    support = delta.support()
    lo, hi = support[0], support[-1]
    if (lo + hi) % 2:
        raise ValueError(f"{prefix}: exponent span is odd")
    centered = delta.shift(-(lo + hi) // 2)
    if not centered.is_symmetric():
        raise ValueError(f"{prefix}: Delta(t) != Delta(1/t)")
    at_one = centered.evaluate_at_one()
    if at_one not in (1, -1):
        raise ValueError(f"{prefix}: Delta(1) must be +1 or -1")
    return centered if at_one == 1 else -centered


def conway_normalize(delta: LaurentInt) -> ConwayPolynomial:
    """Substitute z^2 = t + 1/t - 2 into a symmetric Alexander polynomial.

    The input must satisfy Delta(t) = Delta(1/t) after centering and
    Delta(1) = +-1; the output is sign-determined by Conway(0) = 1.
    """
    centered = _centered_unit_form(delta, "asymmetric input")
    # with t = s^2, z^2 = s^2 - 2 + s^-2 is t + 1/t - 2
    h = centered.support()[-1]
    coeffs = [0] * (4 * h + 1)
    coeffs[::2] = (centered.coeff(e) for e in range(-h, h + 1))
    return _conway_in_z(coeffs, -2 * h)


def conway_from_seifert(v: SeifertMatrix) -> ConwayPolynomial:
    """Conway polynomial det(s V - (1/s) V^T) rewritten in z = s - 1/s.

    Independent of the Fox-calculus path end to end; the two must
    agree exactly, sign included, for genuine knot data.
    """
    f = _seifert_alexander(v.entries)  # det(s V - V^T / s) = s^-n f(s^2)
    coeffs = [0] * (2 * v.size + 1)
    coeffs[::2] = f
    return _conway_in_z(coeffs, -v.size)


def _seifert_alexander(v) -> list[int]:
    """Ascending coefficients of f(t) = det(t V - V^T), n + 1 of them.

    f is fixed by its values at t = 0, 1, ..., n.  The k-th forward
    difference of an integer polynomial is k! times an integer, so
    Newton's form has integer coefficients; a Horner pass expands it.
    """
    n = len(v)
    diffs = [
        _int_det([[t * a - b for a, b in zip(row, col)] for row, col in zip(v, zip(*v))])
        for t in range(n + 1)
    ]
    # diffs[k] becomes the k-th forward difference at 0, over k!
    for k in range(1, n + 1):
        for i in range(n, k - 1, -1):
            diffs[i] = (diffs[i] - diffs[i - 1]) // k
    coeffs = [diffs[n]]
    for k in range(n - 1, -1, -1):
        # coeffs <- coeffs * (t - k) + diffs[k]
        coeffs = [a - k * b for a, b in zip([0] + coeffs, coeffs + [0])]
        coeffs[0] += diffs[k]
    return coeffs


def _int_det(rows: list[list[int]]) -> int:
    """Bareiss fraction-free determinant of a square integer matrix.

    Each step replaces the entries right of and below the pivot by the
    2x2 minors ``a_ij a_kk - a_ik a_kj`` over the previous pivot, exact
    by Sylvester's identity, and drops the pivot row and column.  The
    pivot is the first nonzero entry of its column, a row swap flips
    the sign, and the last pivot is the determinant.
    """
    a, prev, sign = list(rows), 1, 1
    while a:
        piv = next((i for i, row in enumerate(a) if row[0]), None)
        if piv is None:
            return 0
        if piv:
            a[0], a[piv] = a[piv], a[0]
            sign = -sign
        pivot, *tail = a[0]
        a = [[(x * pivot - row[0] * y) // prev for x, y in zip(row[1:], tail)] for row in a[1:]]
        prev = pivot
    return sign * prev


def _conway_in_z(coeffs: list[int], low: int) -> ConwayPolynomial:
    """Rewrite sum_k coeffs[k] s^(low + k) in z = s - 1/s, top term first:
    peeling a s^d subtracts a z^d = a sum_j C(d, j) (-1)^j s^(d - 2j), and
    a remainder below s^0 once every d >= 0 is peeled is not in Z[z]."""
    top = low + len(coeffs) - 1
    m = max(top, -low)
    work = [0] * (m + low) + list(coeffs)  # work[m + e] is the coefficient of s^e
    out = [0] * (top + 1)
    for d in range(top, -1, -1):
        a = out[d] = work[m + d]
        if a:
            for j in range(1, d + 1):
                work[m + d - 2 * j] -= (-1) ** j * comb(d, j) * a
    if any(work[:m]):
        raise ValueError("Laurent polynomial is not a polynomial in z = s - 1/s")
    return ConwayPolynomial(tuple(out))


def _two_bridge_presentation(p: int, q: int) -> KnotPresentation:
    """Standard 2-generator presentation of the (p, q) two-bridge knot.

    The relator is w x w^-1 y^-1 with w = x^{e_1} y^{e_2} x^{e_3} ...
    alternating over p - 1 letters, e_i = (-1)^floor(i q / p).  The
    word needs q odd, so an even q is replaced by q - p, the same knot.
    """
    if p % 2 == 0 or gcd(p, q) != 1:
        raise ValueError(f"S({p}, {q}) is not a two-bridge knot: p must be odd and prime to q")
    if q % 2 == 0:
        q -= p
    w = Word((1 - i % 2, (-1) ** ((i * q) // p)) for i in range(1, p))  # x at odd i, y at even
    relator = w * Word.generator(0) * w.inverse() * Word.generator(1, -1)
    return KnotPresentation(strands=2, wirtinger_relators=(relator,))


def bundled_knots() -> dict[str, tuple[KnotPresentation, SeifertMatrix]]:
    """The five stock knots with presentations and Seifert matrices."""
    unknot = KnotPresentation(strands=1, wirtinger_relators=())
    torus25 = SeifertMatrix(
        (
            (-1, 1, 0, 0),
            (0, -1, 1, 0),
            (0, 0, -1, 1),
            (0, 0, 0, -1),
        )
    )
    return {
        "unknot": (unknot, SeifertMatrix(())),
        "trefoil": (_two_bridge_presentation(3, 1), SeifertMatrix(((-1, 1), (0, -1)))),
        "figure8": (_two_bridge_presentation(5, 3), SeifertMatrix(((1, 1), (0, -1)))),
        "5_1": (_two_bridge_presentation(5, 1), torus25),
        "5_2": (_two_bridge_presentation(7, 3), SeifertMatrix(((-1, 1), (0, -2)))),
    }
