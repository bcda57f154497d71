"""Knot invariants through the torsion engine, with a Seifert oracle.

The Fox-calculus path: a Wirtinger-style presentation of a knot group
is pushed through the abelianization family (every meridian goes to
the 1x1 matrix ``t``), the twisted presentation complex is fed to the
torsion engine, and the Alexander polynomial is recovered from

    (t - 1) / torsion  =  +- t^k * Delta(t),

then normalized to the symmetric representative with Delta(1) = 1.
The Conway form substitutes z = s - 1/s with s^2 = t, staying in
integer Laurent arithmetic throughout.

The independent oracle computes det(s V - (1/s) V^T) from a Seifert
matrix V by Bareiss fraction-free elimination over Z[s, 1/s] (O(n^3)
Laurent products, exact division at every step) and rewrites it in z;
for a genuine knot Seifert matrix the constant term is 1, which pins
the sign.  Both paths must agree exactly on the bundled knots, and
they do; that agreement is the package's computable version of the
statement that the torsion function of a knot determines its Conway
polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .complexes import torsion
from .groupring import RepFamily, Word, presentation_complex
from .linalg import Matrix
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


class LaurentInt:
    """Integer Laurent polynomial, stored as exponent -> coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        items = terms.items() if isinstance(terms, dict) else terms
        acc: dict[int, int] = {}
        for e, c in items:
            c = int(c)
            if not c:
                continue
            new = acc.get(e, 0) + c
            if new:
                acc[int(e)] = new
            elif e in acc:
                del acc[e]
        object.__setattr__(self, "terms", dict(acc))

    def __setattr__(self, name, value):
        raise AttributeError("LaurentInt is immutable")

    @classmethod
    def constant(cls, c: int) -> "LaurentInt":
        return cls({0: c})

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, e: int) -> int:
        return self.terms.get(e, 0)

    def support(self) -> list[int]:
        return sorted(self.terms)

    def __add__(self, other: "LaurentInt") -> "LaurentInt":
        acc = dict(self.terms)
        for e, c in other.terms.items():
            new = acc.get(e, 0) + c
            if new:
                acc[e] = new
            elif e in acc:
                del acc[e]
        return LaurentInt(acc)

    def __sub__(self, other: "LaurentInt") -> "LaurentInt":
        return self + (-other)

    def __neg__(self) -> "LaurentInt":
        return LaurentInt({e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "LaurentInt") -> "LaurentInt":
        acc: dict[int, int] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = ea + eb
                new = acc.get(e, 0) + ca * cb
                if new:
                    acc[e] = new
                elif e in acc:
                    del acc[e]
        return LaurentInt(acc)

    def shift(self, k: int) -> "LaurentInt":
        """Multiply by the k-th power of the variable."""
        return LaurentInt({e + k: c for e, c in self.terms.items()})

    def exact_div(self, other: "LaurentInt") -> "LaurentInt":
        """The q with q * other == self, by long division from the top term.

        Raises ``ArithmeticError`` when a coefficient does not divide or
        q would reach below ``min(self) - min(other)``: other does not
        divide self.
        """
        if other.is_zero():
            raise ZeroDivisionError("LaurentInt division by zero")
        top = max(other.terms)
        lead = other.terms[top]
        rem = dict(self.terms)
        floor = min(rem) - min(other.terms) if rem else 0
        quot: dict[int, int] = {}
        while rem:
            e = max(rem)
            q, r = divmod(rem[e], lead)
            if r or e - top < floor:
                raise ArithmeticError(f"{other!r} does not divide {self!r}")
            quot[e - top] = q
            for eb, cb in other.terms.items():
                at = e - top + eb
                new = rem.get(at, 0) - q * cb
                if new:
                    rem[at] = new
                else:
                    del rem[at]
        return LaurentInt(quot)

    def evaluate_at_one(self) -> int:
        return sum(self.terms.values())

    def reciprocal(self) -> "LaurentInt":
        """Substitute the inverse variable."""
        return LaurentInt({-e: c for e, c in self.terms.items()})

    def is_symmetric(self) -> bool:
        return self == self.reciprocal()

    def __eq__(self, other):
        if not isinstance(other, LaurentInt):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in self.support():
            c = self.terms[e]
            if e == 0:
                parts.append(f"{c}")
            else:
                var = "t" if e == 1 else f"t^{e}"
                parts.append(f"{c}*{var}" if abs(c) != 1 else ("-" if c < 0 else "") + var)
        return " + ".join(parts).replace("+ -", "- ")


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
        parts = []
        for k, c in enumerate(self.coefficients):
            if not c:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                var = "z" if k == 1 else f"z^{k}"
                parts.append(f"{c}*{var}" if abs(c) != 1 else ("-" if c < 0 else "") + var)
        return " + ".join(parts).replace("+ -", "- ") or "0"


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
        n = self.size
        return SeifertMatrix(
            tuple(tuple(self.entries[j][k] for j in range(n)) for k in range(n))
        )


def _abelianization_family(ngens: int) -> RepFamily:
    t = Matrix([[RatFunc.var()]])
    return RepFamily(rank=1, images=tuple(t for _ in range(ngens)))


def alexander_from_fox(k: KnotPresentation) -> LaurentInt:
    """Alexander polynomial via the torsion of the presentation complex.

    Returns the symmetric representative with Delta(1) = 1; raises on
    presentations whose twisted complex is not generically acyclic or
    whose torsion does not have the knot shape.
    """
    rho = _abelianization_family(k.strands)
    cplx = presentation_complex(k.strands, list(k.wirtinger_relators), rho)
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
    return _conway_in_z(LaurentInt({2 * e: c for e, c in centered.terms.items()}))


def conway_from_seifert(v: SeifertMatrix) -> ConwayPolynomial:
    """Conway polynomial det(s V - (1/s) V^T) rewritten in z = s - 1/s.

    Independent of the Fox-calculus path end to end; the two must
    agree exactly, sign included, for genuine knot data.
    """
    n, e = v.size, v.entries
    return _conway_in_z(
        _laurent_det(
            [[LaurentInt({1: e[j][k], -1: -e[k][j]}) for k in range(n)] for j in range(n)]
        )
    )


def _conway_in_z(work: LaurentInt) -> ConwayPolynomial:
    """Rewrite a Laurent polynomial in s in z = s - 1/s, top term first."""
    coeffs: dict[int, int] = {}
    z = LaurentInt({1: 1, -1: -1})
    zpowers = [LaurentInt.constant(1)]
    while not work.is_zero():
        d = work.support()[-1]
        if d < 0:
            raise ValueError("Laurent polynomial is not a polynomial in z = s - 1/s")
        a = work.coeff(d)
        coeffs[d] = a
        while len(zpowers) <= d:
            zpowers.append(zpowers[-1] * z)
        work = work - zpowers[d] * LaurentInt.constant(a)
    top = max(coeffs, default=0)
    return ConwayPolynomial(tuple(coeffs.get(d, 0) for d in range(top + 1)))


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
    prev, sign = LaurentInt.constant(1), 1
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
                row[j] = entry.exact_div(prev)
        prev = pivot
    return prev if sign > 0 else -prev


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
    letters = []
    for i in range(1, p):
        gen = 0 if i % 2 == 1 else 1
        exp = (-1) ** ((i * q) // p)
        letters.append((gen, exp))
    w = Word(letters)
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
