"""Knot invariants from Fox calculus, with a Seifert oracle.

The Fox path: under the abelianization every meridian goes to t, so a
knot group presentation's Fox Jacobian is the Alexander matrix over
Z[t, 1/t], read off the relators (``groupring.presentation_complex`` is
the reference).  The torsion of the twisted complex is (t - 1) / D_2
(Milnor 1962; Turaev 1986): the ``FT-cal-1`` staircase picks generator
0 in d_1 = (t - 1, ..., t - 1), and D_2 = +- t^k Delta(t) is the Fox
matrix's determinant without generator 0's row.  So the path takes D_2
alone, over Z[t, 1/t] on integer coefficient dicts, and reads only the
rows of generators 1, 2, ... off the relators; the torsion route is its
oracle in the tests.  Delta is centred once on its coefficient dict,
symmetric with Delta(1) = 1, and one :class:`LaurentInt` is built per
knot, the value ``alexander_from_fox`` returns.  The Conway form
substitutes z = s - 1/s with s^2 = t, on integer lists.

The independent oracle takes f(t) = det(t V - V^T) for a Seifert matrix
V from one integer Bareiss determinant at t = 2^b, whose balanced
base-2^b digits are f's coefficients once 2^(b - 1) passes Hadamard's
bound on them (Kronecker substitution, ``linalg._kronecker_det``; the
Fox path reads the block its unit pivots leave the same way).  Then
det(s V - V^T / s) = s^-n f(s^2) is rewritten in z; for a genuine knot
Seifert matrix the constant term is 1, which pins the sign.  Both paths
agree exactly on the bundled knots: the torsion function of a knot
determines its Conway polynomial.

:class:`LaurentInt` is Z[t, 1/t], the group ring of the infinite cyclic
group, as ``GroupRingElem`` is Z[F]; both are ``groupring._GroupRing``.
"""

from __future__ import annotations

import operator
from itertools import repeat
from math import gcd

from .groupring import Word, _GroupRing, format_word
from .linalg import _kronecker_det
from .scalars import _Record, _set

__all__ = [
    "LaurentInt",
    "KnotPresentation",
    "MinorTooLarge",
    "ConwayPolynomial",
    "SeifertMatrix",
    "alexander_from_fox",
    "conway_normalize",
    "conway_from_seifert",
    "bundled_knots",
]


# largest (d + 1)(d + n^3)(d + n) that the Fox path reads, for a degree
# bound d on an n x n block: the cost of d + 1 determinants and a Newton
# pass, which one Kronecker determinant replaced, so the cap is now
# conservative: a block just under it takes 3 ms to 3.8 s (docs/formats.md)
MAX_MINOR_WORK = 1_500_000_000


class MinorTooLarge(ValueError):
    """A knot whose Alexander minor is past ``MAX_MINOR_WORK``: an input
    refused, not a degenerate presentation."""


class LaurentInt(_GroupRing):
    """Integer Laurent polynomial: an element of the group ring Z[t, 1/t]
    of the infinite cyclic group, stored as exponent -> coefficient."""

    __slots__ = ()
    _key = int
    _key_mul = staticmethod(operator.add)
    # bound here, not inherited: the benchmark's tracer rebinds a method
    # only in the class whose namespace holds it
    __mul__ = _GroupRing.__mul__

    def support(self) -> list[int]:
        return sorted(self.terms)

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


class KnotPresentation(_Record):
    """Presentation of a knot group by meridian generators.  Relators are
    conjugation-shaped: after abelianizing, each is a difference of two
    meridians (or trivial), as the Wirtinger form x_k = w x_j w^-1 is."""

    __slots__ = ("strands", "wirtinger_relators")

    def __init__(self, strands: int, wirtinger_relators: tuple[Word, ...]):
        _set(self, "strands", strands)
        _set(self, "wirtinger_relators", tuple(wirtinger_relators))
        if strands < 1:
            raise ValueError("presentation needs at least one generator")
        for rel in self.wirtinger_relators:
            if rel.max_generator() >= strands:
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


class ConwayPolynomial(_Record):
    """Sign-determined Conway polynomial; coefficients ascending in z.

    The constant term is 1 (the normalization that fixes the sign);
    knots only produce even powers of z.
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: tuple[int, ...]):
        coeffs = [int(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        if not coeffs or coeffs[0] != 1:
            raise ValueError("Conway normalization failed: constant term is not 1")
        _set(self, "coefficients", tuple(coeffs))

    def __repr__(self):
        return _format_terms([(k, c) for k, c in enumerate(self.coefficients) if c], "z")


class SeifertMatrix(_Record):
    """Square integer Seifert matrix of a knot."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[tuple[int, ...], ...]):
        rows = tuple(tuple(int(e) for e in row) for row in entries)
        if any(len(r) != len(rows) for r in rows):
            raise ValueError("Seifert matrix must be square")
        _set(self, "entries", rows)

    @property
    def size(self) -> int:
        return len(self.entries)

    def transpose(self) -> "SeifertMatrix":
        return SeifertMatrix(tuple(zip(*self.entries)))


def alexander_from_fox(k: KnotPresentation) -> LaurentInt:
    """Alexander polynomial, symmetric with Delta(1) = 1, from D_2 over
    Z[t, 1/t] (see the module docstring).  Raises when the twisted complex
    is not generically acyclic: the relator count is not strands - 1, or
    D_2 = 0; raises :class:`MinorTooLarge` when D_2 is past the cap."""
    rows, minor = _d2_rows(k), {}
    if len(k.wirtinger_relators) == k.strands - 1:
        minor = _laurent_minor(rows)
    if not minor:
        raise ValueError(
            "degenerate presentation: torsion undefined: complex not generically acyclic"
        )
    return LaurentInt(_centered_unit_terms(minor, "degenerate presentation"))


def _d2_rows(k: KnotPresentation) -> dict[int, dict[int, dict[int, int]]]:
    """The rows of D_2, generators 1 .. strands - 1 of the Alexander matrix:
    row g maps relator j to its nonzero Fox derivative d r_j / d x_g under
    x_g -> t, as {exponent: coefficient}.  One pass per relator keeps the
    prefix's exponent sum s over every letter, generator 0's included:
    x_g adds t^s to entry g, then s <- s + 1; x_g^-1 sets s <- s - 1, then
    subtracts t^s.  A relator whose s ends nonzero raises."""
    rows: dict[int, dict] = {g: {} for g in range(1, k.strands)}
    for j, rel in enumerate(k.wirtinger_relators):
        fox: dict[int, dict] = {}
        s = 0
        for g, e in rel.letters:
            if g:
                at = s if e == 1 else s - 1
                terms = fox.get(g)
                if terms is None:
                    terms = fox[g] = {}
                terms[at] = terms.get(at, 0) + e
            s += e
        if s:
            raise ValueError(f"relator {format_word(rel)!r} is not respected by the representation")
        for g, terms in fox.items():
            if nonzero := {x: c for x, c in terms.items() if c}:
                rows[g][j] = nonzero
    return rows


def _laurent_minor(rows: dict[int, dict]) -> dict[int, int]:
    """Square determinant over Z[t, 1/t] up to a unit +- t^k; {} for 0.

    rows[i] maps a column to its nonzero entry {exponent: coefficient}.
    Each column in turn is cleared on a unit entry of the sparsest row
    holding one, if any (Markowitz order within the column; on a braid
    closure, Burau's reduction: each crossing's new arc goes on its own
    relator).  The pivots multiply to a unit; the block left, its rows
    shifted into Z[t], goes to ``_kronecker_det``, unless its degree bound
    and size put it past ``MAX_MINOR_WORK``."""
    cols: dict[int, set] = {}
    for i, row in rows.items():
        for j in row:
            cols.setdefault(j, set()).add(i)
    for j in sorted(cols):
        units = [i for i in cols[j] if len(rows[i][j]) == 1 and abs(*rows[i][j].values()) == 1]
        if units:
            _pivot(rows, cols, min(units, key=lambda i: (len(rows[i]), i)), j)
    if len(cols) < len(rows) or not all(rows.values()):
        return {}
    block = [[row.get(j, {}) for j in sorted(cols)] for row in rows.values()]
    if len(block) <= 1:
        return block[0][0] if block else {0: 1}
    lows = [min(min(a) for a in row if a) for row in block]
    degree = sum(max(max(a) for a in row if a) for row in block) - sum(lows)
    n = len(block)
    if (degree + 1) * (degree + n**3) * (degree + n) > MAX_MINOR_WORK:
        raise MinorTooLarge(
            f"Alexander minor of degree up to {degree} on a {n}x{n} block "
            f"is past the cap of {MAX_MINOR_WORK} (knots.MAX_MINOR_WORK)"
        )
    block = [[[(e - lo, c) for e, c in a.items()] for a in row] for row, lo in zip(block, lows)]
    f = _kronecker_det(
        lambda b: [[sum(c << (b * e) for e, c in a) for a in row] for row in block],
        [[sum(abs(c) for _, c in a) for a in row] for row in block],
        degree,
    )
    return {e: c for e, c in enumerate(f) if c}


def _pivot(rows: dict[int, dict], cols: dict[int, set], r: int, c: int) -> None:
    """Clear column c on the unit rows[r][c], then drop row r and column c."""
    prow = rows.pop(r)
    for j in prow:
        cols[j].discard(r)
    ((k, u),) = prow.pop(c).items()
    for i in cols.pop(c):
        row, f = rows[i], [(e - k, -u * x) for e, x in rows[i].pop(c).items()]
        for j, b in prow.items():
            acc = row.setdefault(j, {})
            cols[j].add(i)
            for e, x in f:
                for d, y in b.items():
                    acc[e + d] = acc.get(e + d, 0) + x * y
                    if not acc[e + d]:
                        del acc[e + d]
            if not acc:
                del row[j]
                cols[j].discard(i)


def _centered_unit_terms(terms: dict[int, int], prefix: str) -> dict[int, int]:
    """Nonzero terms shifted symmetric about t^0 with Delta(1) = 1, or
    "<prefix>: <why>" raised."""
    if not terms:
        raise ValueError(f"{prefix}: zero polynomial")
    twice_mid = min(terms) + max(terms)
    if twice_mid % 2:
        raise ValueError(f"{prefix}: exponent span is odd")
    # symmetric about t^mid: t^(2 mid) Delta(1/t) = Delta(t)
    if {twice_mid - e: c for e, c in terms.items()} != terms:
        raise ValueError(f"{prefix}: Delta(t) != Delta(1/t)")
    at_one = sum(terms.values())
    if at_one not in (1, -1):
        raise ValueError(f"{prefix}: Delta(1) must be +1 or -1")
    mid = twice_mid // 2
    return {e - mid: at_one * c for e, c in terms.items()}


def conway_normalize(delta: LaurentInt) -> ConwayPolynomial:
    """Substitute z^2 = t + 1/t - 2 into a symmetric Alexander polynomial.

    The input must satisfy Delta(t) = Delta(1/t) after centering and
    Delta(1) = +-1; the output is sign-determined by Conway(0) = 1.
    """
    centered = _centered_unit_terms(delta.terms, "asymmetric input")
    # with t = s^2, z^2 = s^2 - 2 + s^-2 is t + 1/t - 2
    h = max(centered)
    coeffs = [0] * (4 * h + 1)
    coeffs[::2] = map(centered.get, range(-h, h + 1), repeat(0))
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
    """Ascending coefficients of f(t) = det(t V - V^T), n + 1 of them."""
    pairs = [list(zip(row, col)) for row, col in zip(v, zip(*v))]
    return _kronecker_det(
        lambda b: [[(a << b) - c for a, c in row] for row in pairs],
        [[abs(a) + abs(c) for a, c in row] for row in pairs],
        len(v),
    )


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
            c = a  # a C(d, j) (-1)^j, carried along j
            for j in range(1, d + 1):
                c = -c * (d - j + 1) // j
                work[m + d - 2 * j] -= c
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
    torus25 = SeifertMatrix(((-1, 1, 0, 0), (0, -1, 1, 0), (0, 0, -1, 1), (0, 0, 0, -1)))
    return {
        "unknot": (unknot, SeifertMatrix(())),
        "trefoil": (_two_bridge_presentation(3, 1), SeifertMatrix(((-1, 1), (0, -1)))),
        "figure8": (_two_bridge_presentation(5, 3), SeifertMatrix(((1, 1), (0, -1)))),
        "5_1": (_two_bridge_presentation(5, 1), torus25),
        "5_2": (_two_bridge_presentation(7, 3), SeifertMatrix(((-1, 1), (0, -2)))),
    }
