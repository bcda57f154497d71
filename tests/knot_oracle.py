"""The torsion route to the Alexander polynomial, and braid-closure knots.

``knots.alexander_from_fox`` takes D_2, the Fox matrix's determinant
without generator 0's row, over Z[t, 1/t].  That is a short cut through
the torsion: the presentation complex twisted by x_g -> t has
d_1 = (t - 1, ..., t - 1) and d_2 the Fox matrix, its ``FT-cal-1``
torsion is (t - 1) / D_2, and D_2 = +- t^k Delta(t).  This module keeps
the long way round, the complex over Q(i)(t) fed to
``complexes.torsion``, so that ``tests/test_knots.py`` can show on
seeded corpora that both give the same Delta and the same errors.  The
package reads only the rows of D_2 and centres Delta on its coefficient
dict; the full Fox Jacobian (``_fox_columns``) and the ``LaurentInt``
normalizer it replaced (``_centered_unit_form``) are kept here as their
references.  The n + 1 point interpolation that ``linalg._kronecker_det``
replaced is kept as its oracle (``interpolated_kernel``), each point's
determinant taken by Gaussian elimination over ``Fraction``, not by the
kernel's Bareiss step.

It also draws knots as closures of seeded braids, with the Wirtinger
presentation read off the diagram and the Burau matrix of the braid,
whose minor of I - psi(beta) is an independent oracle for Delta
(Birman, *Braids, Links and Mapping Class Groups*, 1974, section 3).
Nothing in the package imports this module.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction

from laurent_oracle import _laurent_det

from torsionfam.complexes import BasedChainComplex, torsion
from torsionfam.groupring import Word, format_word
from torsionfam.knots import KnotPresentation, LaurentInt
from torsionfam.linalg import Matrix
from torsionfam.poly import _raw
from torsionfam.ratfunc import RatFunc


def _fox_columns(k: KnotPresentation) -> list[dict[int, dict[int, int]]]:
    """Column i of the Alexander matrix: relator i's Fox derivatives under
    x_g -> t as {g: {exponent: coefficient}}, zero terms dropped, from one
    pass keeping the prefix's exponent sum s: x_g adds t^s to entry g, then
    s <- s + 1; x_g^-1 sets s <- s - 1, then subtracts t^s."""
    columns = []
    for rel in k.wirtinger_relators:
        fox, s = defaultdict(dict), 0
        for g, e in rel.letters:
            at = s if e == 1 else s - 1
            fox[g][at] = fox[g].get(at, 0) + e
            s += e
        if s:
            raise ValueError(f"relator {format_word(rel)!r} is not respected by the representation")
        columns.append({g: {e: c for e, c in t.items() if c} for g, t in fox.items()})
    return columns


def _centered_unit_form(delta: LaurentInt, prefix: str) -> LaurentInt:
    """delta shifted symmetric about t^0 with Delta(1) = 1, or "<prefix>: <why>"
    raised: the shift, the reflection t -> 1/t and the sign as LaurentInt values."""
    if delta.is_zero():
        raise ValueError(f"{prefix}: zero polynomial")
    support = delta.support()
    lo, hi = support[0], support[-1]
    if (lo + hi) % 2:
        raise ValueError(f"{prefix}: exponent span is odd")
    centered = delta * LaurentInt({-(lo + hi) // 2: 1})
    if centered != LaurentInt({-e: c for e, c in centered.terms.items()}):
        raise ValueError(f"{prefix}: Delta(t) != Delta(1/t)")
    at_one = sum(centered.terms.values())
    if at_one not in (1, -1):
        raise ValueError(f"{prefix}: Delta(1) must be +1 or -1")
    return centered if at_one == 1 else -centered


def _laurent_ratfunc(terms: dict[int, int]) -> RatFunc:
    """sum c t^e as a reduced RatFunc: with lowest exponent lo < 0, the
    numerator over t^-lo, coprime to it because its constant term is nonzero."""
    if not terms:
        return RatFunc.zero()
    lo, hi = min(0, *terms), max(terms)
    re = tuple(terms.get(e, 0) for e in range(lo, hi + 1))
    den = _raw((0,) * -lo + (1,), (0,) * (1 - lo), 1)  # t^-lo
    return RatFunc._reduced(_raw(re, (0,) * len(re), 1), den)


def _alexander_complex(k: KnotPresentation) -> BasedChainComplex:
    """The complex of k twisted by x_g -> t: d_1 is (t - 1, ..., t - 1), and
    column i of d_2 holds the Fox derivatives of relator i."""
    n, columns = k.strands, _fox_columns(k)
    d1 = Matrix([[RatFunc.var() - 1] * n], n)
    if not columns:
        return BasedChainComplex([1, n], [d1])
    rows = ([_laurent_ratfunc(col.get(g, {})) for col in columns] for g in range(n))
    return BasedChainComplex([1, n, len(columns)], [d1, Matrix(rows, len(columns))])


def torsion_alexander(k: KnotPresentation) -> LaurentInt:
    """Delta from (t - 1) / torsion = +- t^k Delta(t), normalized as the
    package normalizes it; raises what the torsion engine raises, after
    what the Fox reader raises."""
    cplx = _alexander_complex(k)
    try:
        tau = torsion(cplx).value
    except ValueError as exc:
        raise ValueError(f"degenerate presentation: {exc}") from exc
    raw = (RatFunc.var() - 1) / tau
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


# -- the interpolation kernel ----------------------------------------------------------


def _fraction_det(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix by Gaussian elimination over
    Fraction: the first nonzero entry of each column is the pivot, a row
    swap flips the sign, and the determinant is the signed pivot product."""
    a, det = [[Fraction(x) for x in row] for row in rows], Fraction(1)
    for k in range(len(a)):
        piv = next((i for i in range(k, len(a)) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        for row in a[k + 1:]:
            ratio = row[k] / a[k][k]
            for j in range(k, len(a)):
                row[j] -= ratio * a[k][j]
    assert det.denominator == 1
    return int(det)


def _interpolated_det(matrix_at, n: int) -> list[int]:
    """The n + 1 ascending coefficients of f(t) = det matrix_at(t) in Z[t],
    of degree at most n, from its values at t = 0, 1, ..., n: the k-th
    forward difference of an integer polynomial is k! times an integer,
    so Newton's form has integer coefficients; a Horner pass expands it."""
    diffs = [_fraction_det(matrix_at(t)) for t in range(n + 1)]
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


def interpolated_kernel(matrix_at, norms, degree: int) -> list[int]:
    """``linalg._kronecker_det`` by the route it replaced: the entries that
    matrix_at(b) encodes at t = 2^b, each of degree at most ``degree``, are
    read back as coefficient lists at a b past every entry's l1 norm, then
    the determinant is interpolated from t = 0, 1, ..., degree."""
    b = max((x for row in norms for x in row), default=0).bit_length() + 2
    half, entries = 1 << (b - 1), []
    for row in matrix_at(b):
        entries.append([])
        for x in row:
            coeffs = []
            for _ in range(degree + 1):
                coeffs.append((x + half) % (1 << b) - half)
                x = (x - coeffs[-1]) >> b
            assert x == 0, "entry past the degree bound"
            entries[-1].append(coeffs)
    return _interpolated_det(
        lambda t: [[sum(c * t**e for e, c in enumerate(a)) for a in row] for row in entries],
        degree,
    )


# -- closures of seeded braids ---------------------------------------------------------


def random_knot_braid(rng, strands: int, crossings: int) -> list[tuple[int, int]]:
    """Letters (i, e) for sigma_i^e, 0 <= i < strands - 1, drawn until the
    permutation is one strands-cycle, so that the closure is a knot."""
    while True:
        word = [(rng.randrange(strands - 1), rng.choice((1, -1))) for _ in range(crossings)]
        perm = list(range(strands))
        for i, _ in word:
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
        orbit, p = {0}, perm[0]
        while p not in orbit:
            orbit.add(p)
            p = perm[p]
        if len(orbit) == strands:
            return word


def braid_closure(strands: int, word) -> KnotPresentation:
    """Wirtinger presentation of the closure, relators in crossing order.

    Every crossing starts a new arc: sigma_i sends the arc at position
    i + 1 under the one at i, so the new arc at i is over old over^-1
    (the Artin action x_i -> x_i x_(i+1) x_i^-1), and sigma_i^-1 is the
    mirror.  The closure then identifies the arcs at each position at the
    bottom with those at the top.  The last relator follows from the
    others and is left out.
    """
    arcs, relators = list(range(strands)), []
    for i, e in word:
        new = strands + len(relators)
        over, old = (arcs[i], arcs[i + 1]) if e == 1 else (arcs[i + 1], arcs[i])
        arcs[i], arcs[i + 1] = (new, over) if e == 1 else (over, new)
        relators.append((over, e, old, new))
    parent = list(range(strands + len(word)))

    def root(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for p in range(strands):
        a, b = sorted((root(arcs[p]), root(p)))
        parent[b] = a
    names: dict[int, int] = {}
    for a in range(len(parent)):
        names.setdefault(root(a), len(names))

    def x(a, e=1):
        return (names[root(a)], e)

    words = [Word([x(o, e), x(a), x(o, -e), x(n, -1)]) for o, e, a, n in relators]
    return KnotPresentation(strands=len(names), wirtinger_relators=tuple(words[:-1]))


def burau_alexander(strands: int, word) -> LaurentInt:
    """Delta of the closure from the unreduced Burau matrix psi(beta): the
    minor of I - psi(beta) without its first row and column is +- t^k Delta,
    taken by the Laurent Bareiss determinant.

    sigma_i acts on columns i, i + 1 by [[1 - t, t], [1, 0]] (the Fox
    Jacobian of the Artin action), sigma_i^-1 by its inverse
    [[0, 1], [1/t, 1 - 1/t]].
    """
    one, zero = LaurentInt({0: 1}), LaurentInt({})
    psi = [[one if j == k else zero for k in range(strands)] for j in range(strands)]
    for i, e in word:
        if e == 1:
            a, b, c, d = LaurentInt({0: 1, 1: -1}), LaurentInt({1: 1}), one, zero
        else:
            a, b, c, d = zero, one, LaurentInt({-1: 1}), LaurentInt({0: 1, -1: -1})
        for row in psi:
            row[i], row[i + 1] = row[i] * a + row[i + 1] * c, row[i] * b + row[i + 1] * d
    minor = [
        [(one if j == k else zero) - psi[j][k] for k in range(1, strands)]
        for j in range(1, strands)
    ]
    return _centered_unit_form(_laurent_det(minor), "Burau")
