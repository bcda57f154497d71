"""Bundled and randomly generated family complexes with duality data.

The verification corpus consists of generically acyclic complexes of
odd top degree that come equipped with an explicit chain-level duality
pairing and a list of planted degeneration centers.  Three self-dual
building blocks cover everything:

* mirror pairs C + dual(C), paired by the block swap;
* two-term middle blocks d_r = M with M equal to its conjugate
  transpose (Hermitian over the family involution), paired by
  +-identity;
* rank-one circles d_1 = f, paired by the unit conj(f)/f.

Block factors vanish only at the planted integer centers on the real
line, and their denominators never vanish there, so evaluated torsion
values in a small window around a center see no stray sign changes;
by self-duality the torsion function is real (fixed by the family
involution) up to a global sign, so evaluated signs are well defined.

Everything is driven by a seeded ``random.Random``; the same seed
reproduces the corpus byte for byte.

The seeded samples of every invariant sweep come from here too:
``random_word``, ``random_ratfunc``, ``random_local_matrix`` and
``random_acyclic_complex`` feed the CLI ``selftest`` and the tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .complexes import BasedChainComplex, direct_sum, dual_complex
from .groupring import Word
from .linalg import Matrix
from .poly import Poly
from .ratfunc import RatFunc, cayley, conj_family, uniformizer
from .scalars import GaussRat

__all__ = [
    "ACCEPTANCE_SIZE",
    "FamilySpec",
    "elementary_complex",
    "swap_pairing",
    "mirror_pair",
    "hermitian_middle",
    "circle_family",
    "torus3_family",
    "acceptance_corpus",
    "bundled_direct_sum",
    "random_word",
    "random_ratfunc",
    "random_local_matrix",
    "random_acyclic_complex",
]

# number of families in the acceptance corpus (tests/test_acceptance.py)
ACCEPTANCE_SIZE = 55

_ZERO = RatFunc.zero()
_ONE = RatFunc.one()


@dataclass(frozen=True)
class FamilySpec:
    """A family complex, its duality certificate, and planted centers."""

    name: str
    complex: BasedChainComplex
    pairing: Optional[tuple[Matrix, ...]]
    centers: tuple[Fraction, ...]

    def __post_init__(self):
        if self.pairing is not None:
            object.__setattr__(self, "pairing", tuple(self.pairing))
        object.__setattr__(
            self, "centers", tuple(Fraction(c) for c in self.centers)
        )


def elementary_complex(m: int, k: int, mat: Matrix) -> BasedChainComplex:
    """Two-term complex 0 -> R^a --mat--> R^a -> 0 in degrees (k, k-1).

    All other degrees up to m are zero; ``mat`` must be square.
    """
    if not 1 <= k <= m:
        raise ValueError("block degree out of range")
    if mat.nrows != mat.ncols:
        raise ValueError("elementary block must be square")
    a = mat.nrows
    ranks = [0] * (m + 1)
    ranks[k] = ranks[k - 1] = a
    boundaries = []
    for j in range(1, m + 1):
        if j == k:
            boundaries.append(mat)
        else:
            boundaries.append(Matrix.zeros(ranks[j - 1], ranks[j]))
    return BasedChainComplex(ranks, boundaries)


def swap_pairing(c: BasedChainComplex) -> list[Matrix]:
    """Duality pairing of C + dual(C) by the block swap.

    Valid for odd top degree, where the double dual is the identity.
    """
    m = c.top_degree
    if m % 2 == 0:
        raise ValueError("mirror pairing needs odd top degree")
    pairing = []
    for i in range(m + 1):
        a = c.ranks[i]
        b = c.ranks[m - i]  # rank of dual(C) in degree i
        rows = Matrix.block_diagonal(Matrix.identity(a), Matrix.identity(b)).rows
        pairing.append(Matrix(rows[a:] + rows[:a], a + b))
    return pairing


def mirror_pair(c: BasedChainComplex) -> tuple[BasedChainComplex, list[Matrix]]:
    """C + dual(C) with its swap pairing."""
    return direct_sum(c, dual_complex(c)), swap_pairing(c)


def hermitian_middle(m: int, mat: Matrix) -> tuple[BasedChainComplex, list[Matrix]]:
    """Self-paired middle block: d_r = mat in degrees (r, r-1), m = 2r-1.

    ``mat`` must equal its conjugate transpose as a RatFunc matrix.
    """
    if m % 2 == 0:
        raise ValueError("middle block needs odd top degree")
    if mat != mat.transpose().conj():
        raise ValueError("middle block must be Hermitian under the family involution")
    r = (m + 1) // 2
    cplx = elementary_complex(m, r, mat)
    pairing = []
    for i in range(m + 1):
        ident = Matrix.identity(cplx.ranks[i])
        pairing.append(-ident if i == r and r % 2 == 0 else ident)
    return cplx, pairing


def circle_family(f: RatFunc, name: str = "circle", centers=()) -> FamilySpec:
    """Rank-one circle family 0 -> R --f--> R -> 0 with its unit pairing.

    The pairing entry conj(f)/f is a unit of the local ring at every
    real rational point, because coefficient conjugation preserves the
    order of vanishing at real centers.
    """
    cplx = BasedChainComplex([1, 1], [Matrix([[f]])])
    pairing = [Matrix([[conj_family(f) / f]]), Matrix([[_ONE]])]
    return FamilySpec(name, cplx, tuple(pairing), tuple(centers))


def combine(name: str, parts: list[FamilySpec]) -> FamilySpec:
    """Direct sum of self-dual families; pairings stack blockwise."""
    if not parts:
        raise ValueError("nothing to combine")
    total = parts[0].complex
    pairing = list(parts[0].pairing)
    centers = set(parts[0].centers)
    for part in parts[1:]:
        if part.complex.top_degree != total.top_degree:
            raise ValueError("combine needs equal top degrees")
        total = direct_sum(total, part.complex)
        pairing = [
            Matrix.block_diagonal(p, q) for p, q in zip(pairing, part.pairing)
        ]
        centers.update(part.centers)
    return FamilySpec(name, total, tuple(pairing), tuple(sorted(centers)))


def torus3_family() -> FamilySpec:
    """Twisted 3-torus: the rank (1,3,3,1) complex of the family
    (cayley(1), cayley(2), cayley(3)), with its wedge duality pairing.

    Written for the Koszul boundaries of the triple a_i = z_i - 1; the
    pairing matrices carry the unit corrections conj(a)/a needed
    because the family is complex.
    """
    z1, z2, z3 = cayley(1), cayley(2), cayley(3)
    a1, a2, a3 = z1 - 1, z2 - 1, z3 - 1
    d1 = Matrix([[a1, a2, a3]])
    d2 = Matrix([[-a2, -a3, _ZERO], [a1, _ZERO, -a3], [_ZERO, a1, a2]])
    d3 = Matrix([[a3], [-a2], [a1]])
    cplx = BasedChainComplex([1, 3, 3, 1], [d1, d2, d3])

    b1, b2, b3 = (conj_family(a) / a for a in (a1, a2, a3))
    w = b1 * b2 * b3
    p3 = Matrix([[_ONE]])
    p2 = Matrix([[_ZERO, _ZERO, b1], [_ZERO, -b2, _ZERO], [b3, _ZERO, _ZERO]])
    p1 = Matrix(
        [[_ZERO, _ZERO, b1 * b2], [_ZERO, -b1 * b3, _ZERO], [b2 * b3, _ZERO, _ZERO]]
    )
    p0 = Matrix([[w]])
    return FamilySpec("torus3", cplx, (p0, p1, p2, p3), (Fraction(0),))


def bundled_direct_sum() -> FamilySpec:
    """Circle + mirrored block sum used by the self test."""
    t = RatFunc.var()
    circ = circle_family(cayley() - 1, centers=(Fraction(0),))
    herm, hpair = hermitian_middle(1, Matrix([[(t - 1) * (t + 1)]]))
    part = FamilySpec("herm", herm, tuple(hpair), (Fraction(1), Fraction(-1)))
    return combine("circle+herm", [circ, part])


# -- random generation ----------------------------------------------------


def _unimodular_gauss(rng: random.Random, n: int) -> Matrix:
    """Random Z[i] matrix with unit determinant, from elementary moves."""
    rows = [list(r) for r in Matrix.identity(n).rows]
    units = [
        RatFunc.coerce(GaussRat(1)),
        RatFunc.coerce(GaussRat(-1)),
        RatFunc.coerce(GaussRat(0, 1)),
        RatFunc.coerce(GaussRat(0, -1)),
    ]
    for _ in range(3 * n):
        op = rng.randrange(3)
        j = rng.randrange(n)
        k = rng.randrange(n)
        if op == 0 and j != k:
            c = rng.choice(units)
            for col in range(n):
                rows[j][col] = rows[j][col] + c * rows[k][col]
        elif op == 1 and j != k:
            rows[j], rows[k] = rows[k], rows[j]
        elif op == 2:
            c = rng.choice(units)
            for col in range(n):
                rows[j][col] = c * rows[j][col]
    return Matrix(rows, n)


def _vanishing_factor(rng: random.Random, center: Fraction) -> RatFunc:
    """A factor with a simple real zero exactly at ``center``."""
    kind = rng.randrange(3)
    if kind == 0:
        return uniformizer(center)
    speed = rng.choice([1, 2, 3])
    z = cayley(speed)
    shift = RatFunc.coerce(z.evaluate(GaussRat(center)))
    if kind == 1:
        return z - shift
    return (z - shift) * rng.choice([1, 2])


def _unit_factor(rng: random.Random) -> RatFunc:
    """A factor with no zeros or poles on the real line."""
    kind = rng.randrange(3)
    t = RatFunc.var()
    if kind == 0:
        return RatFunc.coerce(rng.choice([1, 2, 3, -1, -2]))
    if kind == 1:
        s = rng.choice([1, 2])
        return 1 + s * s * t * t
    return RatFunc.coerce(GaussRat(rng.choice([1, 2]), rng.choice([1, -1])))


def _real_vanishing_factor(rng: random.Random, center: Fraction) -> RatFunc:
    """Conjugation-invariant factor with a real zero at ``center``."""
    if rng.randrange(2):
        return uniformizer(center)
    f = _vanishing_factor(rng, center)
    return f * conj_family(f)


def _divisor(rng: random.Random, centers, real_only: bool) -> RatFunc:
    """Product of one or two vanishing factors plus optional seasoning."""
    picked = rng.sample(list(centers), rng.choice([1, 1, 2])) if len(centers) > 1 \
        else [centers[0]]
    make = _real_vanishing_factor if real_only else _vanishing_factor
    out = _ONE
    for c in picked:
        out = out * make(rng, c)
    if rng.randrange(2):
        unit = _unit_factor(rng)
        if real_only:
            unit = unit * conj_family(unit) if unit.num.conj() != unit.num else unit
        out = out * unit
    return out


def _mirror_block(rng: random.Random, m: int, centers) -> FamilySpec:
    """Mirror pair of a random invertible elementary block."""
    a = rng.choice([1, 1, 2])
    k = rng.randrange(1, m + 1)
    diag = []
    for idx in range(a):
        if idx == 0 or rng.randrange(2):
            diag.append(_divisor(rng, centers, real_only=False))
        else:
            diag.append(_unit_factor(rng))
    u = _unimodular_gauss(rng, a)
    v = _unimodular_gauss(rng, a)
    mat = u @ Matrix.diagonal(diag) @ v
    half = elementary_complex(m, k, mat)
    total, pairing = mirror_pair(half)
    return FamilySpec("mirror", total, tuple(pairing), tuple(centers))


def _hermitian_block(rng: random.Random, m: int, centers) -> FamilySpec:
    """Hermitian middle block A diag(real factors) A*^T."""
    a = rng.choice([1, 2])
    diag = []
    for idx in range(a):
        if idx == 0 or rng.randrange(2):
            diag.append(_divisor(rng, centers, real_only=True))
        else:
            diag.append(RatFunc.coerce(rng.choice([1, 2, -1])))
    g = _unimodular_gauss(rng, a)
    mat = g @ Matrix.diagonal(diag) @ g.transpose().conj()
    cplx, pairing = hermitian_middle(m, mat)
    return FamilySpec("hermitian", cplx, tuple(pairing), tuple(centers))


def random_family(rng: random.Random, index: int) -> FamilySpec:
    """One random self-dual, generically acyclic family complex.

    Only mirror pairs and Hermitian middles enter: both have torsion
    functions fixed by the family involution up to a global sign, so
    evaluated torsion values on the real line are real and the
    sign-flip law is checkable exactly.  (A lone circle with a complex
    unitary factor is self-dual but its torsion is not real; circles
    enter the corpus through their mirror pairs instead.)
    """
    m = rng.choice([1, 3, 3, 3, 5])
    n_centers = rng.choice([1, 2, 2, 3])
    centers = tuple(
        Fraction(c) for c in sorted(rng.sample([-2, -1, 0, 1, 2], n_centers))
    )
    parts: list[FamilySpec] = [_hermitian_block(rng, m, centers)]
    budget = 12 - parts[-1].complex.total_rank()
    while budget >= 4 and rng.randrange(2):
        block = _mirror_block(rng, m, centers)
        if block.complex.total_rank() > budget:
            break
        parts.append(block)
        budget -= block.complex.total_rank()
    return combine(f"fam{index:03d}-m{m}", parts)


def acceptance_corpus(count: int = ACCEPTANCE_SIZE, seed: int = 20250) -> list[FamilySpec]:
    """Deterministic corpus of duality-equipped family complexes."""
    rng = random.Random(seed)
    return [random_family(rng, idx) for idx in range(count)]


# -- seeded samples for invariant sweeps -------------------------------------


def random_word(rng: random.Random, ngens: int = 3, max_len: int = 12) -> Word:
    """Random word of length 0..max_len in generators 0..ngens-1."""
    return Word(
        [(rng.randrange(ngens), rng.choice([1, -1]))
         for _ in range(rng.randrange(0, max_len + 1))]
    )


def random_ratfunc(rng: random.Random, zero_at=None) -> RatFunc:
    """Low-degree element of Q(i)(t).  ``zero_at`` plants a factor t - zero_at,
    which raises the valuation there by one; the result has a zero there
    only when the drawn denominator does not also vanish there."""
    def poly():
        while True:
            p = Poly(
                [GaussRat(rng.randrange(-3, 4), rng.randrange(-2, 3))
                 for _ in range(rng.randrange(1, 4))]
            )
            if not p.is_zero():
                return p

    num = poly()
    if zero_at is not None:
        num = num * Poly([-GaussRat.coerce(zero_at), GaussRat.one()])
    return RatFunc(num, poly())


def random_local_matrix(rng: random.Random, nrows: int, ncols: int) -> Matrix:
    """Random matrix over the local ring at 0 (denominators avoid 0)."""
    t = RatFunc.var()
    pool = [
        _ZERO, _ONE, t, t * t, 1 + t, t * (1 + t),
        RatFunc.coerce(GaussRat(0, 1)) * t, 2 + t,
        t / (1 + t), (t * t) / (2 + t), cayley() - 1,
    ]
    return Matrix([[rng.choice(pool) for _ in range(ncols)] for _ in range(nrows)], ncols)


def random_acyclic_complex(rng: random.Random) -> BasedChainComplex:
    """A generically acyclic complex: one corpus family on a drawn seed."""
    return acceptance_corpus(1, rng.randrange(10**6))[0].complex
