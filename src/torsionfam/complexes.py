"""Based chain complexes over Q(i)(t) and their sign-determined torsion.

A :class:`BasedChainComplex` stores ranks by homological degree
(index 0 up to the top degree m) and the boundary matrices
d_k : C_k -> C_{k-1} in column convention (shape ranks[k-1] x ranks[k],
acting on coordinate columns).  d_{k} . d_{k+1} = 0 is checked exactly
at construction, except for the complexes derived from ones already
checked (dual, conjugate, direct sum), whose shapes and d . d = 0 the
derivation keeps.

Torsion of a generically acyclic complex is computed by the matrix
subset algorithm: walk the degrees from the bottom, choose in each
degree a set of basis columns carrying the rank of the boundary, and
multiply the staircase determinants with alternating exponents.  The
exponent convention is frozen under the tag ``FT-cal-1``:

    torsion = product over k of D_k ** ((-1) ** (k+1))

where D_k is the minor of d_k on the rows left uncovered in degree k-1
and the chosen columns in degree k.  It is read off the elimination
that picks the columns (``linalg._minor``), and the staircase keeps it
with them as one record (columns, D_k) per degree.  The calibration
makes the valuation of the torsion at a degeneration point equal the
Euler number of the local torsion modules (see the deformation
module), with the circle family 0 -> R --(z-1)--> R -> 0 as the pinned
example: its torsion is (z - 1)**(+1).

Column subsets are chosen greedily, scanning the columns from the left
and keeping each one that raises the rank, so the output is
deterministic including its sign.  That scan is the only one: tests
show that the valuation does not depend on the choice by permuting the
input's bases, not the scan (reversing every basis gives the staircase
that scans from the right).  The completed staircase also certifies
acyclicity: it completes exactly when the complex is generically
acyclic.

A complex is immutable, so what is derived from it alone is computed
once and kept in a private memo on the object: the staircase (its
(columns, D_k) records, or None), the torsion value, and (filled by
the deformation module) the boundaries' distinct denominators and the
last accepted duality pairing with its determinants.  The memo lives
and dies with the complex; equality and hashing leave it out.
"""

from __future__ import annotations

from .linalg import Matrix, _minor
from .ratfunc import RatFunc
from .scalars import _Record, _set, sign_of_real

__all__ = [
    "CONVENTION_TAG",
    "BasedChainComplex",
    "TorsionValue",
    "is_generically_acyclic",
    "torsion",
    "conjugate_complex",
    "dual_complex",
    "direct_sum",
    "torsion_sign_at",
]

CONVENTION_TAG = "FT-cal-1"

_ONE = RatFunc.one()


class BasedChainComplex(_Record):
    """Finite free based chain complex with RatFunc boundary matrices."""

    __slots__ = ("ranks", "boundaries", "_memo")

    def __init__(self, ranks, boundaries):
        ranks = tuple(int(r) for r in ranks)
        if not ranks:
            raise ValueError("complex needs at least one degree")
        if any(r < 0 for r in ranks):
            raise ValueError("ranks must be non-negative")
        boundaries = tuple(self._as_matrix(b) for b in boundaries)
        if len(boundaries) != len(ranks) - 1:
            raise ValueError(
                f"expected {len(ranks) - 1} boundary matrices, got {len(boundaries)}"
            )
        for k, mat in enumerate(boundaries, start=1):
            want = (ranks[k - 1], ranks[k])
            if mat.shape() != want:
                raise ValueError(
                    f"boundary {k} has shape {mat.shape()}, expected {want}"
                )
        for k in range(1, len(ranks) - 1):
            prod = boundaries[k - 1] @ boundaries[k]
            if not prod.is_zero():
                raise ValueError(f"boundary condition fails: d_{k} . d_{k + 1} != 0")
        object.__setattr__(self, "ranks", ranks)
        object.__setattr__(self, "boundaries", boundaries)
        # derived data, keyed by what derived it; see the module docstring
        object.__setattr__(self, "_memo", {})

    @classmethod
    def _trusted(cls, ranks: tuple, boundaries: tuple) -> "BasedChainComplex":
        # trusted constructor: RatFunc matrices of the right shapes, d.d = 0
        obj = object.__new__(cls)
        object.__setattr__(obj, "ranks", ranks)
        object.__setattr__(obj, "boundaries", boundaries)
        object.__setattr__(obj, "_memo", {})
        return obj

    @staticmethod
    def _as_matrix(b) -> Matrix:
        if isinstance(b, Matrix) and {type(e) for row in b.rows for e in row} <= {RatFunc}:
            return b
        raise TypeError("boundaries must be Matrix instances with RatFunc entries")

    @property
    def top_degree(self) -> int:
        return len(self.ranks) - 1

    def boundary(self, k: int) -> Matrix:
        """The matrix of d_k : C_k -> C_{k-1}, for 1 <= k <= top degree."""
        if not 1 <= k <= self.top_degree:
            raise IndexError(f"no boundary in degree {k}")
        return self.boundaries[k - 1]

    def total_rank(self) -> int:
        return sum(self.ranks)

    def __repr__(self):
        return f"BasedChainComplex(ranks={self.ranks})"


class TorsionValue(_Record):
    """Torsion scalar, with the tag of the one sign convention that fixes it.

    ``convention_tag`` is a class constant: every torsion value is
    computed under ``FT-cal-1``, so no caller sets it.
    """

    __slots__ = ("value",)
    convention_tag = CONVENTION_TAG

    def __init__(self, value: RatFunc):
        if value.is_zero():
            raise ValueError("torsion value cannot be zero")
        _set(self, "value", value)


def _staircase(c: BasedChainComplex):
    """The record (columns, D_k) of each degree k = 1 .. m: the columns
    of d_k picked on the rows left uncovered in degree k-1, in ascending
    order, and D_k, the minor of d_k on those rows and columns.

    None when some D_k vanishes or C_m is not used up, which happens
    exactly when the complex is not generically acyclic.
    """
    steps = []
    uncovered = range(c.ranks[0])  # rows of degree k-1 not chosen there
    for k, mat in enumerate(c.boundaries, start=1):
        picked, minor = _minor([list(mat.rows[j]) for j in uncovered], range(mat.ncols))
        if minor.is_zero():
            return None
        steps.append((picked, minor))
        chosen = set(picked)
        uncovered = [j for j in range(c.ranks[k]) if j not in chosen]
    return None if uncovered else steps


def _memoized(c: BasedChainComplex, key, compute):
    """``compute()``, run once per complex and ``key``."""
    memo = c._memo
    if key not in memo:
        memo[key] = compute()
    return memo[key]


def _steps(c: BasedChainComplex):
    """The memoized staircase."""
    return _memoized(c, "staircase", lambda: _staircase(c))


def is_generically_acyclic(c: BasedChainComplex) -> bool:
    """Exactness over the rational function field.

    Equivalent to acyclicity of the evaluated complex for all but
    finitely many parameter values.  Reads the memoized staircase, the
    one ``torsion`` uses.
    """
    return _steps(c) is not None


def torsion(c: BasedChainComplex) -> TorsionValue:
    """Sign-determined torsion of a generically acyclic complex.

    Deterministic: the same input yields the same value including its
    sign, fixed by the leftmost staircase of ``FT-cal-1``.

    The value and its staircase are memoized on the complex, so
    repeated calls (``torsion_sign_at``, ``singularity_exponent``, the
    deformation analysis at every point) return the stored value.  A
    complex that is not generically acyclic raises on every call.
    """
    return _memoized(c, "torsion", lambda: _torsion(c))


def _torsion(c: BasedChainComplex) -> TorsionValue:
    steps = _steps(c)
    if steps is None:
        raise ValueError("torsion undefined: complex not generically acyclic")
    value = _ONE
    for k, (_, d) in enumerate(steps, start=1):
        value = value * d if k % 2 == 1 else value / d
    return TorsionValue(value)


def conjugate_complex(c: BasedChainComplex) -> BasedChainComplex:
    """Entrywise Gaussian conjugation of all boundaries; an involution."""
    return BasedChainComplex._trusted(c.ranks, tuple(b.conj() for b in c.boundaries))


def dual_complex(c: BasedChainComplex) -> BasedChainComplex:
    """Degree-reversed conjugate-transpose complex.

    The boundary of the dual in degree i is (-1)**(m-i) times the
    conjugated transpose of the original boundary in degree m-i+1.
    The sign keeps the double dual equal to the original complex for
    odd top degree m (the geometric case), and d.d = 0 holds for any
    sign choice, so the result is built without re-checking it.
    """
    m = c.top_degree
    ranks = tuple(reversed(c.ranks))
    boundaries = []
    for i in range(1, m + 1):
        mat = c.boundary(m - i + 1).transpose().conj()
        if (m - i) % 2 == 1:
            mat = -mat
        boundaries.append(mat)
    return BasedChainComplex._trusted(ranks, tuple(boundaries))


def direct_sum(a: BasedChainComplex, b: BasedChainComplex) -> BasedChainComplex:
    """Blockwise direct sum, A-block first; shorter input is padded."""
    m = max(a.top_degree, b.top_degree)
    a = _pad(a, m)
    b = _pad(b, m)
    ranks = tuple(ra + rb for ra, rb in zip(a.ranks, b.ranks))
    boundaries = tuple(
        Matrix.block_diagonal(a.boundary(k), b.boundary(k)) for k in range(1, m + 1)
    )
    return BasedChainComplex._trusted(ranks, boundaries)


def _pad(c: BasedChainComplex, m: int) -> BasedChainComplex:
    if c.top_degree == m:
        return c
    ranks = c.ranks + (0,) * (m - c.top_degree)
    boundaries = c.boundaries + tuple(
        Matrix.zeros(ranks[k - 1], 0) for k in range(c.top_degree + 1, m + 1)
    )
    return BasedChainComplex._trusted(ranks, boundaries)


def torsion_sign_at(c: BasedChainComplex, t) -> int:
    """Sign of the torsion evaluated at a real rational parameter value.

    The evaluated torsion must be a nonzero real number there; families
    assembled from self-dual blocks have exactly real torsion on the
    real line, which is what the sign-flip law quantifies.  The torsion
    function is the memoized one; only its evaluation runs per point:
    with N, D the Gaussian-integer Horner values of num and den, the
    value is N conj(D) times a positive rational.
    """
    value = torsion(c).value
    nr, ni, _ = value.num.value_parts(t)
    dr, di, _ = value.den.value_parts(t)
    re, im = nr * dr + ni * di, ni * dr - nr * di
    if im or not re:
        # not real, zero or a pole: the GaussRat value raises the message
        return sign_of_real(value.evaluate(t))
    return 1 if re > 0 else -1
