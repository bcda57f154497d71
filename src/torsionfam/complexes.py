"""Based chain complexes over Q(i)(t) and their sign-determined torsion.

A :class:`BasedChainComplex` stores ranks by homological degree
(index 0 up to the top degree m) and the boundary matrices
d_k : C_k -> C_{k-1} in column convention (shape ranks[k-1] x ranks[k],
acting on coordinate columns).  d_{k} . d_{k+1} = 0 is checked exactly
at construction, except for the dual of a complex already checked.

Torsion of a generically acyclic complex is computed by the matrix
subset algorithm: walk the degrees from the bottom, choose in each
degree a set of basis columns carrying the rank of the boundary, and
multiply the staircase determinants with alternating exponents.  The
exponent convention is frozen under the tag ``FT-cal-1``:

    torsion = product over k of det(D_k) ** ((-1) ** (k+1))

where D_k is the square submatrix of d_k on the rows left uncovered in
degree k-1 and the chosen columns in degree k; det(D_k) is read off
the elimination that picks the columns.  The calibration makes the
valuation of the torsion at a degeneration point equal the Euler
number of the local torsion modules (see the deformation module), with
the circle family 0 -> R --(z-1)--> R -> 0 as the pinned example:
its torsion is (z - 1)**(+1).

Column subsets are chosen greedily (leftmost independent columns,
ties broken by lowest index), so the output is deterministic including
its sign.  A second, rightmost-scanning strategy is provided purely to
let tests certify that the valuation does not depend on the choice.
The completed staircase also certifies acyclicity: it completes
exactly when the complex is generically acyclic.

A complex is immutable, so what is derived from it alone is computed
once and kept in a private memo on the object: the staircase and the
torsion value of each strategy, and (filled by the deformation module)
the parameter-independent part of each accepted duality pairing.  The
memo lives and dies with the complex.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import Matrix, _eliminate
from .ratfunc import RatFunc
from .scalars import _Frozen, sign_of_real

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

_ZERO = RatFunc.zero()
_ONE = RatFunc.one()


class BasedChainComplex(_Frozen):
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
            prod = boundaries[k - 1].mul_with_zero(boundaries[k], _ZERO)
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
        if isinstance(b, Matrix):
            return b.map(RatFunc.coerce)
        raise TypeError("boundaries must be Matrix instances")

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

    def __eq__(self, other):
        if not isinstance(other, BasedChainComplex):
            return NotImplemented
        return self.ranks == other.ranks and self.boundaries == other.boundaries

    def __repr__(self):
        return f"BasedChainComplex(ranks={self.ranks})"


@dataclass(frozen=True)
class TorsionValue:
    """Torsion scalar together with the sign convention that fixed it."""

    value: RatFunc
    convention_tag: str = CONVENTION_TAG

    def __post_init__(self):
        if self.value.is_zero():
            raise ValueError("torsion value cannot be zero")


def _staircase(c: BasedChainComplex, rightmost: bool):
    """Eliminations of d_1 .. d_m on the rows left uncovered below.

    None when a step lacks full row rank or C_m is not used up, which
    happens exactly when the complex is not generically acyclic.
    """
    steps = []
    uncovered = range(c.ranks[0])  # rows of degree k-1 not chosen there
    for k in range(1, c.top_degree + 1):
        mat = c.boundary(k)
        order = range(mat.ncols - 1, -1, -1) if rightmost else range(mat.ncols)
        step = _eliminate([list(mat.rows[j]) for j in uncovered], order)
        if len(step[0]) != len(uncovered):
            return None
        steps.append(step)
        chosen = set(step[0])
        uncovered = [j for j in range(c.ranks[k]) if j not in chosen]
    return None if uncovered else steps


def _memoized(c: BasedChainComplex, key, compute):
    """``compute()``, run once per complex and ``key``."""
    memo = c._memo
    if key not in memo:
        memo[key] = compute()
    return memo[key]


def _steps(c: BasedChainComplex, rightmost: bool):
    """The memoized staircase of one strategy."""
    return _memoized(c, ("staircase", rightmost), lambda: _staircase(c, rightmost))


def is_generically_acyclic(c: BasedChainComplex) -> bool:
    """Exactness over the rational function field.

    Equivalent to acyclicity of the evaluated complex for all but
    finitely many parameter values.  Reads the memoized leftmost
    staircase, the one ``torsion`` uses.
    """
    return _steps(c, rightmost=False) is not None


def _subset_determinants(c: BasedChainComplex, rightmost: bool) -> list[RatFunc]:
    """Staircase determinants D_1 .. D_m of the subset algorithm.

    D_k is the product of the pivots that picked the columns, negated
    when the row swaps and the sort of the picked columns have opposite
    parity.  Raises when the complex is not generically acyclic.
    """
    steps = _steps(c, rightmost)
    if steps is None:
        raise ValueError("torsion undefined: complex not generically acyclic")
    dets: list[RatFunc] = []
    for picked, pivots, odd in steps:
        det = _ONE
        for pivot in pivots:
            det = det * pivot
        inversions = sum(a > b for i, a in enumerate(picked) for b in picked[i + 1:])
        dets.append(-det if odd != (inversions % 2 == 1) else det)
    return dets


def torsion(c: BasedChainComplex, _strategy: str = "leftmost") -> TorsionValue:
    """Sign-determined torsion of a generically acyclic complex.

    Deterministic: the same input yields the same value including its
    sign.  ``_strategy`` ("leftmost" or "rightmost") switches the
    column-subset scan and exists for the subset-independence checks;
    the published convention is the leftmost scan.

    The value and its staircase are memoized on the complex, one entry
    per strategy, so repeated calls (``torsion_sign_at``,
    ``singularity_exponent``, the deformation analysis at every point)
    return the stored value.  A complex that is not generically acyclic
    raises on every call.
    """
    if _strategy not in ("leftmost", "rightmost"):
        raise ValueError(f"unknown subset strategy {_strategy!r}")
    return _memoized(c, ("torsion", _strategy), lambda: _torsion(c, _strategy))


def _torsion(c: BasedChainComplex, strategy: str) -> TorsionValue:
    dets = _subset_determinants(c, rightmost=strategy == "rightmost")
    value = _ONE
    for k, d in enumerate(dets, start=1):
        value = value * d if k % 2 == 1 else value / d
    return TorsionValue(value)


def conjugate_complex(c: BasedChainComplex) -> BasedChainComplex:
    """Entrywise Gaussian conjugation of all boundaries; an involution."""
    return BasedChainComplex(c.ranks, [b.conj() for b in c.boundaries])


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
    ranks = [ra + rb for ra, rb in zip(a.ranks, b.ranks)]
    boundaries = [
        Matrix.block_diagonal(a.boundary(k), b.boundary(k), _ZERO)
        for k in range(1, m + 1)
    ]
    return BasedChainComplex(ranks, boundaries)


def _pad(c: BasedChainComplex, m: int) -> BasedChainComplex:
    if c.top_degree == m:
        return c
    ranks = c.ranks + (0,) * (m - c.top_degree)
    boundaries = list(c.boundaries)
    for k in range(c.top_degree + 1, m + 1):
        boundaries.append(Matrix.zeros(ranks[k - 1], 0, _ZERO))
    return BasedChainComplex(ranks, boundaries)


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
