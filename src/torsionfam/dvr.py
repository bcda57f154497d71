"""Local analysis of a family at a degeneration point.

The ring of rational functions regular at t0 is a discrete valuation
ring; its modules decompose into a free part and a torsion part
(a direct sum of pieces O/(t - t0)^a).  Diagonalizing a matrix over
that ring by valuation-pivoted row/column reduction yields its
elementary divisors; the recorded data is the sorted multiset of their
valuations plus the free rank of the cokernel.

For a generically acyclic complex the homology of the localized
complex is all torsion, and its dimension in degree i is the sum of
the divisor valuations of the boundary d_{i+1}: splitting the complex
over the DVR into two-term pieces O --(t-t0)^a--> O shows each piece
contributes its full valuation to the torsion of the degree below its
top, and nothing else survives.  (The correction term one might expect
from d_i vanishes under generic acyclicity.)  Tests pin this
bookkeeping against a minor-enumeration oracle and against rank-drop
counts of the evaluated complex.

The deformation report cross-checks the two routes to the singularity
exponent: the valuation of the torsion function must equal the Euler
number of the local torsion modules (alternating sum over homological
degree).  That equality is what the ``FT-cal-1`` sign convention is
calibrated to; a violation is a hard error, not a warning.

Duality, when supplied, is an explicit chain isomorphism from the
complex to its conjugate-transpose dual, invertible over the local
ring at t0.  It certifies the symmetry dims[i] == dims[m-1-i], whose
middle value governs the parity of the sign flip.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .complexes import (
    BasedChainComplex,
    dual_complex,
    is_generically_acyclic,
    torsion,
)
from .linalg import Matrix, _clear_below
from .scalars import GaussRat

__all__ = [
    "DivisorProfile",
    "TorsionModuleSummary",
    "DeformationReport",
    "snf_local",
    "torsion_modules",
    "euler_number",
    "singularity_exponent",
    "analyze",
    "check_duality_pairing",
    "DualityError",
    "CalibrationError",
]


class DualityError(ValueError):
    """A duality pairing that is not a local chain isomorphism at a point."""


class CalibrationError(ValueError):
    """nu != chi at a point: the frozen sign convention is broken.

    ``report`` is the full deformation report with the two disagreeing
    exponents, so a caller can report the failure and go on.
    """

    def __init__(self, report: "DeformationReport"):
        super().__init__(
            f"convention calibration violated: nu = {report.nu}, chi = {report.chi}"
        )
        self.report = report


@dataclass(frozen=True)
class DivisorProfile:
    """Elementary divisor valuations (ascending) and cokernel free rank."""

    valuations: tuple[int, ...]
    free_rank: int

    def __post_init__(self):
        vals = tuple(int(v) for v in self.valuations)
        if any(v < 0 for v in vals):
            raise ValueError("divisor valuations are non-negative")
        if list(vals) != sorted(vals):
            raise ValueError("divisor valuations must be sorted ascending")
        if self.free_rank < 0:
            raise ValueError("free rank is non-negative")
        object.__setattr__(self, "valuations", vals)

    @property
    def rank(self) -> int:
        """Rank over the fraction field."""
        return len(self.valuations)

    def total_valuation(self) -> int:
        return sum(self.valuations)


@dataclass(frozen=True)
class TorsionModuleSummary:
    """dim over the scalar field of the torsion of homology, by degree."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if any(d < 0 for d in dims):
            raise ValueError("torsion dimensions are non-negative")
        object.__setattr__(self, "dims", dims)

    @property
    def top_degree(self) -> int:
        return len(self.dims) - 1

    def middle_dim(self) -> Optional[int]:
        """dim in the self-paired degree (m-1)/2, for odd top degree m."""
        m = self.top_degree
        if m % 2 == 0:
            return None
        return self.dims[(m - 1) // 2]


@dataclass(frozen=True)
class DeformationReport:
    """Per-degeneration-point summary of a family complex.

    Holds what the analysis found: the point, the torsion's exponent
    ``nu`` there, the local torsion dimensions and the duality verdict.
    Read off these: ``chi``, the Euler number of the dims; the parity of
    the middle dim (None for even top degree); and ``sign_flip``, whether
    the torsion changes sign across t0 (nu odd).
    """

    t0: GaussRat
    nu: int
    dims: TorsionModuleSummary
    duality_ok: Optional[bool] = None

    @property
    def chi(self) -> int:
        return euler_number(self.dims)

    @property
    def middle_dim_parity(self) -> Optional[int]:
        mid = self.dims.middle_dim()
        return None if mid is None else mid % 2

    @property
    def sign_flip(self) -> bool:
        return self.nu % 2 == 1


def _require_local(mat: Matrix, t0) -> None:
    for e in mat.entries():
        if not e.is_regular_at(t0):
            raise ValueError("matrix not defined over the local ring")


def snf_local(mat: Matrix, t0) -> DivisorProfile:
    """Elementary divisors of a matrix over the local ring at t0.

    Pivots on the first entry of least valuation in row-major order,
    clears the rows below it with transformations invertible over the
    local ring (every ratio has valuation >= 0), and recurses on the
    rest; the pivot row is never read again, so no column operations
    are needed.  The result does not depend on the pivot; tests assert
    that on row- and column-permuted matrices.
    """
    _require_local(mat, t0)
    work = [list(r) for r in mat.rows]
    nr, nc = mat.nrows, mat.ncols
    lo = 0
    vals: list[int] = []
    while lo < min(nr, nc):
        candidates = [
            (work[j][k].valuation(t0), j, k)
            for j in range(lo, nr)
            for k in range(lo, nc)
            if not work[j][k].is_zero()
        ]
        if not candidates:
            break
        pivot_val, pj, pk = min(candidates)  # ties: first in row-major order
        work[lo], work[pj] = work[pj], work[lo]
        for row in work:
            row[lo], row[pk] = row[pk], row[lo]
        _clear_below(work, lo, lo, range(lo + 1, nc))
        vals.append(pivot_val)
        lo += 1
    return DivisorProfile(tuple(sorted(vals)), free_rank=nr - len(vals))


def torsion_modules(c: BasedChainComplex, t0) -> TorsionModuleSummary:
    """Local torsion dimensions of the homology, degree by degree.

    Requires the complex to be defined over the local ring at t0 and
    generically acyclic; a nonzero free rank in homology is an error
    (it would mean the family is singular at every parameter value).
    """
    m = c.top_degree
    profiles = [snf_local(c.boundary(k), t0) for k in range(1, m + 1)]
    ranks_of_d = [0] + [p.rank for p in profiles] + [0]
    for i in range(m + 1):
        free = c.ranks[i] - ranks_of_d[i] - ranks_of_d[i + 1]
        if free:
            raise ValueError("family not generically acyclic at this degree")
    dims = [0] * (m + 1)
    for i in range(m):
        dims[i] = profiles[i].total_valuation()  # profile of d_{i+1}
    return TorsionModuleSummary(tuple(dims))


def euler_number(dims: TorsionModuleSummary) -> int:
    """Alternating sum of the torsion dimensions over homological degree."""
    return sum((-1) ** i * d for i, d in enumerate(dims.dims))


def singularity_exponent(c: BasedChainComplex, t0) -> int:
    """Order of zero or pole of the torsion function at t0."""
    return torsion(c).value.valuation(t0)


def check_duality_pairing(
    c: BasedChainComplex, pairing: list[Matrix], t0
) -> None:
    """Validate a chain-level duality pairing at a point.

    The pairing is a list of matrices P_i : C_i -> dual(C)_i, one per
    degree, forming a chain isomorphism onto the conjugate-transpose
    dual, with every P_i invertible over the local ring at t0 (entries
    regular, determinant a unit).  Raises :class:`DualityError` with a
    description on any failure.

    The chain-map identity and the determinants of the P_i do not
    depend on t0; once a pairing has been accepted they are memoized on
    the complex, keyed by the pairing.  The shape checks, the
    regularity of the entries at t0 and the unit check of each
    determinant at t0 run on every call.
    """
    m = c.top_degree
    if len(pairing) != m + 1:
        raise DualityError(f"duality pairing needs {m + 1} matrices, got {len(pairing)}")
    key = ("duality", tuple(pairing))
    known = c._memo.get(key)  # determinants of the accepted pairing
    dets = []
    for i, p in enumerate(pairing):
        want = (c.ranks[m - i], c.ranks[i])  # the dual's ranks are reversed
        if p.shape() != want:
            raise DualityError(f"duality matrix {i} has shape {p.shape()}, expected {want}")
        if not all(e.is_regular_at(t0) for e in p.entries()):
            raise DualityError(f"duality matrix {i} not defined over the local ring")
        if p.nrows != p.ncols:
            raise DualityError(f"duality matrix {i} is not square")
        det = known[i] if known is not None else p.det()
        if det.is_zero() or det.valuation(t0) != 0:
            raise DualityError(
                f"duality matrix {i} is not invertible over the local ring"
            )
        dets.append(det)
    if known is not None:
        return
    dual = dual_complex(c)
    for i in range(1, m + 1):
        lhs = dual.boundary(i) @ pairing[i]
        rhs = pairing[i - 1] @ c.boundary(i)
        if lhs != rhs:
            raise DualityError(f"duality pairing is not a chain map in degree {i}")
    c._memo[key] = tuple(dets)


def analyze(
    c: BasedChainComplex, t0, duality: Optional[list[Matrix]] = None
) -> DeformationReport:
    """Full deformation report of a family complex at a point.

    Computes the singularity exponent two ways (torsion valuation and
    Euler number of the local torsion modules) and requires them to
    agree exactly; that is the calibration cross-check of the frozen
    sign convention.  A disagreement raises :class:`CalibrationError`,
    which carries the finished report; a rejected pairing raises
    :class:`DualityError` first.

    The acyclicity certificate (the completed staircase), the torsion
    function and the parameter-independent part of the duality check
    come from the complex's memo, so analyzing a family at many points
    computes them once.  The local Smith forms, the valuations at t0,
    the ``nu == chi`` check and the local checks of the pairing run at
    every point.
    """
    t0 = GaussRat.coerce(t0)
    if not is_generically_acyclic(c):
        raise ValueError("torsion undefined: complex not generically acyclic")
    dims = torsion_modules(c, t0)
    nu = singularity_exponent(c, t0)
    duality_ok: Optional[bool] = None
    if duality is not None:
        check_duality_pairing(c, duality, t0)
        m = c.top_degree
        duality_ok = all(
            dims.dims[i] == dims.dims[m - 1 - i] for i in range(m)
        ) and dims.dims[m] == 0
    report = DeformationReport(t0=t0, nu=nu, dims=dims, duality_ok=duality_ok)
    if nu != report.chi:
        raise CalibrationError(report)
    return report
