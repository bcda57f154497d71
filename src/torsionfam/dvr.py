"""Local analysis of a family at a degeneration point.

The ring of rational functions regular at t0 is a discrete valuation
ring; its modules decompose into a free part and a torsion part
(a direct sum of pieces O/(t - t0)^a).  Sparse elimination over that
ring, pivoting on an entry of least valuation and dropping its row and
column, yields a matrix's elementary divisors; the recorded data is the
sorted multiset of their valuations plus the free rank of the cokernel.

For a generically acyclic complex the homology of the localized
complex is all torsion, and its dimension in degree i is the sum of
the divisor valuations of the boundary d_{i+1}: splitting the complex
over the DVR into two-term pieces O --(t-t0)^a--> O shows each piece
contributes its full valuation to the torsion of the degree below its
top, and nothing else survives.  (The correction term one might expect
from d_i vanishes under generic acyclicity.)  Tests pin this
bookkeeping against a minor-enumeration oracle and against rank-drop
counts of the evaluated complex.  The staircase's record (columns, D_k)
has D_k a nonsingular minor of d_k of size r = rank(d_k), so the sum
lies between r - rank(d_k at t0), the number of divisors vanishing at
t0, and v = v_t0(D_k); the Smith form runs only where 0 < r - rank < v.

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

from collections import Counter
from math import lcm
from typing import Optional

from .complexes import (
    BasedChainComplex,
    _memoized,
    _steps,
    is_generically_acyclic,
    torsion,
)
from .linalg import Matrix
from .scalars import GaussRat, _Record, _set

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


class DivisorProfile(_Record):
    """Elementary divisor valuations (ascending) and cokernel free rank."""

    __slots__ = ("valuations", "free_rank")

    def __init__(self, valuations: tuple[int, ...], free_rank: int):
        vals = tuple(int(v) for v in valuations)
        if any(v < 0 for v in vals):
            raise ValueError("divisor valuations are non-negative")
        if list(vals) != sorted(vals):
            raise ValueError("divisor valuations must be sorted ascending")
        if free_rank < 0:
            raise ValueError("free rank is non-negative")
        _set(self, "valuations", vals)
        _set(self, "free_rank", free_rank)

    @property
    def rank(self) -> int:
        """Rank over the fraction field."""
        return len(self.valuations)

    def total_valuation(self) -> int:
        return sum(self.valuations)


class TorsionModuleSummary(_Record):
    """dim over the scalar field of the torsion of homology, by degree."""

    __slots__ = ("dims",)

    def __init__(self, dims: tuple[int, ...]):
        dims = tuple(int(d) for d in dims)
        if any(d < 0 for d in dims):
            raise ValueError("torsion dimensions are non-negative")
        _set(self, "dims", dims)

    @property
    def top_degree(self) -> int:
        return len(self.dims) - 1

    def middle_dim(self) -> Optional[int]:
        """dim in the self-paired degree (m-1)/2, for odd top degree m."""
        m = self.top_degree
        if m % 2 == 0:
            return None
        return self.dims[(m - 1) // 2]


class DeformationReport(_Record):
    """Per-degeneration-point summary of a family complex.

    Holds what the analysis found: the point, the torsion's exponent
    ``nu`` there, the local torsion dimensions and the duality verdict.
    Read off these: ``chi``, the Euler number of the dims; the parity of
    the middle dim (None for even top degree); and ``sign_flip``, whether
    the torsion changes sign across t0 (nu odd).
    """

    __slots__ = ("t0", "nu", "dims", "duality_ok")

    def __init__(self, t0: GaussRat, nu: int, dims: TorsionModuleSummary, duality_ok=None):
        _set(self, "t0", t0)
        _set(self, "nu", nu)
        _set(self, "dims", dims)
        _set(self, "duality_ok", duality_ok)

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


def _poles(*mats: Matrix) -> tuple:
    """One entry per distinct non-constant denominator in ``mats``: the
    entries whose regularity at a point decides that of all."""
    return tuple({e.den: e for m in mats for e in m.entries() if e.den.degree > 0}.values())


def snf_local(mat: Matrix, t0) -> DivisorProfile:
    """Elementary divisors of a matrix over the local ring at t0.

    Keeps each row as ``{column: (valuation, entry)}`` over its nonzero
    entries, so each valuation is computed once, and again only where a
    row update writes.  Entries are reduced fractions, so only a pole
    has a negative valuation: the first pivot search is the regularity
    check.  Pivots on an entry of least valuation, and among those on
    the least Markowitz count (row length - 1)(column length - 1), which
    bounds the fill-in; clears its column in the other rows with
    transformations invertible over the local ring (every ratio has
    valuation >= 0), and drops the pivot's row and column: the row's
    other entries are multiples of the pivot, so clearing them by column
    operations would change nothing else.  The result does not depend
    on the pivot; tests assert that on row- and column-permuted matrices.
    """
    rows = [{k: (e.valuation(t0), e) for k, e in enumerate(r) if e} for r in mat.rows]
    vals: list[int] = []
    while any(rows):
        counts = Counter(k for row in rows for k in row)
        pivot_val, _, pj, pk = min(
            (v, (len(row) - 1) * (counts[k] - 1), j, k)
            for j, row in enumerate(rows)
            for k, (v, _) in row.items()
        )
        if pivot_val < 0:
            raise ValueError("matrix not defined over the local ring")
        prow = rows.pop(pj)
        pivot = prow.pop(pk)[1]
        for row in rows:
            hit = row.pop(pk, None)
            if hit is not None and prow:
                ratio = hit[1] / pivot
                for k, (_, x) in prow.items():
                    new = row[k][1] - ratio * x if k in row else -(ratio * x)
                    if new.is_zero():
                        del row[k]
                    else:
                        row[k] = (new.valuation(t0), new)
        vals.append(pivot_val)
    return DivisorProfile(tuple(sorted(vals)), free_rank=mat.nrows - len(vals))


def torsion_modules(c: BasedChainComplex, t0) -> TorsionModuleSummary:
    """Local torsion dimensions of the homology, degree by degree.

    Requires the complex to be defined over the local ring at t0 (checked
    first, on the boundaries' memoized distinct denominators) and
    generically acyclic (the memoized staircase completes).  The divisor
    valuations of d_k sum to at most v = v_t0(D_k) and at least r - rank(d_k
    at t0) (Gohberg, Lancaster and Rodman, 1982), r = len(columns); so
    ``snf_local`` runs only where 0 < r - rank(d_k at t0) < v.
    """
    poles = _memoized(c, "poles", lambda: _poles(*c.boundaries))
    if not all(e.is_regular_at(t0) for e in poles):
        raise ValueError("matrix not defined over the local ring")
    steps = _steps(c)
    if steps is None:
        raise ValueError("family not generically acyclic at this degree")
    dims = [0] * (c.top_degree + 1)
    for i, (mat, (picked, minor)) in enumerate(zip(c.boundaries, steps)):
        if v := minor.valuation(t0):
            lo = len(picked) - _residue_rank(mat, t0)
            dims[i] = lo if lo in (0, v) else snf_local(mat, t0).total_valuation()
    return TorsionModuleSummary(tuple(dims))


def _residue_rank(mat: Matrix, t0) -> int:
    """Rank over Q(i) of ``mat`` at t0, where every entry is regular.

    Values N conj(D) d / (n |D|^2) from the Horner parts N/n, D/d of num
    and den; each row scaled into Z[i] by its denominators' lcm.  Sparse
    fraction-free Bareiss: a pivot p on a shortest row x sends each other
    row y to (p y - y_k x) / (previous pivot), exact (Sylvester): no gcd.
    """
    rows = []
    for row in mat.rows:
        vals = {}
        for k, e in enumerate(row):
            nr, ni, n = e.num.value_parts(t0)
            if nr or ni:
                dr, di, d = e.den.value_parts(t0)
                vals[k] = (nr * dr + ni * di) * d, (ni * dr - nr * di) * d, n * (dr * dr + di * di)
        m = lcm(*(q for _, _, q in vals.values()))
        rows.append({k: (a * (m // q), b * (m // q)) for k, (a, b, q) in vals.items()})
    rank, (qr, qi), norm = 0, (1, 0), 1
    while rows := [y for y in rows if y]:
        x = rows.pop(min(range(len(rows)), key=lambda j: len(rows[j])))
        (pk, (pr, pi)), rank = x.popitem(), rank + 1
        for y in rows:
            yr, yi = y.pop(pk, (0, 0))
            for k in x.keys() | y.keys():
                (ar, ai), (br, bi) = y.pop(k, (0, 0)), x.get(k, (0, 0))
                ar, ai = pr * ar - pi * ai - yr * br + yi * bi, pr * ai + pi * ar - yr * bi - yi * br
                if ar or ai:
                    y[k] = (ar * qr + ai * qi) // norm, (ai * qr - ar * qi) // norm
        (qr, qi), norm = (pr, pi), pr * pr + pi * pi
    return rank


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

    The chain-map identity s conj(d_{m-i+1})^T P_i = P_{i-1} d_i, where
    s = (-1)^(m-i) is the sign of the dual's boundary, is checked on
    nonzero entries alone, without building the dual.  It and the
    determinants do not depend on t0, so one memo slot on the complex
    holds the last accepted pairing (compared with ``==``, which shared
    entries make cheap), its determinants and each P_i's distinct
    denominators.  The shape checks, the regularity at t0 and the unit
    check of each determinant at t0 run on every call.
    """
    m = c.top_degree
    if len(pairing) != m + 1:
        raise DualityError(f"duality pairing needs {m + 1} matrices, got {len(pairing)}")
    pairing = tuple(pairing)
    known = c._memo.get("duality")
    known = known if known is not None and known[0] == pairing else None
    dets, poles = [], []
    for i, p in enumerate(pairing):
        want = (c.ranks[m - i], c.ranks[i])  # the dual's ranks are reversed
        if p.shape() != want:
            raise DualityError(f"duality matrix {i} has shape {p.shape()}, expected {want}")
        poles.append(known[2][i] if known else _poles(p))
        if not all(e.is_regular_at(t0) for e in poles[i]):
            raise DualityError(f"duality matrix {i} not defined over the local ring")
        if p.nrows != p.ncols:
            raise DualityError(f"duality matrix {i} is not square")
        dets.append(known[1][i] if known else p.det())
        if dets[i].is_zero() or dets[i].valuation(t0) != 0:
            raise DualityError(f"duality matrix {i} is not invertible over the local ring")
    if known:
        return
    d = [None] + [_nonzero_rows(b) for b in c.boundaries]
    ps = [_nonzero_rows(p) for p in pairing]
    for i in range(1, m + 1):
        lhs = _sums(
            (a, x.conj(), b, y)
            for dr, pr in zip(d[m - i + 1], ps[i]) for a, x in dr for b, y in pr
        )
        rhs = _sums(
            (a, x, b, y) for a, pr in enumerate(ps[i - 1]) for l, x in pr for b, y in d[i][l]
        )
        if lhs != (rhs if (m - i) % 2 == 0 else {ab: -v for ab, v in rhs.items()}):
            raise DualityError(f"duality pairing is not a chain map in degree {i}")
    c._memo["duality"] = (pairing, tuple(dets), tuple(poles))


def _nonzero_rows(mat: Matrix) -> list:
    return [[(k, e) for k, e in enumerate(row) if e] for row in mat.rows]


def _sums(terms) -> dict:
    """The sum of x * y at (a, b) over the (a, x, b, y) of ``terms``, zeros left out."""
    acc = {}
    for a, x, b, y in terms:
        acc[a, b] = acc[a, b] + x * y if (a, b) in acc else x * y
    return {ab: v for ab, v in acc.items() if not v.is_zero()}


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

    The complex's memo holds what does not depend on t0: the completed
    staircase (the acyclicity certificate, and the records (columns, D_k)
    that bound each degree's dimension), the torsion function,
    the boundaries' distinct denominators, and the last accepted pairing
    with its determinants and denominators.  So analyzing a family at
    many points computes them once.  The regularity checks, the minors'
    valuations, the ranks at t0, the Smith forms those leave open, the
    ``nu == chi`` check and the pairing's unit checks run at every point.
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
