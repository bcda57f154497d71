"""Dense reference routines for the local analysis of ``dvr``.

``dvr.snf_local`` keeps sparse rows with memoized valuations and drops
each pivot's row and column; ``dvr.check_duality_pairing`` checks the
chain-map identity on nonzero entries without building the dual.  This
module keeps the dense forms they replaced, so that
``tests/test_dvr_oracle.py`` can show on seeded corpora that both give
the same divisor profiles, the same verdicts and the same messages.
Nothing in the package imports this module.
"""

from __future__ import annotations

from torsionfam.complexes import BasedChainComplex, dual_complex
from torsionfam.dvr import DivisorProfile, DualityError
from torsionfam.linalg import Matrix, _clear_below


def dense_snf_local(mat: Matrix, t0) -> DivisorProfile:
    """Elementary divisors over the local ring at t0, by dense reduction.

    Checks every entry's regularity first, then pivots on the first
    entry of least valuation in row-major order of the remaining block,
    swaps it to the corner and clears the rows below it; every
    valuation is recomputed at every step.
    """
    for e in mat.entries():
        if not e.is_regular_at(t0):
            raise ValueError("matrix not defined over the local ring")
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


def dense_duality_check(c: BasedChainComplex, pairing: list[Matrix], t0) -> None:
    """The duality check with no memo: per degree the shape, the
    regularity of every entry, squareness and a unit determinant, then
    dual(C)_i P_i == P_(i-1) d_i by dense products with the built dual."""
    m = c.top_degree
    if len(pairing) != m + 1:
        raise DualityError(f"duality pairing needs {m + 1} matrices, got {len(pairing)}")
    for i, p in enumerate(pairing):
        want = (c.ranks[m - i], c.ranks[i])
        if p.shape() != want:
            raise DualityError(f"duality matrix {i} has shape {p.shape()}, expected {want}")
        if not all(e.is_regular_at(t0) for e in p.entries()):
            raise DualityError(f"duality matrix {i} not defined over the local ring")
        if p.nrows != p.ncols:
            raise DualityError(f"duality matrix {i} is not square")
        det = p.det()
        if det.is_zero() or det.valuation(t0) != 0:
            raise DualityError(f"duality matrix {i} is not invertible over the local ring")
    dual = dual_complex(c)
    for i in range(1, m + 1):
        if dual.boundary(i) @ pairing[i] != pairing[i - 1] @ c.boundary(i):
            raise DualityError(f"duality pairing is not a chain map in degree {i}")
