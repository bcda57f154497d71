"""Exact dense matrices over Q(i)(t).

A :class:`Matrix` carries its shape explicitly (zero-row and
zero-column matrices occur constantly as boundaries of ranked chain
complexes) and stores :class:`RatFunc` entries as a tuple of row
tuples.  With one entry ring, the empty cases need no help from the
caller: an empty sum is ``_ZERO`` and the determinant of the 0x0
matrix is ``_ONE``, the empty product.

Storage is dense, but the product is sparse: row j of A @ B sums
a_jl * (row l of B) over the nonzero a_jl only, touching only the
nonzero entries of that row of B, so its cost is the number of nonzero
pairs.  An entry that no pair reaches is ``_ZERO``.
Terms are added in increasing l, the order of the dense dot product.

Two kernels take every determinant, each pivoting on the first nonzero
entry in scan order (exact division, so every result is deterministic).
Over Q(i)(t), ``rank``, ``pivot_columns``, ``det``, ``inverse`` and the
torsion staircase run through :func:`_eliminate`, and only :func:`_minor`
reads a determinant off it: the picked columns with the signed product
of their pivots, which ``det`` returns and the staircase keeps as D_k.
Over Z[t], :func:`_kronecker_det` is one Bareiss determinant at t = 2^b.
"""

from __future__ import annotations

import operator
from math import isqrt, prod

from .ratfunc import RatFunc
from .scalars import _Record

__all__ = ["Matrix"]

_ZERO = RatFunc.zero()
_ONE = RatFunc.one()


class Matrix(_Record):
    """Immutable rows-of-tuples matrix with explicit shape."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, rows, ncols=None):
        rows = tuple(tuple(r) for r in rows)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged matrix rows")
            if ncols is not None and ncols != width:
                raise ValueError("ncols disagrees with row width")
            ncols = width
        elif ncols is None:
            raise ValueError("empty matrix needs an explicit column count")
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(self, "rows", rows)

    # -- constructors -------------------------------------------------

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "Matrix":
        return cls([[_ZERO] * ncols for _ in range(nrows)], ncols)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls.diagonal([_ONE] * n)

    @classmethod
    def diagonal(cls, entries) -> "Matrix":
        entries = list(entries)
        n = len(entries)
        return cls(
            [[entries[j] if j == k else _ZERO for k in range(n)] for j in range(n)],
            n,
        )

    @classmethod
    def block_diagonal(cls, a: "Matrix", b: "Matrix") -> "Matrix":
        rows = [list(r) + [_ZERO] * b.ncols for r in a.rows]
        rows += [[_ZERO] * a.ncols + list(r) for r in b.rows]
        return cls(rows, a.ncols + b.ncols)

    # -- access -------------------------------------------------------

    def __getitem__(self, jk):
        j, k = jk
        return self.rows[j][k]

    def shape(self) -> tuple[int, int]:
        return self.nrows, self.ncols

    def entries(self):
        for row in self.rows:
            yield from row

    def submatrix(self, row_idx, col_idx) -> "Matrix":
        row_idx = list(row_idx)
        col_idx = list(col_idx)
        return Matrix(
            [[self.rows[j][k] for k in col_idx] for j in row_idx], len(col_idx)
        )

    # -- plain algebra -------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, operator.add, "addition")

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, operator.sub, "subtraction")

    def _entrywise(self, other: "Matrix", op, name: str) -> "Matrix":
        if self.shape() != other.shape():
            raise ValueError(f"shape mismatch in matrix {name}")
        rows = [list(map(op, ra, rb)) for ra, rb in zip(self.rows, other.rows)]
        return Matrix(rows, self.ncols)

    def __neg__(self) -> "Matrix":
        return self.map(operator.neg)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        brows = [[(k, b) for k, b in enumerate(r) if not b.is_zero()] for r in other.rows]
        out = []
        for ra in self.rows:
            acc = [None] * other.ncols
            for a, rb in zip(ra, brows):
                if rb and not a.is_zero():
                    for k, b in rb:
                        acc[k] = a * b if acc[k] is None else acc[k] + a * b
            out.append([_ZERO if s is None else s for s in acc])
        return Matrix(out, other.ncols)

    def mul_with_zero(self, other: "Matrix") -> "Matrix":
        """Same as ``self @ other``.

        Kept only because ``bench/tracing.py`` names this method;
        package code uses ``@``.  A separate function, not an alias of
        ``__matmul__``, so the tracer does not wrap one function twice.
        """
        return self @ other

    def scale(self, c) -> "Matrix":
        return self.map(lambda e: e * c)

    def map(self, fn) -> "Matrix":
        return Matrix([[fn(e) for e in row] for row in self.rows], self.ncols)

    def transpose(self) -> "Matrix":
        # zip of no rows gives no columns, so those are built by hand
        return Matrix(list(zip(*self.rows)) if self.rows else [()] * self.ncols, self.nrows)

    def conj(self) -> "Matrix":
        return self.map(lambda e: e.conj())

    def is_zero(self) -> bool:
        return all(e.is_zero() for e in self.entries())

    # -- elimination ---------------------------------------------------

    def rank(self) -> int:
        """Rank over the entry field, by exact Gaussian elimination."""
        return len(_eliminate([list(r) for r in self.rows], range(self.ncols))[0])

    def pivot_columns(self) -> list[int]:
        """Columns picked as pivots, scanning from the left.

        A column is picked when it raises the rank of the columns
        picked before it.  Returns the picked indices in ascending
        order; their count is the rank, and the corresponding column
        submatrix has full column rank.
        """
        return _eliminate([list(r) for r in self.rows], range(self.ncols))[0]

    def det(self) -> RatFunc:
        """Determinant of a square matrix; the 0x0 one is ``_ONE``."""
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        return _minor([list(r) for r in self.rows], range(self.ncols))[1]

    def inverse(self) -> "Matrix":
        """Inverse of a nonsingular square matrix.

        Eliminates [A | 1], then back-substitutes by eliminating the
        upper triangle upside down, right to left.
        """
        if self.nrows != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        n = self.nrows
        work = [[*row, *unit] for row, unit in zip(self.rows, Matrix.identity(n).rows)]
        if _eliminate(work, range(2 * n))[0] != list(range(n)):
            raise ValueError("matrix is singular")
        # below the diagonal the forward pass left stale entries; zero them
        work = [[_ZERO] * j + work[j][j:] for j in range(n - 1, -1, -1)]
        _, pivots, _ = _eliminate(work, [*range(n - 1, -1, -1), *range(n, 2 * n)])
        return Matrix(
            [[e / p for e in row[n:]] for row, p in zip(reversed(work), reversed(pivots))],
            n,
        )

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols})"


def _eliminate(work, order):
    """Forward elimination of the row lists ``work``, in place.

    Scans the columns of the sequence ``order``, pivots on the first
    nonzero entry at or below the current rank, swaps its row up and
    clears the rows below on the columns not scanned yet.  Returns the
    picked columns in scan order, their pivots, and whether the number
    of row swaps is odd.
    """
    nrows = len(work)
    picked, pivots, odd = [], [], False
    for i, col in enumerate(order):
        rank = len(picked)
        if rank == nrows:
            break
        for j in range(rank, nrows):
            if not work[j][col].is_zero():
                break
        else:
            continue
        if j != rank:
            work[rank], work[j] = work[j], work[rank]
            odd = not odd
        _clear_below(work, rank, col, order[i + 1:])
        picked.append(col)
        pivots.append(work[rank][col])
    return picked, pivots, odd


def _minor(work, order):
    """The columns that :func:`_eliminate` picks from ``work`` over
    ``order``, and the minor of all of ``work``'s rows on them in scan
    order: the product of their pivots, negated when the number of row
    swaps is odd, or ``_ZERO`` when the rows are dependent (fewer
    columns than rows are picked)."""
    picked, pivots, odd = _eliminate(work, order)
    if len(picked) < len(work):
        return picked, _ZERO
    det = prod(pivots, start=_ONE)
    return picked, -det if odd else det


def _kronecker_det(matrix_at, norms, degree: int) -> list[int]:
    """The degree + 1 ascending coefficients of f(t) = det A(t) in Z[t], of
    degree at most ``degree``, as the balanced base-2^b digits of f(2^b):
    Bareiss on a copy of matrix_at(b) = A(2^b), 2x2 minors over the previous
    pivot (exact by Sylvester's identity), the pivot the first nonzero entry
    of its column and a sign flip per row swap.  The digits separate when
    2^(b - 1) > max |c_k| (Kronecker substitution); max |c_k| <= max |f| on
    |t| = 1 <= prod_i sqrt(sum_j norms[i][j]^2) (Hadamard), norms the l1 norms."""
    bound = isqrt(prod(sum(x * x for x in row) for row in norms)) + 1
    b = bound.bit_length() + 1
    a, prev, sign = list(matrix_at(b)), 1, 1
    while a:
        piv = next((i for i, row in enumerate(a) if row[0]), None)
        if piv is None:
            return [0] * (degree + 1)
        if piv:
            a[0], a[piv] = a[piv], a[0]
            sign = -sign
        pivot, *tail = a[0]
        a = [[(x * pivot - row[0] * y) // prev for x, y in zip(row[1:], tail)] for row in a[1:]]
        prev = pivot
    value, half, mask = sign * prev, 1 << (b - 1), (1 << b) - 1
    coeffs = []
    for _ in range(degree + 1):
        c = ((value + half) & mask) - half
        coeffs.append(c)
        value = (value - c) >> b
    return coeffs


def _clear_below(work, top, col, cols) -> None:
    """Clear column ``col`` below row ``top`` by row operations.

    Only the columns ``cols`` are written: column ``col`` keeps stale
    entries, which callers never read again.
    """
    row_p = work[top]
    pivot = row_p[col]
    cols = [k for k in cols if not row_p[k].is_zero()]
    for row_j in work[top + 1:]:
        factor = row_j[col]
        if factor.is_zero():
            continue
        ratio = factor / pivot
        for k in cols:
            row_j[k] = row_j[k] - ratio * row_p[k]
