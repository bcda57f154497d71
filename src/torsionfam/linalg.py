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

All elimination is one forward-elimination kernel, :func:`_eliminate`,
whose pivot is the first nonzero entry in scan order (exact division,
no pivot-size heuristics, so every computation is deterministic).
``rank``, ``pivot_columns``, ``det``, ``inverse``, the torsion staircase
and the local Smith form all run through it or its row update.
"""

from __future__ import annotations

import operator

from .ratfunc import RatFunc
from .scalars import _Frozen

__all__ = ["Matrix"]

_ZERO = RatFunc.zero()
_ONE = RatFunc.one()


class Matrix(_Frozen):
    """Immutable rows-of-tuples matrix with explicit shape."""

    __slots__ = ("nrows", "ncols", "rows", "_hash")

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
        rows = []
        for r in a.rows:
            rows.append(list(r) + [_ZERO] * b.ncols)
        for r in b.rows:
            rows.append([_ZERO] * a.ncols + list(r))
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
        if self.nrows == 0 or self.ncols == 0:
            return Matrix([[] for _ in range(self.ncols)] if self.nrows == 0 else [],
                          self.nrows)
        return Matrix(list(zip(*self.rows)), self.nrows)

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
        picked, pivots, odd = _eliminate([list(r) for r in self.rows], range(self.ncols))
        if len(picked) < self.nrows:
            return _ZERO
        det = _ONE
        for pivot in pivots:
            det = det * pivot
        return -det if odd else det

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

    # -- comparison ----------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.shape() == other.shape() and self.rows == other.rows

    def __hash__(self):
        if not hasattr(self, "_hash"):  # immutable, so hashed once
            object.__setattr__(self, "_hash", hash((self.nrows, self.ncols, self.rows)))
        return self._hash

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
