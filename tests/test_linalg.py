import random
from fractions import Fraction

import pytest

from torsionfam.complexes import dual_complex
from torsionfam.corpus import acceptance_corpus, random_ratfunc
from torsionfam.linalg import Matrix
from torsionfam.ratfunc import RatFunc
from torsionfam.scalars import GaussRat

ZERO = RatFunc.zero()
ONE = RatFunc.one()
T = RatFunc.var()


def rand_matrix(rng, n, m):
    pool = [ZERO, ONE, T, T + 1, T * T, RatFunc.coerce(GaussRat(0, 1)), 2 - T]
    return Matrix([[rng.choice(pool) for _ in range(m)] for _ in range(n)], m)


def test_shape_validation():
    with pytest.raises(ValueError):
        Matrix([[ONE], [ONE, ZERO]])
    with pytest.raises(ValueError):
        Matrix([], ncols=None)
    assert Matrix([], 3).shape() == (0, 3)
    assert Matrix([[], []], 0).shape() == (2, 0)


def test_product_and_identity():
    rng = random.Random(20)
    for _ in range(20):
        a = rand_matrix(rng, 3, 2)
        b = rand_matrix(rng, 2, 4)
        ab = a @ b
        assert ab.shape() == (3, 4)
        ident = Matrix.identity(3)
        assert ident @ a == a


def test_empty_dimension_products():
    a = Matrix([], 3)          # 0 x 3
    b = rand_matrix(random.Random(0), 3, 2)
    assert (a @ b).shape() == (0, 2)
    c = Matrix([[], []], 0)    # 2 x 0
    d = Matrix([], 3)          # 0 x 3
    assert (c @ d).shape() == (2, 3)
    assert (c @ d).is_zero()
    assert c.mul_with_zero(d) == c @ d
    assert Matrix.identity(0).det() == ONE  # the empty product


def test_transpose_involution_and_empty():
    rng = random.Random(21)
    m = rand_matrix(rng, 2, 5)
    assert m.transpose().transpose() == m
    assert Matrix([], 4).transpose().shape() == (4, 0)


def test_det_against_permutation_expansion():
    """Elimination determinant agrees with the Leibniz expansion."""
    from itertools import permutations

    rng = random.Random(22)
    for _ in range(15):
        n = rng.choice([1, 2, 3])
        m = rand_matrix(rng, n, n)
        expect = RatFunc.zero()
        for perm in permutations(range(n)):
            sign = 1
            seen = list(perm)
            for i in range(n):
                for j in range(i + 1, n):
                    if seen[i] > seen[j]:
                        sign = -sign
            term = RatFunc.coerce(sign)
            for i in range(n):
                term = term * m[i, perm[i]]
            expect = expect + term
        assert m.det() == expect


def test_inverse():
    rng = random.Random(23)
    found = 0
    while found < 10:
        m = rand_matrix(rng, 3, 3)
        if m.det().is_zero():
            continue
        found += 1
        ident = Matrix.identity(3)
        assert m @ m.inverse() == ident
        assert m.inverse() @ m == ident
    with pytest.raises(ValueError, match="singular"):
        Matrix([[ZERO]], 1).inverse()
    assert Matrix.zeros(0, 0).inverse() == Matrix([], 0)


def test_rank_and_kernel():
    m = Matrix([[ONE, T, ZERO], [ZERO, ZERO, ONE]], 3)
    assert m.rank() == 2


def test_pivot_columns_orders():
    m = Matrix([[ZERO, ONE, T], [ZERO, T, T]], 3)
    left = m.pivot_columns()
    back = [2, 1, 0]  # the reversed matrix, its picks mapped back
    right = [back[j] for j in m.submatrix(range(2), back).pivot_columns()]
    assert len(left) == len(right) == m.rank() == 2
    assert left == [1, 2]
    assert sorted(right) == [1, 2]
    sub = m.submatrix(range(2), sorted(right))
    assert not sub.det().is_zero()


def test_block_diagonal():
    a = Matrix([[ONE]], 1)
    b = Matrix([[T, ZERO], [ZERO, T]], 2)
    c = Matrix.block_diagonal(a, b)
    assert c.shape() == (3, 3)
    assert c[0, 0] == ONE and c[1, 1] == T and c[0, 1] == ZERO


def test_pivot_columns_is_greedy_in_scan_order():
    """A column is picked exactly when it raises the rank of the picked
    prefix: the picks of the column-permuted matrix, mapped back."""
    rng = random.Random(24)
    for _ in range(30):
        n, m = rng.choice([1, 2, 3, 4]), rng.choice([1, 2, 3, 5])
        mat = rand_matrix(rng, n, m)
        order = list(range(m))
        rng.shuffle(order)
        kept = []
        for col in order:
            if mat.submatrix(range(n), kept + [col]).rank() > len(kept):
                kept.append(col)
        picked = mat.submatrix(range(n), order).pivot_columns()
        assert [order[j] for j in picked] == kept


# -- the zero-skipping product against a dense reference ---------------------------


def naive_product(a, b):
    """Dense triple loop: every term, zeros included, summed left to right."""
    rows = []
    for j in range(a.nrows):
        row = []
        for k in range(b.ncols):
            acc = a[j, 0] * b[0, k]
            for m in range(1, a.ncols):
                acc = acc + a[j, m] * b[m, k]
            row.append(acc)
        rows.append(row)
    return Matrix(rows, b.ncols)


def sparse_matrix(rng, n, m, pool, zero_rows=(), zero_cols=()):
    """About 70% zero entries, plus the given all-zero rows and columns."""
    return Matrix(
        [
            [
                ZERO
                if j in zero_rows or k in zero_cols or rng.random() < 0.7
                else rng.choice(pool)
                for k in range(m)
            ]
            for j in range(n)
        ],
        m,
    )


@pytest.mark.parametrize("entries", ["RatFunc", "GaussRat"])
def test_product_skipping_zeros_matches_dense_reference(entries):
    """Rational-function entries, or Gaussian-rational constants."""
    rng = random.Random(7070)
    if entries == "RatFunc":
        pool = [ONE, T, T + 1, T * T, RatFunc.coerce(GaussRat(0, 1)), 2 - T, ONE / (T + 3)]
    else:
        pool = [GaussRat(1), GaussRat(-2), GaussRat(0, 1), GaussRat(3, -1), GaussRat(1, 2)]
        pool = [RatFunc.coerce(x) for x in pool]
    for _ in range(40):
        n, inner, m = rng.randrange(1, 6), rng.randrange(1, 6), rng.randrange(1, 6)
        a = sparse_matrix(rng, n, inner, pool, zero_rows={rng.randrange(n)})
        b = sparse_matrix(rng, inner, m, pool, zero_cols={rng.randrange(m)})
        assert a @ b == naive_product(a, b)
    # A only reads columns 0, 1 and B only has rows 2, 3: the product is zero
    a = sparse_matrix(rng, 3, 4, pool, zero_cols={2, 3})
    b = sparse_matrix(rng, 4, 3, pool, zero_rows={0, 1})
    prod = a @ b
    assert prod == naive_product(a, b)
    for e in prod.entries():
        assert type(e) is RatFunc and e == ZERO and e.is_zero()


# -- the sparse product against the dense dot-product reference --------------


def _dot(row, col):
    """Sum of the products of the nonzero pairs; zero if none.

    The kernel of the dense product the sparse one replaced: skipping
    zero terms leaves the result unchanged, because entry normal forms
    are canonical, so 0 + x is x.
    """
    acc = None
    for a, b in zip(row, col):
        if a.is_zero() or b.is_zero():
            continue
        acc = a * b if acc is None else acc + a * b
    return row[0] * col[0] if acc is None else acc


def dense_product(a, b):
    """Every entry of A B as the dot product of a row of A and a column of B."""
    if a.ncols == 0:
        return Matrix.zeros(a.nrows, b.ncols)
    cols = list(zip(*b.rows))
    return Matrix([[_dot(r, c) for c in cols] for r in a.rows], b.ncols)


def fields(mat):
    """Shape and the exact stored fields of every entry, types included."""
    def entry(e):
        n, d = e.num, e.den
        return type(e), n.re, n.im, n.den, d.re, d.im, d.den
    return mat.shape(), [entry(e) for e in mat.entries()]


def assert_products_match(a, b):
    assert fields(a @ b) == fields(dense_product(a, b))


def test_sparse_product_on_corpus_boundaries_and_pairings():
    for spec in acceptance_corpus(12, 4242):
        c = spec.complex
        bds = [c.boundary(k) for k in range(1, c.top_degree + 1)]
        for d1, d2 in zip(bds, bds[1:]):
            assert_products_match(d1, d2)  # the d.d = 0 check
        for d in bds:
            assert_products_match(d.transpose().conj(), d)
        if spec.pairing is None:
            continue
        dual = dual_complex(c)
        for i in range(1, c.top_degree + 1):
            assert_products_match(dual.boundary(i), spec.pairing[i])
            assert_products_match(spec.pairing[i - 1], c.boundary(i))
        for p in spec.pairing:
            assert_products_match(p, p)


def random_ratfunc_matrix(rng, n, m, zero_rows=(), zero_cols=()):
    """Entries from corpus.random_ratfunc (Gaussian coefficients and
    denominators), about half zero, plus the given all-zero lines."""
    return Matrix(
        [
            [
                ZERO
                if j in zero_rows or k in zero_cols or rng.random() < 0.5
                else random_ratfunc(rng)
                for k in range(m)
            ]
            for j in range(n)
        ],
        m,
    )


def test_sparse_product_on_random_ratfunc_matrices():
    rng = random.Random(1331)
    for _ in range(40):
        n, inner, m = rng.randrange(1, 6), rng.randrange(1, 6), rng.randrange(1, 6)
        a = random_ratfunc_matrix(
            rng, n, inner, zero_rows={rng.randrange(n)}, zero_cols={rng.randrange(inner)}
        )
        b = random_ratfunc_matrix(
            rng, inner, m, zero_rows={rng.randrange(inner)}, zero_cols={rng.randrange(m)}
        )
        assert_products_match(a, b)
        assert_products_match(b.transpose(), a.transpose())


def test_sparse_product_on_row_column_and_empty_shapes():
    rng = random.Random(1332)
    for n in range(1, 7):
        row = random_ratfunc_matrix(rng, 1, n)
        col = random_ratfunc_matrix(rng, n, 1)
        assert_products_match(row, col)  # 1 x n times n x 1
        assert_products_match(col, row)  # n x 1 times 1 x n
        # zero inner dimension: every entry is an empty sum
        a, b = Matrix([[]] * n, 0), Matrix([], n)
        assert_products_match(a, b)
        assert a @ b == Matrix.zeros(n, n)
        # a result with no rows, or with no columns
        assert_products_match(Matrix([], n), col)
        assert_products_match(col, Matrix([[]], 0))


def test_sparse_product_on_gaussian_rational_entries():
    """Constant entries: Gaussian rationals coerced into Q(i)(t)."""
    rng = random.Random(1333)
    pool = [
        GaussRat(1), GaussRat(-2), GaussRat(0, 1), GaussRat(Fraction(2, 5), -3),
        GaussRat(0, Fraction(-7, 4)), GaussRat(Fraction(1, 3), Fraction(5, 6)),
    ]
    pool = [RatFunc.coerce(x) for x in pool]
    for _ in range(40):
        n, inner, m = rng.randrange(1, 6), rng.randrange(1, 6), rng.randrange(1, 6)
        a = sparse_matrix(rng, n, inner, pool, zero_rows={rng.randrange(n)})
        b = sparse_matrix(rng, inner, m, pool, zero_cols={rng.randrange(m)})
        assert_products_match(a, b)
