import random

import pytest

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
        ident = Matrix.identity(3, ONE, ZERO)
        assert ident @ a == a


def test_empty_dimension_products():
    a = Matrix([], 3)          # 0 x 3
    b = rand_matrix(random.Random(0), 3, 2)
    assert (a @ b).shape() == (0, 2)
    c = Matrix([[], []], 0)    # 2 x 0
    d = Matrix([], 3)          # 0 x 3
    assert c.mul_with_zero(d, ZERO).shape() == (2, 3)
    assert c.mul_with_zero(d, ZERO).is_zero()


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
        ident = Matrix.identity(3, ONE, ZERO)
        assert m @ m.inverse() == ident
        assert m.inverse() @ m == ident
    with pytest.raises(ValueError, match="singular"):
        Matrix([[ZERO]], 1).inverse()


def test_rank_and_kernel():
    m = Matrix([[ONE, T, ZERO], [ZERO, ZERO, ONE]], 3)
    assert m.rank() == 2


def test_pivot_columns_orders():
    m = Matrix([[ZERO, ONE, T], [ZERO, T, T]], 3)
    left = m.pivot_columns()
    right = m.pivot_columns(range(2, -1, -1))
    assert len(left) == len(right) == m.rank() == 2
    assert left == [1, 2]
    assert sorted(right) == [1, 2]
    sub = m.submatrix(range(2), sorted(right))
    assert not sub.det().is_zero()


def test_block_diagonal():
    a = Matrix([[ONE]], 1)
    b = Matrix([[T, ZERO], [ZERO, T]], 2)
    c = Matrix.block_diagonal(a, b, ZERO)
    assert c.shape() == (3, 3)
    assert c[0, 0] == ONE and c[1, 1] == T and c[0, 1] == ZERO


def test_pivot_columns_is_greedy_in_scan_order():
    """A column is picked exactly when it raises the rank of the picked prefix."""
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
        assert mat.pivot_columns(order) == kept


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


def sparse_matrix(rng, n, m, pool, zero, zero_rows=(), zero_cols=()):
    """About 70% zero entries, plus the given all-zero rows and columns."""
    return Matrix(
        [
            [
                zero
                if j in zero_rows or k in zero_cols or rng.random() < 0.7
                else rng.choice(pool)
                for k in range(m)
            ]
            for j in range(n)
        ],
        m,
    )


@pytest.mark.parametrize("cls", [RatFunc, GaussRat])
def test_product_skipping_zeros_matches_dense_reference(cls):
    rng = random.Random(7070)
    zero = cls.zero()
    if cls is RatFunc:
        pool = [ONE, T, T + 1, T * T, RatFunc.coerce(GaussRat(0, 1)), 2 - T, ONE / (T + 3)]
    else:
        pool = [GaussRat(1), GaussRat(-2), GaussRat(0, 1), GaussRat(3, -1), GaussRat(1, 2)]
    for _ in range(40):
        n, inner, m = rng.randrange(1, 6), rng.randrange(1, 6), rng.randrange(1, 6)
        a = sparse_matrix(rng, n, inner, pool, zero, zero_rows={rng.randrange(n)})
        b = sparse_matrix(rng, inner, m, pool, zero, zero_cols={rng.randrange(m)})
        want = naive_product(a, b)
        assert a @ b == want
        assert a.mul_with_zero(b, zero) == want
    # A only reads columns 0, 1 and B only has rows 2, 3: the product is zero
    a = sparse_matrix(rng, 3, 4, pool, zero, zero_cols={2, 3})
    b = sparse_matrix(rng, 4, 3, pool, zero, zero_rows={0, 1})
    want = naive_product(a, b)
    for prod in (a @ b, a.mul_with_zero(b, zero)):
        assert prod == want
        for e in prod.entries():
            assert type(e) is cls and e == zero and e.is_zero()
