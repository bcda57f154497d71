"""Basis permutations of matrices and complexes, for the scan-order tests.

The engine scans in one order only.  Tests show that its results do not
depend on that order by changing the input's basis instead: a matrix
with its rows and columns permuted, a complex with every degree's basis
permuted.  Reversing every basis turns the leftmost scan into the
rightmost one.

``FT-cal-1`` is not the classical torsion of the based complex: the two
differ by ``shuffle_sign(c)``, the product over degrees k of the sign of
the shuffle that lists C_k's basis as the indices not picked by the
staircase in degree k, then the picked ones, each part ascending.  So a
basis permutation P = (P_k) changes the torsion by the exact law

    torsion(PC) * s(PC) == prod_k sign(P_k) * torsion(C) * s(C).
"""

from torsionfam.complexes import BasedChainComplex


def permutation_sign(perm) -> int:
    """+1 or -1, the parity of the inversions of ``perm``."""
    perm = list(perm)
    inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])
    return -1 if inversions % 2 else 1


def reversal(n: int) -> list[int]:
    return list(range(n - 1, -1, -1))


def shuffled(rng, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def matrix_rebasings(rng, mat, count: int = 3):
    """The reversed matrix, then ``count`` seeded row and column permutations."""
    out = [mat.submatrix(reversal(mat.nrows), reversal(mat.ncols))]
    for _ in range(count):
        out.append(mat.submatrix(shuffled(rng, mat.nrows), shuffled(rng, mat.ncols)))
    return out


def permuted_complex(c: BasedChainComplex, perms) -> BasedChainComplex:
    """``c`` in the basis whose i-th element in degree k is old element
    ``perms[k][i]``."""
    return BasedChainComplex(
        c.ranks,
        [c.boundary(k).submatrix(perms[k - 1], perms[k]) for k in range(1, c.top_degree + 1)],
    )


def reversed_complex(c: BasedChainComplex) -> BasedChainComplex:
    """``c`` with every degree's basis reversed: its leftmost staircase is
    the rightmost staircase of ``c``."""
    return permuted_complex(c, [reversal(r) for r in c.ranks])


def staircase_columns(c: BasedChainComplex) -> list[set]:
    """The basis indices the staircase picks in each degree (none in 0)."""
    picked, uncovered = [set()], range(c.ranks[0])
    for k in range(1, c.top_degree + 1):
        cols = c.boundary(k).submatrix(uncovered, range(c.ranks[k])).pivot_columns()
        picked.append(set(cols))
        uncovered = [j for j in range(c.ranks[k]) if j not in cols]
    return picked


def shuffle_sign(c: BasedChainComplex) -> int:
    """s(C): the sign of FT-cal-1 against the classical based torsion."""
    sign = 1
    for rank, chosen in zip(c.ranks, staircase_columns(c)):
        rest = [j for j in range(rank) if j not in chosen]
        sign *= permutation_sign(rest + sorted(chosen))
    return sign
