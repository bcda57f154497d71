import random

import pytest

from torsionfam.complexes import is_generically_acyclic, torsion
from torsionfam.corpus import random_word
from torsionfam.groupring import (
    GroupRingElem,
    RepFamily,
    Word,
    format_word,
    fox_derivative,
    parse_word,
    presentation_complex,
    specialize,
    specialize_word,
)
from torsionfam.linalg import Matrix
from torsionfam.ratfunc import RatFunc, cayley
from torsionfam.scalars import GaussRat

X = Word.generator(0)
Y = Word.generator(1)
COMM = X * Y * X.inverse() * Y.inverse()
ZERO = RatFunc.zero()
ONE = RatFunc.one()


def test_free_reduction():
    w = Word([(0, 1), (1, 1), (1, -1), (0, -1), (2, 1)])
    assert w == Word.generator(2)
    assert not (X * X.inverse()).letters
    assert COMM.inverse() == Y * X * Y.inverse() * X.inverse()


def test_word_validation():
    with pytest.raises(ValueError):
        Word([(0, 2)])
    with pytest.raises(ValueError):
        Word([(-1, 1)])


# -- Fox calculus: spec examples ------------------------------------------------


def test_fox_generator():
    assert fox_derivative(X, 0) == GroupRingElem.one()
    assert fox_derivative(Y, 0) == GroupRingElem.zero()


def test_fox_inverse_letter():
    assert fox_derivative(X.inverse(), 0) == -GroupRingElem.of_word(X.inverse())


def test_fox_commutator():
    expected = GroupRingElem.one() - GroupRingElem.of_word(X * Y * X.inverse())
    assert fox_derivative(COMM, 0) == expected


def test_fox_product_rule_random():
    rng = random.Random(30)
    for _ in range(50):
        u, v = random_word(rng, max_len=6), random_word(rng, max_len=6)
        for g in range(3):
            lhs = fox_derivative(u * v, g)
            rhs = fox_derivative(u, g) + GroupRingElem.of_word(u) * fox_derivative(v, g)
            assert lhs == rhs


def test_fox_fundamental_identity_random():
    rng = random.Random(31)
    for _ in range(100):
        w = random_word(rng)
        total = GroupRingElem.zero()
        for g in range(3):
            xg = GroupRingElem.of_word(Word.generator(g)) - GroupRingElem.one()
            total = total + fox_derivative(w, g) * xg
        assert total == GroupRingElem.of_word(w) - GroupRingElem.one()


# -- specialization --------------------------------------------------------------


def unitary_pair():
    return RepFamily(
        rank=1, images=(Matrix([[cayley(1)]]), Matrix([[cayley(2)]])), unitary=True
    )


def test_specialize_identity():
    rho = RepFamily(
        rank=2,
        images=(
            Matrix([[ONE, ZERO], [ZERO, ONE]]),
            Matrix([[ZERO, ONE], [-ONE, ZERO]]),
        ),
    )
    assert specialize(GroupRingElem.one(), rho) == Matrix.identity(2)


def test_specialize_cayley_difference():
    rho = RepFamily(rank=1, images=(Matrix([[cayley()]]),), unitary=True)
    e = GroupRingElem.of_word(X) - GroupRingElem.one()
    I = GaussRat.i()
    assert specialize(e, rho)[0, 0] == (2 * I * RatFunc.var()) / (1 - I * RatFunc.var())


def test_specialize_homomorphism_random():
    rng = random.Random(32)
    rho = unitary_pair()
    for _ in range(30):
        words = [random_word(rng, ngens=2, max_len=5) for _ in range(2)]
        coeffs = [rng.randrange(-2, 3) for _ in range(2)]
        e1 = GroupRingElem(list(zip(words, coeffs)))
        e2 = GroupRingElem.of_word(random_word(rng, ngens=2, max_len=5))
        lhs = specialize(e1 * e2, rho)
        rhs = specialize(e1, rho) @ specialize(e2, rho)
        assert lhs == rhs
        assert specialize(e1 + e2, rho) == specialize(e1, rho) + specialize(e2, rho)


def test_specialize_unknown_generator():
    rho = RepFamily(rank=1, images=(Matrix([[cayley()]]),))
    with pytest.raises(ValueError, match="generator 1"):
        specialize(GroupRingElem.of_word(Y), rho)


def test_unitary_words_are_unitary():
    rng = random.Random(33)
    rho = unitary_pair()
    ident = Matrix.identity(1)
    for _ in range(20):
        w = random_word(rng, ngens=2, max_len=6)
        m = specialize_word(w, rho)
        assert m @ m.transpose().conj() == ident


def test_rep_validation():
    with pytest.raises(ValueError, match="singular"):
        RepFamily(rank=1, images=(Matrix([[ZERO]]),))
    with pytest.raises(ValueError, match="not unitary"):
        RepFamily(rank=1, images=(Matrix([[RatFunc.var()]]),), unitary=True)
    with pytest.raises(ValueError, match="determinant"):
        RepFamily(rank=1, images=(Matrix([[cayley()]]),), special=True)
    RepFamily(rank=1, images=(Matrix([[ONE]]),), unitary=True, special=True)


# -- presentation complexes -------------------------------------------------------


def test_circle_presentation():
    rho = RepFamily(rank=1, images=(Matrix([[cayley()]]),), unitary=True)
    cplx = presentation_complex(1, [], rho)
    assert cplx.ranks == (1, 1)
    assert torsion(cplx).value == cayley() - 1


def test_commutator_presentation_matches_fox_blocks():
    rho = unitary_pair()
    z1, z2 = cayley(1), cayley(2)
    cplx = presentation_complex(2, [COMM], rho)
    assert cplx.ranks == (1, 2, 1)
    d1, d2 = cplx.boundary(1), cplx.boundary(2)
    assert (d1[0, 0], d1[0, 1]) == (z1 - 1, z2 - 1)
    assert (d2[0, 0], d2[1, 0]) == (1 - z2, z1 - 1)
    assert is_generically_acyclic(cplx)


def test_presentation_boundary_condition_random():
    rng = random.Random(34)
    rho = unitary_pair()
    for _ in range(10):
        w = random_word(rng, ngens=2, max_len=5)
        relator = w * Word.generator(0) * w.inverse() * Word.generator(0, -1)
        cplx = presentation_complex(2, [relator], rho)
        prod = cplx.boundary(1) @ cplx.boundary(2)
        assert prod.is_zero()


def test_presentation_rejects_unrespected_relator():
    rho = unitary_pair()
    with pytest.raises(ValueError, match="not respected"):
        presentation_complex(2, [X * Y], rho)


def test_presentation_needs_generators():
    rho = unitary_pair()
    with pytest.raises(ValueError, match="at least one generator"):
        presentation_complex(0, [], rho)


def test_word_text_round_trip():
    names = ["x", "y"]
    w = parse_word("x y x^-1 y^-1", names)
    assert w == COMM
    assert parse_word("x^2 y^-2", names) == Word([(0, 1), (0, 1), (1, -1), (1, -1)])
    text = format_word(COMM)
    assert text == "x0 x1 x0^-1 x1^-1"
    with pytest.raises(ValueError, match="unknown generator"):
        parse_word("z", names)


# -- prefix pass against the Fox reference ------------------------------------------

I_ = RatFunc.coerce(GaussRat.i())
T = RatFunc.var()


def _m(rows):
    return Matrix([[RatFunc.coerce(e) for e in row] for row in rows])


def _t_family():
    """Rank 1, every generator to t: x_a x_b^-1 is in the kernel."""
    rho = RepFamily(rank=1, images=tuple(Matrix([[T]]) for _ in range(4)))
    return rho, [Word([(a, 1), (b, -1)]) for a in range(3) for b in range(3) if a != b]


def _rank_two_family(unitary):
    """Rank 2, image(x2) = image(x0) image(x1): x0 x1 x2^-1 is in the kernel.

    Generator 3 occurs in no relator.
    """
    if unitary:
        a = _m([[cayley(1), 0], [0, 1]])
        b = _m([[0, I_], [I_, 0]])
        extra = _m([[1, 0], [0, cayley(2)]])
    else:
        a = _m([[1, T], [0, I_]])
        b = _m([[1 + I_, 0], [T, 1]])
        extra = _m([[T, 1], [1, 0]])
    rho = RepFamily(rank=2, images=(a, b, a @ b, extra), unitary=unitary)
    return rho, [Word([(0, 1), (1, 1), (2, -1)])]


def _kernel_relators(rng, kernel, count):
    """Products of conjugates w k^+-1 w^-1, written out letter by letter
    so that free reduction has something to cancel."""
    rels, shortened = [], 0
    for _ in range(count):
        letters = []
        for _ in range(rng.randrange(1, 4)):
            w = [(rng.randrange(3), rng.choice([1, -1])) for _ in range(rng.randrange(0, 5))]
            k = rng.choice(kernel)
            k = k if rng.random() < 0.5 else k.inverse()
            letters += w + list(k.letters) + [(g, -e) for g, e in reversed(w)]
        rel = Word(letters)
        shortened += len(rel) < len(letters)
        rels.append(rel)
    assert shortened > 0
    return rels


@pytest.mark.parametrize(
    "family",
    [_t_family, lambda: _rank_two_family(False), lambda: _rank_two_family(True)],
    ids=["t", "gaussian-rank-2", "unitary-rank-2"],
)
def test_prefix_pass_equals_specialized_fox_derivatives(family):
    rng = random.Random(35)
    rho, kernel = family()
    d = rho.rank
    relators = _kernel_relators(rng, kernel, 6) + [Word.identity()]
    assert any(e == -1 for rel in relators for _, e in rel.letters)
    cplx = presentation_complex(4, relators, rho)
    d2 = cplx.boundary(2)
    for i, rel in enumerate(relators):
        for j in range(4):
            want = specialize(fox_derivative(rel, j), rho).transpose()
            got = d2.submatrix(range(j * d, (j + 1) * d), range(i * d, (i + 1) * d))
            assert got == want, (format_word(rel), j)
        assert specialize_word(rel, rho) == Matrix.identity(d)
    # generator 3 occurs in no relator: its block row is zero
    assert d2.submatrix(range(3 * d, 4 * d), range(d2.ncols)).is_zero()
    d1, ident = cplx.boundary(1), Matrix.identity(d)
    for j in range(4):
        block = d1.submatrix(range(d), range(j * d, (j + 1) * d))
        assert block == (rho.images[j] - ident).transpose()
    assert (d1 @ d2).is_zero()


def test_presentation_names_the_first_bad_relator():
    rho = unitary_pair()
    undeclared = X * Word.generator(2) * X.inverse() * Word.generator(2, -1)
    unrespected = X * Y
    bad_first = f"relator {format_word(undeclared)!r} uses an undeclared generator"
    with pytest.raises(ValueError) as info:
        presentation_complex(2, [COMM, undeclared, unrespected], rho)
    assert str(info.value) == bad_first
    with pytest.raises(ValueError) as info:
        presentation_complex(2, [COMM, unrespected, undeclared], rho)
    assert str(info.value) == (
        f"relator {format_word(unrespected)!r} is not respected by the representation"
    )
