import random
from fractions import Fraction

import pytest

from torsionfam.complexes import is_generically_acyclic, torsion
from torsionfam.corpus import (
    FamilySpec,
    acceptance_corpus,
    bundled_direct_sum,
    circle_family,
    elementary_complex,
    hermitian_middle,
    mirror_pair,
    random_acyclic_complex,
    random_local_matrix,
    random_ratfunc,
    random_word,
    swap_pairing,
    torus3_family,
)
from torsionfam.dvr import check_duality_pairing
from torsionfam.linalg import Matrix
from torsionfam.ratfunc import RatFunc, cayley, conj_family
from torsionfam.scalars import GaussRat

T = RatFunc.var()


def test_elementary_complex_shape():
    c = elementary_complex(3, 2, Matrix([[T]]))
    assert c.ranks == (0, 1, 1, 0)
    assert is_generically_acyclic(c)
    with pytest.raises(ValueError, match="square"):
        elementary_complex(3, 2, Matrix([[T, T]]))
    with pytest.raises(ValueError, match="degree out of range"):
        elementary_complex(3, 4, Matrix([[T]]))


def test_mirror_pair_is_self_dual():
    half = elementary_complex(3, 1, Matrix([[cayley() - 1]]))
    total, pairing = mirror_pair(half)
    check_duality_pairing(total, pairing, GaussRat.zero())
    assert total.ranks == (1, 1, 1, 1)


def test_swap_pairing_needs_odd_degree():
    half = elementary_complex(2, 1, Matrix([[T]]))
    with pytest.raises(ValueError, match="odd top degree"):
        swap_pairing(half)


def test_hermitian_middle_validation():
    good = Matrix([[T, 1 + GaussRat.i() * T], [1 - GaussRat.i() * T, T - 2]])
    cplx, pairing = hermitian_middle(3, good.map(RatFunc.coerce))
    check_duality_pairing(cplx, pairing, GaussRat.zero())
    bad = Matrix([[GaussRat.i() * T]])
    with pytest.raises(ValueError, match="Hermitian"):
        hermitian_middle(3, bad.map(RatFunc.coerce))


def test_circle_family_pairing():
    fam = circle_family(cayley() - 1, centers=(Fraction(0),))
    check_duality_pairing(fam.complex, list(fam.pairing), GaussRat.zero())


def test_torus3_pairing_and_boundaries():
    fam = torus3_family()
    assert fam.complex.ranks == (1, 3, 3, 1)
    check_duality_pairing(fam.complex, list(fam.pairing), GaussRat.zero())


def test_bundled_direct_sum_pairing():
    fam = bundled_direct_sum()
    for c in fam.centers:
        check_duality_pairing(fam.complex, list(fam.pairing), GaussRat(c))


def _draws(seed):
    rng = random.Random(seed)
    samples = [(random_word(rng), random_ratfunc(rng), random_local_matrix(rng, 2, 3))
               for _ in range(10)]
    return samples, random_acyclic_complex(rng)


def test_corpus_is_deterministic():
    a = acceptance_corpus(6, 123)
    b = acceptance_corpus(6, 123)
    assert [f.complex for f in a] == [f.complex for f in b]
    assert [f.pairing for f in a] == [f.pairing for f in b]
    c = acceptance_corpus(6, 124)
    assert [f.complex for f in a] != [f.complex for f in c]
    assert _draws(5) == _draws(5) != _draws(6)


def test_shared_samples_stay_in_range():
    rng = random.Random(3)
    for ngens, max_len in ((1, 0), (2, 5), (3, 12)):
        words = [random_word(rng, ngens, max_len).letters for _ in range(100)]
        assert max(map(len, words)) <= max_len
        assert {g for w in words for g, _ in w} <= set(range(ngens))
    for _ in range(50):  # entries lie in the local ring at 0
        mat = random_local_matrix(rng, rng.randrange(1, 6), rng.randrange(1, 6))
        assert all(e.is_zero() or e.valuation(0) >= 0 for row in mat.rows for e in row)
    for _ in range(5):
        assert is_generically_acyclic(random_acyclic_complex(rng))


def test_random_ratfunc_planted_zero():
    """The planted factor raises the valuation at t0 by exactly one; the
    drawn denominator may vanish at t0 too, so it need not reach 1."""
    for t0 in (-2, -1, 0, 1, 2, GaussRat.i()):
        for seed in range(30):
            plain = random_ratfunc(random.Random(seed))
            planted = random_ratfunc(random.Random(seed), zero_at=t0)
            assert planted == plain * (T - t0)
            assert planted.valuation(t0) == plain.valuation(t0) + 1


def test_corpus_guarantees():
    """Every family: odd top degree, rank cap, generic acyclicity, a
    validating pairing at every center, and a torsion function fixed by
    the involution up to sign (hence real on the real line)."""
    fams = acceptance_corpus(20, 314)
    assert len(fams) == 20
    for fam in fams:
        cplx = fam.complex
        assert cplx.top_degree % 2 == 1
        assert cplx.total_rank() <= 12
        assert is_generically_acyclic(cplx)
        assert len(fam.centers) >= 1
        assert all(c.denominator == 1 for c in fam.centers)
        assert len(set(fam.centers)) == len(fam.centers)
        for c in fam.centers:
            check_duality_pairing(cplx, list(fam.pairing), GaussRat(c))
        tau = torsion(cplx).value
        assert conj_family(tau) in (tau, -tau)


def test_family_spec_normalizes_fields():
    fam = circle_family(cayley() - 1, centers=(0,))
    assert isinstance(fam, FamilySpec)
    assert fam.centers == (Fraction(0),)
    assert isinstance(fam.pairing, tuple)
