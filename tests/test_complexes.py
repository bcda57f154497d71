import math
import random
from fractions import Fraction

import pytest
from rebasing import (
    permutation_sign,
    permuted_complex,
    reversal,
    reversed_complex,
    shuffle_sign,
    shuffled,
)

from torsionfam.complexes import (
    CONVENTION_TAG,
    BasedChainComplex,
    TorsionValue,
    conjugate_complex,
    direct_sum,
    dual_complex,
    is_generically_acyclic,
    torsion,
    torsion_sign_at,
)
from torsionfam.corpus import (
    ACCEPTANCE_SIZE,
    acceptance_corpus,
    elementary_complex,
    random_acyclic_complex,
)
from torsionfam.dvr import analyze, singularity_exponent
from torsionfam.fileio import dump_complex, load_complex
from torsionfam.linalg import Matrix
from torsionfam.ratfunc import RatFunc, cayley, conj_family
from torsionfam.scalars import GaussRat, sign_of_real

T = RatFunc.var()
I = GaussRat.i()
ONE = RatFunc.one()
ZERO = RatFunc.zero()


def test_boundary_condition_checked():
    good = BasedChainComplex(
        [1, 2, 1],
        [Matrix([[T - 1, T - 1]]), Matrix([[T + 1], [-(T + 1)]])],
    )
    assert good.top_degree == 2
    with pytest.raises(ValueError, match="boundary condition"):
        BasedChainComplex(
            [1, 2, 1],
            [Matrix([[T - 1, T - 1]]), Matrix([[ONE], [ONE]])],
        )
    with pytest.raises(ValueError, match="shape"):
        BasedChainComplex([1, 2], [Matrix([[ONE]])])


# -- acyclicity: spec examples ---------------------------------------------------


def test_acyclic_identity():
    assert is_generically_acyclic(BasedChainComplex([1, 1], [Matrix([[ONE]])]))


def test_not_acyclic_zero_boundary():
    assert not is_generically_acyclic(BasedChainComplex([1, 1], [Matrix([[ZERO]])]))


def test_acyclic_circle():
    circle = BasedChainComplex([1, 1], [Matrix([[cayley() - 1]])])
    assert is_generically_acyclic(circle)


# -- torsion: spec examples ------------------------------------------------------


def test_torsion_identity_boundary():
    tv = torsion(BasedChainComplex([1, 1], [Matrix([[ONE]])]))
    assert isinstance(tv, TorsionValue)
    assert tv.value == ONE
    assert tv.convention_tag == CONVENTION_TAG
    # the tag is a class constant, not a field a caller could set
    with pytest.raises(TypeError):
        TorsionValue(ONE, "other")


def test_torsion_diagonal():
    a, b = T - 2, T + 3
    c = BasedChainComplex([2, 2], [Matrix([[a, ZERO], [ZERO, b]])])
    assert torsion(c).value == a * b


def test_torsion_circle_valuation():
    circle = BasedChainComplex([1, 1], [Matrix([[cayley() - 1]])])
    tv = torsion(circle)
    assert tv.value == cayley() - 1
    assert abs(tv.value.valuation(0)) == 1
    assert tv.value.valuation(0) == 1  # FT-cal-1 pins the sign of the exponent


def test_torsion_requires_acyclic():
    with pytest.raises(ValueError, match="torsion undefined: complex not generically acyclic"):
        torsion(BasedChainComplex([1, 1], [Matrix([[ZERO]])]))


def test_torsion_deterministic():
    rng = random.Random(40)
    c = random_acyclic_complex(rng)
    assert torsion(c).value == torsion(c).value


def test_subset_strategy_valuation_independent():
    """A permuted basis changes the torsion by the exact sign law of
    ``rebasing`` and leaves nu and the local dimensions at every center
    as they are; the reversal gives the staircase scanning from the right."""
    rng = random.Random(1099)  # the permutations only
    for k in range(20):
        fam = acceptance_corpus(1, 1000 + k)[0]
        c = fam.complex
        want = torsion(c).value * shuffle_sign(c)
        rebasings = [[reversal(r) for r in c.ranks]]
        rebasings += [[shuffled(rng, r) for r in c.ranks] for _ in range(2)]
        for perms in rebasings:
            pc = permuted_complex(c, perms)
            sign = math.prod(permutation_sign(p) for p in perms)
            assert torsion(pc).value * shuffle_sign(pc) == sign * want
            for center in fam.centers:
                a, b = analyze(c, GaussRat(center)), analyze(pc, GaussRat(center))
                assert (a.nu, a.dims) == (b.nu, b.dims)


# -- conjugation -----------------------------------------------------------------


def test_conjugate_involution():
    c = BasedChainComplex([1, 1], [Matrix([[GaussRat.i() * T + 1]])])
    assert conjugate_complex(conjugate_complex(c)) == c
    real = BasedChainComplex([1, 1], [Matrix([[T - 2]])])
    assert conjugate_complex(real) == real


def test_torsion_galois_equivariant():
    for k in range(25):
        c = acceptance_corpus(1, 2000 + k)[0].complex
        assert torsion(conjugate_complex(c)).value == conj_family(torsion(c).value)


# -- duality ----------------------------------------------------------------------


def test_dual_simple():
    c = BasedChainComplex([1, 1], [Matrix([[GaussRat.i() * T]])])
    d = dual_complex(c)
    assert d.ranks == (1, 1)
    assert d.boundary(1)[0, 0] == conj_family(GaussRat.i() * T)


def test_dual_reverses_ranks():
    c = BasedChainComplex(
        [1, 2, 1],
        [Matrix([[T - 1, T - 1]]), Matrix([[T + 1], [-(T + 1)]])],
    )
    assert dual_complex(c).ranks == (1, 2, 1)
    c2 = elementary_complex(3, 1, Matrix([[T]]))
    assert dual_complex(c2).ranks == tuple(reversed(c2.ranks))


def test_double_dual():
    for k in range(10):
        c = acceptance_corpus(1, 3000 + k)[0].complex  # odd top degree
        assert dual_complex(dual_complex(c)) == c
    even = BasedChainComplex(
        [1, 2, 1],
        [Matrix([[T - 1, T - 1]]), Matrix([[T + 1], [-(T + 1)]])],
    )
    assert dual_complex(dual_complex(even)).ranks == even.ranks


def test_dual_is_the_validated_complex_on_the_acceptance_corpus():
    """dual_complex skips the d.d = 0 check; the checked constructor agrees."""
    for spec in acceptance_corpus(ACCEPTANCE_SIZE, 20250):
        c = spec.complex
        d = dual_complex(c)
        checked = BasedChainComplex(d.ranks, list(d.boundaries))
        assert d == checked
        assert all(
            b.shape() == (d.ranks[k - 1], d.ranks[k])
            for k, b in enumerate(d.boundaries, start=1)
        )
        if c.top_degree % 2 == 1:
            assert dual_complex(d) == c


def test_conj_of_a_real_value_is_itself():
    real = (T - 1) / (T * T + 3)
    assert real.conj() is real
    gauss = (T - GaussRat.i()) / (T + 2)
    assert gauss.conj() == (T + GaussRat.i()) / (T + 2)
    assert gauss.conj().conj() == gauss


def test_dual_torsion_conjugate_up_to_sign():
    """For odd top degree the dual's torsion is the conjugate, up to sign."""
    for k in range(10):
        c = acceptance_corpus(1, 4000 + k)[0].complex
        td = torsion(dual_complex(c)).value
        tc = conj_family(torsion(c).value)
        assert td == tc or td == -tc


# -- direct sums --------------------------------------------------------------------


def test_direct_sum_zero_identity():
    c = BasedChainComplex([1, 1], [Matrix([[T - 1]])])
    z = BasedChainComplex([0, 0], [Matrix([], 0)])
    s = direct_sum(c, z)
    assert s.ranks == c.ranks and s.boundaries == c.boundaries


def test_direct_sum_ranks_add():
    a = elementary_complex(3, 1, Matrix([[T]]))
    b = elementary_complex(3, 3, Matrix([[T - 1]]))
    s = direct_sum(a, b)
    assert s.ranks == tuple(x + y for x, y in zip(a.ranks, b.ranks))


def test_direct_sum_padding():
    a = BasedChainComplex([1, 1], [Matrix([[T - 1]])])
    b = elementary_complex(3, 3, Matrix([[T + 1]]))
    s = direct_sum(a, b)
    assert s.ranks == (1, 1, 1, 1)
    assert is_generically_acyclic(s)


def test_direct_sum_torsion_multiplicative_up_to_sign():
    for k in range(15):
        a = acceptance_corpus(1, 5000 + k)[0].complex
        b = acceptance_corpus(1, 6000 + k)[0].complex
        ts = torsion(direct_sum(a, b)).value
        prod = torsion(a).value * torsion(b).value
        assert ts == prod or ts == -prod


# -- unitary evaluations ----------------------------------------------------------


def test_unitary_family_evaluation_modulus():
    """Evaluated torsion of a unitary family satisfies v * conj(v) =
    |v|^2, and that product is the evaluation of torsion * conj-torsion:
    the computable shadow of the reality statement."""
    from torsionfam.groupring import RepFamily, parse_word, presentation_complex

    rho = RepFamily(
        rank=1,
        images=(Matrix([[cayley(1)]]), Matrix([[cayley(2)]])),
        unitary=True,
    )
    relator = parse_word("x y x^-1 y^-1", ["x", "y"])
    for cplx in (
        BasedChainComplex([1, 1], [Matrix([[cayley() - 1]])]),
        presentation_complex(2, [relator], rho),
    ):
        tau = torsion(cplx).value
        square = tau * conj_family(tau)
        for t in (Fraction(1, 3), Fraction(-2), Fraction(7, 5)):
            v = tau.evaluate(GaussRat(t))
            assert not v.is_zero()
            modulus2 = v * v.conj()
            assert modulus2.im == 0 and modulus2.re > 0
            assert square.evaluate(GaussRat(t)) == modulus2


# -- the sign-flip law ----------------------------------------------------------------


def test_sign_flip_law_on_corpus():
    """sign(tau(t0+d)) * sign(tau(t0-d)) == (-1)^nu for small windows."""
    for fam in acceptance_corpus(10, 777):
        for c in fam.centers:
            nu = singularity_exponent(fam.complex, GaussRat(c))
            for delta in (Fraction(1, 1000), Fraction(1, 10000)):
                sp = torsion_sign_at(fam.complex, GaussRat(c + delta))
                sm = torsion_sign_at(fam.complex, GaussRat(c - delta))
                assert sp * sm == (-1) ** nu


def _outcome(f, *args):
    try:
        return f(*args)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc).__name__, str(exc)


def _kind(outcome):
    if isinstance(outcome, int):
        return outcome
    for kind in ("not real", "zero", "pole"):
        if kind in outcome[1]:
            return kind
    return outcome


def test_torsion_sign_at_matches_gaussrat_value():
    """The integer Horner sign agrees with the GaussRat value, errors included."""
    cases = []
    for fam in acceptance_corpus(12, 4242):
        points = [c + d for c in fam.centers for d in (0, Fraction(1, 1000), Fraction(-1, 7))]
        points += [0, Fraction(5, 3), GaussRat(0, 1), GaussRat(Fraction(1, 2), -2)]
        cases += [(fam.complex, GaussRat.coerce(t)) for t in points]
    # a non-real value on the real line, real values at a Gaussian point
    # and from a numerator and denominator that are both non-real
    for f, t in (
        (I * (T - 2), GaussRat(3)),
        ((T - I) * (T - I), GaussRat(0, 2)),
        ((T - I) / (T + I), GaussRat(0)),
        (((T - I) / (T + I)) ** 2, GaussRat(0)),
    ):
        cases.append((BasedChainComplex([1, 1], [Matrix([[f]])]), t))
    seen = set()
    for c, t in cases:
        fast = _outcome(torsion_sign_at, c, t)
        assert fast == _outcome(lambda: sign_of_real(torsion(c).value.evaluate(t))), t
        seen.add(_kind(fast))
    assert seen == {1, -1, "not real", "zero", "pole"}


# -- old paths as oracles of the one-elimination staircase ---------------------


def _rank_criterion(c):
    r = [0] + [c.boundary(k).rank() for k in range(1, c.top_degree + 1)] + [0]
    return all(c.ranks[k] == r[k] + r[k + 1] for k in range(c.top_degree + 1))


@pytest.fixture(scope="module")
def small_corpus():
    return [fam.complex for fam in acceptance_corpus(12, 8080)]


@pytest.mark.parametrize("reverse", [False, True])
def test_staircase_determinants_match_submatrix_det(small_corpus, reverse):
    """Each D_k read off the picking elimination equals det of its
    square, on each complex and on it with every basis reversed."""
    from torsionfam.complexes import _staircase, _subset_determinants

    for c in small_corpus:
        c = reversed_complex(c) if reverse else c
        steps = _staircase(c)
        dets = _subset_determinants(c)
        uncovered = list(range(c.ranks[0]))
        for k, ((picked, _, _), d) in enumerate(zip(steps, dets), start=1):
            square = c.boundary(k).submatrix(uncovered, sorted(picked))
            assert d == square.det()
            uncovered = [j for j in range(c.ranks[k]) if j not in picked]


def test_acyclicity_certificate_matches_rank_criterion(small_corpus):
    """The completed staircase agrees with rank(d_k) + rank(d_k+1) == rank C_k."""
    rng = random.Random(8081)
    non_acyclic = 0
    for c in small_corpus:
        assert is_generically_acyclic(c) and _rank_criterion(c)
        # d_k into the highest nonzero degree is injective: zeroing its
        # first column keeps d.d = 0 and always breaks acyclicity
        top = max(k for k in range(1, c.top_degree + 1) if c.ranks[k])
        variants = [(top, [(j, 0) for j in range(c.ranks[top - 1])])]
        for _ in range(4):
            k = rng.randrange(1, c.top_degree + 1)
            mat = c.boundary(k)
            if mat.nrows and mat.ncols:
                variants.append((k, [(rng.randrange(mat.nrows), rng.randrange(mat.ncols))]))
        for k, cells in variants:
            rows = [list(r) for r in c.boundary(k).rows]
            for j, col in cells:
                rows[j][col] = ZERO
            bnds = list(c.boundaries)
            bnds[k - 1] = Matrix(rows, c.ranks[k])
            try:
                v = BasedChainComplex(c.ranks, bnds)
            except ValueError:
                continue  # zeroing broke d.d = 0
            assert is_generically_acyclic(v) == _rank_criterion(v)
            non_acyclic += not is_generically_acyclic(v)
        # an extra top cell with zero boundary: every step keeps full row
        # rank, only the top degree is left over
        m = c.top_degree
        rows = [list(r) + [ZERO] for r in c.boundary(m).rows]
        extra = BasedChainComplex(
            c.ranks[:-1] + (c.ranks[m] + 1,),
            list(c.boundaries[:-1]) + [Matrix(rows, c.ranks[m] + 1)],
        )
        assert not is_generically_acyclic(extra) and not _rank_criterion(extra)
    assert non_acyclic >= len(small_corpus)


# -- the memo on the complex ---------------------------------------------------


def _fresh(c):
    """An equal complex with an empty memo, through the file format."""
    return load_complex(dump_complex(c))[0]


def test_memoized_torsion_matches_fresh(small_corpus, monkeypatch):
    """One staircase entry, one torsion entry, one ``_staircase`` call."""
    import torsionfam.complexes as complexes_module

    staircase = complexes_module._staircase
    calls = []

    def counting_staircase(cplx, *args):
        calls.append(cplx)
        return staircase(cplx, *args)

    monkeypatch.setattr(complexes_module, "_staircase", counting_staircase)
    for c in small_corpus:
        memo = _fresh(c)
        calls.clear()
        first = torsion(memo)
        assert is_generically_acyclic(memo)
        again = torsion(memo)
        assert len(memo._memo) == 2 and calls == [memo]
        assert first == again == torsion(_fresh(c))
