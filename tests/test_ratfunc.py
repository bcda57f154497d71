import random
from fractions import Fraction

import pytest

from torsionfam.corpus import random_ratfunc
from torsionfam.poly import Poly, poly_gcd
from torsionfam.ratfunc import (
    LocalGerm,
    RatFunc,
    _product,
    cayley,
    conj_family,
    format_ratfunc,
    normalize_at,
    parse_ratfunc,
    uniformizer,
    valuation,
)
from torsionfam.scalars import GaussRat

T = RatFunc.var()
I = GaussRat.i()


def test_canonical_form():
    f = RatFunc(Poly([0, 2]), Poly([0, 0, 4]))  # 2t / 4t^2 -> (1/2)/t
    assert f.num == Poly([GaussRat(Fraction(1, 2))])
    assert f.den == Poly([0, 1])
    assert f.den.coeffs[-1] == GaussRat.one()
    with pytest.raises(ZeroDivisionError):
        RatFunc(Poly.one(), Poly.zero())


def test_field_arithmetic_random():
    rng = random.Random(8)
    for _ in range(40):
        f, g = random_ratfunc(rng), random_ratfunc(rng)
        assert (f + g) - g == f
        if not g.is_zero():
            assert (f / g) * g == f
        assert f * g == g * f


# -- valuation: spec examples ------------------------------------------------


def test_valuation_uniformizer():
    assert valuation(uniformizer(GaussRat(Fraction(1, 3))), Fraction(1, 3)) == 1


def test_valuation_unit():
    assert valuation(RatFunc.one(), 0) == 0


def test_valuation_cayley_numerator():
    f = (2 * I * T) / (1 - I * T)
    assert valuation(f, 0) == 1


def test_valuation_zero_rejected():
    with pytest.raises(ValueError, match="valuation of zero undefined"):
        valuation(RatFunc.zero(), 0)


def test_valuation_additive_random():
    rng = random.Random(9)
    for _ in range(100):
        t0 = GaussRat(rng.randrange(-2, 3))
        f = random_ratfunc(rng, zero_at=t0 if rng.randrange(2) else None)
        g = random_ratfunc(rng, zero_at=t0 if rng.randrange(2) else None)
        assert valuation(f * g, t0) == valuation(f, t0) + valuation(g, t0)


def test_valuation_ultrametric():
    rng = random.Random(10)
    for _ in range(100):
        t0 = GaussRat(rng.randrange(-2, 3))
        f = random_ratfunc(rng, zero_at=t0 if rng.randrange(2) else None)
        g = random_ratfunc(rng, zero_at=t0 if rng.randrange(2) else None)
        if (f + g).is_zero():
            continue
        vf, vg = valuation(f, t0), valuation(g, t0)
        assert valuation(f + g, t0) >= min(vf, vg)
        if vf != vg:
            assert valuation(f + g, t0) == min(vf, vg)


# -- normalize_at: spec examples ----------------------------------------------


def test_normalize_square():
    assert normalize_at(T * T, 0) == (2, RatFunc.one())


def test_normalize_cayley():
    f = (2 * I * T) / (1 - I * T)
    nu, u = normalize_at(f, 0)
    assert nu == 1
    assert u == (2 * I) / (1 - I * T)
    assert not u.evaluate(0).is_zero()


def test_normalize_simple_zero():
    nu, u = normalize_at((T - 1) / (T + 1), GaussRat(1))
    assert (nu, u) == (1, 1 / (T + 1))


def test_normalize_reconstructs_exactly():
    rng = random.Random(11)
    for _ in range(60):
        t0 = GaussRat(rng.randrange(-2, 3))
        f = random_ratfunc(rng, zero_at=t0 if rng.randrange(2) else None)
        nu, u = normalize_at(f, t0)
        assert u * uniformizer(t0) ** nu == f
        assert not u.evaluate(t0).is_zero()


# -- cayley: spec examples ----------------------------------------------------


def test_cayley_values():
    z = cayley()
    assert z.evaluate(0) == GaussRat.one()
    assert z.evaluate(1) == I


def test_cayley_unit_modulus_identity():
    for speed in (1, 2, Fraction(1, 2)):
        z = cayley(speed)
        assert z * conj_family(z) == RatFunc.one()


# -- conj_family: spec examples ----------------------------------------------


def test_conj_family_examples():
    assert conj_family(I * T) == -I * T
    z = cayley()
    assert conj_family(z) == (1 - I * T) / (1 + I * T)


def test_conj_family_involution_and_automorphism():
    rng = random.Random(12)
    for _ in range(60):
        f, g = random_ratfunc(rng), random_ratfunc(rng)
        assert conj_family(conj_family(f)) == f
        assert conj_family(f * g) == conj_family(f) * conj_family(g)
        assert conj_family(f + g) == conj_family(f) + conj_family(g)


# -- germs ---------------------------------------------------------------------


def test_local_germ_membership():
    f = 1 / (T - 1)
    LocalGerm(f, GaussRat.zero())  # fine away from the pole
    with pytest.raises(ValueError, match="denominator vanishes"):
        LocalGerm(f, GaussRat(1))


def test_local_germ_decompose():
    germ = LocalGerm(T * T * (1 + T), GaussRat.zero())
    nu, u = normalize_at(germ.value, germ.center)
    assert nu == 2 and u == 1 + T
    assert germ.valuation() == 2


def test_evaluate_pole():
    with pytest.raises(ZeroDivisionError):
        (1 / T).evaluate(0)


def test_round_trip():
    rng = random.Random(13)
    for _ in range(60):
        f = random_ratfunc(rng)
        assert parse_ratfunc(format_ratfunc(f)) == f


# -- Henrici arithmetic against the unreduced fraction ---------------------------


def slow_add(f, g):
    return RatFunc(f.num * g.den + g.num * f.den, f.den * g.den)


def slow_sub(f, g):
    return RatFunc(f.num * g.den - g.num * f.den, f.den * g.den)


def slow_mul(f, g):
    return RatFunc(f.num * g.num, f.den * g.den)


def slow_div(f, g):
    return RatFunc(f.num * g.den, f.den * g.num)


def assert_canonical(f):
    assert f.den.coeffs[-1] == GaussRat.one()
    if f.num.is_zero():
        assert f.den == Poly.one()
    else:
        assert poly_gcd(f.num, f.den) == Poly.one()


def _lin(root, lead=1):
    return Poly([-GaussRat.coerce(lead) * GaussRat.coerce(root), lead])


# factors operands share: Gaussian poles t -+ i, t itself (Laurent
# monomials), rational and Gaussian-rational roots, an irreducible
# quadratic, and non-monic linear factors
FACTORS = [
    _lin(I),
    _lin(-I),
    Poly.var(),
    _lin(1),
    _lin(-2),
    _lin(GaussRat(Fraction(1, 2), Fraction(1, 2))),
    Poly([1, 0, 1]),
    _lin(Fraction(-1, 3), GaussRat(2, 1)),
    _lin(3, 5),
]


def henrici_corpus(seed, count):
    """Pairs (f, g) of reduced functions built from shared factors."""
    rng = random.Random(seed)

    def product(k):
        p = Poly.one()
        for _ in range(k):
            p = p * rng.choice(FACTORS)
        return p

    def scalar():
        while True:
            c = GaussRat(rng.randrange(-3, 4), rng.randrange(-2, 3))
            if not c.is_zero():
                return c

    def operand():
        kind = rng.randrange(5)
        if kind == 0:  # Laurent monomial c t^k, k of either sign
            k = rng.randrange(-3, 4)
            return RatFunc(scalar()) * RatFunc.var() ** k
        if kind == 1:  # polynomial
            return RatFunc(product(rng.randrange(3)) * scalar())
        rest = Poly([scalar() for _ in range(rng.randrange(1, 3))])
        return RatFunc(product(rng.randrange(3)) * rest, product(rng.randrange(1, 4)))

    out = []
    for _ in range(count):
        f = operand()
        kind = rng.randrange(7)
        if kind == 0:  # equal denominators
            g = RatFunc(product(rng.randrange(3)) * scalar(), f.den)
        elif kind == 1:  # the sum cancels to zero or to a constant
            g = RatFunc(scalar()) * rng.randrange(2) - f
        elif kind == 2:  # shares a factor of the denominator, not all of it
            shared = rng.choice(FACTORS)
            f = RatFunc(scalar(), shared * product(1))
            g = RatFunc(Poly([scalar(), scalar()]), shared * product(rng.randrange(1, 3)))
        elif kind == 3:  # f + g = h cancels the factors f and g share
            g = operand() - f
        else:
            g = operand()
        out.append((f, g))
    return out


def _sum_kind(f, g):
    """Which Henrici branch an addition f + g takes."""
    if f.den == g.den:
        return "equal" if f.den == Poly.one() else "equal-nontrivial"
    d = poly_gcd(f.den, g.den)
    if d.degree == 0:
        return "coprime"
    t = f.num * (g.den // d) + g.num * (f.den // d)
    return "d-and-e" if poly_gcd(t, d).degree > 0 else "d-only"


# fixed pairs: d = e = t - 1 in 1/((t-1)(t+1)) - 1/((t-1)(t^2+1)), and
# divisors with non-monic, Gaussian and Laurent-monomial numerators
FIXED_PAIRS = [(1 / ((T - 1) * (T + 1)), 1 / ((T - 1) * (T * T + 1)))] + [
    (f, g)
    for f in (T, RatFunc.one(), (T - I) ** 2 / (T + 1), 1 / (2 * I * T))
    for g in ((2 + I) * T - 1, (T - I) / 3, -(T**-2), (1 - I * T) / (T - I))
]


def test_henrici_arithmetic_matches_unreduced_oracle():
    kinds = {}
    values = set()
    for f, g in henrici_corpus(2026, 400) + FIXED_PAIRS:
        for name, fast, slow in (
            ("add", f + g, slow_add(f, g)),
            ("sub", f - g, slow_sub(f, g)),
            ("mul", f * g, slow_mul(f, g)),
        ) + ((("div", f / g, slow_div(f, g)),) if g else ()):
            assert fast == slow, (name, f, g)
            assert_canonical(fast)
            if fast.num.degree <= 0 and fast.den.degree == 0:
                values.add("zero" if fast.is_zero() else "constant")
        for h in (g, -g):
            kinds[_sum_kind(f, h)] = kinds.get(_sum_kind(f, h), 0) + 1
    assert set(kinds) == {"equal", "equal-nontrivial", "coprime", "d-only", "d-and-e"}
    assert min(kinds.values()) >= 3, kinds
    assert values == {"zero", "constant"}


# -- constant short cuts against the full normalization ----------------------

CONSTANTS = [
    1, -1, GaussRat(0, 1), GaussRat(0, -1),
    GaussRat(Fraction(2, 5), -3), GaussRat(0, Fraction(-7, 4)), 3,
]


def fields(f):
    n, d = f.num, f.den
    return n.re, n.im, n.den, d.re, d.im, d.den


def test_constant_short_cuts_match_the_full_normalization():
    """_product and / must give exactly RatFunc(p * r, q * s), the
    normalizing constructor, when either side is a constant."""
    rng = random.Random(1341)
    consts = [RatFunc.coerce(c) for c in CONSTANTS]
    values = [random_ratfunc(rng) for _ in range(60)] + consts + [RatFunc.zero()]
    for f in values:
        for c in consts + [RatFunc.zero()]:
            for x, y in ((f, c), (c, f)):
                want = fields(RatFunc(x.num * y.num, x.den * y.den))
                assert fields(_product(x.num, x.den, y.num, y.den)) == want
                assert fields(x * y) == want
                if not y.is_zero():
                    assert fields(x / y) == fields(RatFunc(x.num * y.den, x.den * y.num))


def test_integer_reciprocal_matches_the_full_normalization():
    """Division by non-monic numerators with denominators and Gaussian leads."""
    rng = random.Random(1342)
    for _ in range(200):
        f, g = random_ratfunc(rng), random_ratfunc(rng)
        g = g * RatFunc.coerce(rng.choice(CONSTANTS[2:]))
        assert fields(f / g) == fields(RatFunc(f.num * g.den, f.den * g.num))
        assert fields(1 / g) == fields(RatFunc(g.den, g.num))


# -- a point is a GaussRat holding its integer triple -------------------------

POINTS = {  # t0 and its triple (re, im, d), t0 = (re + im i) / d
    GaussRat(0): (0, 0, 1),
    GaussRat(2): (2, 0, 1),
    GaussRat(Fraction(1, 2)): (1, 0, 2),
    GaussRat(Fraction(-3, 7)): (-3, 0, 7),
    GaussRat(0, 1): (0, 1, 1),
    GaussRat(Fraction(2, 3), Fraction(1, 3)): (2, 1, 3),
}


def test_point_as_triple_matches_point_as_gaussrat():
    """The point's parts are its triple; a real point given as an int or
    a Fraction reads the same as the GaussRat."""
    rng = random.Random(1343)
    for t0, triple in POINTS.items():
        assert t0.parts == triple
        re, im, d = triple
        same = [t0] + ([Fraction(re, d)] if not im else []) + ([re] if not im and d == 1 else [])
        linear = Poly([-t0, GaussRat.one()])
        for mult in range(5):
            for _ in range(6):
                p = random_ratfunc(rng).num * linear**mult
                assert {p.valuation_at(x) for x in same} == {p.valuation_at(t0)}
                assert p.valuation_at(t0) >= mult
                re, im, d = p.value_parts(t0)
                assert {p.value_parts(x) for x in same} == {(re, im, d)}
                assert p.evaluate(t0) == GaussRat(Fraction(re, d), Fraction(im, d))
                g = RatFunc(random_ratfunc(rng).num, p)
                for f in (g, 1 / g, g * RatFunc(linear) ** mult):
                    assert {f.valuation(x) for x in same} == {f.valuation(t0)}
                    regular = f.is_regular_at(t0)
                    assert {f.is_regular_at(x) for x in same} == {regular}
                    assert regular == (not f.den.evaluate(t0).is_zero())
