import random
from fractions import Fraction
from math import gcd

import pytest
from fraction_poly import FractionPoly, fraction_poly_gcd

from torsionfam.poly import Poly, format_poly, parse_poly, poly_gcd
from torsionfam.scalars import GaussRat


def rand_poly(rng, max_deg=4):
    return Poly(
        [
            GaussRat(rng.randrange(-4, 5), rng.randrange(-3, 4))
            for _ in range(rng.randrange(0, max_deg + 2))
        ]
    )


def test_trailing_zeros_trimmed():
    p = Poly([1, 2, 0, 0])
    assert p.degree == 1
    assert Poly([0, 0]).is_zero()
    assert Poly(()).degree == -1


def test_ring_axioms_random():
    rng = random.Random(3)
    for _ in range(60):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a


def test_divmod_inverts_multiplication():
    rng = random.Random(4)
    for _ in range(60):
        a = rand_poly(rng)
        b = rand_poly(rng)
        if b.is_zero():
            continue
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.is_zero() or r.degree < b.degree


def test_divmod_by_zero():
    with pytest.raises(ZeroDivisionError):
        divmod(Poly.one(), Poly.zero())


def test_gcd_is_monic_common_divisor():
    rng = random.Random(5)
    for _ in range(40):
        g = rand_poly(rng, 2)
        if g.is_zero():
            g = Poly.one()
        a = g * rand_poly(rng, 2)
        b = g * rand_poly(rng, 2)
        if a.is_zero() and b.is_zero():
            continue
        d = poly_gcd(a, b)
        assert d.leading() == GaussRat.one()
        if not a.is_zero():
            assert (a % d).is_zero()
        if not b.is_zero():
            assert (b % d).is_zero()
        if not (a.is_zero() or b.is_zero()):
            assert (d % g.monic()).is_zero()


def _euclid_gcd(a, b):
    """The remainder sequence alone: the reference for poly_gcd."""
    while not b.is_zero():
        a, b = b, (a % b)
        if not b.is_zero():
            b = b.monic()
    return a.monic() if not a.is_zero() else a


def test_gcd_equals_remainder_sequence():
    rng = random.Random(6)
    t = Poly.var()
    cases = [(Poly.zero(), Poly.zero()), (Poly.zero(), Poly.constant(GaussRat(0, 3)))]
    seen = set()
    for _ in range(80):
        c = GaussRat(rng.choice([-3, -1, 1, 2]), rng.randrange(-2, 3))
        m = rng.randrange(0, 4)
        y = rand_poly(rng, 3) * t ** rng.randrange(0, 6)
        if not y.is_zero():
            ord_y = next(k for k, b in enumerate(y.coeffs) if not b.is_zero())
            seen.add((ord_y > m) - (ord_y < m))
        cases += [(t**m * c, y), (y, Poly.constant(c)), (Poly.zero(), y)]
        cases.append((rand_poly(rng, 3), rand_poly(rng, 3)))
    assert seen == {-1, 0, 1}  # ord_0 y below, at and above m
    for a, b in cases:
        assert poly_gcd(a, b) == _euclid_gcd(a, b), (a, b)
        assert poly_gcd(b, a) == _euclid_gcd(b, a), (b, a)


def test_evaluate_horner():
    p = Poly([1, GaussRat(0, 2), 3])  # 1 + 2i t + 3 t^2
    x = GaussRat(2, -1)
    direct = GaussRat(1) + GaussRat(0, 2) * x + GaussRat(3) * x * x
    assert p.evaluate(x) == direct


def test_valuation_at_counts_multiplicity():
    t0 = GaussRat(Fraction(1, 2))
    lin = Poly([-t0, GaussRat.one()])
    p = lin * lin * Poly([3, 1])
    assert p.valuation_at(t0) == 2
    assert Poly([1]).valuation_at(t0) == 0
    with pytest.raises(ValueError, match="valuation of zero undefined"):
        Poly.zero().valuation_at(t0)


def test_conj_is_ring_map():
    rng = random.Random(6)
    for _ in range(40):
        a, b = rand_poly(rng), rand_poly(rng)
        assert (a * b).conj() == a.conj() * b.conj()
        assert (a + b).conj() == a.conj() + b.conj()
        assert a.conj().conj() == a


def test_format_parse_round_trip():
    rng = random.Random(7)
    for _ in range(60):
        p = rand_poly(rng)
        assert parse_poly(format_poly(p)) == p
    assert format_poly(Poly.zero()) == "[0]"
    assert parse_poly("[0]").is_zero()
    assert parse_poly("[]").is_zero()


# -- the integer-backed Poly against the Fraction-pair reference ------------

CENTERS = [
    GaussRat(0),
    GaussRat(2),
    GaussRat(Fraction(1, 2)),
    GaussRat(Fraction(-3, 7)),
    GaussRat(0, 1),
    GaussRat(Fraction(2, 3), Fraction(1, 3)),
]


def rand_gauss(rng):
    return GaussRat(
        Fraction(rng.randrange(-6, 7), rng.randrange(1, 7)),
        Fraction(rng.randrange(-6, 7), rng.randrange(1, 7)) if rng.random() < 0.6 else 0,
    )


def rand_coeffs(rng, max_deg=6):
    cs = [rand_gauss(rng) if rng.random() < 0.8 else GaussRat(0)
          for _ in range(rng.randrange(0, max_deg + 2))]
    if cs and rng.random() < 0.3:
        cs[-1] = GaussRat(0)  # trailing zeros must be stripped
    return cs


def pair(cs):
    return Poly(cs), FractionPoly(cs)


def same(p, ref):
    """p is canonical and has the reference's coefficients."""
    assert p.den > 0
    assert len(p.re) == len(p.im)
    assert not p.re or p.re[-1] or p.im[-1]
    assert gcd(p.den, *p.re, *p.im) == 1
    return p.coeffs == ref.coeffs


def test_ring_operations_match_reference():
    rng = random.Random(71)
    for _ in range(150):
        (a, ra), (b, rb) = pair(rand_coeffs(rng)), pair(rand_coeffs(rng))
        c = rand_gauss(rng)
        assert same(a, ra)
        assert same(a + b, ra + rb)
        assert same(a - b, ra - rb)
        assert same(a * b, ra * rb)
        assert same(-a, -ra)
        assert same(a * c, ra * c)
        assert same(c - a, c - ra)
        assert same(a * Fraction(3, 4) + 2, ra * Fraction(3, 4) + 2)
        assert same(a.conj(), ra.conj())
        assert same(a**2, ra**2)


def test_divmod_matches_reference():
    """Non-monic divisors, with Gaussian non-unit and rational leads."""
    rng = random.Random(72)
    leads = [GaussRat(2, 1), GaussRat(3), GaussRat(1, 1), GaussRat(Fraction(2, 5), -3),
             GaussRat(0, Fraction(-7, 4)), GaussRat(1)]
    for k in range(200):
        a, ra = pair(rand_coeffs(rng, 8))
        cs = rand_coeffs(rng, 4) + [leads[k % len(leads)]]
        b, rb = pair(cs)
        q, r = divmod(a, b)
        rq, rr = divmod(ra, rb)
        assert same(q, rq) and same(r, rr)
        assert same(a // b, rq) and same(a % b, rr)
        assert same(b.monic(), rb.monic())
        assert q * b + r == a


def test_gcd_matches_reference():
    rng = random.Random(73)
    for _ in range(120):
        g = rand_coeffs(rng, 3)
        x, y = rand_coeffs(rng, 3), rand_coeffs(rng, 3)
        a, ra = pair(x)
        b, rb = pair(y)
        common, rcommon = pair(g)
        if rng.random() < 0.7:
            a, ra = a * common, ra * rcommon
            b, rb = b * common, rb * rcommon
        assert same(poly_gcd(a, b), fraction_poly_gcd(ra, rb))


def test_evaluate_and_valuation_match_reference():
    rng = random.Random(74)
    for _ in range(40):
        for t0 in CENTERS:
            mult = rng.randrange(0, 5)
            lin = Poly([-t0, 1])
            base, rbase = pair(rand_coeffs(rng, 4))
            if base.is_zero():
                continue
            p = base * lin**mult
            rp = rbase * FractionPoly([-t0, 1]) ** mult
            assert same(p, rp)
            want = rp.valuation_at(t0)
            assert p.valuation_at(t0) == want
            assert want >= mult
            for x in CENTERS + [rand_gauss(rng)]:
                assert p.evaluate(x) == rp.evaluate(x)


def test_equal_values_have_equal_fields_and_hashes():
    rng = random.Random(75)
    for _ in range(100):
        a = Poly(rand_coeffs(rng))
        b = Poly(rand_coeffs(rng))
        if b.is_zero():
            continue
        routes = [
            (a * b) // b,
            a + b - b,
            Poly(a.coeffs),
            parse_poly(format_poly(a)),
            -(-a),
            a.conj().conj(),
            a * Fraction(6, 5) * Fraction(5, 6),
            a * GaussRat(1, 1) * GaussRat(Fraction(1, 2), Fraction(-1, 2)),
        ]
        if not a.is_zero():
            routes.append(a.monic() * a.leading())
        for other in routes:
            assert other == a
            assert (other.re, other.im, other.den) == (a.re, a.im, a.den)
            assert hash(other) == hash(a)
