import random
from fractions import Fraction

import pytest

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
