import random
from collections import Counter
from fractions import Fraction
from math import gcd, isqrt

import pytest
from fraction_poly import FractionPoly, fraction_poly_gcd

from torsionfam.poly import (
    Poly,
    _gauss_gcd,
    format_poly,
    parse_poly,
    poly_gcd,
    rational_real_roots,
)
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
        assert d.coeffs[-1] == GaussRat.one()
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
            routes.append(a.monic() * a.coeffs[-1])
        for other in routes:
            assert other == a
            assert (other.re, other.im, other.den) == (a.re, a.im, a.den)
            assert hash(other) == hash(a)


# -- real rational roots against the divisor search -------------------------


def _divisors(n):
    """Every positive divisor of n != 0, by trial division."""
    n, divisors, d = abs(n), [1], 2
    while n > 1:
        if d * d > n:
            d = n
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            divisors = [x * d**k for x in divisors for k in range(e + 1)]
        d += 1
    return divisors


def _divisor_search(p):
    """Reference for rational_real_roots: tries 0 and every +-a/b in lowest
    terms with a | c_0 and b | c_n, for c the real numerators of p (the
    imaginary ones when p is imaginary) with the zero roots stripped."""
    c = p.re if any(p.re) else p.im
    c = c[next(k for k, x in enumerate(c) if x):]
    tops, bottoms = _divisors(c[0]), _divisors(c[-1])
    candidates = [Fraction(0)] + [
        Fraction(s * a, b) for a in tops for b in bottoms if gcd(a, b) == 1 for s in (1, -1)
    ]
    roots = sorted(x for x in candidates if p.evaluate(x).is_zero())
    return roots, p.degree - sum(p.valuation_at(x) for x in roots)


def _linear(x):
    return Poly([-x, 1])


def _planted_roots_poly(rng):
    """Planted roots a/b with |a|, b <= 12 (multiplicity 1 to 3), irreducible
    quadratic cofactors, zero roots, and one of: nothing, a Gaussian scalar,
    a non-real root, or an imaginary part with a rational root of its own."""
    p = Poly.one()
    for _ in range(rng.randrange(4)):
        p = p * _linear(Fraction(rng.randint(-12, 12), rng.randint(1, 12))) ** rng.randint(1, 3)
    for _ in range(rng.randrange(3)):
        b, c = rng.randint(-5, 5), rng.randint(-9, 9)
        while b * b - 4 * c >= 0 and isqrt(b * b - 4 * c) ** 2 == b * b - 4 * c:
            c += 1
        p = p * Poly([c, b, rng.randint(1, 3)])
    kind = rng.randrange(4)
    if kind == 1:
        p = p * GaussRat(rng.randint(1, 5), rng.randint(-5, 5))
    elif kind == 2:
        p = p * _linear(GaussRat(Fraction(rng.randint(-3, 3), 2), rng.choice((-1, 1, 2))))
    elif kind == 3:
        twist = _linear(Fraction(rng.randint(-12, 12), rng.randint(1, 12)))
        p = p + twist * Poly([rng.randint(1, 5), rng.randint(-3, 3)]) * GaussRat(0, 1)
    if rng.randrange(4) == 0:
        p = p * Poly.var() ** rng.randint(1, 2)
    if p.degree < 1:
        p = p * _linear(Fraction(rng.randint(-12, 12), rng.randint(1, 12)))
    return p


def test_rational_roots_match_the_divisor_search():
    rng = random.Random(81)
    found = Counter()
    for _ in range(1200):
        p = _planted_roots_poly(rng)
        roots, leftover = rational_real_roots(p)
        assert (roots, leftover) == _divisor_search(p), p
        found["zero root"] += Fraction(0) in roots
        found["gaussian"] += any(p.im)
        found["leftover"] += leftover > 0
        found["multiple root"] += any(p.valuation_at(x) > 1 for x in roots)
    assert min(found.values()) > 100, found


def test_rational_roots_ignore_the_gaussian_content():
    """p times a Gaussian integer with 20-digit parts, and p with its
    denominator made monic as RatFunc makes it, have p's roots."""
    rng = random.Random(84)
    for _ in range(150):
        p = _planted_roots_poly(rng)
        g = GaussRat(rng.randint(-(10**20), 10**20), rng.randint(1, 10**20))
        want = _divisor_search(p)
        assert rational_real_roots(p * g) == want, (p, g)
        assert rational_real_roots(p * p.coeffs[-1].conj()) == want, p


def test_gauss_gcd_divides_and_is_divided():
    """gcd(g a, g b) is g gcd(a, b) up to a unit: check by norms and division."""
    rng = random.Random(85)
    for _ in range(400):
        a, b, g = ((rng.randint(-999, 999), rng.randint(-999, 999)) for _ in range(3))
        if g == (0, 0) or a == b == (0, 0):
            continue
        ga, gb = (_gauss_mul(g, x) for x in (a, b))
        d = _gauss_gcd(ga, gb)
        assert _gauss_divides(d, ga) and _gauss_divides(d, gb) and _gauss_divides(g, d)
        assert _norm(d) == _norm(g) * _norm(_gauss_gcd(a, b))


def _gauss_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _norm(x):
    return x[0] ** 2 + x[1] ** 2


def _gauss_divides(d, x):
    """x / d is in Z[i]: both parts of x conj(d) are multiples of |d|^2."""
    re, im = _gauss_mul(x, (d[0], -d[1]))
    return re % _norm(d) == 0 and im % _norm(d) == 0


def test_rational_roots_of_hand_picked_polynomials():
    i = GaussRat(0, 1)
    cases = [
        (Poly([7]), [], 0),
        (_linear(i), [], 1),
        (_linear(Fraction(1, 2)) * _linear(i), [Fraction(1, 2)], 1),
        # the imaginary part vanishes at 3, the real part does not
        (_linear(1) * _linear(2) + _linear(3) * i, [], 2),
        (Poly.var() ** 2 * _linear(Fraction(-3, 4)) ** 2, [Fraction(-3, 4), 0], 0),
        (Poly([720720, 1, 720720]), [], 2),
        (Poly([0, 0, i]) * _linear(5), [0, 5], 0),
    ]
    for p, roots, leftover in cases:
        assert rational_real_roots(p) == (roots, leftover), p
    with pytest.raises(ValueError, match="zero polynomial"):
        rational_real_roots(Poly.zero())


@pytest.mark.parametrize("sign", [1, -1])
def test_lifting_bound_reads_back_the_largest_root(sign):
    """(t - a)(n t + 1) has c_0 = -a and c_n = n, so its root a reaches the
    read-back's limit |c_n a| = |c_0 c_n|: a modulus m > |c_0 c_n| does not
    tell c_n a from c_n a - m, and m > 2 |c_0 c_n| does."""
    for n in range(1, 8):
        for a in range(1, 120):
            p = _linear(sign * a) * Poly([1, n])
            assert (p.re[0], p.re[-1]) == (-sign * a, n)
            assert rational_real_roots(p) == (sorted({Fraction(sign * a), Fraction(-1, n)}), 0)


def test_rational_roots_match_sympy_on_40_digit_roots():
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    rng = random.Random(82)
    for _ in range(12):
        p = Poly([rng.randint(1, 10**40), 0, rng.randint(1, 10**40)])  # no real root
        for _ in range(rng.randint(1, 3)):
            a = rng.choice((1, -1)) * rng.randrange(10**39, 10**40)
            p = p * _linear(Fraction(a, rng.randrange(1, 10**40))) ** rng.randint(1, 2)
        p = p * p.den
        content, factors = sympy.Poly(list(reversed(p.re)), t).factor_list()
        linear = [(f, k) for f, k in factors if f.degree() == 1]
        want = sorted(Fraction(-int(f.nth(0)), int(f.nth(1))) for f, _ in linear)
        assert rational_real_roots(p) == (want, p.degree - sum(k for _, k in linear))
