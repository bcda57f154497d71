import random
import time
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest
from fraction_poly import FractionGauss

from torsionfam.cli import main
from torsionfam.fileio import load_complex, load_ledger
from torsionfam.poly import Poly
from torsionfam.ratfunc import RatFunc
from torsionfam.scalars import (
    GaussRat,
    format_gauss,
    format_rational,
    gauss_parts,
    parse_gauss,
    parse_integer,
    parse_rational,
    sign_of_real,
)

CIRCLE = Path(__file__).resolve().parent.parent / "demos" / "data" / "circle.cplx"


def test_lowest_terms_positive_denominator():
    x = GaussRat(Fraction(2, -4), Fraction(6, 4))
    assert x.re == Fraction(-1, 2) and x.re.denominator == 2
    assert x.im == Fraction(3, 2)


def test_field_arithmetic():
    a = GaussRat(1, 2)
    b = GaussRat(Fraction(1, 3), -1)
    assert a + b == GaussRat(Fraction(4, 3), 1)
    assert a * b == GaussRat(Fraction(1, 3) + 2, Fraction(2, 3) - 1)
    assert (a / b) * b == a
    assert a - a == GaussRat.zero()
    assert a ** 0 == GaussRat.one()
    assert a ** -2 == GaussRat.one() / (a * a)


def test_i_squares_to_minus_one():
    assert GaussRat.i() * GaussRat.i() == GaussRat(-1)


def test_conjugation_involution_and_modulus():
    rng = random.Random(1)
    for _ in range(50):
        x = GaussRat(
            Fraction(rng.randrange(-9, 10), rng.randrange(1, 9)),
            Fraction(rng.randrange(-9, 10), rng.randrange(1, 9)),
        )
        assert x.conj().conj() == x
        assert x * x.conj() == GaussRat(x.re * x.re + x.im * x.im)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        GaussRat.one() / GaussRat.zero()


@pytest.mark.parametrize(
    "text",
    ["0", "5", "-3", "1/2", "-7/3", "i", "-i", "2i", "-5/3i",
     "1/2+3/4i", "1/2-3/4i", "-1+i", "-1-i", "3-2i"],
)
def test_parse_format_round_trip(text):
    value = parse_gauss(text)
    assert format_gauss(value) == text
    assert parse_gauss(format_gauss(value)) == value


def test_parse_tolerates_spaces():
    assert parse_gauss("1/2 + 3/4 i") == GaussRat(Fraction(1, 2), Fraction(3, 4))
    assert parse_rational(" -3 / 4 ") == Fraction(-3, 4)


def test_random_round_trip():
    rng = random.Random(2)
    for _ in range(200):
        x = GaussRat(
            Fraction(rng.randrange(-20, 21), rng.randrange(1, 12)),
            Fraction(rng.randrange(-20, 21), rng.randrange(1, 12)),
        )
        assert parse_gauss(format_gauss(x)) == x


@pytest.mark.parametrize("bad", ["", "1//2", "i2", "+-3i", "1+2", "2x"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_gauss(bad)


# Only [+-]digits(/digits)? is a rational literal: Fraction() alone also
# takes "1e10000000" and spends seconds building the integer.
@pytest.mark.parametrize("bad", ["1e10000000", "1.5", ".5", "1_000", "2E2", "1/0", "3/-2", "/2"])
def test_parse_rational_refuses_other_forms_at_once(bad):
    start = time.perf_counter()
    for parse, text in ((parse_rational, bad), (parse_gauss, bad), (parse_gauss, bad + "i")):
        with pytest.raises(ValueError, match="bad rational literal"):
            parse(text)
    assert time.perf_counter() - start < 0.05


@pytest.mark.parametrize("text, value", [("+3", 3), ("-2", -2), ("007", 7), ("0", 0)])
def test_parse_integer_accepts_signed_digits(text, value):
    assert parse_integer(text) == value


@pytest.mark.parametrize("bad", ["", "+", "0_1", "1_000", "٣", " 3", "1/2", "1e3", "9" * 5000])
def test_parse_integer_refuses_everything_else(bad):
    with pytest.raises(ValueError):
        parse_integer(bad)


def test_gauss_parts_reads_integers():
    assert gauss_parts("1/2-3/4i") == (4, -6, 8)
    assert gauss_parts("-i") == (0, -1, 1) and gauss_parts("5") == (5, 0, 1)


def test_exponent_literal_refused_by_every_reader(capsys):
    huge, start = "1e10000000", time.perf_counter()
    ledger = "eta-ledger v1\ndimclass 3\nbase {}\njump t0 {} sigma_odd 1 nu 1\nsigns + -\nend\n"
    for load, text in ((load_complex, f"complex v1\nranks 1 1\nboundary 1\n[{huge}]\nend\n"),
                       (load_ledger, ledger.format(huge, 0)), (load_ledger, ledger.format(1, huge))):
        with pytest.raises(ValueError, match="bad rational"):
            load(text)
    assert main(["analyze", str(CIRCLE), "--t0", huge]) == 2
    assert "bad --t0 value '1e10000000'" in capsys.readouterr().err
    assert time.perf_counter() - start < 0.05


def test_rational_formatting():
    assert format_rational(Fraction(3)) == "3"
    assert format_rational(Fraction(-3, 7)) == "-3/7"


def test_sign_of_real():
    assert sign_of_real(GaussRat(Fraction(2, 5))) == 1
    assert sign_of_real(GaussRat(-3)) == -1
    with pytest.raises(ValueError):
        sign_of_real(GaussRat(0, 1))
    with pytest.raises(ValueError):
        sign_of_real(GaussRat.zero())


# -- the integer triple against the Fraction-pair reference ------------------

SPECIAL = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (Fraction(2, 5), -3)]
DENS = [1, 2, 3, 4, 6, 7, 12, 49, 343, 2401, 7**5, 2 * 7**4, 3 * 5 * 7**3]


def ref_parts(ref):
    """The canonical triple of a reference value, from its two Fractions."""
    q, s = ref.re.denominator, ref.im.denominator
    d = lcm(q, s)
    return ref.re.numerator * (d // q), ref.im.numerator * (d // s), d


def matches(x, ref):
    """x is canonical and holds the reference's value, field by field."""
    re, im, den = x.parts
    assert den > 0 and gcd(re, im, den) == 1
    assert (re, im) != (0, 0) or den == 1
    return x.parts == ref_parts(ref) and (x.re, x.im) == (ref.re, ref.im)


def test_gauss_rat_matches_the_fraction_pair_reference():
    rng = random.Random(1401)

    def part():
        return Fraction(rng.randrange(-60, 61), rng.choice(DENS + [rng.randrange(1, 7**5 + 1)]))

    pairs = SPECIAL + [(part(), part() if rng.random() < 0.7 else 0) for _ in range(120)]
    values = [(GaussRat(a, b), FractionGauss(a, b)) for a, b in pairs]
    for x, rx in values:
        assert matches(x, rx)
        assert matches(x.conj(), rx.conj()) and matches(-x, -rx)
        assert matches(x * x.conj(), rx * rx.conj())
        text = format_gauss(x)
        assert text == format_gauss(rx)
        assert parse_gauss(text).parts == x.parts and hash(parse_gauss(text)) == hash(x)
        for n in range(-3, 4):
            if n < 0 and not x:
                with pytest.raises(ZeroDivisionError):
                    x**n
            else:
                assert matches(x**n, rx**n)
    for (x, rx), (y, ry) in zip(values, values[7:] + values[:7] + values[::-1]):
        assert matches(x + y, rx + ry) and matches(x - y, rx - ry)
        assert matches(x * y, rx * ry)
        if y:
            assert matches(x / y, rx / ry)
        else:
            with pytest.raises(ZeroDivisionError):
                x / y
        for c in (3, Fraction(-2, 7)):
            assert matches(x + c, rx + c) and matches(c - x, c - rx)
            assert matches(x * c, rx * c)
            if x:
                assert matches(c / x, c / rx)


def test_equal_values_built_by_different_routes_have_equal_parts():
    half = GaussRat(Fraction(1, 2), Fraction(1, 2))
    routes = [
        GaussRat(Fraction(2, 4), Fraction(1, 2)),
        parse_gauss("1/2+1/2i"),
        parse_gauss("2/4 + 3/6i"),
        Poly([Fraction(1, 6), half]).coeff(1),  # stored as (3, 3) over 6
        Poly([Fraction(1, 2), Fraction(1, 2)]).evaluate(GaussRat.i()),
        RatFunc(Poly([1, 1]), Poly([2])).evaluate(GaussRat.i()),
        GaussRat(1, 1) * Fraction(1, 2),
        1 / GaussRat(1, -1),
        (GaussRat(1, -1) / 2).conj(),
    ]
    for x in routes:
        assert x.parts == (1, 1, 2) and hash(x) == hash(half) and x == half
    zeros = [GaussRat(), GaussRat(Fraction(0, 5), 0), half - half, parse_gauss("0/7"),
             Poly([Fraction(1, 3)]).evaluate(5) * 0, GaussRat(2, 3) * 0]
    for z in zeros:
        assert z.parts == (0, 0, 1) and hash(z) == hash(GaussRat.zero()) and not z


@pytest.mark.parametrize("bad", [0.5, "1/2", 1j, None])
def test_gauss_rat_and_format_rational_take_only_ints_and_fractions(bad):
    for build in (lambda: GaussRat(bad), lambda: GaussRat(1, bad),
                  lambda: GaussRat(bad, Fraction(1, 2)), lambda: format_rational(bad)):
        with pytest.raises(TypeError):
            build()
