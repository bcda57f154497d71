import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from torsionfam.cli import main
from torsionfam.fileio import load_complex, load_ledger
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
        assert x * x.conj() == GaussRat(x.abs2())


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
