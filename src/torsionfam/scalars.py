"""Exact Gaussian-rational scalars.

Every computation in this package happens over Q(i).  A scalar is a
pair of ``fractions.Fraction`` values (real and imaginary part).
Fraction keeps each part in lowest terms with a positive denominator,
so equality is structural and values are hashable.  Polynomials
(:mod:`torsionfam.poly`) keep their coefficients as Gaussian integers
over a common denominator instead, and build GaussRat values only
when a caller asks for a coefficient or a value.

Text form: plain rationals are written ``p/q`` (``p`` when q == 1);
Gaussian rationals are written ``p/q+r/si`` with a trailing ``i`` on
the imaginary part, e.g. ``1/2-3/4i``, ``i``, ``-2i``, ``5/3``.
Spaces are tolerated anywhere; :func:`parse_gauss` and
:func:`format_gauss` round-trip exactly.  Every number of every input
format is read here, straight into integers (:func:`gauss_parts`).
"""

from __future__ import annotations

import re
from fractions import Fraction

__all__ = [
    "GaussRat",
    "parse_integer",
    "parse_rational",
    "gauss_parts",
    "format_rational",
    "parse_gauss",
    "format_gauss",
    "sign_of_real",
]

_INTEGER = re.compile(r"[+-]?[0-9]+")
# a real part (a rational followed by a sign or the end), then an
# imaginary part ([+-]?, an unsigned rational or nothing, then i);
# either may be missing, and no denominator is zero
_GAUSS = re.compile(
    rf"(?:(?P<num>{_INTEGER.pattern})(?:/(?P<den>0*[1-9][0-9]*))?(?=[+-]|\Z))?"
    r"(?:(?P<isign>[+-]?)(?:(?P<inum>[0-9]+)(?:/(?P<iden>0*[1-9][0-9]*))?)?(?P<i>i))?"
)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class GaussRat:
    """An element of Q(i).  Immutable and hashable."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _as_fraction(re))
        object.__setattr__(self, "im", _as_fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussRat is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "GaussRat":
        return cls(0, 0)

    @classmethod
    def one(cls) -> "GaussRat":
        return cls(1, 0)

    @classmethod
    def i(cls) -> "GaussRat":
        return cls(0, 1)

    @classmethod
    def coerce(cls, x) -> "GaussRat":
        out = cls._try_coerce(x)
        if out is None:
            raise TypeError(f"cannot coerce {type(x).__name__} to GaussRat")
        return out

    @classmethod
    def _try_coerce(cls, x):
        if isinstance(x, GaussRat):
            return x
        if isinstance(x, (int, Fraction)):
            return cls(x, 0)
        return None

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        other = GaussRat._try_coerce(other)
        if other is None:
            return NotImplemented
        return GaussRat(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = GaussRat._try_coerce(other)
        if other is None:
            return NotImplemented
        return GaussRat(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = GaussRat._try_coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return GaussRat(-self.re, -self.im)

    def __mul__(self, other):
        other = GaussRat._try_coerce(other)
        if other is None:
            return NotImplemented
        return GaussRat(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = GaussRat._try_coerce(other)
        if other is None:
            return NotImplemented
        n2 = other.re * other.re + other.im * other.im
        if not n2:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GaussRat(
            (self.re * other.re + self.im * other.im) / n2,
            (self.im * other.re - self.re * other.im) / n2,
        )

    def __rtruediv__(self, other):
        other = GaussRat._try_coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        if n < 0:
            return GaussRat.one() / self ** (-n)
        result = GaussRat.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conj(self) -> "GaussRat":
        """Complex conjugate; an involution."""
        return GaussRat(self.re, -self.im)

    def abs2(self) -> Fraction:
        """Squared modulus re^2 + im^2, an exact rational."""
        return self.re * self.re + self.im * self.im

    # -- comparison / hashing -----------------------------------------

    def __eq__(self, other):
        other = GaussRat._try_coerce(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return format_gauss(self)


def format_rational(x: Fraction) -> str:
    """Canonical text for a rational: ``p/q``, or ``p`` when q == 1."""
    x = _as_fraction(x)
    return str(x)


def parse_integer(text: str) -> int:
    """Parse ``[+-]digits``, the integer part of the rational grammar."""
    if _INTEGER.fullmatch(text) is None:
        raise ValueError(f"bad integer literal {text!r}")
    return int(text)  # refuses more than sys.get_int_max_str_digits() digits


def parse_rational(text: str) -> Fraction:
    """Parse ``[+-]digits(/digits)?`` after removing spaces.  No decimals
    or exponents: ``Fraction("1e10000000")`` alone would take seconds."""
    num, _, den = gauss_parts(text)
    if "i" in text:
        raise ValueError(f"bad rational literal {text!r}")
    return Fraction(num, den)


def format_gauss(x: GaussRat) -> str:
    """Canonical text for a Gaussian rational (see module docstring)."""
    if not x.im:
        return format_rational(x.re)
    im = x.im
    body = "" if abs(im) == 1 else format_rational(abs(im))
    imag = f"{body}i"
    if not x.re:
        return ("-" if im < 0 else "") + imag
    sign = "+" if im > 0 else "-"
    return f"{format_rational(x.re)}{sign}{imag}"


def gauss_parts(text: str) -> tuple[int, int, int]:
    """Integers (re, im, den), den > 0, of a Gaussian-rational literal
    whose value is (re + im*i) / den, not necessarily in lowest terms."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty scalar literal")
    m = _GAUSS.fullmatch(s)
    if m is None:
        raise ValueError(f"bad rational literal {text!r}")
    try:  # int() refuses more than sys.get_int_max_str_digits() digits
        p, q = int(m["num"] or 0), int(m["den"] or 1)
        r, d = (int(m["isign"] + (m["inum"] or "1")), int(m["iden"] or 1)) if m["i"] else (0, 1)
    except ValueError:
        raise ValueError(f"bad rational literal {text!r}") from None
    return p * d, r * q, q * d


def parse_gauss(text: str) -> GaussRat:
    """Parse a Gaussian rational; inverse of :func:`format_gauss`."""
    x, y, den = gauss_parts(text)
    return GaussRat(Fraction(x, den), Fraction(y, den))


def sign_of_real(x: GaussRat) -> int:
    """Sign (+1 or -1) of a nonzero real Gaussian rational.

    Raises if the value has a nonzero imaginary part or is zero; sign
    questions only make sense on the real line.
    """
    if x.im:
        raise ValueError(f"sign undefined: {x!r} is not real")
    if not x.re:
        raise ValueError("sign undefined: value is zero")
    return 1 if x.re > 0 else -1
