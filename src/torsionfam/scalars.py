"""Exact Gaussian-rational scalars.

Every computation in this package happens over Q(i).  A scalar holds
one canonical triple of integers, ``parts`` = (re, im, den), for the
value (re + im*i)/den, with den > 0 and gcd(re, im, den) = 1 (Knuth,
TAOCP vol. 2, 4.5.1); zero is (0, 0, 1).  The form is unique, so
equality and hashing compare the triples.  Polynomials
(:mod:`torsionfam.poly`) keep their coefficients in the same
convention, Gaussian integers over one denominator.

Text form: plain rationals are written ``p/q`` (``p`` when q == 1);
Gaussian rationals are written ``p/q+r/si`` with a trailing ``i`` on
the imaginary part, e.g. ``1/2-3/4i``, ``i``, ``-2i``, ``5/3``.
Spaces are tolerated anywhere; :func:`parse_gauss` and
:func:`format_gauss` round-trip exactly.  Every number of every input
format is read here, straight into integers (:func:`gauss_parts`).

``GaussRat``, ``Poly`` and ``RatFunc`` share one protocol, written once
in ``_Exact``: ``coerce`` from ``_try_coerce``, truth from ``is_zero``,
reflected ``-`` and ``/`` from the forward operators, and powers by
square-and-multiply; each keeps its own kernels and exponent rules.
``_Frozen`` is the immutability guard of every value class.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm

__all__ = [
    "GaussRat",
    "gauss_from_parts",
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

_set = object.__setattr__


class _Frozen:
    """Immutable: fields are set once, through ``object.__setattr__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


class _Exact(_Frozen):
    """The value protocol of GaussRat, Poly and RatFunc.  A subclass
    provides ``_try_coerce`` (the value or None), ``is_zero``, ``one``
    and the forward operators."""

    __slots__ = ()

    @classmethod
    def coerce(cls, x):
        out = cls._try_coerce(x)
        if out is None:
            raise TypeError(f"cannot coerce {type(x).__name__} to {cls.__name__}")
        return out

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __rsub__(self, other):
        other = self._try_coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __rtruediv__(self, other):
        other = self._try_coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def _power(self, n: int):
        """self ** n for an integer n >= 0, by square-and-multiply."""
        result, base = self.one(), self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result


def gauss_from_parts(re: int, im: int, den: int) -> "GaussRat":
    """The GaussRat (re + im*i)/den, for integers with den > 0."""
    if den != 1:
        g = gcd(re, im, den)
        if g != 1:
            re, im, den = re // g, im // g, den // g
    x = object.__new__(GaussRat)
    _set(x, "parts", (re, im, den))
    return x


def _parts(x) -> tuple[int, int, int]:
    """The canonical triple (re, im, den) of a GaussRat, an int or a Fraction."""
    if type(x) is GaussRat:
        return x.parts
    if isinstance(x, (int, Fraction)):
        return x.numerator, 0, x.denominator
    raise TypeError(f"cannot coerce {type(x).__name__} to GaussRat")


class GaussRat(_Exact):
    """An element of Q(i).  Immutable and hashable."""

    __slots__ = ("parts",)

    def __init__(self, re=0, im=0):
        for x in (re, im):
            if not isinstance(x, (int, Fraction)):
                raise TypeError(f"expected int or Fraction, got {type(x).__name__}")
        # a/q + (b/s) i over lcm(q, s) is in lowest terms, as a/q and b/s are
        q, s = re.denominator, im.denominator
        d = q if q == s else lcm(q, s)
        _set(self, "parts", (re.numerator * (d // q), im.numerator * (d // s), d))

    @property
    def re(self) -> Fraction:
        return Fraction(self.parts[0], self.parts[2])

    @property
    def im(self) -> Fraction:
        return Fraction(self.parts[1], self.parts[2])

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
    def _try_coerce(cls, x):
        if isinstance(x, GaussRat):
            return x
        if isinstance(x, (int, Fraction)):
            return cls(x, 0)
        return None

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.parts[0] and not self.parts[1]

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        other = GaussRat._try_coerce(other)
        if other is None:
            return NotImplemented
        (a, b, d), (c, e, f) = self.parts, other.parts
        return gauss_from_parts(a * f + c * d, b * f + e * d, d * f)

    __radd__ = __add__

    def __sub__(self, other):
        other = GaussRat._try_coerce(other)
        if other is None:
            return NotImplemented
        return self + -other

    def __neg__(self):
        a, b, d = self.parts
        return gauss_from_parts(-a, -b, d)

    def __mul__(self, other):
        other = GaussRat._try_coerce(other)
        if other is None:
            return NotImplemented
        (a, b, d), (c, e, f) = self.parts, other.parts
        return gauss_from_parts(a * c - b * e, a * e + b * c, d * f)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = GaussRat._try_coerce(other)
        if other is None:
            return NotImplemented
        # (a + bi)/d / ((c + ei)/f) = (a + bi)(c - ei) f / (d (c^2 + e^2))
        (a, b, d), (c, e, f) = self.parts, other.parts
        n2 = c * c + e * e
        if not n2:
            raise ZeroDivisionError("division by zero in Q(i)")
        return gauss_from_parts((a * c + b * e) * f, (b * c - a * e) * f, d * n2)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        if n < 0:
            return GaussRat.one() / self._power(-n)
        return self._power(n)

    def conj(self) -> "GaussRat":
        """Complex conjugate; an involution."""
        a, b, d = self.parts
        return gauss_from_parts(a, -b, d)

    # -- comparison / hashing -----------------------------------------

    def __eq__(self, other):
        other = GaussRat._try_coerce(other)
        if other is None:
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return format_gauss(self)


def format_rational(x: Fraction) -> str:
    """Canonical text for a rational: ``p/q``, or ``p`` when q == 1."""
    if not isinstance(x, (int, Fraction)):
        raise TypeError(f"expected int or Fraction, got {type(x).__name__}")
    return str(Fraction(x))


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
    return gauss_from_parts(*gauss_parts(text))


def sign_of_real(x: GaussRat) -> int:
    """Sign (+1 or -1) of a nonzero real Gaussian rational.

    Raises if the value has a nonzero imaginary part or is zero; sign
    questions only make sense on the real line.
    """
    re, im, _ = x.parts
    if im:
        raise ValueError(f"sign undefined: {x!r} is not real")
    if not re:
        raise ValueError("sign undefined: value is zero")
    return 1 if re > 0 else -1
