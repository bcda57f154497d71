"""Rational functions of one parameter over Q(i), and their local germs.

A :class:`RatFunc` is a reduced fraction num/den of polynomials in t
with the denominator monic; that normal form is canonical, so equality
is structural.  The constructor normalizes any fraction; arithmetic
keeps the form with Henrici's reduced-fraction formulas (P. Henrici,
JACM 3, 1956; Knuth, TAOCP vol. 2, 4.5.1): a product cancels gcd(p, s)
and gcd(r, q) across the operands, and a sum cancels only by
gcd(p s/d + r q/d, d) with d = gcd(q, s), so coprime or trivial
denominators take no gcd of the result.  A constant factor c (a unit)
takes no gcd at all: c (r/s) = (c r)/s, and 1 (r/s) = r/s.
Localizing at a parameter value t0 gives the ring of
germs regular at t0 -- a discrete valuation ring whose maximal ideal
is generated by (t - t0).  :func:`valuation` and :func:`normalize_at`
implement the valuation and the exact uniformizer decomposition
f = (t - t0)^nu * u with u(t0) != 0.

The unit-modulus building block :func:`cayley` returns
z(t) = (1 + i s t)/(1 - i s t), which satisfies z * conj_family(z) = 1
identically, hence has unit modulus at every real parameter value.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import Poly, format_poly, parse_poly, poly_gcd
from .scalars import GaussRat, _Exact, _Record, _set

__all__ = [
    "RatFunc",
    "LocalGerm",
    "valuation",
    "normalize_at",
    "cayley",
    "conj_family",
    "uniformizer",
    "format_ratfunc",
    "parse_ratfunc",
]


class RatFunc(_Exact):
    """Element of Q(i)(t) in reduced, monic-denominator form."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = Poly.coerce(num)
        den = _P1 if den is None else Poly.coerce(den)
        if den != _P1:
            if den.is_zero():
                raise ZeroDivisionError("rational function with zero denominator")
            # a zero numerator cancels den down to a constant, then to 1
            num, den = _over_monic(*_cancel(num, den, poly_gcd(num, den)))
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def _reduced(cls, num: Poly, den: Poly) -> "RatFunc":
        # trusted constructor: num/den already in canonical form
        obj = object.__new__(cls)
        object.__setattr__(obj, "num", num)
        object.__setattr__(obj, "den", den)
        return obj

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "RatFunc":
        return cls._reduced(Poly.zero(), Poly.one())

    @classmethod
    def one(cls) -> "RatFunc":
        return cls._reduced(Poly.one(), Poly.one())

    @classmethod
    def var(cls) -> "RatFunc":
        """The coordinate function ``t``."""
        return cls._reduced(Poly.var(), Poly.one())

    @classmethod
    def _try_coerce(cls, x):
        if isinstance(x, RatFunc):
            return x
        if isinstance(x, (int, Fraction, GaussRat, Poly)):
            return cls(Poly.coerce(x))
        return None

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    # -- arithmetic ---------------------------------------------------

    def _add(self, other: "RatFunc") -> "RatFunc":
        """p/q + r/s for reduced operands with monic q and s."""
        p, q, r, s = self.num, self.den, other.num, other.den
        if q == s:
            t = p + r
            if not t:
                return RatFunc.zero()
            if q.degree > 0:
                t, q = _cancel(t, q, poly_gcd(t, q))
            return RatFunc._reduced(t, q)
        # q != s, so the sum is nonzero; a shared factor divides d = gcd(q, s)
        d = poly_gcd(q, s) if q.degree > 0 and s.degree > 0 else _P1
        if d.degree <= 0:
            return RatFunc._reduced(p * s + r * q, q * s)
        q = q // d
        t = p * (s // d) + r * q
        t, s = _cancel(t, s, poly_gcd(t, d))
        return RatFunc._reduced(t, q * s)

    def __neg__(self):
        return RatFunc._reduced(-self.num, self.den)

    def _mul(self, other: "RatFunc") -> "RatFunc":
        return _product(self.num, self.den, other.num, other.den)

    def _div(self, other: "RatFunc") -> "RatFunc":
        if other.is_zero():
            raise ZeroDivisionError("division by the zero function")
        return _product(self.num, self.den, *_over_monic(other.den, other.num))

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        if n < 0:
            if self.is_zero():
                raise ZeroDivisionError("negative power of the zero function")
            return (RatFunc.one() / self)._power(-n)
        return self._power(n)

    def conj(self) -> "RatFunc":
        """Coefficientwise Gaussian conjugation, t fixed; an involution."""
        if not any(self.num.im) and not any(self.den.im):
            return self
        # den is monic and stays monic under conjugation, and the
        # fraction stays reduced, so no renormalization is needed.
        return RatFunc._reduced(self.num.conj(), self.den.conj())

    # -- evaluation and local structure --------------------------------

    def evaluate(self, t0) -> GaussRat:
        t0 = GaussRat.coerce(t0)
        d = self.den.evaluate(t0)
        if d.is_zero():
            raise ZeroDivisionError(f"pole at t = {t0!r}")
        return self.num.evaluate(t0) / d

    def valuation(self, t0) -> int:
        """Order of zero (positive) or pole (negative) at t0."""
        if self.is_zero():
            raise ValueError("valuation of zero undefined")
        return self.num.valuation_at(t0) - self.den.valuation_at(t0)

    def is_regular_at(self, t0) -> bool:
        """True when the reduced denominator does not vanish at t0."""
        return self.den.degree == 0 or any(self.den.value_parts(t0)[:2])

    # -- comparison / hashing -----------------------------------------

    def __eq__(self, other):
        other = RatFunc._try_coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):  # over 1, as the polynomial it equals
        return hash(self.num) if self.den.degree == 0 else hash((self.num, self.den))

    def __repr__(self):
        return format_ratfunc(self)


_P1 = Poly.one()


def _over_monic(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """num/den with both divided by the leading coefficient of den."""
    if den._is_monic():
        return num, den
    inv = den.lead_inverse()
    return num * inv, den * inv


def _cancel(a: Poly, b: Poly, g: Poly) -> tuple[Poly, Poly]:
    """a/g and b/g for a monic common divisor g."""
    return (a // g, b // g) if g.degree > 0 else (a, b)


def _product(p: Poly, q: Poly, r: Poly, s: Poly) -> RatFunc:
    """(p/q)(r/s) for reduced operands with monic q and s."""
    if not p or not r:
        return RatFunc.zero()
    if len(q.re) == 1 == len(p.re):  # p/q = c, a unit: no gcd
        return RatFunc._reduced(r if p == _P1 else p * r, s)
    if len(s.re) == 1 == len(r.re):
        return RatFunc._reduced(p if r == _P1 else p * r, q)
    if s.degree > 0:
        p, s = _cancel(p, s, poly_gcd(p, s))
    if q.degree > 0:
        r, q = _cancel(r, q, poly_gcd(r, q))
    return RatFunc._reduced(p * r, q * s)


def valuation(f: RatFunc, t0) -> int:
    """(t - t0)-adic valuation of a nonzero rational function."""
    return RatFunc.coerce(f).valuation(t0)


def uniformizer(t0) -> RatFunc:
    """The generator (t - t0) of the maximal ideal at t0."""
    t0 = GaussRat.coerce(t0)
    return RatFunc(Poly([-t0, GaussRat.one()]))


def normalize_at(f: RatFunc, t0) -> tuple[int, RatFunc]:
    """Exact decomposition f = (t - t0)^nu * u with u(t0) != 0.

    Returns (nu, u); multiplying back reproduces f bit-exactly.
    """
    f = RatFunc.coerce(f)
    if f.is_zero():
        raise ValueError("valuation of zero undefined")
    t0 = GaussRat.coerce(t0)
    linear = Poly([-t0, GaussRat.one()])
    a = f.num.valuation_at(t0)
    b = f.den.valuation_at(t0)
    num = f.num // linear**a if a else f.num
    den = f.den // linear**b if b else f.den
    return a - b, RatFunc._reduced(num, den)


def conj_family(f: RatFunc) -> RatFunc:
    """Coefficientwise conjugation of a family value (t treated as real)."""
    return RatFunc.coerce(f).conj()


def cayley(speed=1) -> RatFunc:
    """Unit-modulus monodromy value z(t) = (1 + i s t)/(1 - i s t).

    For every real rational t the value has modulus one exactly:
    z * conj_family(z) = 1 as an identity in Q(i)(t).  ``speed``
    rescales the parameter (z of s*t), which is how independent
    circle factors of a family are detuned from each other.
    """
    s = GaussRat.coerce(speed)
    ii = GaussRat.i()
    num = Poly([GaussRat.one(), ii * s])
    den = Poly([GaussRat.one(), -ii * s])
    return RatFunc(num, den)


class LocalGerm(_Record):
    """A rational function together with a center where it is regular.

    Membership in the local ring at ``center`` is validated: the
    reduced denominator must not vanish there.
    """

    __slots__ = ("value", "center")

    def __init__(self, value: RatFunc, center: GaussRat):
        _set(self, "value", RatFunc.coerce(value))
        _set(self, "center", GaussRat.coerce(center))
        if not self.value.is_regular_at(self.center):
            raise ValueError(
                f"not a germ at t = {self.center!r}: denominator vanishes"
            )

    def valuation(self) -> int:
        """Order of vanishing at the center (non-negative)."""
        if self.value.is_zero():
            raise ValueError("valuation of zero undefined")
        return self.value.valuation(self.center)

    def evaluate(self) -> GaussRat:
        return self.value.evaluate(self.center)


def format_ratfunc(f: RatFunc) -> str:
    """Canonical text ``num/den``, with ``/den`` omitted when den == 1."""
    if f.den == Poly.one():
        return format_poly(f.num)
    return f"{format_poly(f.num)}/{format_poly(f.den)}"


def parse_ratfunc(text: str) -> RatFunc:
    """Inverse of :func:`format_ratfunc`; tolerates interior spaces.  A
    polynomial literal holds no bracket, so the first ``]`` ends num."""
    num, bracket, den = text.strip().partition("]")
    num += bracket
    den = den.lstrip()
    if not den:
        return RatFunc(parse_poly(num))
    if not den.startswith("/"):
        raise ValueError(f"bad rational-function literal {text!r}")
    return RatFunc(parse_poly(num), parse_poly(den[1:]))
