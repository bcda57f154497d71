"""Dense univariate polynomials over the Gaussian rationals.

A polynomial c0 + c1*t + ... + cn*t^n is the coefficient tuple
(c0, c1, ..., cn) with nonzero leading coefficient; the empty tuple is
the zero polynomial.  The parameter is called ``t`` throughout.

Coefficients live in Q(i), so division is exact and gcds are
normalized monic; two equal polynomials are structurally identical.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import GaussRat, format_gauss, parse_gauss

__all__ = ["Poly", "poly_gcd", "format_poly", "parse_poly"]


def _coerce_coeff(c) -> GaussRat:
    return GaussRat.coerce(c)


class Poly:
    """Polynomial in ``t`` with GaussRat coefficients.  Immutable."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_coerce_coeff(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return cls(())

    @classmethod
    def one(cls) -> "Poly":
        return cls((GaussRat.one(),))

    @classmethod
    def var(cls) -> "Poly":
        """The polynomial ``t``."""
        return cls((GaussRat.zero(), GaussRat.one()))

    @classmethod
    def constant(cls, c) -> "Poly":
        return cls((GaussRat.coerce(c),))

    @classmethod
    def coerce(cls, x) -> "Poly":
        out = cls._try_coerce(x)
        if out is None:
            raise TypeError(f"cannot coerce {type(x).__name__} to Poly")
        return out

    @classmethod
    def _try_coerce(cls, x):
        if isinstance(x, Poly):
            return x
        if isinstance(x, (int, Fraction, GaussRat)):
            return cls.constant(x)
        return None

    # -- structure ----------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def leading(self) -> GaussRat:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int) -> GaussRat:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else GaussRat.zero()

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        other = Poly._try_coerce(other)
        if other is None:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self.coeff(k) + other.coeff(k) for k in range(n)])

    __radd__ = __add__

    def __sub__(self, other):
        other = Poly._try_coerce(other)
        if other is None:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self.coeff(k) - other.coeff(k) for k in range(n)])

    def __rsub__(self, other):
        other = Poly._try_coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussRat)):
            c = GaussRat.coerce(other)
            return Poly([a * c for a in self.coeffs])
        other = Poly._try_coerce(other)
        if other is None:
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return Poly.zero()
        out = [GaussRat.zero()] * (len(self.coeffs) + len(other.coeffs) - 1)
        for j, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for k, b in enumerate(other.coeffs):
                out[j + k] = out[j + k] + a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial exponent must be a non-negative integer")
        result = Poly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other):
        other = Poly.coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly.zero(), self
        quot = [GaussRat.zero()] * (dq + 1)
        lead = other.leading()
        for k in range(dq, -1, -1):
            top = rem[k + other.degree]
            if top.is_zero():
                continue
            q = top / lead
            quot[k] = q
            for j, b in enumerate(other.coeffs):
                rem[k + j] = rem[k + j] - q * b
        return Poly(quot), Poly(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        if self.is_zero():
            raise ValueError("zero polynomial cannot be made monic")
        lead = self.leading()
        return Poly([c / lead for c in self.coeffs])

    def conj(self) -> "Poly":
        """Coefficientwise Gaussian conjugation (t is fixed)."""
        return Poly([c.conj() for c in self.coeffs])

    # -- evaluation ---------------------------------------------------

    def evaluate(self, x) -> GaussRat:
        x = GaussRat.coerce(x)
        acc = GaussRat.zero()
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def valuation_at(self, t0) -> int:
        """Multiplicity of ``t0`` as a root (0 when not a root).

        Undefined for the zero polynomial.
        """
        if self.is_zero():
            raise ValueError("valuation of zero undefined")
        t0 = GaussRat.coerce(t0)
        linear = Poly([-t0, GaussRat.one()])
        mult = 0
        current = self
        while True:
            q, r = divmod(current, linear)
            if not r.is_zero():
                return mult
            mult += 1
            current = q

    # -- comparison / hashing -----------------------------------------

    def __eq__(self, other):
        other = Poly._try_coerce(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return format_poly(self)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over Q(i)[t]; gcd(0, 0) = 0.

    Remainders are renormalized monic at each step, which keeps the
    coefficients in canonical reduced form.  A nonzero monomial c t^m
    skips the loop: the gcd is t^min(m, ord_0 y), y the other argument.
    """
    for m, y in ((a, b), (b, a)):
        if m.coeffs and all(c.is_zero() for c in m.coeffs[:-1]):
            k = next((k for k, c in enumerate(y.coeffs) if not c.is_zero()), m.degree)
            return Poly([GaussRat.zero()] * min(k, m.degree) + [GaussRat.one()])
    while not b.is_zero():
        a, b = b, (a % b)
        if not b.is_zero():
            b = b.monic()
    return a.monic() if not a.is_zero() else a


def format_poly(p: Poly) -> str:
    """Bracketed ascending coefficient list, e.g. ``[1,0,-i]``."""
    if p.is_zero():
        return "[0]"
    return "[" + ",".join(format_gauss(c) for c in p.coeffs) + "]"


def parse_poly(text: str) -> Poly:
    """Inverse of :func:`format_poly`; tolerates interior spaces."""
    s = text.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise ValueError(f"bad polynomial literal {text!r}")
    inner = s[1:-1].strip()
    if not inner:
        return Poly.zero()
    return Poly([parse_gauss(tok) for tok in inner.split(",")])
