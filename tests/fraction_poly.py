"""The Fraction-pair references for ``torsionfam.scalars`` and ``torsionfam.poly``.

``FractionGauss`` is the representation ``GaussRat`` had before it
moved onto one integer triple (re, im, den): a pair of
``fractions.Fraction`` values, with every operation written on the two
parts.  ``FractionPoly`` is the representation ``Poly`` had before it
moved onto Gaussian integers over a common denominator: a tuple of
``FractionGauss`` coefficients, with every kernel written coefficient
by coefficient.  Both read a ``GaussRat`` operand through its ``re``
and ``im``, so the tests can feed them the package's values, and
compare equal to a ``GaussRat`` of the same value.
``tests/test_poly.py`` and ``tests/test_scalars.py`` compare them
with the package on seeded corpora; nothing in the package imports
this module.
"""

from __future__ import annotations

from fractions import Fraction

from torsionfam.scalars import GaussRat, format_gauss


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class FractionGauss:
    """An element of Q(i) as two Fractions.  Immutable and hashable."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _as_fraction(re))
        object.__setattr__(self, "im", _as_fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("FractionGauss is immutable")

    @classmethod
    def zero(cls) -> "FractionGauss":
        return cls(0, 0)

    @classmethod
    def one(cls) -> "FractionGauss":
        return cls(1, 0)

    @classmethod
    def coerce(cls, x) -> "FractionGauss":
        out = cls._try_coerce(x)
        if out is None:
            raise TypeError(f"cannot coerce {type(x).__name__} to FractionGauss")
        return out

    @classmethod
    def _try_coerce(cls, x):
        if isinstance(x, FractionGauss):
            return x
        if isinstance(x, GaussRat):
            return cls(x.re, x.im)
        if isinstance(x, (int, Fraction)):
            return cls(x, 0)
        return None

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __add__(self, other):
        other = FractionGauss._try_coerce(other)
        if other is None:
            return NotImplemented
        return FractionGauss(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = FractionGauss._try_coerce(other)
        if other is None:
            return NotImplemented
        return FractionGauss(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = FractionGauss._try_coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return FractionGauss(-self.re, -self.im)

    def __mul__(self, other):
        other = FractionGauss._try_coerce(other)
        if other is None:
            return NotImplemented
        return FractionGauss(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = FractionGauss._try_coerce(other)
        if other is None:
            return NotImplemented
        n2 = other.re * other.re + other.im * other.im
        if not n2:
            raise ZeroDivisionError("division by zero in Q(i)")
        return FractionGauss(
            (self.re * other.re + self.im * other.im) / n2,
            (self.im * other.re - self.re * other.im) / n2,
        )

    def __rtruediv__(self, other):
        other = FractionGauss._try_coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        if n < 0:
            return FractionGauss.one() / self ** (-n)
        result = FractionGauss.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conj(self) -> "FractionGauss":
        return FractionGauss(self.re, -self.im)

    def __eq__(self, other):
        other = FractionGauss._try_coerce(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return format_gauss(self)


class FractionPoly:
    """Polynomial in ``t`` with FractionGauss coefficients.  Immutable."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [FractionGauss.coerce(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("FractionPoly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "FractionPoly":
        return cls(())

    @classmethod
    def one(cls) -> "FractionPoly":
        return cls((FractionGauss.one(),))

    @classmethod
    def var(cls) -> "FractionPoly":
        """The polynomial ``t``."""
        return cls((FractionGauss.zero(), FractionGauss.one()))

    @classmethod
    def constant(cls, c) -> "FractionPoly":
        return cls((FractionGauss.coerce(c),))

    @classmethod
    def coerce(cls, x) -> "FractionPoly":
        out = cls._try_coerce(x)
        if out is None:
            raise TypeError(f"cannot coerce {type(x).__name__} to FractionPoly")
        return out

    @classmethod
    def _try_coerce(cls, x):
        if isinstance(x, FractionPoly):
            return x
        if isinstance(x, (int, Fraction, FractionGauss, GaussRat)):
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

    def leading(self) -> FractionGauss:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int) -> FractionGauss:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else FractionGauss.zero()

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        other = FractionPoly._try_coerce(other)
        if other is None:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return FractionPoly([self.coeff(k) + other.coeff(k) for k in range(n)])

    __radd__ = __add__

    def __sub__(self, other):
        other = FractionPoly._try_coerce(other)
        if other is None:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return FractionPoly([self.coeff(k) - other.coeff(k) for k in range(n)])

    def __rsub__(self, other):
        other = FractionPoly._try_coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return FractionPoly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, FractionGauss, GaussRat)):
            c = FractionGauss.coerce(other)
            return FractionPoly([a * c for a in self.coeffs])
        other = FractionPoly._try_coerce(other)
        if other is None:
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return FractionPoly.zero()
        out = [FractionGauss.zero()] * (len(self.coeffs) + len(other.coeffs) - 1)
        for j, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for k, b in enumerate(other.coeffs):
                out[j + k] = out[j + k] + a * b
        return FractionPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial exponent must be a non-negative integer")
        result = FractionPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other):
        other = FractionPoly.coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return FractionPoly.zero(), self
        quot = [FractionGauss.zero()] * (dq + 1)
        lead = other.leading()
        for k in range(dq, -1, -1):
            top = rem[k + other.degree]
            if top.is_zero():
                continue
            q = top / lead
            quot[k] = q
            for j, b in enumerate(other.coeffs):
                rem[k + j] = rem[k + j] - q * b
        return FractionPoly(quot), FractionPoly(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self) -> "FractionPoly":
        if self.is_zero():
            raise ValueError("zero polynomial cannot be made monic")
        lead = self.leading()
        return FractionPoly([c / lead for c in self.coeffs])

    def conj(self) -> "FractionPoly":
        """Coefficientwise Gaussian conjugation (t is fixed)."""
        return FractionPoly([c.conj() for c in self.coeffs])

    # -- evaluation ---------------------------------------------------

    def evaluate(self, x) -> FractionGauss:
        x = FractionGauss.coerce(x)
        acc = FractionGauss.zero()
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def valuation_at(self, t0) -> int:
        """Multiplicity of ``t0`` as a root (0 when not a root).

        Undefined for the zero polynomial.
        """
        if self.is_zero():
            raise ValueError("valuation of zero undefined")
        t0 = FractionGauss.coerce(t0)
        linear = FractionPoly([-t0, FractionGauss.one()])
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
        other = FractionPoly._try_coerce(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"FractionPoly({list(self.coeffs)!r})"


def fraction_poly_gcd(a: FractionPoly, b: FractionPoly) -> FractionPoly:
    """Monic gcd over Q(i)[t]; gcd(0, 0) = 0.

    Remainders are renormalized monic at each step, which keeps the
    coefficients in canonical reduced form.  A nonzero monomial c t^m
    skips the loop: the gcd is t^min(m, ord_0 y), y the other argument.
    """
    for m, y in ((a, b), (b, a)):
        if m.coeffs and all(c.is_zero() for c in m.coeffs[:-1]):
            k = next((k for k, c in enumerate(y.coeffs) if not c.is_zero()), m.degree)
            return FractionPoly([FractionGauss.zero()] * min(k, m.degree) + [FractionGauss.one()])
    while not b.is_zero():
        a, b = b, (a % b)
        if not b.is_zero():
            b = b.monic()
    return a.monic() if not a.is_zero() else a
