"""Dense univariate polynomials over the Gaussian rationals.

A polynomial (a0 + a1*t + ... + an*t^n) / d is stored as Gaussian-integer
numerators a_k over one integer denominator d > 0: the tuples ``re``
and ``im`` hold the real and imaginary parts of a0, ..., an, and
``den`` holds d.  The form is canonical: a_n != 0, and d shares no
factor with every part of every a_k (gcd(d, re, im) = 1).  The zero
polynomial is the empty vector over 1.  Two equal polynomials
therefore have equal fields, and equality and hashing compare them.
The parameter is called ``t`` throughout.

Every kernel works on plain Python integers (Knuth, TAOCP vol. 2,
4.6.1): a product is an integer convolution, a sum works over the lcm
of the two denominators, division divides once by the monic associate
of the divisor without fractions and reduces once, and evaluation is a
homogeneous Horner pass.  A ``GaussRat`` holds the same convention for
one number, so ``coeffs``, ``coeff`` and ``evaluate`` hand out
(re, im, den) in lowest terms, and a point t0 is read as its triple.

Coefficients live in Q(i), so division is exact and gcds are
normalized monic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .scalars import GaussRat, _Exact, _parts, format_gauss, gauss_from_parts, gauss_parts

__all__ = ["Poly", "poly_gcd", "format_poly", "parse_poly"]

_set = object.__setattr__


def _raw(re: tuple, im: tuple, den: int) -> "Poly":
    """Trusted constructor: the fields are already canonical."""
    p = object.__new__(Poly)
    _set(p, "re", re)
    _set(p, "im", im)
    _set(p, "den", den)
    return p


def _make(re: list, im: list, den: int) -> "Poly":
    """Canonical polynomial from numerator lists and a denominator > 0."""
    n = len(re)
    while n and not re[n - 1] and not im[n - 1]:
        n -= 1
    if not n:
        return _ZERO
    if n < len(re):
        del re[n:], im[n:]
    if den != 1:
        g = gcd(den, *re, *im)
        if g != 1:
            den //= g
            re = [x // g for x in re]
            im = [y // g for y in im]
    return _raw(tuple(re), tuple(im), den)


def _from_parts(parts: list) -> "Poly":
    """Canonical polynomial from coefficient triples (re, im, d), d > 0."""
    den = lcm(*(d for _, _, d in parts))
    re = [x * (den // d) for x, _, d in parts]
    im = [y * (den // d) for _, y, d in parts]
    return _make(re, im, den)


def _scaled(re, im, den: int, cr: int, ci: int, cd: int) -> "Poly":
    """The polynomial (re + im*i)/den times the scalar (cr + ci*i)/cd."""
    if not ci:
        return _make([x * cr for x in re], [y * cr for y in im], den * cd)
    return _make(
        [x * cr - y * ci for x, y in zip(re, im)],
        [x * ci + y * cr for x, y in zip(re, im)],
        den * cd,
    )


class Poly(_Exact):
    """Polynomial in ``t`` with Gaussian-rational coefficients.  Immutable."""

    __slots__ = ("re", "im", "den")

    def __init__(self, coeffs=()):
        p = _from_parts([_parts(c) for c in coeffs])
        _set(self, "re", p.re)
        _set(self, "im", p.im)
        _set(self, "den", p.den)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return _ZERO

    @classmethod
    def one(cls) -> "Poly":
        return _ONE

    @classmethod
    def var(cls) -> "Poly":
        """The polynomial ``t``."""
        return _VAR

    @classmethod
    def constant(cls, c) -> "Poly":
        x, y, d = _parts(c)
        return _make([x], [y], d)

    @classmethod
    def _try_coerce(cls, x):
        if isinstance(x, Poly):
            return x
        if isinstance(x, (int, Fraction, GaussRat)):
            return cls.constant(x)
        return None

    # -- structure ----------------------------------------------------

    @property
    def coeffs(self) -> tuple[GaussRat, ...]:
        """The coefficients c0, ..., cn as GaussRat values."""
        d = self.den
        return tuple(gauss_from_parts(x, y, d) for x, y in zip(self.re, self.im))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.re) - 1

    def is_zero(self) -> bool:
        return not self.re

    def __bool__(self) -> bool:  # tested in the inner loops of _product, _sum, poly_gcd
        return bool(self.re)

    def leading(self) -> GaussRat:
        if not self.re:
            raise ValueError("zero polynomial has no leading coefficient")
        return gauss_from_parts(self.re[-1], self.im[-1], self.den)

    def lead_inverse(self) -> GaussRat:
        """1 / leading() = den * conj(L) / N(L), with L = re[-1] + im[-1]*i."""
        if not self.re:
            raise ValueError("zero polynomial has no leading coefficient")
        lr, li = self.re[-1], self.im[-1]
        return gauss_from_parts(self.den * lr, -self.den * li, lr * lr + li * li)

    def coeff(self, k: int) -> GaussRat:
        if 0 <= k < len(self.re):
            return gauss_from_parts(self.re[k], self.im[k], self.den)
        return GaussRat.zero()

    def _is_monic(self) -> bool:
        return bool(self.re) and self.re[-1] == self.den and not self.im[-1]

    # -- arithmetic ---------------------------------------------------

    def _add(self, other: "Poly", sign: int) -> "Poly":
        da, db = self.den, other.den
        if da == db:
            fa, fb, den = 1, sign, da
        else:
            g = gcd(da, db)
            fa, fb = db // g, sign * (da // g)
            den = da * (db // g)
        re, im = self.re, self.im
        re = list(re) if fa == 1 else [x * fa for x in re]
        im = list(im) if fa == 1 else [y * fa for y in im]
        extra = len(other.re) - len(re)
        if extra > 0:
            re += [0] * extra
            im += [0] * extra
        for k, (x, y) in enumerate(zip(other.re, other.im)):
            re[k] += fb * x
            im[k] += fb * y
        return _make(re, im, den)

    def __add__(self, other):
        other = Poly._try_coerce(other)
        if other is None:
            return NotImplemented
        return self._add(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        other = Poly._try_coerce(other)
        if other is None:
            return NotImplemented
        return self._add(other, -1)

    def __neg__(self):
        return _raw(
            tuple(-x for x in self.re), tuple(-y for y in self.im), self.den
        )

    def __mul__(self, other):
        if not isinstance(other, Poly):
            if not isinstance(other, (GaussRat, int, Fraction)):
                return NotImplemented
            return _scaled(self.re, self.im, self.den, *_parts(other))
        ar, ai, br, bi = self.re, self.im, other.re, other.im
        if not ar or not br:
            return _ZERO
        nb = len(br)
        re = [0] * (len(ar) + nb - 1)
        im = re[:]
        for j, (x, y) in enumerate(zip(ar, ai)):
            if y:
                for k in range(nb):
                    u, v = br[k], bi[k]
                    re[j + k] += x * u - y * v
                    im[j + k] += x * v + y * u
            elif x:
                for k in range(nb):
                    re[j + k] += x * br[k]
                    im[j + k] += x * bi[k]
        return _make(re, im, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial exponent must be a non-negative integer")
        return self._power(n)

    def _divide(self, other, want_quotient: bool):
        """Quotient (or None) and remainder of division by ``other``.

        Divides the numerators A of ``self`` by the monic associate M/N
        of ``other`` (M Gaussian integers with leading entry N) without
        fractions: each step scales the running remainder R and
        quotient Q by N and keeps E * A = Q * M + R, E the product of
        the scalings.  Both are reduced once at the end.
        """
        other = Poly.coerce(other)
        if not other.re:
            raise ZeroDivisionError("polynomial division by zero")
        m = len(other.re) - 1
        dq = len(self.re) - 1 - m
        if dq < 0:
            return (_ZERO if want_quotient else None), self
        monic = other.monic()
        mr, mi, n = monic.re, monic.im, monic.den
        rr, ri = list(self.re), list(self.im)
        qr, qi = [], []  # quotient numerators, top degree first
        scale = 1
        for k in range(dq, -1, -1):
            tr, ti = rr.pop(), ri.pop()
            if not tr and not ti:
                if want_quotient:
                    qr.append(0)
                    qi.append(0)
                continue
            if n != 1:
                rr = [n * x for x in rr]
                ri = [n * y for y in ri]
                if want_quotient:
                    qr = [n * x for x in qr]
                    qi = [n * y for y in qi]
                scale *= n
            if want_quotient:
                qr.append(tr)
                qi.append(ti)
            if ti:
                for j in range(m):
                    u, v = mr[j], mi[j]
                    rr[k + j] -= tr * u - ti * v
                    ri[k + j] -= tr * v + ti * u
            else:
                for j in range(m):
                    rr[k + j] -= tr * mr[j]
                    ri[k + j] -= tr * mi[j]
        den = scale * self.den
        rem = _make(rr, ri, den)
        if not want_quotient:
            return None, rem
        # A = (Q * N / E) * (M / N) + R / E, and M / N = other / lead
        qr.reverse()
        qi.reverse()
        ur, ui, ud = (1, 0, 1) if monic is other else other.lead_inverse().parts
        return _scaled(qr, qi, den, n * ur, n * ui, ud), rem

    def __divmod__(self, other):
        return self._divide(other, True)

    def __floordiv__(self, other):
        return self._divide(other, True)[0]

    def __mod__(self, other):
        return self._divide(other, False)[1]

    def monic(self) -> "Poly":
        if not self.re:
            raise ValueError("zero polynomial cannot be made monic")
        if self._is_monic():
            return self
        return _scaled(self.re, self.im, self.den, *self.lead_inverse().parts)

    def conj(self) -> "Poly":
        """Coefficientwise Gaussian conjugation (t is fixed)."""
        return _raw(self.re, tuple(-y for y in self.im), self.den)

    # -- evaluation ---------------------------------------------------

    def evaluate(self, x) -> GaussRat:
        """Value at x as a GaussRat."""
        return gauss_from_parts(*self.value_parts(x))

    def value_parts(self, x) -> tuple[int, int, int]:
        """Unreduced value at x = z/q: sum a_k z^k q^(n-k) over q^n * den,
        as integers (re, im, d) with d > 0, by one homogeneous Horner pass."""
        zr, zi, q = _parts(x)
        re, im = self.re, self.im
        if not re:
            return 0, 0, 1
        ar, ai = re[-1], im[-1]
        qk = 1
        for k in range(len(re) - 2, -1, -1):
            qk *= q
            ar, ai = ar * zr - ai * zi + re[k] * qk, ar * zi + ai * zr + im[k] * qk
        return ar, ai, qk * self.den

    def valuation_at(self, t0) -> int:
        """Multiplicity of ``t0`` as a root (0 when not a root).

        Undefined for the zero polynomial.  With t0 = z/q the roots
        are those of P(s) = q^n * p(s/q) at s = z, a polynomial over
        Z[i]; synthetic division by the monic (s - z) stays in Z[i] and
        stops at the first nonzero remainder.
        """
        re, im = self.re, self.im
        if not re:
            raise ValueError("valuation of zero undefined")
        zr, zi, q = _parts(t0)
        if not zr and not zi:
            k = 0
            while not re[k] and not im[k]:
                k += 1
            return k
        if q != 1:
            n = len(re) - 1
            pows = [q ** (n - k) for k in range(n + 1)]
            re = [x * p for x, p in zip(re, pows)]
            im = [y * p for y, p in zip(im, pows)]
        mult = 0
        while len(re) > 1:
            br, bi = re[-1], im[-1]
            qr, qi = [br], [bi]
            for k in range(len(re) - 2, -1, -1):
                br, bi = re[k] + br * zr - bi * zi, im[k] + br * zi + bi * zr
                qr.append(br)
                qi.append(bi)
            if br or bi:
                return mult
            mult += 1
            qr.pop()
            qi.pop()
            qr.reverse()
            qi.reverse()
            re, im = qr, qi
        return mult

    # -- comparison / hashing -----------------------------------------

    def __eq__(self, other):
        other = Poly._try_coerce(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im and self.den == other.den

    def __hash__(self):
        return hash((self.re, self.im, self.den))

    def __repr__(self):
        return format_poly(self)


_ZERO = _raw((), (), 1)
_ONE = _raw((1,), (0,), 1)
_VAR = _raw((0, 1), (0, 0), 1)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over Q(i)[t]; gcd(0, 0) = 0.

    Remainders are renormalized monic at each step, which keeps the
    coefficients in canonical reduced form.  A nonzero monomial c t^m
    skips the loop: the gcd is t^min(m, ord_0 y), y the other argument.
    """
    for m, y in ((a, b), (b, a)):
        if m.re and not any(m.re[:-1]) and not any(m.im[:-1]):
            k = next((k for k, c in enumerate(zip(y.re, y.im)) if any(c)), m.degree)
            k = min(k, m.degree)
            return _raw((0,) * k + (1,), (0,) * (k + 1), 1)
    while b:
        a, b = b, (a % b)
        if b:
            b = b.monic()
    return a.monic() if a else a


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
    return _from_parts([gauss_parts(tok) for tok in inner.split(",")])
