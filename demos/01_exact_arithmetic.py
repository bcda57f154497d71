"""A stroll through the exact scalar tower.

Everything in torsionfam is computed over Q(i) and its rational
function field in one parameter t, with no floating point anywhere.
This script shows the arithmetic, the unit-modulus Cayley family, and
the valuation machinery of the local ring at a parameter value.
"""

from fractions import Fraction

from torsionfam import (
    GaussRat,
    LocalGerm,
    RatFunc,
    cayley,
    conj_family,
    normalize_at,
    parse_gauss,
    uniformizer,
    valuation,
)

# Gaussian rationals are exact: (re + im i)/den on integers in lowest terms.
a = GaussRat(Fraction(1, 2), Fraction(3, 4))
b = parse_gauss("2-i")
print("a           =", a)
print("b           =", b)
print("a * b       =", a * b)
print("a / b       =", a / b)
print("conj(a) * a =", a.conj() * a, " (the squared modulus, a real rational)")

# The coordinate function t and friends.
t = RatFunc.var()
f = (t - 1) / (t * t + 1)
print("\nf(t)        =", f)
print("f(2)        =", f.evaluate(2))

# The Cayley value z(t) = (1+it)/(1-it) has unit modulus for real t,
# as an exact identity in the function field, not just numerically.
z = cayley()
print("\nz(t)        =", z)
print("z(0), z(1)  =", z.evaluate(0), ",", z.evaluate(1))
print("z * conj(z) =", z * conj_family(z))

# Localize at t0 = 0: the order of vanishing is the valuation, and
# every nonzero function factors exactly as (t - t0)^nu * unit.
g = z - 1
print("\ng = z - 1   =", g)
print("valuation of g at 0:", valuation(g, 0))
nu, unit = normalize_at(g, 0)
print("g = (t - 0)^%d * (%s)" % (nu, unit))
assert unit * uniformizer(0) ** nu == g  # reconstruction is bit-exact

# Germs at a center validate membership in the local ring.
germ = LocalGerm(g, GaussRat.zero())
print("germ valuation:", germ.valuation())
try:
    LocalGerm(1 / g, GaussRat.zero())
except ValueError as err:
    print("1/g is not a germ at 0:", err)
