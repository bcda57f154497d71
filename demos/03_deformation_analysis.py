"""Local analysis at a degeneration point.

At a parameter value where the family loses acyclicity, the homology
of the localized complex is a torsion module over the local ring.
Its dimensions, the Euler number, and the valuation of the torsion
function tell one coherent story: nu = chi, and the parity of nu is
the parity of the middle torsion dimension, which is what makes the
torsion's sign flip decidable from homology alone.
"""

from fractions import Fraction

from torsionfam import (
    GaussRat,
    Matrix,
    RatFunc,
    analyze,
    euler_number,
    singularity_exponent,
    snf_local,
    torsion,
    torsion_modules,
)
from torsionfam.complexes import torsion_sign_at
from torsionfam.corpus import torus3_family

t = RatFunc.var()

# Elementary divisors over the local ring at 0.
m = Matrix([[t, 1 + t], [t * t, t]]).map(RatFunc.coerce)
profile = snf_local(m, 0)
print("divisor valuations:", profile.valuations, " free rank:", profile.free_rank)

# The 3-torus with the rank-1 family (cayley 1, cayley 2, cayley 3):
# all three factors vanish at t = 0.
fam = torus3_family()
dims = torsion_modules(fam.complex, 0)
print("\n3-torus torsion dimensions by degree:", dims.dims)
print("Euler number:", euler_number(dims))
print("singularity exponent:", singularity_exponent(fam.complex, 0))

report = analyze(fam.complex, 0, duality=list(fam.pairing))
print("nu == chi cross-check passed:", report.nu == report.chi)
print("duality of dimensions:", report.duality_ok)
print("middle parity:", report.middle_dim_parity, "-> sign flip:", report.sign_flip)

# A family with an honest sign flip: a real middle block vanishing to
# first order at t = 1.
from torsionfam.corpus import hermitian_middle

block, pairing = hermitian_middle(3, Matrix([[t - 1]]).map(RatFunc.coerce))
rep = analyze(block, GaussRat(1), duality=pairing)
print("\nmiddle block at t0 = 1: nu =", rep.nu, " sign_flip =", rep.sign_flip)
left = torsion_sign_at(block, GaussRat(Fraction(999, 1000)))
right = torsion_sign_at(block, GaussRat(Fraction(1001, 1000)))
print("torsion sign left/right of the center:", left, "/", right)
assert left * right == (-1) ** rep.nu
print("the sign-flip law checks out")
