"""Eta-invariant bookkeeping and the ray invariance check.

Eta values are external inputs (they depend on a Riemannian metric the
algebra never sees); what the ledger verifies is pure arithmetic: jumps
are twice the odd signature sum, the value at a jump point is the
interval average minus the even signature sum, and the combined ray
sign(torsion) * exp(i pi eta / 2) never moves.
"""

from fractions import Fraction

from torsionfam import (
    ArgPairing,
    EtaProfile,
    GaussRat,
    JumpRecord,
    analyze,
    arg_pairing_value,
    eta_at_jump,
    eta_jump,
    hat_eta,
    orientation_reversal_sign,
    profile_from_reports,
    ray_invariant_check,
    semi_characteristic,
    signs_from_reports,
)
from torsionfam.corpus import bundled_direct_sum

# Jump formulas.
rec = JumpRecord(Fraction(0), sigma_odd=1, sigma_even=1)
print("jump of eta across the point:", eta_jump(rec), "(always even)")
print("eta at the jump from limits 3 and 1:", eta_at_jump(3, 1, rec.sigma_even))

# The argument pairing against an even L-vector is defined mod 2.
pairing = ArgPairing((Fraction(1, 4), Fraction(1, 3)), (2, 6))
print("\nargument pairing value:", arg_pairing_value(pairing), "(mod 2)")
print("hat-eta of 1/2:", hat_eta(Fraction(1, 2), pairing), "(mod 4)")

# A hand-written profile: eta starts at 1/2, jumps by 2 at t=0 (odd
# signature) and by 4 at t=1 (even signature).  The torsion sign must
# flip exactly at the odd jump.
profile = EtaProfile(
    dimension_class=3,
    base_value=Fraction(1, 2),
    jumps=(JumpRecord(Fraction(0), 1), JumpRecord(Fraction(1), 2)),
)
good = [1, -1, -1]
bad = [1, 1, -1]
print("\nlaw-abiding signs:", ray_invariant_check(profile, good).passed)
verdict = ray_invariant_check(profile, bad)
print("broken signs fail at interval:", verdict.failing_interval)

# Ledgers synthesized from an actual family: analyze the bundled
# direct sum at its three centers and let the reports dictate the
# ledger and the signs.
fam = bundled_direct_sum()
reports = [analyze(fam.complex, GaussRat(c), duality=list(fam.pairing))
           for c in fam.centers]
synth = profile_from_reports(reports, dimension_class=3, base_value=Fraction(1, 2))
signs = signs_from_reports(reports)
print("\nsynthesized signs:", signs)
print("ray invariance:", ray_invariant_check(synth, signs).passed)

# Orientation bookkeeping: the torsion picks up (-1)^(rank * schi)
# under orientation reversal.
schi = semi_characteristic([1, 3, 3, 1])  # the 3-torus
print("\nsemi-characteristic of the 3-torus:", schi)
print("orientation sign for a line bundle:", orientation_reversal_sign(1, schi))
print("orientation sign for a rank-2 bundle:", orientation_reversal_sign(2, schi))
