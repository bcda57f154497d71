"""Eta-invariant bookkeeping: jump formulas, argument pairing, rays.

Nothing here touches operator spectra.  Eta values are rationals
supplied from outside (or synthesized from jump data); the module
implements the purely arithmetic side:

* the jump across a degeneration point is twice the odd signature sum,
  hence always even;
* the value at the jump point is the interval average minus the even
  signature sum;
* the argument pairing couples per-interval phase classes (rationals
  mod 1) against an even integer cohomology vector, giving a value mod
  2 that is invariant under integer shifts of the phases;
* hat-eta adds twice the pairing to eta mod 4 and jumps by twice the
  odd signature mod 4;
* the ray check reconstructs the piecewise phase of
  sign * exp(i pi eta / 2) and verifies it is constant.

Phases are tracked as rationals in units of pi, reduced mod 2, so the
whole check stays in exact arithmetic.

Dimension classes: 3 means top degree 3 mod 4 (eta constant between
jumps); 1 means 1 mod 4, where eta drifts between jumps unless the
family is special-unitary -- the drift is absorbed by per-interval
argument pairings, whose presence is what distinguishes the non-SU
case.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .scalars import _Record, _set

__all__ = [
    "JumpRecord",
    "ArgPairing",
    "EtaProfile",
    "RayVerdict",
    "eta_jump",
    "eta_at_jump",
    "arg_pairing_value",
    "hat_eta",
    "ray_invariant_check",
    "semi_characteristic",
    "orientation_reversal_sign",
    "profile_from_reports",
    "signs_from_reports",
]

ODD_L_COEFF_ERROR = (
    "L-class degree-(m-1) part not even: "
    "hypothesis w_{m-1} = 0 / no 2-torsion violated"
)


class JumpRecord(_Record):
    """One degeneration point of a family: location and signature data.

    ``nu`` and ``sigma_odd`` must agree mod 2 when both come from the
    same analyzed family; :meth:`consistency_warning` reports a
    mismatch for hand-entered records, while records built through
    :func:`profile_from_reports` are checked hard.
    """

    __slots__ = ("t0", "sigma_odd", "sigma_even", "nu")

    def __init__(self, t0: Fraction, sigma_odd: int, sigma_even: int = 0, nu=None):
        _set(self, "t0", Fraction(t0))
        _set(self, "sigma_odd", sigma_odd)
        _set(self, "sigma_even", sigma_even)
        _set(self, "nu", nu)

    def consistency_warning(self) -> Optional[str]:
        if self.nu is not None and (self.nu - self.sigma_odd) % 2 != 0:
            return (
                f"jump at t0 = {self.t0}: nu = {self.nu} and sigma_odd = "
                f"{self.sigma_odd} disagree mod 2"
            )
        return None


class ArgPairing(_Record):
    """Phase classes of a flat family paired against the L-vector.

    ``arg_coeffs`` are the values of the argument class on a basis of
    first cohomology, rationals taken mod 1; ``l_coeffs`` are the
    pairings of the complementary-degree part of the L-polynomial with
    the dual basis and must all be even -- that evenness is exactly
    what makes the pairing well defined mod 2.  Both lists run over the
    same basis, so their common length is the first Betti number b1.
    """

    __slots__ = ("arg_coeffs", "l_coeffs")

    def __init__(self, arg_coeffs: tuple[Fraction, ...], l_coeffs: tuple[int, ...]):
        args = tuple(Fraction(a) for a in arg_coeffs)
        ls = tuple(int(c) for c in l_coeffs)
        _set(self, "arg_coeffs", args)
        _set(self, "l_coeffs", ls)
        if not args:
            raise ValueError("pairing needs at least one coefficient (b1 >= 1)")
        if len(args) != len(ls):
            raise ValueError("pairing lists must have the same length b1")
        for c in ls:
            if c % 2:
                raise ValueError(ODD_L_COEFF_ERROR)


def eta_jump(rec: JumpRecord) -> int:
    """Jump of eta across a degeneration point: 2 * sigma_odd, even."""
    return 2 * rec.sigma_odd


def eta_at_jump(eta_plus, eta_minus, sigma_even: int) -> Fraction:
    """Value of eta at the jump point from its one-sided limits."""
    return (Fraction(eta_plus) + Fraction(eta_minus)) / 2 - sigma_even


def arg_pairing_value(p: ArgPairing) -> Fraction:
    """Sum of arg * l pairings, reduced mod 2 into [0, 2).

    Well defined on phase classes: shifting any arg coefficient by an
    integer changes the sum by an even integer.
    """
    total = Fraction(0)
    for a, c in zip(p.arg_coeffs, p.l_coeffs):
        total += (a % 1) * c
    return total % 2


def hat_eta(eta, p: ArgPairing) -> Fraction:
    """eta + 2 * pairing, reduced mod 4 into [0, 4)."""
    return (Fraction(eta) + 2 * arg_pairing_value(p)) % 4


class EtaProfile(_Record):
    """Piecewise eta data of a family over a parameter interval.

    ``base_value`` is eta on the leftmost interval; ``jumps`` are
    ordered left to right.  ``slope_data`` gives one argument pairing
    per interval (jumps + 1 of them) and is present exactly when the
    dimension class is 1 and the family is not special-unitary.
    """

    __slots__ = ("dimension_class", "base_value", "jumps", "slope_data")

    def __init__(self, dimension_class: int, base_value: Fraction, jumps, slope_data=None):
        if dimension_class not in (1, 3):
            raise ValueError("dimension class is 1 or 3 (top degree mod 4)")
        slope = None if slope_data is None else tuple(slope_data)
        _set(self, "dimension_class", dimension_class)
        _set(self, "base_value", Fraction(base_value))
        _set(self, "jumps", tuple(jumps))
        _set(self, "slope_data", slope)
        for a, b in zip(self.jumps, self.jumps[1:]):
            if not a.t0 < b.t0:
                raise ValueError("jump points must be strictly increasing")
        if slope is not None:
            if dimension_class != 1:
                raise ValueError("slope data only applies to dimension class 1")
            if len(slope) != len(self.jumps) + 1:
                raise ValueError("need one argument pairing per interval")

    @property
    def intervals(self) -> int:
        return len(self.jumps) + 1

    def interval_values(self) -> list[Fraction]:
        """Reconstructed eta (or hat-eta) per interval, left to right.

        For class 3 or special-unitary families this is eta itself;
        with slope data it is hat-eta mod 4, the quantity that is
        actually constant between jumps.
        """
        if self.slope_data is None:
            value = self.base_value
            out = [value]
            for rec in self.jumps:
                value += eta_jump(rec)
                out.append(value)
            return out
        value = hat_eta(self.base_value, self.slope_data[0])
        out = [value]
        for rec in self.jumps:
            value = (value + eta_jump(rec)) % 4
            out.append(value)
        return out

    def warnings(self) -> list[str]:
        return [
            w
            for w in (rec.consistency_warning() for rec in self.jumps)
            if w is not None
        ]


class RayVerdict(_Record):
    """Outcome of a ray-invariance check."""

    __slots__ = ("passed", "failing_interval", "phases")

    def __init__(self, passed: bool, failing_interval: Optional[int], phases: tuple):
        _set(self, "passed", passed)
        _set(self, "failing_interval", failing_interval)
        _set(self, "phases", phases)

    def __bool__(self):
        return self.passed


def ray_invariant_check(profile: EtaProfile, sign_sequence) -> RayVerdict:
    """Is sign * exp(i pi eta / 2) the same ray on every interval?

    ``sign_sequence`` holds one torsion sign (+1 or -1) per interval.
    The phase of the ray on interval j, in units of pi and mod 2, is
    eta_j / 2 plus 1 when the sign is negative; the check compares
    consecutive intervals and reports the first mismatch.
    """
    signs = [int(s) for s in sign_sequence]
    if any(s not in (1, -1) for s in signs):
        raise ValueError("signs must be +1 or -1")
    if len(signs) != profile.intervals:
        raise ValueError(
            f"need {profile.intervals} interval signs, got {len(signs)}"
        )
    values = profile.interval_values()
    phases = tuple(
        (Fraction(v) / 2 + (0 if s == 1 else 1)) % 2
        for v, s in zip(values, signs)
    )
    for j in range(1, len(phases)):
        if phases[j] != phases[j - 1]:
            return RayVerdict(False, j, phases)
    return RayVerdict(True, None, phases)


def semi_characteristic(bettis) -> int:
    """Sum of even-index Betti numbers below the (odd) top dimension."""
    bettis = [int(b) for b in bettis]
    if any(b < 0 for b in bettis):
        raise ValueError("Betti numbers are non-negative")
    m = len(bettis) - 1
    if m < 0 or m % 2 == 0:
        raise ValueError("semi-characteristic needs an odd top dimension")
    return sum(bettis[k] for k in range(0, m, 2))


def orientation_reversal_sign(rank: int, schi: int) -> int:
    """Sign picked up by the torsion under orientation reversal."""
    if rank < 1:
        raise ValueError("bundle rank must be positive")
    return -1 if (rank * schi) % 2 else 1


def profile_from_reports(
    reports, dimension_class: int, base_value=0
) -> EtaProfile:
    """Ledger synthesized from deformation reports at increasing t0.

    Each report contributes a jump record with sigma_odd set to the
    middle torsion parity (its mod-2 class is all the congruence pins
    down) and nu from the singularity exponent; the consistency of the
    two is enforced here because both came from the same analysis.
    """
    reports = sorted(reports, key=lambda r: r.t0.re)
    jumps = []
    for rep in reports:
        if rep.t0.im:
            raise ValueError("ledger jump points must be real rationals")
        if rep.middle_dim_parity is None:
            raise ValueError("report lacks a middle degree; top degree must be odd")
        rec = JumpRecord(
            t0=Fraction(rep.t0.re),
            sigma_odd=rep.middle_dim_parity,
            sigma_even=0,
            nu=rep.nu,
        )
        if rec.consistency_warning() is not None:
            raise ValueError(rec.consistency_warning())
        jumps.append(rec)
    return EtaProfile(
        dimension_class=dimension_class,
        base_value=Fraction(base_value),
        jumps=tuple(jumps),
    )


def signs_from_reports(reports) -> list[int]:
    """Interval sign sequence implied by the sign-flip law.

    Starts at +1 on the leftmost interval and flips across each jump
    whose singularity exponent is odd.
    """
    reports = sorted(reports, key=lambda r: r.t0.re)
    signs = [1]
    for rep in reports:
        signs.append(signs[-1] * (-1) ** (rep.nu % 2))
    return signs
