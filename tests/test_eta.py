import itertools
import random
from fractions import Fraction

import pytest

from torsionfam.corpus import acceptance_corpus
from torsionfam.dvr import analyze
from torsionfam.eta import (
    ODD_L_COEFF_ERROR,
    ArgPairing,
    EtaProfile,
    JumpRecord,
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
from torsionfam.scalars import GaussRat


# -- eta_jump: spec examples ----------------------------------------------------


@pytest.mark.parametrize("sigma,expected", [(1, 2), (0, 0), (-3, -6)])
def test_eta_jump(sigma, expected):
    assert eta_jump(JumpRecord(Fraction(0), sigma)) == expected


def test_eta_jump_always_even():
    rng = random.Random(60)
    for _ in range(50):
        assert eta_jump(JumpRecord(Fraction(0), rng.randrange(-9, 10))) % 2 == 0


# -- eta_at_jump: spec examples ---------------------------------------------------


@pytest.mark.parametrize(
    "plus,minus,sigma_even,expected",
    [(1, 1, 0, 1), (3, 1, 1, 1), (0, 0, 2, -2)],
)
def test_eta_at_jump(plus, minus, sigma_even, expected):
    assert eta_at_jump(plus, minus, sigma_even) == expected


# -- arg_pairing_value: spec examples -----------------------------------------------


def test_arg_pairing_zero():
    p = ArgPairing((Fraction(0), Fraction(0)), (0, 2))
    assert arg_pairing_value(p) == 0


def test_arg_pairing_quarter():
    p = ArgPairing((Fraction(1, 4),), (2,))
    assert arg_pairing_value(p) == Fraction(1, 2)


def test_arg_pairing_shift_invariance():
    rng = random.Random(61)
    for _ in range(1000):
        n = rng.randrange(1, 4)
        args = tuple(Fraction(rng.randrange(-8, 9), rng.randrange(1, 7)) for _ in range(n))
        ls = tuple(2 * rng.randrange(-4, 5) for _ in range(n))
        p = ArgPairing(args, ls)
        k = rng.randrange(n)
        shifted = list(args)
        shifted[k] += rng.randrange(-3, 4)
        q = ArgPairing(tuple(shifted), ls)
        assert arg_pairing_value(p) == arg_pairing_value(q)


def test_odd_l_coeff_rejected():
    with pytest.raises(ValueError) as err:
        ArgPairing((Fraction(1, 4),), (3,))
    assert str(err.value) == ODD_L_COEFF_ERROR


def test_pairing_length_validation():
    with pytest.raises(ValueError, match="length"):
        ArgPairing((Fraction(0),), (0, 2))
    with pytest.raises(ValueError, match="at least one coefficient"):
        ArgPairing((), ())


# -- hat_eta: spec examples -----------------------------------------------------------


def test_hat_eta_zero():
    p = ArgPairing((Fraction(0),), (0,))
    assert hat_eta(0, p) == 0


def test_hat_eta_half_pairing():
    p = ArgPairing((Fraction(1, 4),), (2,))
    assert hat_eta(1, p) == 2


def test_hat_eta_jump_law():
    """Crossing a jump adds 2*sigma_odd to hat-eta, mod 4."""
    rng = random.Random(62)
    pairing = ArgPairing((Fraction(1, 3),), (4,))
    for _ in range(50):
        sigma = rng.randrange(-5, 6)
        prof = EtaProfile(
            1, Fraction(rng.randrange(-3, 4), rng.randrange(1, 5)),
            (JumpRecord(Fraction(0), sigma),),
            (pairing, pairing),
        )
        v = prof.interval_values()
        assert (v[1] - v[0]) % 4 == (2 * sigma) % 4


# -- ray_invariant_check: spec examples -------------------------------------------------


def test_single_interval_any_sign():
    prof = EtaProfile(3, Fraction(1, 2), ())
    assert ray_invariant_check(prof, [1]).passed
    assert ray_invariant_check(prof, [-1]).passed


def test_two_intervals_flip_passes():
    prof = EtaProfile(3, Fraction(0), (JumpRecord(Fraction(0), 1),))
    assert ray_invariant_check(prof, [1, -1]).passed


def test_two_intervals_no_flip_fails():
    prof = EtaProfile(3, Fraction(0), (JumpRecord(Fraction(0), 1),))
    verdict = ray_invariant_check(prof, [1, 1])
    assert not verdict.passed
    assert verdict.failing_interval == 1


def test_ray_check_validates_lengths():
    prof = EtaProfile(3, Fraction(0), (JumpRecord(Fraction(0), 1),))
    with pytest.raises(ValueError, match="interval signs"):
        ray_invariant_check(prof, [1])
    with pytest.raises(ValueError, match="signs must be"):
        ray_invariant_check(prof, [1, 0])


def exhaustive_pass_set(sigmas, dimension_class=3, slope=None):
    jumps = tuple(JumpRecord(Fraction(k), s) for k, s in enumerate(sigmas))
    prof = EtaProfile(dimension_class, Fraction(0), jumps, slope)
    passing = set()
    for seq in itertools.product((1, -1), repeat=len(sigmas) + 1):
        if ray_invariant_check(prof, list(seq)).passed:
            passing.add(seq)
    return prof, passing


def correct_signs(sigmas):
    out = [1]
    for s in sigmas:
        out.append(out[-1] * (-1) ** (s % 2))
    return tuple(out)


def test_exhaustive_sign_sequences_up_to_three_jumps():
    """Exactly the law-abiding sequence and its global flip pass; every
    single-sign mutation fails."""
    for n_jumps in (1, 2, 3):
        for sigmas in itertools.product((0, 1, 2, -1), repeat=n_jumps):
            _, passing = exhaustive_pass_set(sigmas)
            good = correct_signs(sigmas)
            flipped = tuple(-s for s in good)
            assert passing == {good, flipped}, (sigmas, passing)
            for k in range(len(good)):
                mutated = list(good)
                mutated[k] = -mutated[k]
                assert tuple(mutated) not in passing


def test_su_and_argclass_profiles():
    pairing = ArgPairing((Fraction(1, 4), Fraction(1, 6)), (2, 6))
    sigmas = (1, 2)
    jumps = tuple(JumpRecord(Fraction(k), s) for k, s in enumerate(sigmas))
    su = EtaProfile(1, Fraction(0), jumps)  # no slope data: SU behavior
    assert ray_invariant_check(su, list(correct_signs(sigmas))).passed
    arg = EtaProfile(1, Fraction(0), jumps, (pairing,) * 3)
    assert ray_invariant_check(arg, list(correct_signs(sigmas))).passed
    bad = list(correct_signs(sigmas))
    bad[1] = -bad[1]
    assert not ray_invariant_check(arg, bad).passed


def test_profile_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        EtaProfile(3, Fraction(0),
                   (JumpRecord(Fraction(1), 1), JumpRecord(Fraction(0), 1)))
    with pytest.raises(ValueError, match="dimension class"):
        EtaProfile(2, Fraction(0), ())
    with pytest.raises(ValueError, match="slope data"):
        EtaProfile(3, Fraction(0), (), (ArgPairing((Fraction(0),), (0,)),))
    with pytest.raises(ValueError, match="per interval"):
        EtaProfile(1, Fraction(0), (), (ArgPairing((Fraction(0),), (0,)),) * 2)


def test_jump_record_warning():
    rec = JumpRecord(Fraction(0), sigma_odd=1, nu=2)
    assert rec.consistency_warning() is not None
    assert JumpRecord(Fraction(0), sigma_odd=1, nu=3).consistency_warning() is None
    assert JumpRecord(Fraction(0), sigma_odd=1).consistency_warning() is None


# -- semi_characteristic: spec examples ---------------------------------------------------


def test_semi_characteristic_sphere():
    assert semi_characteristic([1, 0, 0, 1]) == 1


def test_semi_characteristic_zero():
    assert semi_characteristic([0, 0, 0, 0]) == 0


def test_semi_characteristic_torus():
    assert semi_characteristic([1, 3, 3, 1]) == 4


def test_semi_characteristic_even_dimension_rejected():
    with pytest.raises(ValueError, match="odd top dimension"):
        semi_characteristic([1, 0, 1])


# -- orientation_reversal_sign: spec examples ----------------------------------------------


def test_orientation_sign_even_rank():
    for schi in range(6):
        assert orientation_reversal_sign(2, schi) == 1


def test_orientation_sign_examples():
    assert orientation_reversal_sign(1, 1) == -1
    assert orientation_reversal_sign(1, 4) == 1


def test_orientation_sign_parity_table():
    for rank in (1, 2, 3):
        for schi in range(6):
            expected = 1 if (rank % 2 == 0 or schi % 2 == 0) else -1
            assert orientation_reversal_sign(rank, schi) == expected


# -- synthesis from family analyses ----------------------------------------------------------


def test_profile_synthesis_ray_passes():
    for fam in acceptance_corpus(6, 444):
        if fam.complex.top_degree % 2 == 0:
            continue
        reports = [
            analyze(fam.complex, GaussRat(c), duality=list(fam.pairing))
            for c in fam.centers
        ]
        dimclass = 3 if fam.complex.top_degree % 4 == 3 else 1
        prof = profile_from_reports(reports, dimension_class=dimclass)
        signs = signs_from_reports(reports)
        assert ray_invariant_check(prof, signs).passed
        for k in range(len(signs)):
            mutated = list(signs)
            mutated[k] = -mutated[k]
            if len(signs) > 1:
                assert not ray_invariant_check(prof, mutated).passed
