"""Acceptance suite: one test per criterion, every tolerance exact.

The corpus fixture generates the duality-equipped family complexes
once and analyzes every planted center; criteria 1-4 consume the same
reports.  Each test prints a single PASS line with its elapsed time
(visible under ``pytest -s`` or in captured output).
"""

import itertools
import random
import time
from fractions import Fraction

import pytest
from rebasing import matrix_rebasings

from torsionfam.complexes import (
    conjugate_complex,
    torsion,
    torsion_sign_at,
)
from torsionfam.corpus import (
    ACCEPTANCE_SIZE,
    acceptance_corpus,
    random_local_matrix,
    random_ratfunc,
    random_word,
)
from torsionfam.dvr import analyze, snf_local
from torsionfam.eta import (
    ArgPairing,
    EtaProfile,
    JumpRecord,
    arg_pairing_value,
    eta_jump,
    hat_eta,
    orientation_reversal_sign,
    profile_from_reports,
    ray_invariant_check,
    semi_characteristic,
    signs_from_reports,
)
from torsionfam.groupring import GroupRingElem, Word, fox_derivative
from torsionfam.knots import (
    alexander_from_fox,
    bundled_knots,
    conway_from_seifert,
    conway_normalize,
)
from torsionfam.ratfunc import conj_family
from torsionfam.scalars import GaussRat

CORPUS_SEED = 20250


@pytest.fixture(scope="module")
def corpus():
    return acceptance_corpus(ACCEPTANCE_SIZE, CORPUS_SEED)


@pytest.fixture(scope="module")
def corpus_reports(corpus):
    """Deformation reports of every corpus family at every center.

    Returns (elapsed_seconds, [(family, reports)]); the generation and
    analysis cost is charged to criterion 1's runtime budget.
    """
    started = time.time()
    out = []
    for fam in corpus:
        reports = [
            analyze(fam.complex, GaussRat(c), duality=list(fam.pairing))
            for c in fam.centers
        ]
        out.append((fam, reports))
    return time.time() - started, out


def _announce(criterion, started, detail):
    elapsed = time.time() - started
    print(f"ACCEPTANCE {criterion} PASS ({elapsed:.2f}s): {detail}")


def test_criterion_1_congruence_core(corpus_reports):
    """nu == chi exactly and nu == middle torsion dim mod 2, corpus-wide."""
    analysis_time, pairs = corpus_reports
    started = time.time()
    assert len(pairs) >= 50
    n_reports = 0
    for fam, reports in pairs:
        assert fam.complex.total_rank() <= 12
        for rep in reports:
            assert rep.nu == rep.chi, (fam.name, rep.t0)
            assert rep.middle_dim_parity is not None
            assert rep.nu % 2 == rep.middle_dim_parity, (fam.name, rep.t0)
            n_reports += 1
    elapsed = time.time() - started + analysis_time
    assert elapsed < 60
    print(
        f"ACCEPTANCE 1 PASS ({elapsed:.2f}s incl. analysis): "
        f"{len(pairs)} families, {n_reports} reports"
    )


def test_criterion_2_duality_of_dims(corpus_reports):
    """dim T_i == dim T_(m-1-i) for all i, exactly, corpus-wide."""
    _, pairs = corpus_reports
    started = time.time()
    n_checks = 0
    for fam, reports in pairs:
        m = fam.complex.top_degree
        for rep in reports:
            assert rep.duality_ok is True, (fam.name, rep.t0)
            dims = rep.dims.dims
            assert dims[m] == 0
            for i in range(m):
                assert dims[i] == dims[m - 1 - i], (fam.name, rep.t0, i)
                n_checks += 1
    elapsed = time.time() - started
    assert elapsed < 10
    _announce(2, started, f"{n_checks} symmetric dimension pairs")


def test_criterion_3_sign_flip_law(corpus_reports):
    """sign(tau(t0+d)) * sign(tau(t0-d)) == (-1)^nu at d = 1/1000, 1/10000."""
    _, pairs = corpus_reports
    started = time.time()
    deltas = (Fraction(1, 1000), Fraction(1, 10000))
    n_checks = 0
    for fam, reports in pairs:
        for rep in reports:
            c = Fraction(rep.t0.re)
            for delta in deltas:
                sp = torsion_sign_at(fam.complex, GaussRat(c + delta))
                sm = torsion_sign_at(fam.complex, GaussRat(c - delta))
                assert sp * sm == (-1) ** rep.nu, (fam.name, c, delta)
                n_checks += 1
    elapsed = time.time() - started
    assert elapsed < 30
    _announce(3, started, f"{n_checks} evaluated sign products")


def test_criterion_4_ray_invariance(corpus_reports):
    """Synthesized ledgers pass; every single-sign mutation fails;
    exhaustive over profiles with at most three jumps."""
    _, pairs = corpus_reports
    started = time.time()
    n_profiles = n_mutations = 0
    for fam, reports in pairs:
        dimclass = 3 if fam.complex.top_degree % 4 == 3 else 1
        profile = profile_from_reports(reports, dimension_class=dimclass)
        signs = signs_from_reports(reports)
        assert ray_invariant_check(profile, signs).passed, fam.name
        n_profiles += 1
        for k in range(len(signs)):
            mutated = list(signs)
            mutated[k] = -mutated[k]
            if len(signs) == 1:
                continue  # a lone interval has no consistency constraint
            assert not ray_invariant_check(profile, mutated).passed
            n_mutations += 1
        if len(profile.jumps) <= 3:
            good = tuple(signs)
            flipped = tuple(-s for s in good)
            for seq in itertools.product((1, -1), repeat=len(signs)):
                verdict = ray_invariant_check(profile, list(seq))
                if len(signs) == 1:
                    assert verdict.passed
                else:
                    assert verdict.passed == (seq in (good, flipped))
    elapsed = time.time() - started
    assert elapsed < 5
    _announce(4, started, f"{n_profiles} ledgers, {n_mutations} sign mutations")


def test_criterion_5_argument_arithmetic(corpus_reports):
    """Pairing invariance under 1000 integer shifts, evenness rejection,
    and the hat-eta jump law on every synthesized ledger."""
    started = time.time()
    rng = random.Random(606)
    base = ArgPairing(
        (Fraction(1, 4), Fraction(2, 3), Fraction(-5, 6)), (2, -4, 6)
    )
    reference = arg_pairing_value(base)
    for _ in range(1000):
        shifted = list(base.arg_coeffs)
        k = rng.randrange(3)
        shifted[k] += rng.randrange(-5, 6)
        assert arg_pairing_value(ArgPairing(tuple(shifted), base.l_coeffs)) == reference
    with pytest.raises(ValueError, match="not even"):
        ArgPairing((Fraction(1, 2),), (1,))
    n_jumps = 0
    for fam, reports in corpus_reports[1]:
        profile = profile_from_reports(reports, dimension_class=1)
        slope = (base,) * profile.intervals
        hatted = EtaProfile(1, profile.base_value, profile.jumps, slope)
        values = hatted.interval_values()
        for rec, before, after in zip(profile.jumps, values, values[1:]):
            assert (after - before) % 4 == (2 * rec.sigma_odd) % 4
            assert eta_jump(rec) % 2 == 0
            assert hat_eta(before, base) == (before + 2 * reference) % 4
            n_jumps += 1
    elapsed = time.time() - started
    assert elapsed < 5
    _announce(5, started, f"1000 shifts, {n_jumps} hat-eta jumps")


def test_criterion_6_conway_pipeline():
    """Both knot routes agree exactly, sign included, on all five knots."""
    started = time.time()
    expected = {
        "unknot": (1,),
        "trefoil": (1, 0, 1),
        "figure8": (1, 0, -1),
        "5_1": (1, 0, 3, 0, 1),
        "5_2": (1, 0, 2),
    }
    for name, (pres, seif) in bundled_knots().items():
        via_fox = conway_normalize(alexander_from_fox(pres))
        via_seifert = conway_from_seifert(seif)
        assert via_fox == via_seifert, name
        assert via_fox.coefficients == expected[name], name
    elapsed = time.time() - started
    assert elapsed < 10
    _announce(6, started, "unknot, trefoil, figure8, 5_1, 5_2")


def test_criterion_7_engine_invariants():
    """Fox identity x500, valuation additivity x500, SNF pivot
    independence x200 (reversed and permuted matrices), torsion Galois
    equivariance x100.  All exact."""
    started = time.time()
    rng = random.Random(707)
    for _ in range(500):
        w = random_word(rng)
        total = GroupRingElem.zero()
        for g in range(3):
            xg = GroupRingElem.of_word(Word.generator(g)) - GroupRingElem.one()
            total = total + fox_derivative(w, g) * xg
        assert total == GroupRingElem.of_word(w) - GroupRingElem.one()

    for _ in range(500):
        t0 = GaussRat(rng.randrange(-2, 3))
        f = random_ratfunc(rng, zero_at=t0 if rng.randrange(2) else None)
        g = random_ratfunc(rng, zero_at=t0 if rng.randrange(2) else None)
        assert (f * g).valuation(t0) == f.valuation(t0) + g.valuation(t0)

    perm_rng = random.Random(7070)  # the permutations only
    for _ in range(200):
        mat = random_local_matrix(rng, rng.randrange(1, 6), rng.randrange(1, 6))
        want = snf_local(mat, 0)
        assert all(snf_local(p, 0) == want for p in matrix_rebasings(perm_rng, mat))

    for k in range(100):
        cplx = acceptance_corpus(1, 9000 + k)[0].complex
        assert torsion(conjugate_complex(cplx)).value == conj_family(
            torsion(cplx).value
        )
    elapsed = time.time() - started
    assert elapsed < 60
    _announce(7, started, "500 + 500 + 200 + 100 randomized instances")


def test_criterion_8_orientation_and_semicharacteristic():
    """Orientation-reversal sign table and the two stock
    semi-characteristics."""
    started = time.time()
    for rank in (1, 2, 3):
        for schi in range(6):
            expected = -1 if (rank * schi) % 2 else 1
            assert orientation_reversal_sign(rank, schi) == expected
    assert semi_characteristic([1, 3, 3, 1]) == 4
    assert semi_characteristic([1, 0, 0, 1]) == 1
    elapsed = time.time() - started
    assert elapsed < 1
    _announce(8, started, "18 table entries, torus and sphere")
