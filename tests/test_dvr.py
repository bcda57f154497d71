import random
from fractions import Fraction
from itertools import combinations

import pytest
from rebasing import matrix_rebasings

from torsionfam.complexes import BasedChainComplex, direct_sum, torsion, torsion_sign_at
from torsionfam.corpus import (
    acceptance_corpus,
    circle_family,
    elementary_complex,
    random_local_matrix,
    torus3_family,
)
from torsionfam.dvr import (
    DeformationReport,
    DivisorProfile,
    DualityError,
    TorsionModuleSummary,
    analyze,
    check_duality_pairing,
    euler_number,
    singularity_exponent,
    snf_local,
    torsion_modules,
)
from torsionfam.linalg import Matrix
from torsionfam.ratfunc import RatFunc, cayley, conj_family
from torsionfam.scalars import GaussRat

T = RatFunc.var()
ONE = RatFunc.one()
ZERO = RatFunc.zero()


def minor_valuation_oracle(mat, t0, k):
    """min valuation over all k x k minors; None when all vanish.

    Classical determinantal characterization: the sum of the first k
    elementary divisor valuations.  Completely independent of the
    pivoting reduction.
    """
    best = None
    for rows in combinations(range(mat.nrows), k):
        for cols in combinations(range(mat.ncols), k):
            d = mat.submatrix(rows, cols).det()
            if d.is_zero():
                continue
            v = d.valuation(t0)
            if best is None or v < best:
                best = v
    return best


# -- snf_local: spec examples -----------------------------------------------------


def test_snf_identity():
    p = snf_local(Matrix.identity(4), 0)
    assert p.valuations == (0, 0, 0, 0) and p.free_rank == 0


def test_snf_diagonal_example():
    p = snf_local(Matrix([[T, ZERO], [ZERO, ONE]]), 0)
    assert p.valuations == (0, 1)


def test_snf_t_squared():
    assert snf_local(Matrix([[T * T]]), 0).valuations == (2,)


def test_snf_pole_rejected():
    with pytest.raises(ValueError, match="matrix not defined over the local ring"):
        snf_local(Matrix([[1 / T]]), 0)


def test_snf_free_rank():
    p = snf_local(Matrix([[T, T], [T, T]]), 0)
    assert p.valuations == (1,) and p.free_rank == 1


def test_snf_pivot_strategy_independent():
    """Elementary divisors do not depend on the pivot: the reversed and
    row- and column-permuted matrices have the same profile."""
    rng, perm_rng = random.Random(50), random.Random(5050)
    for _ in range(60):
        m = random_local_matrix(rng, rng.randrange(1, 5), rng.randrange(1, 5))
        want = snf_local(m, 0)
        assert all(snf_local(p, 0) == want for p in matrix_rebasings(perm_rng, m))


def test_snf_against_minor_oracle():
    """Partial sums of divisor valuations equal minimal minor valuations."""
    rng = random.Random(51)
    for _ in range(40):
        m = random_local_matrix(rng, rng.randrange(1, 4), rng.randrange(1, 4))
        profile = snf_local(m, 0)
        for k in range(1, profile.rank + 1):
            assert minor_valuation_oracle(m, GaussRat.zero(), k) == sum(
                profile.valuations[:k]
            )
        if profile.rank < min(m.nrows, m.ncols):
            assert minor_valuation_oracle(m, GaussRat.zero(), profile.rank + 1) is None


def test_divisor_profile_validation():
    with pytest.raises(ValueError):
        DivisorProfile((2, 1), 0)
    with pytest.raises(ValueError):
        DivisorProfile((-1,), 0)


# -- torsion_modules: spec examples --------------------------------------------------


def test_circle_torsion_modules():
    circle = BasedChainComplex([1, 1], [Matrix([[cayley() - 1]])])
    tm = torsion_modules(circle, 0)
    assert tm.dims == (1, 0)


def test_identity_complex_all_zero():
    c = BasedChainComplex([1, 1], [Matrix([[ONE]])])
    assert torsion_modules(c, 0).dims == (0, 0)


def test_direct_sum_doubles_dims():
    circle = BasedChainComplex([1, 1], [Matrix([[cayley() - 1]])])
    s = direct_sum(circle, circle)
    assert torsion_modules(s, 0).dims == (2, 0)


def test_torsion_modules_requires_generic_acyclicity():
    c = BasedChainComplex([1, 1], [Matrix([[ZERO]])])
    with pytest.raises(ValueError, match="family not generically acyclic at this degree"):
        torsion_modules(c, 0)


def test_dims_against_maximal_minor_oracle():
    """dim of the degree-i torsion equals the minimal valuation over
    maximal minors of the boundary above it (brute force)."""
    for fam in acceptance_corpus(12, 888):
        if fam.complex.total_rank() > 6:
            continue
        for c in fam.centers:
            t0 = GaussRat(c)
            tm = torsion_modules(fam.complex, t0)
            m = fam.complex.top_degree
            for i in range(m):
                bnd = fam.complex.boundary(i + 1)
                r = bnd.rank()
                expect = 0 if r == 0 else minor_valuation_oracle(bnd, t0, r)
                assert tm.dims[i] == expect, (fam.name, c, i)


def test_dims_against_rank_drop_oracle():
    """Evaluated homology dimension = sum of adjacent generic rank drops,
    and each drop counts the divisors that actually vanish."""
    for fam in acceptance_corpus(12, 999):
        for c in fam.centers:
            t0 = GaussRat(c)
            cplx = fam.complex
            m = cplx.top_degree
            profiles = [snf_local(cplx.boundary(k), t0) for k in range(1, m + 1)]
            generic = [0] + [p.rank for p in profiles] + [0]
            evaluated = [0]
            for k in range(1, m + 1):
                evaluated.append(cplx.boundary(k).map(lambda e: e.evaluate(t0)).rank())
            evaluated.append(0)
            drops = [g - e for g, e in zip(generic, evaluated)]
            for k in range(1, m + 1):
                assert drops[k] == sum(1 for v in profiles[k - 1].valuations if v > 0)
            for i in range(m + 1):
                h_eval = cplx.ranks[i] - evaluated[i] - evaluated[i + 1]
                assert h_eval == drops[i] + drops[i + 1], (fam.name, c, i)


# -- euler_number: spec examples -------------------------------------------------------


@pytest.mark.parametrize(
    "dims,expected",
    [((1, 0), 1), ((0, 0, 0), 0), ((2, 1, 2), 3)],
)
def test_euler_number(dims, expected):
    assert euler_number(TorsionModuleSummary(dims)) == expected


def test_cohomological_view():
    tm = TorsionModuleSummary((1, 2, 1, 0))
    assert tm.middle_dim() == 2
    assert TorsionModuleSummary((1, 0, 1)).middle_dim() is None


# -- singularity_exponent: spec examples -----------------------------------------------


def test_exponent_identity_complex():
    c = BasedChainComplex([1, 1], [Matrix([[ONE]])])
    assert singularity_exponent(c, 0) == 0


def test_exponent_circle():
    circle = BasedChainComplex([1, 1], [Matrix([[cayley() - 1]])])
    nu = singularity_exponent(circle, 0)
    assert abs(nu) == 1 and nu == 1


def test_exponent_additive():
    a = BasedChainComplex([1, 1], [Matrix([[cayley() - 1]])])
    b = BasedChainComplex([1, 1], [Matrix([[T * T]])])
    assert singularity_exponent(direct_sum(a, b), 0) == singularity_exponent(
        a, 0
    ) + singularity_exponent(b, 0)


def test_negative_exponent_pole():
    c = elementary_complex(3, 2, Matrix([[T]]))  # boundary in even degree
    assert singularity_exponent(c, 0) == -1
    assert euler_number(torsion_modules(c, 0)) == -1


# -- analyze ------------------------------------------------------------------------------


def test_analyze_circle():
    fam = circle_family(cayley() - 1, centers=(Fraction(0),))
    rep = analyze(fam.complex, 0, duality=list(fam.pairing))
    assert rep.nu == rep.chi == 1
    assert rep.sign_flip is True
    assert rep.duality_ok is True
    assert rep.middle_dim_parity == 1
    assert rep.dims.dims == (1, 0)


def test_analyze_identity_all_zero():
    c = BasedChainComplex([1, 1], [Matrix([[ONE]])])
    rep = analyze(c, 0)
    assert rep.nu == rep.chi == 0 and rep.sign_flip is False
    assert rep.duality_ok is None


def test_analyze_torus3_two_routes():
    """SNF route and torsion-valuation route agree on the 3-torus."""
    fam = torus3_family()
    rep = analyze(fam.complex, 0, duality=list(fam.pairing))
    assert rep.nu == rep.chi == 0
    assert rep.dims.dims == (1, 2, 1, 0)
    assert rep.duality_ok is True
    assert rep.middle_dim_parity == 0
    # variant with a constant third factor: nothing degenerates
    z1, z2 = cayley(1), cayley(2)
    a1, a2 = z1 - 1, z2 - 1
    a3 = RatFunc.coerce(GaussRat(0, 1)) - 1
    d1 = Matrix([[a1, a2, a3]])
    d2 = Matrix([[-a2, -a3, ZERO], [a1, ZERO, -a3], [ZERO, a1, a2]])
    d3 = Matrix([[a3], [-a2], [a1]])
    variant = BasedChainComplex([1, 3, 3, 1], [d1, d2, d3])
    rep2 = analyze(variant, 0)
    assert rep2.nu == rep2.chi == 0
    assert rep2.dims.dims == (0, 0, 0, 0)


def test_analyze_requires_acyclic():
    c = BasedChainComplex([1, 1], [Matrix([[ZERO]])])
    with pytest.raises(ValueError, match="not generically acyclic"):
        analyze(c, 0)


def test_calibration_violation_is_hard_error(monkeypatch):
    """The nu == chi cross-check is enforced, not warned about.  The
    equality is a theorem for this convention, so the failure path is
    exercised by faking a broken exponent."""
    import torsionfam.dvr as dvr_module

    monkeypatch.setattr(dvr_module, "singularity_exponent", lambda c, t0: 99)
    circle = BasedChainComplex([1, 1], [Matrix([[cayley() - 1]])])
    with pytest.raises(ValueError, match="convention calibration violated"):
        analyze(circle, 0)


def test_report_derives_chi_parity_and_flip():
    """A report holds four values; chi, the middle parity and the sign
    flip are read off nu and dims."""
    from dataclasses import fields

    assert [f.name for f in fields(DeformationReport)] == ["t0", "nu", "dims", "duality_ok"]
    rep = DeformationReport(t0=GaussRat.zero(), nu=1, dims=TorsionModuleSummary((1, 0)))
    assert (rep.chi, rep.middle_dim_parity, rep.sign_flip) == (1, 1, True)
    rep = DeformationReport(GaussRat.zero(), -2, TorsionModuleSummary((0, 1, 0, 2)))
    assert (rep.chi, rep.middle_dim_parity, rep.sign_flip) == (-3, 1, False)
    rep = DeformationReport(GaussRat.zero(), 0, TorsionModuleSummary((1, 1, 0)))
    assert (rep.chi, rep.middle_dim_parity, rep.sign_flip) == (0, None, False)


def test_duality_pairing_validation():
    fam = circle_family(cayley() - 1)
    good = list(fam.pairing)
    check_duality_pairing(fam.complex, good, GaussRat.zero())
    # non-chain-map pairing
    bad = [Matrix([[ONE]]), Matrix([[ONE]])]
    with pytest.raises(ValueError, match="not a chain map"):
        check_duality_pairing(fam.complex, bad, GaussRat.zero())
    # non-unit determinant at the center
    bad2 = [good[0].scale(T), good[1].scale(T)]
    with pytest.raises(ValueError, match="not invertible over the local ring"):
        check_duality_pairing(fam.complex, bad2, GaussRat.zero())
    with pytest.raises(ValueError, match="needs 2 matrices"):
        check_duality_pairing(fam.complex, [good[0]], GaussRat.zero())


def test_analyze_additive_over_direct_sums():
    fams = acceptance_corpus(4, 555)
    a, b = fams[0], fams[1]
    common = sorted(set(a.centers) & set(b.centers))
    s = direct_sum(a.complex, b.complex)
    for c in common:
        t0 = GaussRat(c)
        ra, rb = analyze(a.complex, t0), analyze(b.complex, t0)
        rs = analyze(s, t0)
        assert rs.nu == ra.nu + rb.nu
        assert rs.chi == ra.chi + rb.chi
        da = ra.dims.dims + (0,) * (len(rs.dims.dims) - len(ra.dims.dims))
        db = rb.dims.dims + (0,) * (len(rs.dims.dims) - len(rb.dims.dims))
        assert rs.dims.dims == tuple(x + y for x, y in zip(da, db))


# -- what is memoized on the complex, and what still runs per point -------------


def test_rejected_pairing_stays_rejected_with_a_filled_memo():
    fam = circle_family(cayley() - 1, centers=(Fraction(0),))
    c, good = fam.complex, list(fam.pairing)
    assert analyze(c, 0, duality=good).duality_ok  # fills the memo
    not_chain = [Matrix([[ONE]]), Matrix([[ONE]])]
    singular = [Matrix([[ZERO]]), good[1]]
    for bad, why in ((not_chain, "not a chain map"), (singular, "not invertible")):
        for _ in range(2):
            with pytest.raises(DualityError, match=why):
                check_duality_pairing(c, bad, 0)
            with pytest.raises(DualityError, match=why):
                analyze(c, 0, duality=bad)


def test_other_pairing_verified_anew_after_one_is_memoized():
    fam = torus3_family()
    c, good = fam.complex, list(fam.pairing)
    check_duality_pairing(c, good, 0)
    check_duality_pairing(c, [-p for p in good], 0)
    # d_i != 0 and P_(i-1) is invertible, so negating one P_i breaks a square
    for i in range(len(good)):
        flipped = good[:i] + [-good[i]] + good[i + 1:]
        with pytest.raises(DualityError, match="not a chain map"):
            check_duality_pairing(c, flipped, 0)
    check_duality_pairing(c, good, 0)


@pytest.mark.parametrize("vanishing_point_first", [True, False])
def test_scaled_pairing_rejected_only_where_it_vanishes(vanishing_point_first):
    """(t - 1) P is still a chain map; its determinants vanish at 1 only."""
    fam = torus3_family()
    c = fam.complex
    scaled = [p.scale(T - 1) for p in fam.pairing]
    points = [GaussRat(1), GaussRat(0)]
    if not vanishing_point_first:
        points.reverse()
    for _ in range(2):
        for t0 in points:
            if t0 == GaussRat(1):
                with pytest.raises(DualityError, match="matrix 0 is not invertible"):
                    check_duality_pairing(c, scaled, t0)
            else:
                check_duality_pairing(c, scaled, t0)


def test_family_pipeline_analyzes_the_complex_once(monkeypatch):
    """torsion, analyze at two centers and the sign-flip windows of one
    family run the staircase once and the duality products once."""
    import torsionfam.complexes as complexes_module
    import torsionfam.dvr as dvr_module

    fam = next(f for f in acceptance_corpus(12, 8080) if len(f.centers) == 2)
    c, pairing = fam.complex, list(fam.pairing)
    fresh = BasedChainComplex(c.ranks, c.boundaries)
    calls = {"staircase": 0, "dual": 0, "mul": 0}
    staircase = complexes_module._staircase
    dual_complex = dvr_module.dual_complex
    matmul = Matrix.__matmul__

    def counting_staircase(cplx, *args):
        calls["staircase"] += 1
        return staircase(cplx, *args)

    def counting_dual(cplx):
        calls["dual"] += 1
        return dual_complex(cplx)

    def counting_mul(self, other):
        calls["mul"] += 1
        return matmul(self, other)

    monkeypatch.setattr(complexes_module, "_staircase", counting_staircase)
    monkeypatch.setattr(dvr_module, "dual_complex", counting_dual)
    monkeypatch.setattr(Matrix, "__matmul__", counting_mul)
    check_duality_pairing(fresh, pairing, fam.centers[0])
    one_check = calls["mul"]
    assert one_check > 0 and calls["dual"] == 1
    calls.update(staircase=0, dual=0, mul=0)

    torsion(c)
    for center in fam.centers:
        rep = analyze(c, GaussRat(center), duality=pairing)
        assert rep.duality_ok and rep.nu == rep.chi
        for delta in (Fraction(1, 1000), Fraction(1, 10000)):
            for t in (center + delta, center - delta):
                torsion_sign_at(c, GaussRat(t))
    assert calls["staircase"] == 1
    assert calls["dual"] == 1
    assert calls["mul"] == one_check


def test_point_types_give_equal_reports():
    """t0 as int, Fraction or GaussRat: one report, one profile."""
    for spec in acceptance_corpus(8, 1344):
        c, pairing = spec.complex, spec.pairing
        for center in spec.centers:
            forms = [Fraction(center), GaussRat(center)]
            if center.denominator == 1:
                forms.append(int(center))
            reports = [analyze(c, t0, list(pairing) if pairing else None) for t0 in forms]
            assert all(r == reports[0] for r in reports)
            assert all(type(r.t0) is GaussRat for r in reports)
            for k in range(1, c.top_degree + 1):
                profiles = {snf_local(c.boundary(k), t0) for t0 in forms}
                assert len(profiles) == 1
    rng, perm_rng = random.Random(1345), random.Random(1346)
    for _ in range(20):
        mat = random_local_matrix(rng, rng.randrange(1, 5), rng.randrange(1, 5))
        mats = [mat, *matrix_rebasings(perm_rng, mat)]
        half = Fraction(1, 2)
        for forms in ((0, Fraction(0), GaussRat(0)), (half, GaussRat(half))):
            profiles = {snf_local(m, t0) for t0 in forms for m in mats}
            assert len(profiles) == 1
