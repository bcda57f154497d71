import random
import time
from fractions import Fraction
from itertools import combinations
from math import prod

import pytest
from rebasing import matrix_rebasings, reversed_complex

from torsionfam.complexes import (
    BasedChainComplex,
    _steps,
    direct_sum,
    torsion,
    torsion_sign_at,
)
from torsionfam.corpus import (
    acceptance_corpus,
    circle_family,
    elementary_complex,
    random_acyclic_complex,
    random_local_matrix,
    random_ratfunc,
    torus3_family,
)
from torsionfam.dvr import (
    DeformationReport,
    DivisorProfile,
    DualityError,
    TorsionModuleSummary,
    _residue_rank,
    analyze,
    check_duality_pairing,
    euler_number,
    singularity_exponent,
    snf_local,
    torsion_modules,
)
from torsionfam.linalg import Matrix
from torsionfam.poly import rational_real_roots
from torsionfam.ratfunc import RatFunc, cayley, conj_family, uniformizer
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
    assert DeformationReport.__slots__ == ("t0", "nu", "dims", "duality_ok")
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


def test_duality_matrix_of_unequal_ranks_is_not_square():
    """Ranks that are not palindromic give pairing matrices of the
    expected shape that cannot be invertible."""
    c = BasedChainComplex([1, 2], [Matrix([[T, ONE]])])
    pairing = [Matrix([[ONE], [ONE]]), Matrix([[ONE, ONE]])]
    with pytest.raises(DualityError, match="^duality matrix 0 is not square$"):
        check_duality_pairing(c, pairing, GaussRat.zero())


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


# -- which check speaks first --------------------------------------------------


def test_first_failing_pairing_check_names_the_lowest_degree():
    """P_0 singular at t0 and P_1 wrongly shaped: degree 0 is reported."""
    fam = circle_family(cayley() - 1, centers=(Fraction(0),))
    bad = [fam.pairing[0].scale(T), Matrix.identity(2)]
    for c in (fam.complex, BasedChainComplex(fam.complex.ranks, fam.complex.boundaries)):
        check_duality_pairing(c, list(fam.pairing), 0)
        with pytest.raises(DualityError, match="duality matrix 0 is not invertible"):
            check_duality_pairing(c, bad, 0)


def test_pole_in_a_degree_whose_staircase_minor_is_a_unit():
    """v(D_k) = 0 skips the Smith form, not the regularity check."""
    c = BasedChainComplex([1, 2, 1], [Matrix([[ONE, 1 / T]]), Matrix([[-1 / T], [ONE]])])
    assert all(minor.valuation(0) == 0 for _, minor in _steps(c))
    for run in (torsion_modules, analyze):
        with pytest.raises(ValueError, match="matrix not defined over the local ring"):
            run(c, 0)
    assert torsion_modules(c, 1).dims == (0, 0, 0)


def test_pole_is_reported_before_non_acyclicity():
    c = BasedChainComplex([1, 2], [Matrix([[ONE, 1 / T]])])
    with pytest.raises(ValueError, match="matrix not defined over the local ring"):
        torsion_modules(c, 0)
    with pytest.raises(ValueError, match="family not generically acyclic at this degree"):
        torsion_modules(c, 1)
    with pytest.raises(ValueError, match="torsion undefined: complex not generically acyclic"):
        analyze(c, 0)


def _planted_excess_complexes():
    """Each small corpus family plus the contractible piece
    R --(1, u)--> R^2 --(-u, 1)--> R, u = t - t0, with every basis
    reversed, at its center t0: the staircase then picks minors carrying
    u, so v(D_k) exceeds the divisor sum in some degree."""
    for fam in acceptance_corpus(12, 888):
        if fam.complex.total_rank() > 6:
            continue
        for x in fam.centers:
            u = uniformizer(x)
            piece = BasedChainComplex([1, 2, 1], [Matrix([[ONE, u]]), Matrix([[-u], [ONE]])])
            yield reversed_complex(direct_sum(fam.complex, piece)), GaussRat(x)


def test_dims_where_the_staircase_minor_exceeds_the_divisor_sum():
    """The dims of the planted-excess complexes still equal the least
    valuations of the maximal minors."""
    excess = 0
    for c, t0 in _planted_excess_complexes():
        tm = torsion_modules(c, t0)
        for i, (bnd, (picked, minor)) in enumerate(zip(c.boundaries, _steps(c))):
            r = len(picked)
            expect = 0 if r == 0 else minor_valuation_oracle(bnd, t0, r)
            assert tm.dims[i] == expect, (t0, i)
            excess += minor.valuation(t0) > expect
    assert excess > 0


def test_family_pipeline_analyzes_the_complex_once(monkeypatch):
    """torsion, analyze at two centers and the sign-flip windows of one
    family run the staircase once and the pairing's certificate (one
    determinant per P_i) once."""
    import torsionfam.complexes as complexes_module

    fam = next(f for f in acceptance_corpus(12, 8080) if len(f.centers) == 2)
    c, pairing = fam.complex, list(fam.pairing)
    calls = {"staircase": 0, "det": 0}
    staircase = complexes_module._staircase
    det = Matrix.det

    def counting_staircase(cplx, *args):
        calls["staircase"] += 1
        return staircase(cplx, *args)

    def counting_det(self):
        calls["det"] += 1
        return det(self)

    monkeypatch.setattr(complexes_module, "_staircase", counting_staircase)
    monkeypatch.setattr(Matrix, "det", counting_det)
    torsion(c)
    for center in fam.centers:
        rep = analyze(c, GaussRat(center), duality=pairing)
        assert rep.duality_ok and rep.nu == rep.chi
        for delta in (Fraction(1, 1000), Fraction(1, 10000)):
            for t in (center + delta, center - delta):
                torsion_sign_at(c, GaussRat(t))
    assert calls == {"staircase": 1, "det": len(pairing)}


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


# -- residue rank and the two bounds ---------------------------------------------


def _random_draws():
    """30 random_acyclic_complex draws, each at every real rational root of
    its staircase minors: the points where some v_t0(D_k) > 0."""
    rng = random.Random(2828)
    for _ in range(30):
        c = random_acyclic_complex(rng)
        roots = {x for _, minor in _steps(c) for x in rational_real_roots(minor.num)[0]}
        for x in sorted(roots):
            yield c, GaussRat(x)


def _corpus(count, seed):
    for fam in acceptance_corpus(count, seed):
        for x in fam.centers:
            yield fam.complex, GaussRat(x)


@pytest.mark.parametrize(
    "cases,branches",
    [
        (lambda: _corpus(12, 888), {"unit": 41, "pinned 0": 0, "pinned v": 23, "snf": 9}),
        (lambda: _corpus(24, 20250), {"unit": 79, "pinned 0": 0, "pinned v": 50, "snf": 15}),
        (_random_draws, {"unit": 74, "pinned 0": 0, "pinned v": 58, "snf": 18}),
        (_planted_excess_complexes, {"unit": 9, "pinned 0": 16, "pinned v": 0, "snf": 10}),
    ],
    ids=["corpus-12-888", "corpus-24-20250", "random-draws", "planted-excess"],
)
def test_rank_at_t0_certifies_the_dims_where_the_bounds_meet(monkeypatch, cases, branches):
    """dims[i] equals the Smith form's divisor sum and the maximal-minor
    oracle in every degree.  With r = len(columns), v = v_t0(D_k) and
    lo = r - rank(d_k at t0), a degree with 0 < v is pinned when lo is 0
    or v and calls snf_local zero times; only 0 < lo < v calls it."""
    import torsionfam.dvr as dvr_module

    seen = []

    def counting_snf_local(mat, t0):
        seen.append(mat)
        return snf_local(mat, t0)

    monkeypatch.setattr(dvr_module, "snf_local", counting_snf_local)
    counts = dict.fromkeys(branches, 0)
    for c, t0 in cases():
        seen.clear()
        dims = torsion_modules(c, t0).dims
        for i, (bnd, (picked, minor)) in enumerate(zip(c.boundaries, _steps(c))):
            r, v = len(picked), minor.valuation(t0)
            total = snf_local(bnd, t0).total_valuation()
            assert dims[i] == total == (minor_valuation_oracle(bnd, t0, r) if r else 0)
            lo = r - bnd.map(lambda e: e.evaluate(t0)).rank()
            assert lo <= total <= v
            branch = "unit" if not v else "pinned 0" if not lo else "pinned v" if lo == v else "snf"
            counts[branch] += 1
            assert sum(m is bnd for m in seen) == (branch == "snf"), (branch, i)
    assert counts == branches


_RESIDUE_POINTS = [
    GaussRat(0),
    GaussRat(Fraction(1, 2)),
    GaussRat(-3),
    GaussRat(0, 1),
    GaussRat(Fraction(-2, 3), Fraction(1, 5)),
]


def _regular_entry(rng, t0):
    """Zero one time in four; otherwise a Gaussian-rational function with a
    non-constant denominator regular at t0, vanishing there one time in three."""
    if not rng.randrange(4):
        return ZERO
    zero_at = t0 if not rng.randrange(3) else None
    while True:
        f = random_ratfunc(rng, zero_at)
        if f.den.degree > 0 and f.is_regular_at(t0):
            return f


def _residue_cases(rng, t0, count):
    """Seeded matrices up to 5x5, empty shapes included, with zero rows,
    repeated rows and rows that are dependent only at t0."""
    for _ in range(count):
        nrows, ncols = rng.randrange(6), rng.randrange(6)
        rows = [[_regular_entry(rng, t0) for _ in range(ncols)] for _ in range(nrows)]
        for j in range(1, nrows):
            kind = rng.randrange(4)
            if kind == 0:
                rows[j] = [ZERO] * ncols
            elif kind == 1:
                rows[j] = list(rows[rng.randrange(j)])
            elif kind == 2:
                g = _regular_entry(rng, t0)
                a, b = rng.sample(range(j), 2) if j > 1 else (0, 0)
                rows[j] = [x + (T - t0) * g * y for x, y in zip(rows[a], rows[b])]
        yield Matrix(rows, ncols)


@pytest.mark.parametrize("t0", _RESIDUE_POINTS, ids=str)
def test_residue_rank_equals_the_rank_of_the_evaluated_matrix(t0):
    rng = random.Random(2800 + _RESIDUE_POINTS.index(t0))
    ranks = []
    for mat in _residue_cases(rng, t0, 150):
        want = mat.map(lambda e: e.evaluate(t0)).rank()
        assert _residue_rank(mat, t0) == want, (mat.rows, t0)
        ranks.append((want, mat.rank()))
    assert any(at < generic for at, generic in ranks)
    assert {0, 1, 2, 3} <= {at for at, _ in ranks}


def test_residue_rank_of_empty_and_zero_matrices():
    for shape in ((0, 0), (0, 4), (3, 0)):
        assert _residue_rank(Matrix([[ZERO] * shape[1]] * shape[0], shape[1]), 1) == 0
    assert _residue_rank(Matrix.zeros(3, 2), GaussRat(0, 1)) == 0
    assert _residue_rank(Matrix([[T, ONE], [T, ONE]]), 0) == 1
    assert _residue_rank(Matrix([[T, ONE], [ONE, T]]), 1) == 1


def test_residue_rank_is_exact_where_a_word_size_prime_divides_a_minor():
    """Rank 2 over Q(i), rank 1 modulo each prime below: a rank over a
    prime field would undercount it."""
    primes = [2**31 - 1, 2**32 - 5, 10**9 + 7, 998244353, 2**61 - 1, 2**62 - 57, 2**63 - 25,
              2**64 - 59]
    m = prod(primes)
    i = RatFunc.coerce(GaussRat(0, 1))
    rows = [[ONE, i], [ONE, i + m * (1 + i)]]
    for den in (ONE, T * T + 1, 1 / (3 * T - 1)):
        mat = Matrix([[e / den for e in row] for row in rows])
        for t0 in (GaussRat(Fraction(1, 2)), GaussRat(2, 3)):
            assert _residue_rank(mat, t0) == 2


def test_residue_rank_equals_sympy_over_gaussian_rationals():
    pytest.importorskip("sympy")
    from sympy import QQ, QQ_I
    from sympy.polys.matrices import DomainMatrix

    def gauss(x):
        return QQ_I(QQ(x.re.numerator, x.re.denominator), QQ(x.im.numerator, x.im.denominator))

    rng = random.Random(2810)
    for t0 in _RESIDUE_POINTS:
        for mat in _residue_cases(rng, t0, 40):
            values = [[gauss(e.evaluate(t0)) for e in row] for row in mat.rows]
            assert _residue_rank(mat, t0) == DomainMatrix(values, mat.shape(), QQ_I).rank()


def test_residue_rank_of_a_dense_40x40_matrix_of_6_digit_entries_is_quick():
    """Rank 39, the last row a combination of three others.  Fraction-free
    updates keep every entry a minor, so this takes a fraction of a second;
    a division-free cascade would double the digits at every step."""
    rng = random.Random(2840)
    rows = [
        [RatFunc.coerce(GaussRat(rng.randrange(-10**6, 10**6), rng.randrange(-10**6, 10**6)))
         for _ in range(40)]
        for _ in range(39)
    ]
    rows.append([2 * a - 3 * b + GaussRat(0, 5) * c for a, b, c in zip(*rows[:3])])
    mat = Matrix(rows)
    start = time.perf_counter()
    assert _residue_rank(mat, GaussRat(Fraction(1, 3))) == 39
    assert time.perf_counter() - start < 1.0
