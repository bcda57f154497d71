"""The sparse local analysis of ``dvr`` against its dense references.

``dvr_oracle`` keeps the dense Smith form and the duality check that
builds the dual complex.  On seeded corpora both sides must give the
same divisor profiles, the same verdicts and the same messages.
"""

import random
from fractions import Fraction

from dvr_oracle import dense_duality_check, dense_snf_local
from rebasing import matrix_rebasings

from torsionfam.complexes import BasedChainComplex
from torsionfam.corpus import acceptance_corpus, random_local_matrix, random_ratfunc
from torsionfam.dvr import DualityError, check_duality_pairing, snf_local
from torsionfam.linalg import Matrix
from torsionfam.ratfunc import RatFunc, uniformizer
from torsionfam.scalars import GaussRat

T = RatFunc.var()
# t0 = i and a non-integer point, besides the planted integer centers
EXTRA_POINTS = (GaussRat(0, 1), GaussRat(Fraction(1, 2)))


def outcome(fn, *args):
    """The value, or the type and message of the ValueError raised."""
    try:
        return fn(*args)
    except ValueError as err:
        return type(err), str(err)


def assert_profiles_match(mat, t0):
    want = outcome(dense_snf_local, mat, t0)
    assert outcome(snf_local, mat, t0) == want, (mat, t0)


def local_matrix_at(rng, t0, nrows, ncols):
    """Entries regular at t0, about a third zero, each carrying a drawn
    power of (t - t0), so the divisors at t0 are not all 0."""
    u = uniformizer(t0)
    rows = []
    for _ in range(nrows):
        row = []
        for _ in range(ncols):
            e = RatFunc.zero()
            if rng.randrange(3):
                e = random_ratfunc(rng)
                while not e.is_regular_at(t0):
                    e = random_ratfunc(rng)
                e = e * u ** rng.randrange(3)
            row.append(e)
        rows.append(row)
    return Matrix(rows, ncols)


def test_sparse_snf_matches_dense_on_corpus_boundaries():
    """Corpus boundaries at their centers, at i and at 1/2 (where some
    have poles, so the error path is compared too), and their
    row and column permutations."""
    perm_rng = random.Random(2101)
    for fam in acceptance_corpus(12, 2100):
        points = [GaussRat(x) for x in fam.centers] + list(EXTRA_POINTS)
        for mat in fam.complex.boundaries:
            for t0 in points:
                for m in [mat, *matrix_rebasings(perm_rng, mat, count=1)]:
                    assert_profiles_match(m, t0)


def test_sparse_snf_matches_dense_on_random_local_matrices():
    """random_local_matrix at 0, and matrices local at i and at 1/2 whose
    divisors there are not all 0, with their row and column permutations."""
    rng, perm_rng = random.Random(2102), random.Random(2103)
    for _ in range(60):
        mat = random_local_matrix(rng, rng.randrange(1, 6), rng.randrange(1, 6))
        for m in [mat, *matrix_rebasings(perm_rng, mat)]:
            assert_profiles_match(m, 0)
    for t0 in EXTRA_POINTS:
        degenerate = 0
        for _ in range(25):
            mat = local_matrix_at(rng, t0, rng.randrange(1, 5), rng.randrange(1, 5))
            degenerate += snf_local(mat, t0).total_valuation() > 0
            for m in [mat, *matrix_rebasings(perm_rng, mat)]:
                assert_profiles_match(m, t0)
        assert degenerate >= 5


def faulty_pairings(c, pairing, t0):
    """(name, pairing) planted faults for the duality check at t0."""
    u = uniformizer(t0)
    out = []
    for i, p in enumerate(pairing):
        out.append((f"negated {i}", pairing[:i] + [-p] + pairing[i + 1:]))
        wrong = Matrix.identity(p.nrows + 1)
        out.append((f"shape {i}", pairing[:i] + [wrong] + pairing[i + 1:]))
        out.append((f"pole {i}", pairing[:i] + [p.scale(1 / u)] + pairing[i + 1:]))
    out.append(("scaled by t - 1", [p.scale(T - 1) for p in pairing]))
    out.append(("too short", pairing[:-1]))
    return out


def test_sparse_duality_check_matches_dense():
    """Same verdict and message on the corpus pairings and on planted
    faults, on a fresh complex and on one whose memo holds the pairing."""
    messages = set()
    for fam in acceptance_corpus(12, 2104):
        c, good = fam.complex, list(fam.pairing)
        for x in [*fam.centers, 1]:
            t0 = GaussRat(x)
            for name, pairing in [("good", good), *faulty_pairings(c, good, t0)]:
                want = outcome(dense_duality_check, c, pairing, t0)
                fresh = BasedChainComplex(c.ranks, c.boundaries)
                assert outcome(check_duality_pairing, fresh, pairing, t0) == want, name
                check_duality_pairing(c, good, GaussRat(fam.centers[0]))  # fill the memo
                assert outcome(check_duality_pairing, c, pairing, t0) == want, name
                if want is not None:
                    assert want[0] is DualityError
                    messages.add(want[1])
    for phrase in ("needs", "has shape", "not defined", "not invertible", "not a chain map"):
        assert any(phrase in msg for msg in messages), phrase


def test_scaled_pairing_is_rejected_only_at_one():
    fam = acceptance_corpus(12, 2104)[0]
    c, scaled = fam.complex, [p.scale(T - 1) for p in fam.pairing]
    for x in (-1, 0, 1, 2):
        t0 = GaussRat(x)
        want = outcome(dense_duality_check, c, scaled, t0)
        assert (want is not None) == (x == 1)
        assert outcome(check_duality_pairing, c, scaled, t0) == want
