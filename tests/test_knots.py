import random
import time
from math import gcd

import pytest
from knot_oracle import (
    _alexander_complex,
    _centered_unit_form,
    _fox_columns,
    braid_closure,
    burau_alexander,
    interpolated_kernel,
    random_knot_braid,
    torsion_alexander,
)
from laurent_oracle import _laurent_det, conway_in_z, exact_div

from torsionfam import knots
from torsionfam.corpus import random_word
from torsionfam.groupring import RepFamily, Word, format_word, presentation_complex
from torsionfam.knots import (
    ConwayPolynomial,
    KnotPresentation,
    LaurentInt,
    SeifertMatrix,
    _centered_unit_terms,
    _conway_in_z,
    _laurent_minor,
    _seifert_alexander,
    _two_bridge_presentation,
    alexander_from_fox,
    bundled_knots,
    conway_from_seifert,
    conway_normalize,
)
from torsionfam.linalg import Matrix
from torsionfam.ratfunc import RatFunc

EXPECTED_CONWAY = {
    "unknot": (1,),
    "trefoil": (1, 0, 1),
    "figure8": (1, 0, -1),
    "5_1": (1, 0, 3, 0, 1),
    "5_2": (1, 0, 2),
}

EXPECTED_DELTA = {
    "unknot": {0: 1},
    "trefoil": {-1: 1, 0: -1, 1: 1},
    "figure8": {-1: -1, 0: 3, 1: -1},
    "5_1": {-2: 1, -1: -1, 0: 1, 1: -1, 2: 1},
    "5_2": {-1: 2, 0: -3, 1: 2},
}


def test_laurent_arithmetic():
    a = LaurentInt({1: 1, -1: -1})
    assert a * a == LaurentInt({2: 1, 0: -2, -2: 1})
    assert (a - a).is_zero()
    assert LaurentInt({-e: c for e, c in a.terms.items()}) == -a
    assert (a * LaurentInt({2: 1})).terms == {3: 1, 1: -1}


def test_exact_div():
    a = LaurentInt({1: 1, -1: -1})
    b = LaurentInt({0: 2, 1: -3, 3: 5})
    assert exact_div(a * b, b) == a
    assert exact_div(a * b, a) == b
    # quotients with negative exponents, and a monomial divisor
    c = LaurentInt({-4: 3, -2: -1})
    assert exact_div(c * a, a) == c
    assert exact_div(LaurentInt({-3: 6, 2: -4}), LaurentInt({-1: 2})) == LaurentInt(
        {-2: 3, 3: -2}
    )
    assert exact_div(LaurentInt({}), b).is_zero()


def test_exact_div_raises_when_inexact():
    # a coefficient that the leading coefficient does not divide
    with pytest.raises(ArithmeticError):
        exact_div(LaurentInt({0: 3}), LaurentInt({0: 2}))
    with pytest.raises(ArithmeticError):
        exact_div(LaurentInt({2: 2, 0: 1}), LaurentInt({1: 2}))
    # the quotient would drop below min(a) - min(b): (1 + t) does not
    # divide 1 + t^2, the remainder 2 never clears
    with pytest.raises(ArithmeticError):
        exact_div(LaurentInt({0: 1, 2: 1}), LaurentInt({0: 1, 1: 1}))
    with pytest.raises(ArithmeticError):
        exact_div(LaurentInt({-1: 1, 1: 1}), LaurentInt({-1: 1, 0: 1}))
    with pytest.raises(ZeroDivisionError):
        exact_div(LaurentInt({0: 1}), LaurentInt({}))


# -- Seifert determinant against slow-path oracles ----------------------------


def _cofactor_det(rows):
    """Cofactor expansion along the first row: the O(n!) reference."""
    n = len(rows)
    if n == 0:
        return LaurentInt({0: 1})
    total = LaurentInt({})
    for k in range(n):
        c = rows[0][k]
        if c.is_zero():
            continue
        minor = [[rows[j][col] for col in range(n) if col != k] for j in range(1, n)]
        term = c * _cofactor_det(minor)
        total = total + term if k % 2 == 0 else total - term
    return total


def _seifert_form(v):
    """The matrix s V - (1/s) V^T whose determinant the oracle takes."""
    n = len(v)
    return [[LaurentInt({1: v[j][k], -1: -v[k][j]}) for k in range(n)] for j in range(n)]


def _sample_seifert(rng, n, density):
    return [
        [rng.randint(-3, 3) if rng.random() < density else 0 for _ in range(n)]
        for _ in range(n)
    ]


def _seifert_cases(seed, sizes):
    """Dense, sparse, singular and zero-first-column integer matrices."""
    rng = random.Random(seed)
    for n in sizes:
        for density in (1.0, 0.5, 0.25):
            for _ in range(4):
                yield _sample_seifert(rng, n, density)
        if n >= 2:
            v = _sample_seifert(rng, n, 1.0)
            yield [row[:] for row in v[:-1]] + [v[0][:]]  # repeated row
            for row in v:
                row[0] = 0
            yield v  # zero first column of V: the first pivot needs a swap
            v = [row[:] for row in v]
            v[0] = [0] * n
            yield v  # zero first row too: the first column of sV - V^T/s vanishes
            v = _sample_seifert(rng, n, 1.0)
            for j in range(n):
                v[j][j] = 0
            yield v  # zero diagonal: every pivot may need a swap


def _sample_laurent(rng, density):
    if rng.random() >= density:
        return LaurentInt({})
    return LaurentInt({rng.randint(-2, 2): rng.randint(-4, 4) for _ in range(3)})


@pytest.mark.parametrize("seed", [11, 12])
def test_bareiss_det_equals_cofactor_det(seed):
    for v in _seifert_cases(seed, range(7)):
        rows = _seifert_form(v)
        assert _laurent_det(rows) == _cofactor_det(rows), v
    # entries of several terms, so pivots are not monomials
    rng = random.Random(seed)
    for n in range(6):
        for density in (1.0, 0.6, 0.3):
            rows = [[_sample_laurent(rng, density) for _ in range(n)] for _ in range(n)]
            assert _laurent_det(rows) == _cofactor_det(rows), rows


def test_bareiss_det_needs_row_swaps_with_their_signs():
    a, b = LaurentInt({1: 2, -1: -1}), LaurentInt({0: 3})
    zero = LaurentInt({})
    # det [[0, a], [b, 0]] = -a b, reached only by swapping the rows
    assert _laurent_det([[zero, a], [b, zero]]) == -(a * b)
    perm = [[zero, zero, a], [zero, b, zero], [b, zero, zero]]
    assert _laurent_det(perm) == _cofactor_det(perm) == -(a * b * b)
    assert _laurent_det([[zero, a], [zero, b]]).is_zero()


def test_bareiss_det_equals_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    s = sympy.Symbol("s")
    ring = sympy.ZZ[s]
    for v in _seifert_cases(13, range(11)):
        n = len(v)
        # s^n det(s V - V^T / s) = det(s^2 V - V^T), a polynomial determinant
        m = DomainMatrix(
            [[ring.from_sympy(s**2 * v[j][k] - v[k][j]) for k in range(n)] for j in range(n)],
            (n, n),
            ring,
        )
        det = _laurent_det(_seifert_form(v))
        ours = sum((c * s ** (e + n) for e, c in det.terms.items()), sympy.Integer(0))
        assert sympy.expand(ring.to_sympy(m.det()) - ours) == 0, v


def _congruent(rng, v):
    """P V P^T for a unimodular P drawn from elementary row moves."""
    n = len(v)
    p = [[int(j == k) for k in range(n)] for j in range(n)]
    for _ in range(2 * n):
        j, k = rng.sample(range(n), 2)
        c = rng.choice((1, -1))
        p[j] = [a + c * b for a, b in zip(p[j], p[k])]
    rng.shuffle(p)
    pv = [[sum(p[j][i] * v[i][k] for i in range(n)) for k in range(n)] for j in range(n)]
    return [[sum(pv[j][i] * p[k][i] for i in range(n)) for k in range(n)] for j in range(n)]


def test_genus_five_oracle():
    """Five trefoils: a 10x10 Seifert matrix, far past cofactor expansion."""
    trefoil = bundled_knots()["trefoil"][1].entries
    v = [[0] * 10 for _ in range(10)]
    for b in range(5):
        for j in range(2):
            v[2 * b + j][2 * b : 2 * b + 2] = trefoil[j]
    v = _congruent(random.Random(5), v)
    assert sum(e != 0 for row in v for e in row) > 50
    start = time.perf_counter()
    nabla = conway_from_seifert(SeifertMatrix(tuple(map(tuple, v))))
    assert time.perf_counter() - start < 5.0
    # the Conway polynomial of a connected sum is the product: (1 + z^2)^5
    assert nabla.coefficients == (1, 0, 5, 0, 10, 0, 10, 0, 5, 0, 1)


# -- the integer determinant f(t) = det(t V - V^T) against the references -------


def _as_laurent(f):
    """s^-n f(s^2): the Laurent determinant that ascending f stands for."""
    n = len(f) - 1
    return LaurentInt({2 * i - n: a for i, a in enumerate(f)})


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_seifert_alexander_equals_laurent_bareiss(seed):
    cases = 0
    for v in _seifert_cases(seed, range(11)):
        f = _seifert_alexander(v)
        assert len(f) == len(v) + 1
        assert _as_laurent(f) == _laurent_det(_seifert_form(v)), v
        cases += 1
    assert cases == 12 * 11 + 4 * 9


def test_seifert_alexander_equals_cofactor_det():
    for v in _seifert_cases(14, range(7)):
        assert _as_laurent(_seifert_alexander(v)) == _cofactor_det(_seifert_form(v)), v


def test_seifert_alexander_equals_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    t = sympy.Symbol("t")
    ring = sympy.ZZ[t]
    for v in _seifert_cases(15, range(11)):
        n = len(v)
        m = DomainMatrix(
            [[ring.from_sympy(t * v[j][k] - v[k][j]) for k in range(n)] for j in range(n)],
            (n, n),
            ring,
        )
        f = _seifert_alexander(v)
        ours = sum((a * t**i for i, a in enumerate(f)), sympy.Integer(0))
        assert sympy.expand(ring.to_sympy(m.det()) - ours) == 0, v


def test_singular_form_is_rejected_as_before():
    # V = 0 gives det = 0, which has no constant term 1
    with pytest.raises(ValueError, match="constant term is not 1"):
        conway_from_seifert(SeifertMatrix(((0, 0), (0, 0))))
    # a symmetric V makes s V - V^T / s = z V singular in the same way
    with pytest.raises(ValueError, match="constant term is not 1"):
        conway_from_seifert(SeifertMatrix(((1, 2), (2, 1))))


def test_scrambled_n24_connected_sum_is_the_product_of_its_components():
    """Ten components, 24x24 Seifert matrix under a unimodular congruence."""
    table = bundled_knots()
    names = ["trefoil", "figure8", "5_2", "5_1"] * 2 + ["5_2", "trefoil"]
    assert sum(table[name][1].size for name in names) == 24
    v = [[0] * 24 for _ in range(24)]
    at = 0
    product = LaurentInt({0: 1})  # in z
    for name in names:
        block = table[name][1].entries
        for j, row in enumerate(block):
            v[at + j][at : at + len(row)] = row
        at += len(block)
        product = product * LaurentInt(enumerate(EXPECTED_CONWAY[name]))
    v = _congruent(random.Random(24), v)
    assert sum(e != 0 for row in v for e in row) > 300
    nabla = conway_from_seifert(SeifertMatrix(tuple(map(tuple, v))))
    expected = tuple(product.terms.get(k, 0) for k in range(max(product.terms) + 1))
    assert nabla.coefficients == expected


# -- Fox path: spec examples ----------------------------------------------------


def test_unknot_alexander():
    pres, _ = bundled_knots()["unknot"]
    assert alexander_from_fox(pres) == LaurentInt({0: 1})


def test_trefoil_alexander():
    pres, _ = bundled_knots()["trefoil"]
    assert alexander_from_fox(pres) == LaurentInt(EXPECTED_DELTA["trefoil"])


def test_figure8_alexander():
    pres, _ = bundled_knots()["figure8"]
    assert alexander_from_fox(pres) == LaurentInt(EXPECTED_DELTA["figure8"])


@pytest.mark.parametrize("name", sorted(EXPECTED_DELTA))
def test_alexander_values(name):
    pres, _ = bundled_knots()[name]
    assert alexander_from_fox(pres).terms == EXPECTED_DELTA[name]


@pytest.mark.parametrize("name", sorted(EXPECTED_CONWAY))
def test_alexander_symmetry_and_unit(name):
    pres, _ = bundled_knots()[name]
    terms = alexander_from_fox(pres).terms
    assert {-e: c for e, c in terms.items()} == terms
    assert sum(terms.values()) == 1


def test_degenerate_presentation_rejected():
    # the commutator presents a torus, not a knot: Delta(1) = 0 there
    rel = Word([(0, 1), (1, 1), (0, -1), (1, -1)])
    pres = KnotPresentation(strands=2, wirtinger_relators=(rel,))
    with pytest.raises(ValueError, match="degenerate presentation"):
        alexander_from_fox(pres)


@pytest.mark.parametrize("p, q, name", [(5, 2, "figure8"), (7, 2, "5_2"), (7, 4, "5_2")])
def test_two_bridge_even_q_is_the_same_knot(p, q, name):
    delta = alexander_from_fox(_two_bridge_presentation(p, q))
    assert delta == LaurentInt(EXPECTED_DELTA[name])


@pytest.mark.parametrize("p, q", [(6, 1), (8, 3), (9, 3), (15, 10)])
def test_two_bridge_rejects_non_knot_parameters(p, q):
    with pytest.raises(ValueError, match=rf"^S\({p}, {q}\) is not a two-bridge knot"):
        _two_bridge_presentation(p, q)


def _unit_centered(delta):
    lo, hi = delta.support()[0], delta.support()[-1]
    sign = 1 if sum(delta.terms.values()) == 1 else -1
    return LaurentInt({e - (lo + hi) // 2: sign * c for e, c in delta.terms.items()})


def _hartley(p, q):
    """Hartley's closed form sum_{k<p} (-1)^k t^sigma_k for odd q."""
    terms, sigma = {}, 0
    for k in range(p):
        if k:
            sigma += (-1) ** ((k * q) // p)
        terms[sigma] = terms.get(sigma, 0) + (-1) ** k
    return _unit_centered(LaurentInt(terms))


def test_two_bridge_corpus():
    """Every S(p, q) with odd p <= 21: Hartley, Schubert and |Delta(-1)| = p.

    94 knots through the Fox path; about 3 s on a 2-CPU x86 machine.
    """
    start = time.perf_counter()
    deltas = {
        (p, q): alexander_from_fox(_two_bridge_presentation(p, q))
        for p in range(3, 22, 2)
        for q in range(1, p)
        if gcd(p, q) == 1
    }
    elapsed = time.perf_counter() - start
    assert len(deltas) == 94
    for (p, q), delta in deltas.items():
        if q % 2:
            assert delta == _hartley(p, q), (p, q)
        inv = pow(q, -1, p)
        for partner in (p - q, inv, p - inv):
            assert deltas[p, partner] == delta, (p, q, partner)
        at_minus_one = sum(c * (-1) ** (e % 2) for e, c in delta.terms.items())
        assert abs(at_minus_one) == p, (p, q)
    assert elapsed < 15.0


# -- the Alexander matrix read off the relators, against presentation_complex ----


def _abelianization_family(ngens):
    """Every generator to the 1x1 matrix t, as a general representation."""
    t = Matrix([[RatFunc.var()]])
    return RepFamily(rank=1, images=tuple(t for _ in range(ngens)))


def _fields(cplx):
    """Ranks, shapes and the integer fields of every entry's num and den."""
    return cplx.ranks, [
        (
            b.shape(),
            [
                [(e.num.re, e.num.im, e.num.den, e.den.re, e.den.im, e.den.den) for e in row]
                for row in b.rows
            ],
        )
        for b in cplx.boundaries
    ]


def _reference_complex(k):
    rho = _abelianization_family(k.strands)
    return presentation_complex(k.strands, list(k.wirtinger_relators), rho)


def _relabel(word, gens):
    return Word((gens[g], e) for g, e in word.letters)


def _connected_sum(parts):
    """Two-bridge summands on disjoint generator pairs, joined by x0 x_2k^-1."""
    relators = [Word([(0, 1), (2 * k, -1)]) for k in range(1, len(parts))]
    for k, (p, q) in enumerate(parts):
        rel = _two_bridge_presentation(p, q).wirtinger_relators[0]
        relators.append(_relabel(rel, (2 * k, 2 * k + 1)))
    return KnotPresentation(strands=2 * len(parts), wirtinger_relators=tuple(relators))


def _seeded_presentations(seed, count):
    """Conjugation-shaped presentations on 3 to 6 generators, some unused.

    Relators are w x_a w^-1 x_b^-1 and commutators of random words, so
    inverse letters, repeated generators and trivial exponent sums all
    occur; most are not knot groups, and none needs to be.
    """
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(3, 6)
        used = rng.sample(range(n), rng.randint(2, n))
        relators = []
        for _ in range(rng.randint(1, 4)):
            w = _relabel(random_word(rng, len(used), 8), used)
            if rng.random() < 0.7:
                a, b = rng.choice(used), rng.choice(used)
                relators.append(w * Word.generator(a) * w.inverse() * Word.generator(b, -1))
            else:
                v = _relabel(random_word(rng, len(used), 5), used)
                relators.append(w * v * w.inverse() * v.inverse())
        yield KnotPresentation(strands=n, wirtinger_relators=tuple(relators))


def _fox_cases():
    """Two-bridge knots, the bundled knots, presentations without relators,
    connected sums and seeded presentations: every input shape the Fox
    path takes, 173 of them."""
    rng = random.Random(41)
    pairs = [(p, q) for p in range(3, 22, 2) for q in range(1, p) if gcd(p, q) == 1]
    small = [(p, q) for p, q in pairs if p < 16]
    sums = [_connected_sum(rng.sample(small, rng.randint(2, 3))) for _ in range(12)]
    cases = (
        [_two_bridge_presentation(p, q) for p, q in pairs]
        + [pres for pres, _ in bundled_knots().values()]
        + [KnotPresentation(strands=1, wirtinger_relators=())]
        + [KnotPresentation(strands=3, wirtinger_relators=())]
        + sums
        + list(_seeded_presentations(42, 60))
    )
    assert len(cases) == 94 + 5 + 2 + 12 + 60
    return cases


def _square_presentations(seed, count):
    """strands - 1 relators w x_a w^-1 x_b^-1 on 2 to 4 generators, so every
    one reaches the minor; about a fifth have a Delta, the rest raise."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, 4)
        relators = []
        for _ in range(n - 1):
            w = random_word(rng, n, 6)
            a, b = rng.randrange(n), rng.randrange(n)
            relators.append(w * Word.generator(a) * w.inverse() * Word.generator(b, -1))
        yield KnotPresentation(strands=n, wirtinger_relators=tuple(relators))


def test_alexander_complex_equals_presentation_complex():
    """Field-identical boundaries on every input shape the Fox path takes."""
    cases = _fox_cases()
    for k in cases:
        assert _fields(_alexander_complex(k)) == _fields(_reference_complex(k)), k
    seeded = cases[-60:]
    used = [{g for rel in k.wirtinger_relators for g, _ in rel.letters} for k in seeded]
    assert sum(len(u) < k.strands for u, k in zip(used, seeded)) > 10
    assert sum(len(k.wirtinger_relators) > 1 for k in seeded) > 20


def _alexander_outcome(fn, k):
    """The Delta fn returns, or the message of the ValueError it raises."""
    try:
        return fn(k)
    except ValueError as exc:
        return str(exc)


def _braid_closures(seed, sizes):
    rng = random.Random(seed)
    for crossings in sizes:
        yield braid_closure(5, random_knot_braid(rng, 5, crossings))


def test_integer_minor_equals_torsion_route():
    """Delta and error text of the Z[t, 1/t] minor against (t - 1) / torsion."""
    closures = list(_braid_closures(44, range(4, 61, 2)))
    cases = _fox_cases() + list(_square_presentations(46, 300)) + closures
    outcomes = []
    for k in cases:
        want = _alexander_outcome(torsion_alexander, k)
        assert _alexander_outcome(alexander_from_fox, k) == want, k
        outcomes.append(want)
    degenerate = [o for o in outcomes if isinstance(o, str)]
    assert len(degenerate) > 40
    assert {
        "degenerate presentation: torsion undefined: complex not generically acyclic",
        "degenerate presentation: Delta(1) must be +1 or -1",
    } <= set(degenerate)
    assert sum(isinstance(o, LaurentInt) for o in outcomes[173:-len(closures)]) > 40
    deltas = outcomes[-len(closures) :]
    assert all(isinstance(delta, LaurentInt) for delta in deltas)
    assert max(len(delta.terms) for delta in deltas) > 10


def test_relator_order_does_not_change_delta():
    """Reversed relators, so no column meets its new arc's row first."""
    for k in _braid_closures(45, range(10, 41, 10)):
        flipped = KnotPresentation(k.strands, tuple(reversed(k.wirtinger_relators)))
        assert alexander_from_fox(flipped) == alexander_from_fox(k) == torsion_alexander(k)


def test_block_without_unit_entries_is_interpolated():
    """S(7, 3) on x0, x1 and S(9, 5) on x1, x2 share the meridian x1: their
    connected sum, whose minor is a 2x2 block with no unit entry."""
    left = _two_bridge_presentation(7, 3).wirtinger_relators[0]
    right = _relabel(_two_bridge_presentation(9, 5).wirtinger_relators[0], (1, 2))
    pres = KnotPresentation(strands=3, wirtinger_relators=(left, right))
    entries = [col.get(g) for col in _fox_columns(pres) for g in (1, 2)]
    assert sum(map(bool, entries)) == 3
    assert all(len(a) > 1 for a in entries if a)
    product = alexander_from_fox(_two_bridge_presentation(7, 3)) * alexander_from_fox(
        _two_bridge_presentation(9, 5)
    )
    assert alexander_from_fox(pres) == product == torsion_alexander(pres)


def _up_to_unit(terms):
    """The associate of a Laurent polynomial with lowest exponent 0 and a
    positive lowest coefficient."""
    if not terms:
        return {}
    lo = min(terms)
    sign = 1 if terms[lo] > 0 else -1
    return {e - lo: sign * c for e, c in terms.items()}


def _sample_minor_entry(rng):
    kind = rng.random()
    if kind < 0.4:
        return {rng.randint(-2, 2): rng.choice((1, -1))}  # a unit: a pivot
    if kind < 0.6:
        return {rng.randint(-2, 2): rng.choice((2, -2, 3))}  # a monomial, no pivot
    return {e: c for e in range(rng.randint(-2, 0), rng.randint(1, 3)) if (c := rng.randint(-2, 2))}


@pytest.mark.parametrize("seed", [47, 48])
def test_laurent_minor_equals_laurent_bareiss(seed):
    """_laurent_minor up to +- t^k against the Laurent Bareiss determinant,
    on sparse matrices of units, non-unit monomials and longer entries."""
    rng = random.Random(seed)
    zeros = 0
    for _ in range(300):
        n, density = rng.randint(0, 6), rng.choice((0.3, 0.6, 1.0))
        entries = [
            [_sample_minor_entry(rng) if rng.random() < density else {} for _ in range(n)]
            for _ in range(n)
        ]
        rows = {i: {j: a for j, a in enumerate(row) if a} for i, row in enumerate(entries)}
        want = _laurent_det([[LaurentInt(a) for a in row] for row in entries]).terms
        zeros += not want
        assert _up_to_unit(_laurent_minor(rows)) == _up_to_unit(want), entries
    assert 20 < zeros < 200
    # column 0 holds the monomial 2 and the unit 1, in rows of equal length:
    # only the unit is a pivot; det [[2, 1 + t], [1, t]] = t - 1
    hand = {0: {0: {0: 2}, 1: {0: 1, 1: 1}}, 1: {0: {0: 1}, 1: {1: 1}}}
    assert _up_to_unit(_laurent_minor(hand)) == {0: 1, 1: -1}


@pytest.mark.parametrize("crossings", [160, 240])
def test_braid_closure_matches_burau(crossings):
    """The minor of I - psi(beta) against the Fox path at braid scale."""
    word = random_knot_braid(random.Random(crossings), 5, crossings)
    delta = alexander_from_fox(braid_closure(5, word))
    assert delta == burau_alexander(5, word)
    assert len(delta.terms) > 20


def test_minor_cap_admits_960_crossing_closures(monkeypatch):
    """Of 21 seeded 5-braid closures of 960 crossings, this one leaves the
    4x4 block of the largest degree bound, 1030; it passes
    ``MAX_MINOR_WORK``, which is checked before any evaluation."""
    seen = []

    class Evaluated(Exception):
        pass

    def spy(matrix_at, norms, degree):
        seen.append((len(matrix_at(0)), degree))
        raise Evaluated

    monkeypatch.setattr(knots, "_kronecker_det", spy)
    with pytest.raises(Evaluated):
        alexander_from_fox(braid_closure(5, random_knot_braid(random.Random(18), 5, 960)))
    assert seen == [(4, 1030)]


@pytest.mark.parametrize("seed", [61, 62])
def test_kronecker_det_equals_the_interpolation_oracle(monkeypatch, seed):
    """One determinant at t = 2^b against n + 1 of them and a Newton pass,
    on the blocks that the Seifert oracle and the knot minor hand over:
    each call is recorded with its result, the real kernel still run."""
    calls, kernel = [], knots._kronecker_det

    def record(matrix_at, norms, degree):
        calls.append((matrix_at, norms, degree, kernel(matrix_at, norms, degree)))
        return calls[-1][-1]

    monkeypatch.setattr(knots, "_kronecker_det", record)
    for v in _seifert_cases(seed, range(11)):
        _seifert_alexander(v)
    seifert = len(calls)
    assert seifert == 12 * 11 + 4 * 9
    rng = random.Random(seed)
    for _ in range(300):
        n = rng.randint(2, 6)
        entries = [
            [_sample_minor_entry(rng) if rng.random() < 0.7 else {} for _ in range(n)]
            for _ in range(n)
        ]
        _laurent_minor({i: {j: a for j, a in enumerate(row) if a} for i, row in enumerate(entries)})
    blocks = [len(norms) for _, norms, _, _ in calls[seifert:]]
    assert len(blocks) > 100 and max(blocks) >= 4
    for crossings in (160, 240):
        word = random_knot_braid(random.Random(crossings), 5, crossings)
        alexander_from_fox(braid_closure(5, word))
    assert calls[-1][2] > 150
    for matrix_at, norms, degree, coeffs in calls:
        assert coeffs == interpolated_kernel(matrix_at, norms, degree), (norms, degree)


def test_connected_sum_alexander_is_the_product():
    rng = random.Random(43)
    odd = [(p, q) for p in range(3, 14, 2) for q in range(1, p, 2) if gcd(p, q) == 1]
    for _ in range(8):
        parts = rng.sample(odd, rng.randint(2, 3))
        product = LaurentInt({0: 1})
        for p, q in parts:
            product = product * alexander_from_fox(_two_bridge_presentation(p, q))
        assert alexander_from_fox(_connected_sum(parts)) == product, parts


def test_unrespected_relator_keeps_the_reference_message():
    pres = KnotPresentation(strands=2, wirtinger_relators=())
    # a relator the shape check would refuse, planted past it
    object.__setattr__(pres, "wirtinger_relators", (Word([(0, 1), (1, 1)]),))
    with pytest.raises(ValueError) as direct:
        _alexander_complex(pres)
    with pytest.raises(ValueError) as reference:
        _reference_complex(pres)
    assert str(direct.value) == str(reference.value)
    assert str(direct.value) == "relator 'x0 x1' is not respected by the representation"


def test_presentation_without_relators_is_degenerate():
    pres = KnotPresentation(strands=2, wirtinger_relators=())
    with pytest.raises(ValueError) as info:
        alexander_from_fox(pres)
    assert str(info.value) == (
        "degenerate presentation: torsion undefined: complex not generically acyclic"
    )


def test_presentation_shape_validation():
    with pytest.raises(ValueError, match="conjugation-shaped"):
        KnotPresentation(strands=2, wirtinger_relators=(Word([(0, 1), (1, 1)]),))
    with pytest.raises(ValueError, match="undeclared"):
        KnotPresentation(strands=1, wirtinger_relators=(Word([(1, 1), (0, -1)]),))


# -- only the rows of D_2: generator 0's letters and unrespected relators ----------


def _planted(strands, relators):
    """A presentation holding relators the shape check would refuse."""
    pres = KnotPresentation(strands=strands, wirtinger_relators=())
    object.__setattr__(pres, "wirtinger_relators", tuple(relators))
    return pres


def _conjugate(rng, gens, length):
    """w x_a w^-1 x_b^-1 with w's letters, a and b drawn from gens."""
    w = Word((rng.choice(gens), rng.choice((1, -1))) for _ in range(length))
    a, b = rng.choice(gens), rng.choice(gens)
    return w * Word.generator(a) * w.inverse() * Word.generator(b, -1)


def _unrespected(rng, n):
    """A word whose exponent sum is not 0, so x_g -> t does not kill it."""
    while True:
        w = random_word(rng, n, 6)
        if sum(e for _, e in w.letters):
            return w


def _d2_cases(seed):
    """(kind, presentation, first unrespected relator or None)."""
    rng = random.Random(seed)
    for _ in range(120):
        n = rng.randint(2, 4)
        zero_heavy = [0] * 6 + list(range(1, n))
        rels = []
        for b in range(1, n):
            # x_a = w x_b w^-1 on the edges of a tree, most at x0: Delta(1) = +-1
            letters = range(rng.randint(2, 8))
            w = Word((rng.choice(zero_heavy), rng.choice((1, -1))) for _ in letters)
            a = rng.choice([0, 0, *range(b)])
            rels.append(w * Word.generator(b) * w.inverse() * Word.generator(a, -1))
        yield "zero_heavy", KnotPresentation(strands=n, wirtinger_relators=tuple(rels)), None
    for _ in range(40):
        n = rng.randint(2, 5)
        rels = [_conjugate(rng, range(1, n), rng.randint(1, 6)) for _ in range(n - 1)]
        yield "no_zero", KnotPresentation(strands=n, wirtinger_relators=tuple(rels)), None
    for _ in range(40):
        n = rng.randint(3, 5)
        rels = [_conjugate(rng, range(n), rng.randint(1, 6)) for _ in range(n - 2)]
        bad = _unrespected(rng, n)
        rels.insert(rng.randint(1, len(rels)), bad)  # strands - 1 relators, a valid one first
        yield "after_valid", _planted(n, rels), bad
    for _ in range(40):
        n = rng.randint(2, 4)
        count = rng.choice([c for c in range(n + 2) if c != n - 1 and c > 0])
        rels = [_conjugate(rng, range(n), rng.randint(1, 6)) for _ in range(count - 1)]
        bad = _unrespected(rng, n)
        rels.insert(rng.randint(0, len(rels)), bad)
        yield "wrong_count", _planted(n, rels), bad


def test_d2_rows_give_the_torsion_route_outcome():
    """alexander_from_fox reads only generator 1.. rows, yet gives the Delta
    or the error of the full Jacobian's torsion route: when generator 0
    fills most letters or none, and when an unrespected relator follows a
    valid one or sits in a presentation with the wrong relator count."""
    outcomes: dict[str, list] = {}
    for kind, k, bad in _d2_cases(49):
        got = _alexander_outcome(alexander_from_fox, k)
        assert got == _alexander_outcome(torsion_alexander, k), (kind, k)
        if bad is None:
            full = _fox_columns(k)
            assert knots._d2_rows(k) == {
                g: {j: c[g] for j, c in enumerate(full) if c.get(g)} for g in range(1, k.strands)
            }
        else:
            assert got == f"relator {format_word(bad)!r} is not respected by the representation"
        outcomes.setdefault(kind, []).append((got, k))
    def gens(k):
        return [g for rel in k.wirtinger_relators for g, _ in rel.letters]

    heavy = [g for _, k in outcomes["zero_heavy"] for g in gens(k)]
    assert heavy.count(0) > len(heavy) / 2
    assert sum(isinstance(o, LaurentInt) for o, _ in outcomes["zero_heavy"]) > 40
    assert {
        "degenerate presentation: exponent span is odd",
        "degenerate presentation: Delta(t) != Delta(1/t)",
    } <= {o for o, _ in outcomes["zero_heavy"]}
    assert not any(0 in gens(k) for _, k in outcomes["no_zero"])
    assert {o for o, _ in outcomes["no_zero"]} == {
        "degenerate presentation: torsion undefined: complex not generically acyclic"
    }


# -- centring Delta on its coefficient dict, against the LaurentInt normalizer -----


def _centring_cases(seed):
    """Laurent polynomials of every shape the normalizer meets: zero, odd
    span, asymmetric, Delta(1) = +-3, Delta(1) = -1, centred, each shifted."""
    rng = random.Random(seed)
    yield {}
    for _ in range(60):
        sym = {k: rng.randint(-4, 4) for k in range(1, rng.randint(1, 6))}
        unit = rng.choice((1, -1, 3, -3))
        terms = {0: unit - 2 * sum(sym.values())}
        for k, c in sym.items():
            terms[k] = terms[-k] = c
        yield terms  # centred, Delta(1) = unit
        odd = dict(terms)
        odd[max(odd) + 1] = rng.choice((1, -1))
        yield odd  # the span grows by one: odd
        lopsided = dict(terms)
        e = rng.choice(list(lopsided))
        lopsided[e] += rng.choice((1, -1, 2))
        lopsided[-e] = lopsided.get(-e, 0)
        yield lopsided  # symmetric again only when e = 0
        for k in (rng.randint(1, 5), -rng.randint(1, 5)):
            for base in (terms, lopsided):
                yield {x + k: c for x, c in base.items()}


@pytest.mark.parametrize("prefix", ["degenerate presentation", "asymmetric input"])
def test_centered_unit_terms_equal_the_laurent_normalizer(prefix):
    seen = set()
    for terms in _centring_cases(50):
        delta = LaurentInt(terms)
        given = dict(delta.terms)
        try:
            want = _centered_unit_form(delta, prefix).terms
        except ValueError as exc:
            want = str(exc)
        try:
            got = _centered_unit_terms(given, prefix)
        except ValueError as exc:
            got = str(exc)
        assert got == want, terms
        assert given == delta.terms  # the input is not changed
        if isinstance(got, dict):
            seen.add(f"Delta(1) = {sum(delta.terms.values())}")
            seen.add("centred" if min(delta.terms) == -max(delta.terms) else "shifted")
        else:
            seen.add(got)
    assert seen == {
        f"{prefix}: zero polynomial",
        f"{prefix}: exponent span is odd",
        f"{prefix}: Delta(t) != Delta(1/t)",
        f"{prefix}: Delta(1) must be +1 or -1",
        "Delta(1) = 1",
        "Delta(1) = -1",
        "centred",
        "shifted",
    }


def test_knot_path_builds_one_laurent_int_per_knot(monkeypatch):
    """alexander_from_fox builds only the LaurentInt it returns, and
    conway_normalize reads delta.terms and builds none."""
    built = []

    class Counted(LaurentInt):
        __slots__ = ()

        def __init__(self, terms=()):
            built.append(terms)
            super().__init__(terms)

    monkeypatch.setattr(knots, "LaurentInt", Counted)
    word = random_knot_braid(random.Random(51), 5, 40)
    cases = [pres for pres, _ in bundled_knots().values()]
    cases += [_two_bridge_presentation(25, 7), braid_closure(5, word)]
    for pres in cases:
        built.clear()
        delta = alexander_from_fox(pres)
        assert len(built) == 1 and isinstance(delta, Counted)
        built.clear()
        conway_normalize(delta)
        assert built == []
    # an uncentred input with Delta(1) = -1 builds none either
    built.clear()
    assert conway_normalize(LaurentInt({1: -1, 2: 1, 3: -1})).coefficients == (1, 0, 1)
    assert built == []


# -- conway_normalize: spec examples -----------------------------------------------


def test_normalize_constant():
    assert conway_normalize(LaurentInt({0: 1})).coefficients == (1,)


def test_normalize_trefoil():
    nabla = conway_normalize(LaurentInt({-1: 1, 0: -1, 1: 1}))
    assert nabla.coefficients == (1, 0, 1)


def test_normalize_figure8():
    nabla = conway_normalize(LaurentInt({-1: -1, 0: 3, 1: -1}))
    assert nabla.coefficients == (1, 0, -1)


def test_normalize_rejects_asymmetric():
    with pytest.raises(ValueError, match="asymmetric"):
        conway_normalize(LaurentInt({0: 1, 1: 1}))


def test_normalize_rejects_non_unit():
    with pytest.raises(ValueError, match="\\+1 or -1"):
        conway_normalize(LaurentInt({-1: 1, 0: 1, 1: 1}))


def test_normalize_uncentered_input():
    # t^2(t - 1 + 1/t) is the trefoil polynomial shifted by a unit
    shifted = LaurentInt({1: 1, 2: -1, 3: 1})
    assert conway_normalize(shifted).coefficients == (1, 0, 1)


def test_normalize_is_delta_of_s_squared_in_z():
    """Conway(s - 1/s) = Delta(s^2) for random symmetric Delta with Delta(1) = +-1."""
    rng = random.Random(17)
    z = LaurentInt({1: 1, -1: -1})
    for _ in range(40):
        sym = {k: rng.randint(-5, 5) for k in range(1, rng.randint(1, 9))}
        unit = rng.choice((1, -1))
        terms = {0: unit - 2 * sum(sym.values())}
        for k, c in sym.items():
            terms[k] = terms[-k] = c
        delta = LaurentInt(terms)
        k = rng.randint(-3, 3)
        nabla = conway_normalize(LaurentInt({e + k: c for e, c in delta.terms.items()}))
        assert not any(nabla.coefficients[1::2])
        value, power = LaurentInt({}), LaurentInt({0: 1})
        for c in nabla.coefficients:
            value = value + power * LaurentInt({0: c})
            power = power * z
        assert value == LaurentInt({2 * e: unit * c for e, c in delta.terms.items()})


def _z_outcome(fn, *args):
    """The Conway coefficients fn returns, or the message of the ValueError it raises."""
    try:
        return fn(*args).coefficients
    except ValueError as exc:
        return str(exc)


def _z_cases(rng):
    """Laurent polynomials in s: z-polynomials, symmetric Delta(s^2), and ones that raise."""
    z = LaurentInt({1: 1, -1: -1})
    for _ in range(50):
        value, power = LaurentInt({}), LaurentInt({0: 1})
        for c in [rng.choice((1, 1, rng.randint(-3, 3)))] + [
            rng.randint(-4, 4) for _ in range(rng.randint(0, 8))
        ]:
            value = value + power * LaurentInt({0: c})
            power = power * z
        yield value  # in Z[z]; raises only when its constant term is not 1
        yield value + LaurentInt({rng.randint(-9, -1): rng.choice((1, -1))})
        sym = {k: rng.randint(-5, 5) for k in range(1, rng.randint(1, 7))}
        terms = {0: rng.choice((1, -1)) - 2 * sum(sym.values())}
        for k, c in sym.items():
            terms[2 * k] = terms[-2 * k] = c
        yield LaurentInt(terms)  # Delta(s^2), as conway_normalize passes it
        yield LaurentInt({rng.randint(-6, 6): rng.randint(-3, 3) for _ in range(rng.randint(0, 5))})


@pytest.mark.parametrize("seed", [31, 32])
def test_z_rewrite_on_integer_lists_equals_laurent_products(seed):
    """knots._conway_in_z against the LaurentInt rewrite it replaced, on padded lists."""
    rng = random.Random(seed)
    outcomes = []
    for work in _z_cases(rng):
        support = work.support() or [0]
        pad_lo, pad_hi = rng.randint(0, 2), rng.randint(0, 2)
        coeffs = [0] * pad_lo + [work.terms.get(e, 0) for e in range(support[0], support[-1] + 1)]
        coeffs += [0] * pad_hi
        want = _z_outcome(conway_in_z, work)
        assert _z_outcome(_conway_in_z, coeffs, support[0] - pad_lo) == want, work
        outcomes.append(want if isinstance(want, str) else "ok")
    assert outcomes.count("ok") > 40
    assert outcomes.count("Laurent polynomial is not a polynomial in z = s - 1/s") > 60
    assert outcomes.count("Conway normalization failed: constant term is not 1") > 5


# -- Seifert oracle: spec examples ---------------------------------------------------


def test_oracle_empty_matrix():
    assert conway_from_seifert(SeifertMatrix(())).coefficients == (1,)


def test_oracle_trefoil():
    v = SeifertMatrix(((-1, 1), (0, -1)))
    assert conway_from_seifert(v).coefficients == (1, 0, 1)


def test_oracle_figure8():
    v = SeifertMatrix(((1, 1), (0, -1)))
    assert conway_from_seifert(v).coefficients == (1, 0, -1)


def test_seifert_validation():
    with pytest.raises(ValueError, match="square"):
        SeifertMatrix(((1, 2),))


# -- the two paths agree exactly ------------------------------------------------------


@pytest.mark.parametrize("name", sorted(EXPECTED_CONWAY))
def test_oracle_agreement(name):
    """Fox-calculus path equals the Seifert oracle, sign included."""
    pres, seif = bundled_knots()[name]
    via_fox = conway_normalize(alexander_from_fox(pres))
    via_seifert = conway_from_seifert(seif)
    assert via_fox == via_seifert
    assert via_fox.coefficients == EXPECTED_CONWAY[name]
    assert not any(via_fox.coefficients[1::2])


@pytest.mark.parametrize("name", sorted(EXPECTED_CONWAY))
def test_mirror_transpose_invariance(name):
    _, seif = bundled_knots()[name]
    assert conway_from_seifert(seif.transpose()) == conway_from_seifert(seif)


def test_conway_polynomial_validation():
    with pytest.raises(ValueError, match="constant term"):
        ConwayPolynomial((0, 1))
    assert ConwayPolynomial((1, 0, 2, 0)).coefficients == (1, 0, 2)
