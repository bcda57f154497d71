"""The value protocols shared across classes, pinned case by case.

``GaussRat``, ``Poly`` and ``RatFunc`` share coercion, ``+ - * /`` on
either side of a narrower or wider operand, truth values and integer
powers;
``GroupRingElem`` and ``LaurentInt`` are one integer group ring over
different keys; three exact classes and nineteen records refuse
attribute assignment and survive copying and pickling, the records
compare, hash and print by their public fields, and equal values hash
alike across the exact tower.  Each case is checked on seeded values
against its forward or expanded form, and every error text is checked
verbatim.
"""

import copy
import importlib
import operator
import pickle
import pkgutil
import random
from fractions import Fraction

import pytest

import torsionfam
from torsionfam.complexes import BasedChainComplex, TorsionValue, torsion
from torsionfam.corpus import FamilySpec, random_ratfunc, random_word
from torsionfam.dvr import DeformationReport, DivisorProfile, TorsionModuleSummary, analyze
from torsionfam.eta import ArgPairing, EtaProfile, JumpRecord, RayVerdict
from torsionfam.groupring import GroupRingElem, RepFamily, Word, _GroupRing
from torsionfam.knots import ConwayPolynomial, KnotPresentation, LaurentInt, SeifertMatrix
from torsionfam.linalg import Matrix
from torsionfam.poly import Poly
from torsionfam.ratfunc import LocalGerm, RatFunc, cayley
from torsionfam.scalars import GaussRat, _Exact, _Frozen, _Record

SEED = 1515


def _gauss(rng):
    return GaussRat(
        Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)),
        Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)),
    )


def _poly(rng):
    return Poly([_gauss(rng) for _ in range(rng.randrange(0, 4))])


def samples(cls, count=12):
    """Seeded values of ``cls``, zero and one included."""
    rng = random.Random(f"{SEED}-{cls.__name__}")
    draw = {GaussRat: _gauss, Poly: _poly, RatFunc: random_ratfunc}[cls]
    return [cls.zero(), cls.one()] + [draw(rng) for _ in range(count)]


EXACT = [GaussRat, Poly, RatFunc]
# the classes with a division operator
FIELDS = [GaussRat, RatFunc]


@pytest.mark.parametrize("cls", EXACT, ids=lambda c: c.__name__)
def test_reflected_subtraction_equals_the_forward_form(cls):
    for x in samples(cls):
        for left in (3, -2, 0, Fraction(-7, 4), GaussRat.i(), GaussRat(Fraction(1, 2), -3)):
            got = left - x
            assert type(got) is cls
            assert got == cls.coerce(left) - x
            assert got + x == cls.coerce(left)


@pytest.mark.parametrize("cls", FIELDS, ids=lambda c: c.__name__)
def test_reflected_division_equals_the_forward_form(cls):
    for x in samples(cls):
        for left in (3, -2, 0, Fraction(-7, 4), GaussRat.i()):
            if x.is_zero():
                with pytest.raises(ZeroDivisionError):
                    left / x
                continue
            got = left / x
            assert type(got) is cls
            assert got == cls.coerce(left) / x
            assert got * x == cls.coerce(left)


def test_polynomials_have_no_division_operator():
    p = Poly([1, 2])
    for left in (3, Fraction(1, 2), GaussRat.i(), p):
        with pytest.raises(TypeError):
            left / p


# operands of every narrower and wider type, zero included
MIXED = [3, 0, Fraction(-7, 4), GaussRat(Fraction(1, 2), -3), Poly([1, GaussRat.i()]), Poly()]
TOWER = [int, Fraction, GaussRat, Poly, RatFunc]


@pytest.mark.parametrize("cls", EXACT, ids=lambda c: c.__name__)
def test_mixed_operands_equal_the_coerced_form(cls):
    """``x op y`` and ``y op x`` equal the operation on both operands
    coerced to the wider class, and have that class."""
    for x in samples(cls, 6):
        for y in MIXED:
            wide = max(cls, type(y), key=TOWER.index)
            a, b = wide.coerce(x), wide.coerce(y)
            for left, right, coerced in ((x, y, (a, b)), (y, x, (b, a))):
                for op in (operator.add, operator.sub, operator.mul, operator.truediv):
                    if op is operator.truediv and (wide is Poly or not right):
                        with pytest.raises(TypeError if wide is Poly else ZeroDivisionError):
                            op(left, right)
                        continue
                    got = op(left, right)
                    assert type(got) is wide
                    assert got == op(*coerced), (op, left, right)


@pytest.mark.parametrize("cls", EXACT, ids=lambda c: c.__name__)
def test_foreign_operands_are_refused(cls):
    for x in samples(cls, 3):
        with pytest.raises(TypeError):
            "a" - x
        with pytest.raises(TypeError):
            x - "a"
        with pytest.raises(TypeError):
            1.5 - x
        with pytest.raises(TypeError):
            cls.coerce(1.5)


@pytest.mark.parametrize("cls", EXACT, ids=lambda c: c.__name__)
def test_powers_equal_repeated_products(cls):
    for x in samples(cls):
        for n in range(-3, 6):
            if n < 0 and cls is Poly:
                continue
            if n < 0 and x.is_zero():
                with pytest.raises(ZeroDivisionError):
                    x**n
                continue
            base = x if n >= 0 else cls.one() / x
            expected = cls.one()
            for _ in range(abs(n)):
                expected = expected * base
            got = x**n
            assert type(got) is cls
            assert got == expected, (x, n)


@pytest.mark.parametrize("cls", EXACT, ids=lambda c: c.__name__)
def test_truth_value_is_nonzero(cls):
    values = samples(cls)
    assert any(not v for v in values) and any(values)
    for x in values:
        assert bool(x) is (not x.is_zero())


def _tower_sample(rng):
    """Seeded scalars, real and not, each with its equals up the tower
    (a cancelled fraction among them); then seeded polynomials, each
    with its fraction over 1, and rational functions."""
    values = []
    for _ in range(30):
        den = rng.choice([1, 1, 2, 3])
        real = Fraction(rng.randrange(-6, 7), den)
        scalar = GaussRat(real, rng.choice([0, 0, Fraction(rng.randrange(-3, 4), den)]))
        shift = Poly([rng.randrange(1, 4), 1])
        values += [scalar, Poly.coerce(scalar), RatFunc.coerce(scalar)]
        values.append(RatFunc(Poly.coerce(scalar) * shift, shift))
        if not scalar.parts[1]:
            values += [real] + ([real.numerator] if den == 1 else [])
    for _ in range(10):
        poly = _poly(rng)
        values += [poly, RatFunc(poly), random_ratfunc(rng)]
    return values


def test_equal_values_hash_alike_across_the_tower():
    assert GaussRat(1) in {1} and Poly([2]) in {2} and RatFunc.var() in {Poly.var()}
    values = _tower_sample(random.Random(f"{SEED}-hash"))
    crossed = 0
    for a in values:
        for b in values:
            if a == b:
                assert hash(a) == hash(b), (a, b)
                assert b in {a} and {a: b}[b] is b
                crossed += type(a) is not type(b)
    assert crossed > 300
    assert len({type(v) for v in values}) == len(TOWER)


# -- error texts ---------------------------------------------------------------


def _message(exc_type, action):
    with pytest.raises(exc_type) as info:
        action()
    return str(info.value)


@pytest.mark.parametrize("cls", EXACT, ids=lambda c: c.__name__)
def test_coerce_names_the_type_and_the_class(cls):
    assert _message(TypeError, lambda: cls.coerce("a")) == f"cannot coerce str to {cls.__name__}"
    assert (
        _message(TypeError, lambda: cls.coerce(1.5)) == f"cannot coerce float to {cls.__name__}"
    )


def test_power_error_texts():
    poly = Poly([1, 1])
    text = "polynomial exponent must be a non-negative integer"
    assert _message(ValueError, lambda: poly**-1) == text
    assert _message(ValueError, lambda: poly**1.5) == text
    for x in (GaussRat(1, 1), RatFunc.var()):
        assert _message(TypeError, lambda: x**1.5) == "exponent must be an integer"
        assert _message(TypeError, lambda: x ** Fraction(1)) == "exponent must be an integer"
    assert (
        _message(ZeroDivisionError, lambda: RatFunc.zero() ** -1)
        == "negative power of the zero function"
    )
    zero = GaussRat.zero()
    assert _message(ZeroDivisionError, lambda: zero**-2) == "division by zero in Q(i)"
    assert _message(ZeroDivisionError, lambda: GaussRat(1) / 0) == "division by zero in Q(i)"
    assert _message(ZeroDivisionError, lambda: 1 / zero) == "division by zero in Q(i)"


def test_polynomial_division_error_names_the_operands_as_written():
    p = Poly([1, 2])
    cases = [
        (lambda: p / 3, "'Poly' and 'int'"),
        (lambda: p / GaussRat.i(), "'Poly' and 'GaussRat'"),
        (lambda: p / p, "'Poly' and 'Poly'"),
        # the reflected form coerces the left operand first
        (lambda: Fraction(1, 2) / p, "'Poly' and 'Poly'"),
        (lambda: GaussRat.i() / p, "'Poly' and 'Poly'"),
    ]
    for action, operands in cases:
        assert _message(TypeError, action) == f"unsupported operand type(s) for /: {operands}"


def _exact_values():
    return [GaussRat(1, 2), Poly([1, 2]), RatFunc.var() - 1]


# -- the records ----------------------------------------------------------------


def _records():
    """One value of each record, and the text its ``repr`` gives: the form
    a dataclass prints, which ``RepFamily`` extends by ``inverses``, or
    the record's own."""
    ratfunc = RatFunc.var() - 1
    dims = TorsionModuleSummary((1, 0))
    circle = BasedChainComplex([1, 1], [Matrix([[ratfunc]])])
    return [
        (Matrix([[ratfunc]]), "Matrix(1x1)"),
        (Word.generator(0), "Word('x0')"),
        (circle, "BasedChainComplex(ranks=(1, 1))"),
        (GroupRingElem.of_word(Word.generator(1), -2), "GroupRingElem(-2*x1)"),
        (LaurentInt({0: 3, 2: -1}), "3 - t^2"),
        (DivisorProfile((0, 1), 2), "DivisorProfile(valuations=(0, 1), free_rank=2)"),
        (dims, "TorsionModuleSummary(dims=(1, 0))"),
        (
            DeformationReport(GaussRat(1), 1, dims, True),
            "DeformationReport(t0=1, nu=1, dims=TorsionModuleSummary(dims=(1, 0)), "
            "duality_ok=True)",
        ),
        (TorsionValue(ratfunc), "TorsionValue(value=[-1,1])"),
        (
            JumpRecord(Fraction(1, 2), 1, nu=1),
            "JumpRecord(t0=Fraction(1, 2), sigma_odd=1, sigma_even=0, nu=1)",
        ),
        (
            ArgPairing((Fraction(1, 3),), (2,)),
            "ArgPairing(arg_coeffs=(Fraction(1, 3),), l_coeffs=(2,))",
        ),
        (
            EtaProfile(3, Fraction(1, 2), (JumpRecord(0, 1),)),
            "EtaProfile(dimension_class=3, base_value=Fraction(1, 2), jumps=(JumpRecord("
            "t0=Fraction(0, 1), sigma_odd=1, sigma_even=0, nu=None),), slope_data=None)",
        ),
        (
            RayVerdict(False, 1, (Fraction(0), Fraction(1))),
            "RayVerdict(passed=False, failing_interval=1, "
            "phases=(Fraction(0, 1), Fraction(1, 1)))",
        ),
        (
            RepFamily(1, (Matrix([[cayley()]]),), unitary=True),
            "RepFamily(rank=1, images=(Matrix(1x1),), unitary=True, special=False, "
            "inverses=(Matrix(1x1),))",
        ),
        (
            KnotPresentation(2, (Word([(0, 1), (1, -1)]),)),
            "KnotPresentation(strands=2, wirtinger_relators=(Word('x0 x1^-1'),))",
        ),
        (ConwayPolynomial((1, 0, 1)), "1 + z^2"),  # its own repr
        (SeifertMatrix(((-1, 1), (0, -1))), "SeifertMatrix(entries=((-1, 1), (0, -1)))"),
        (LocalGerm(ratfunc, 0), "LocalGerm(value=[-1,1], center=0)"),
        (
            FamilySpec("circle", circle, None, (0,)),
            "FamilySpec(name='circle', complex=BasedChainComplex(ranks=(1, 1)), "
            "pairing=None, centers=(Fraction(0, 1),))",
        ),
    ]


RECORDS = [record for record, _ in _records()]


def _name(value):
    return type(value).__name__


def _slot_names(value) -> list:
    return [n for c in type(value).__mro__ for n in c.__dict__.get("__slots__", ())]


def _fields(record) -> tuple:
    """The values of a record's public slots, its bases' included."""
    return tuple(getattr(record, n) for n in _slot_names(record) if not n.startswith("_"))


@pytest.mark.parametrize("value", _exact_values() + RECORDS, ids=_name)
def test_value_classes_are_immutable(value):
    message = f"{_name(value)} is immutable"
    before = {n: getattr(value, n) for n in _slot_names(value) if hasattr(value, n)}
    for attr in (*before, "anything"):
        assert _message(AttributeError, lambda: setattr(value, attr, 0)) == message
        assert _message(AttributeError, lambda: delattr(value, attr)) == message
    assert all(getattr(value, n) is v for n, v in before.items())


def test_three_exact_classes():
    assert len({type(v) for v in _exact_values()}) == 3
    assert all(isinstance(v, _Exact) for v in _exact_values())


def test_nineteen_records():
    assert len({type(r) for r in RECORDS}) == 19
    assert all(isinstance(r, _Record) for r in RECORDS)


def _package_classes(base):
    """Every public subclass of ``base`` defined in the package."""
    for module in pkgutil.iter_modules(torsionfam.__path__):
        importlib.import_module(f"torsionfam.{module.name}")
    found, todo = set(), [base]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("torsionfam.") and not sub.__name__.startswith("_"):
                found.add(sub)
    return found


def test_the_samples_cover_every_frozen_class():
    assert _package_classes(_Frozen) == {type(v) for v in _exact_values() + RECORDS}


def test_every_frozen_class_is_exact_or_a_record():
    for cls in _package_classes(_Frozen):
        assert issubclass(cls, _Exact) != issubclass(cls, _Record), cls


@pytest.mark.parametrize("index", range(len(RECORDS)), ids=[_name(r) for r in RECORDS])
def test_record_equality_and_hash_follow_the_fields(index):
    record, twin = RECORDS[index], _records()[index][0]
    assert record is not twin and record == twin and not record != twin
    if isinstance(record, _GroupRing):  # its one field is a dict
        expected = hash(frozenset(record.terms.items()))
    else:
        expected = hash(_fields(record))
    assert hash(record) == hash(twin) == expected
    rebuild, args, state = record.__reduce__()
    for field in _slot_names(record):
        changed = rebuild(*args)
        changed.__setstate__({**state, field: object()})
        if field.startswith("_"):  # derived data, neither compared nor hashed
            assert changed == record and hash(changed) == hash(record)
        else:
            assert changed != record and record != changed


def test_a_filled_memo_leaves_a_complex_equal_and_hashed_alike():
    def circle():
        return BasedChainComplex([1, 1], [Matrix([[RatFunc.var() - 1]])])

    used, fresh = circle(), circle()
    torsion(used)
    analyze(used, 1)
    assert used._memo and not fresh._memo
    assert used == fresh and hash(used) == hash(fresh) and fresh in {used}
    specs = [FamilySpec("circle", c, None, (1,)) for c in (used, fresh)]
    assert specs[0] == specs[1] and hash(specs[0]) == hash(specs[1])


def test_records_of_different_types_never_compare_equal():
    same_fields = [ConwayPolynomial((1,)), TorsionModuleSummary((1,))]
    assert _fields(same_fields[0]) == _fields(same_fields[1])
    for a in RECORDS + same_fields:
        for b in RECORDS + same_fields:
            if type(a) is not type(b):
                assert a != b and not a == b


@pytest.mark.parametrize("record,text", _records(), ids=[_name(r) for r in RECORDS])
def test_record_repr_is_the_dataclass_form(record, text):
    assert repr(record) == text


COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda v: pickle.loads(pickle.dumps(v)),
    "pickle-0": lambda v: pickle.loads(pickle.dumps(v, protocol=0)),
}


@pytest.mark.parametrize("how", COPIES)
@pytest.mark.parametrize("value", _exact_values() + RECORDS, ids=_name)
def test_copies_keep_type_equality_and_immutability(value, how):
    got = COPIES[how](value)
    assert type(got) is type(value) and got == value
    assert _message(AttributeError, lambda: setattr(got, "anything", 0)) == (
        f"{_name(value)} is immutable"
    )


# -- the integer group rings ---------------------------------------------------


def _laurent(rng):
    return LaurentInt((rng.randrange(-4, 5), rng.randrange(-3, 4)) for _ in range(rng.randrange(5)))


def _group_ring(rng):
    return GroupRingElem(
        (random_word(rng, 2, 4), rng.randrange(-3, 4)) for _ in range(rng.randrange(5))
    )


def _reference(terms_a, terms_b, key_mul):
    """Expanded product of two term dicts, zero coefficients dropped."""
    out = {}
    for ka, ca in terms_a.items():
        for kb, cb in terms_b.items():
            k = key_mul(ka, kb)
            out[k] = out.get(k, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


GROUP_RINGS = [
    (LaurentInt, _laurent, lambda a, b: a + b),
    (GroupRingElem, _group_ring, lambda a, b: a * b),
]


@pytest.mark.parametrize("cls, draw, key_mul", GROUP_RINGS, ids=["LaurentInt", "GroupRingElem"])
def test_group_ring_arithmetic(cls, draw, key_mul):
    rng = random.Random(f"{SEED}-{cls.__name__}")
    values = [draw(rng) for _ in range(25)]
    assert sum(v.is_zero() for v in values) < len(values)
    for a, b in zip(values, values[1:]):
        assert all(c for c in a.terms.values())
        keys = set(a.terms) | set(b.terms)
        total = {k: a.terms.get(k, 0) + b.terms.get(k, 0) for k in keys}
        diff = {k: a.terms.get(k, 0) - b.terms.get(k, 0) for k in keys}
        for got, want in (
            (a + b, {k: c for k, c in total.items() if c}),
            (a - b, {k: c for k, c in diff.items() if c}),
            (-a, {k: -c for k, c in a.terms.items()}),
            (a * b, _reference(a.terms, b.terms, key_mul)),
        ):
            assert type(got) is cls
            assert got.terms == want
        assert (a - b) + b == a and a + b == b + a
        assert (a - a).is_zero() and -(-a) == a
        # equal values built from differently ordered terms hash alike
        shuffled = list(a.terms.items()) + [(k, 0) for k in b.terms]
        rng.shuffle(shuffled)
        same = cls(shuffled)
        assert same == a and hash(same) == hash(a)
        assert (a == b) is (a.terms == b.terms)
        assert (a != b) is (a.terms != b.terms)


def test_group_ring_constructors_accumulate_and_check_keys():
    x = Word.generator(0)
    assert GroupRingElem([(x, 2), (x, -2)]).is_zero()
    assert LaurentInt([(1, 2), (1, -2)]).is_zero()
    assert LaurentInt({"3": 1}) == LaurentInt({3: 1})
    assert _message(TypeError, lambda: GroupRingElem([(3, 1)])) == "group-ring keys must be Words"


def test_laurent_and_free_group_rings_never_compare_equal():
    pairs = [
        (LaurentInt(()), GroupRingElem.zero()),
        (LaurentInt({0: 1}), GroupRingElem.one()),
    ]
    for lau, free in pairs:
        assert lau != free and free != lau
        assert not (lau == free) and not (free == lau)
