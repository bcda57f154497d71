"""The value protocols shared across classes, pinned case by case.

``GaussRat``, ``Poly`` and ``RatFunc`` share coercion, reflected
subtraction and division, truth values and integer powers;
``GroupRingElem`` and ``LaurentInt`` are one integer group ring over
different keys; eight value classes refuse attribute assignment.  Each
case is checked on seeded values against its forward or expanded form,
and every error text is checked verbatim.
"""

import random
from fractions import Fraction

import pytest

from torsionfam.complexes import BasedChainComplex
from torsionfam.corpus import random_ratfunc, random_word
from torsionfam.groupring import GroupRingElem, Word
from torsionfam.knots import LaurentInt
from torsionfam.linalg import Matrix
from torsionfam.poly import Poly
from torsionfam.ratfunc import RatFunc
from torsionfam.scalars import GaussRat

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


def _frozen_values():
    ratfunc = RatFunc.var() - 1
    return [
        GaussRat(1, 2),
        Poly([1, 2]),
        ratfunc,
        Matrix([[ratfunc]]),
        Word.generator(0),
        BasedChainComplex([1, 1], [Matrix([[ratfunc]])]),
        GroupRingElem.one(),
        LaurentInt.constant(3),
    ]


@pytest.mark.parametrize("value", _frozen_values(), ids=lambda v: type(v).__name__)
def test_value_classes_are_immutable(value):
    name = type(value).__name__
    existing = next(c.__slots__[0] for c in type(value).__mro__ if c.__dict__.get("__slots__"))
    before = getattr(value, existing)
    for attr in (existing, "anything"):
        assert _message(AttributeError, lambda: setattr(value, attr, 0)) == f"{name} is immutable"
    assert getattr(value, existing) is before


def test_eight_frozen_classes():
    assert len({type(v) for v in _frozen_values()}) == 8


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
        (LaurentInt.constant(1), GroupRingElem.one()),
    ]
    for lau, free in pairs:
        assert lau != free and free != lau
        assert not (lau == free) and not (free == lau)
