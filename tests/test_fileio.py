import time
from fractions import Fraction
from pathlib import Path

import pytest

from torsionfam import fileio
from torsionfam.corpus import acceptance_corpus, circle_family, combine, torus3_family
from torsionfam.eta import ArgPairing, EtaProfile, JumpRecord
from torsionfam.fileio import (
    MAX_RANK,
    MAX_RELATOR_WEIGHT,
    MAX_SEIFERT_ENTRY_DIGITS,
    MAX_SEIFERT_RANK,
    ParseError,
    dump_complex,
    dump_knot,
    dump_ledger,
    dump_presentation,
    load_complex,
    load_knot,
    load_ledger,
    load_presentation,
)
from torsionfam.groupring import MAX_WORD_LETTERS, RepFamily, parse_word
from torsionfam.knots import SeifertMatrix, bundled_knots
from torsionfam.linalg import Matrix
from torsionfam.ratfunc import RatFunc, cayley, parse_ratfunc

ZERO = RatFunc.zero()
DATA = Path(__file__).resolve().parent.parent / "demos" / "data"


def test_complex_round_trip_with_duality():
    fam = torus3_family()
    text = dump_complex(fam.complex, list(fam.pairing))
    cplx, pairing = load_complex(text, "torus3.cplx")
    assert cplx == fam.complex
    assert tuple(pairing) == fam.pairing
    # serialization is canonical: dump(load(dump)) == dump
    assert dump_complex(cplx, pairing) == text


def test_complex_round_trip_corpus():
    for fam in acceptance_corpus(8, 42):
        text = dump_complex(fam.complex, list(fam.pairing))
        cplx, pairing = load_complex(text)
        assert cplx == fam.complex
        assert tuple(pairing) == fam.pairing


def test_complex_without_duality():
    fam = circle_family(cayley() - 1)
    text = dump_complex(fam.complex)
    cplx, pairing = load_complex(text)
    assert cplx == fam.complex and pairing is None


def test_complex_zero_rank_degrees():
    from torsionfam.corpus import elementary_complex
    from torsionfam.ratfunc import RatFunc

    c = elementary_complex(3, 2, Matrix([[RatFunc.var()]]))
    text = dump_complex(c)
    c2, _ = load_complex(text)
    assert c2 == c


def test_complex_parse_errors_name_location():
    with pytest.raises(ParseError) as err:
        load_complex("complex v1\nranks 1 1\nboundary 1\n[1] [2]\nend\n", "f.cplx")
    assert "f.cplx:4" in str(err.value)
    with pytest.raises(ParseError) as err:
        load_complex("complex v1\nranks 1 1\nboundary 1\nnonsense\nend\n", "g.cplx")
    assert "g.cplx:4" in str(err.value) and "'nonsense'" in str(err.value)
    with pytest.raises(ParseError, match="unexpected end of file"):
        load_complex("complex v1\nranks 1 1\nboundary 1\n[1]\n", "trunc.cplx")
    with pytest.raises(ParseError, match="expected header"):
        load_complex("knot v1\nend\n", "h.cplx")


def test_complex_boundary_condition_reported():
    text = "complex v1\nranks 1 2 1\nboundary 1\n[1] [1]\nboundary 2\n[1]\n[1]\nend\n"
    with pytest.raises(ParseError, match="boundary condition"):
        load_complex(text, "bad.cplx")


def test_presentation_round_trip():
    names = ["x", "y"]
    rel = parse_word("x y x^-1 y^-1", names)
    rho = RepFamily(
        rank=1, images=(Matrix([[cayley(1)]]), Matrix([[cayley(2)]])), unitary=True
    )
    text = dump_presentation(names, [rel], rho)
    names2, relators2, rho2 = load_presentation(text)
    assert names2 == names and relators2 == [rel]
    assert rho2.images == rho.images
    assert rho2.unitary and not rho2.special
    assert dump_presentation(names2, relators2, rho2) == text


def test_presentation_flag_validation():
    text = "presentation v1\ngenerators x\nrep rank 1 bogus\nimage x\n[1]\nend\n"
    with pytest.raises(ParseError, match="'bogus'"):
        load_presentation(text, "p.pres")


def test_knot_round_trip():
    for name, (pres, seif) in bundled_knots().items():
        text = dump_knot(pres, seif)
        pres2, seif2, names = load_knot(text)
        assert pres2 == pres and seif2 == seif
        assert dump_knot(pres2, seif2, names) == text
    # a knot without a matrix stays without one
    text = dump_knot(pres, None)
    assert "seifert" not in text and load_knot(text)[1] is None


def test_seifert_rank_0_round_trips():
    pres, seifert, names = load_knot("knot v1\ngenerators x\nseifert rank 0\nend\n")
    assert seifert == SeifertMatrix(())
    text = dump_knot(pres, seifert, names)
    assert text == "knot v1\ngenerators x\nseifert rank 0\nend\n"
    assert load_knot(text)[1] == seifert


def test_knot_errors():
    with pytest.raises(ParseError, match="expected 'relator'"):
        load_knot("knot v1\ngenerators x\nwat\nend\n", "k.knot")
    with pytest.raises(ParseError, match="2 integers"):
        load_knot("knot v1\ngenerators x\nseifert rank 2\n1 2\n1\nend\n", "k.knot")


def test_ledger_round_trip():
    pairing = ArgPairing((Fraction(1, 4), Fraction(1, 3)), (2, 6))
    profile = EtaProfile(
        1,
        Fraction(1, 2),
        (JumpRecord(Fraction(0), 1, 0, 1), JumpRecord(Fraction(1), 2, 1, 2)),
        (pairing,) * 3,
    )
    text = dump_ledger(profile, [1, -1, -1])
    profile2, signs2 = load_ledger(text)
    assert profile2 == profile and signs2 == [1, -1, -1]
    assert dump_ledger(profile2, signs2) == text


def test_ledger_without_signs_or_slope():
    profile = EtaProfile(3, Fraction(0), (JumpRecord(Fraction(0), 1),))
    text = dump_ledger(profile)
    profile2, signs2 = load_ledger(text)
    assert profile2 == profile and signs2 is None


def test_ledger_errors():
    with pytest.raises(ParseError, match="'\\*'"):
        load_ledger("eta-ledger v1\ndimclass 3\nbase 0\nsigns + *\nend\n", "l.eta")
    with pytest.raises(ParseError, match="needs t0"):
        load_ledger("eta-ledger v1\ndimclass 3\nbase 0\njump sigma_odd 1\nend\n", "l.eta")
    text = (
        "eta-ledger v1\ndimclass 1\nbase 0\njump t0 0 sigma_odd 1\n"
        "argpair interval 0 args 1/4 lcoeffs 3\nend\n"
    )
    with pytest.raises(ParseError, match="not even"):
        load_ledger(text, "l.eta")
    with pytest.raises(ParseError, match="cover every interval"):
        load_ledger(
            "eta-ledger v1\ndimclass 1\nbase 0\njump t0 0 sigma_odd 1\n"
            "argpair interval 0 args 1/4 lcoeffs 2\nend\n",
            "l.eta",
        )
    with pytest.raises(ParseError, match="need 2 signs"):
        load_ledger(
            "eta-ledger v1\ndimclass 3\nbase 0\njump t0 0 sigma_odd 1\nsigns +\nend\n",
            "l.eta",
        )


def test_comments_and_blank_lines_skipped():
    text = (
        "# header comment\n\ncomplex v1\n  ranks 1 1  # inline\n\n"
        "boundary 1\n[0,1]\nend\n"
    )
    cplx, _ = load_complex(text)
    assert cplx.ranks == (1, 1)


def test_size_caps_fail_fast():
    with pytest.raises(ParseError, match=f"cap of {MAX_RANK}"):
        load_complex("complex v1\nranks 0 100000000\nboundary 1\nend\n")
    knot = "knot v1\ngenerators x y\nrelator x^99999999999 y\nend\n"
    with pytest.raises(ParseError, match=f"cap of {MAX_WORD_LETTERS} letters") as info:
        load_knot(knot)
    assert info.value.token == "x^99999999999"
    with pytest.raises(ParseError, match="cap of"):
        load_presentation(knot.replace("knot v1", "presentation v1"))
    with pytest.raises(ValueError, match="cap of"):
        parse_word(" ".join(["x^5000"] * 3), ["x"])


def _power_commutators(rank: int, powers) -> str:
    """A presentation with one relator x^n y^n x^-n y^-n per power n; its
    images are diagonal unitary Cayley values, of degree 1 in every entry."""
    names = ["x", "y"]
    speeds = ((1, 2, 3)[:rank], (Fraction(1, 2), 3, 5)[:rank])  # of x, of y
    images = tuple(
        Matrix([[cayley(s) if a == b else ZERO for b in range(rank)] for a, s in enumerate(row)])
        for row in speeds
    )
    rels = [parse_word(f"x^{n} y^{n} x^-{n} y^-{n}", names) for n in powers]
    return dump_presentation(names, rels, RepFamily(rank=rank, images=images, unitary=True))


def test_relator_degree_cap_counts_rank_and_every_relator():
    """The cap bounds rank * (sum of the letters' weights, 8 * degree +
    floor(log2 height) of each image) over all relators."""
    assert MAX_RELATOR_WEIGHT == 800
    # 4n letters per relator; x and y weigh 8 and 9 at rank 1 (degree 1,
    # heights 1 and 2), 9 and 9 at rank 2, 9 and 10 at rank 3
    accepted = [(1, [23]), (1, [11, 11, 1]), (2, [11]), (3, [7])]
    refused = [(1, [24], 3), (1, [11, 11, 2], 5), (2, [12], 3), (2, [6, 6], 4), (3, [8], 3)]
    for rank, powers in accepted:
        names, relators, rho = load_presentation(_power_commutators(rank, powers), "p.pres")
        assert len(relators) == len(powers) and rho.rank == rank
    for rank, powers, lineno in refused:
        with pytest.raises(ParseError, match=f"past the cap of {MAX_RELATOR_WEIGHT}") as info:
            load_presentation(_power_commutators(rank, powers), "p.pres")
        assert info.value.lineno == lineno
    with pytest.raises(ParseError, match="relators reach weight 816,"):
        load_presentation(_power_commutators(1, [24]))
    # an inverse letter counts the weight of the inverse image: here degree
    # 2, so 16, not 8
    shear = (
        "presentation v1\ngenerators x\nrelator {}\n"
        "rep rank 2\nimage x\n[0,1] [1]\n[-1] [0,1]\nend\n"
    )
    for word in ("x^50", "x^-25"):
        load_presentation(shear.format(word))
    with pytest.raises(ParseError, match="relators reach weight 832,"):
        load_presentation(shear.format("x^-26"))
    # constant images of height 1 add nothing: the word cap alone bounds them
    constant = "presentation v1\ngenerators x\nrelator {}\nrep rank {}\nimage x\n{}\nend\n"
    assert len(load_presentation(constant.format("x^4000", 1, "[i]"))[1][0]) == 4000
    # a constant of height 5 weighs 2, rank times: its coefficients grow
    rotation = constant.format("{}", 2, "[3/5] [-4/5]\n[4/5] [3/5]")
    load_presentation(rotation.format("x^200"))
    with pytest.raises(ParseError, match="relators reach weight 804,"):
        load_presentation(rotation.format("x^201"))


def test_negative_complex_rank_reported_at_the_ranks_line():
    with pytest.raises(ParseError, match=f"rank outside 0 to the cap of {MAX_RANK}") as info:
        load_complex("complex v1\nranks 0 -2\nend\n")
    assert info.value.lineno == 2 and info.value.token == "-2"


def test_seifert_rank_outside_the_cap_rejected():
    for rank in (-2, MAX_SEIFERT_RANK + 1, 200, MAX_RANK + 1):
        text = f"knot v1\ngenerators x\nseifert rank {rank}\nend\n"
        with pytest.raises(ParseError, match=f"cap of {MAX_SEIFERT_RANK}") as info:
            load_knot(text, "k.knot")
        assert info.value.lineno == 3 and info.value.token == str(rank)
    _, seifert, _ = load_knot("knot v1\ngenerators x\nseifert rank 0\nend\n")
    assert seifert.size == 0


def test_seifert_rank_cap_message_and_the_cap_itself():
    n = MAX_SEIFERT_RANK
    with pytest.raises(ParseError) as info:
        load_knot(f"knot v1\ngenerators x\nseifert rank {n + 1}\nend\n", "k.knot")
    assert str(info.value) == (
        f"k.knot:3: seifert rank outside 0 to the cap of {n} (token '{n + 1}')"
    )
    rows = "".join(" ".join("1" if j == k else "0" for k in range(n)) + "\n" for j in range(n))
    _, seifert, _ = load_knot(f"knot v1\ngenerators x\nseifert rank {n}\n{rows}end\n")
    assert seifert.size == n


def test_seifert_entry_past_the_cap_rejected_at_its_token():
    cap = MAX_SEIFERT_ENTRY_DIGITS
    big = "9" * (cap + 1)
    for bad in (big, "-" + big, "+1" + "0" * cap, "1" * 1000):
        text = f"knot v1\ngenerators x\nseifert rank 2\n1 0\n0 {bad}\nend\n"
        with pytest.raises(ParseError) as info:
            load_knot(text, "k.knot")
        assert str(info.value) == (
            f"k.knot:5: seifert entry past the cap of {cap} digits (token '{bad}')"
        )
    # the largest entries, and leading zeros, are accepted
    top = "9" * cap
    text = f"knot v1\ngenerators x\nseifert rank 2\n-{top} 0{top}\n0 1\nend\n"
    _, seifert, _ = load_knot(text)
    assert seifert.entries == ((-(10**cap - 1), 10**cap - 1), (0, 1))


def test_seifert_entry_cap_bounds_the_oracle_at_the_rank_cap():
    """A dense matrix at both caps loads; the oracle's time on it is
    documented in docs/formats.md (about 31 s)."""
    n, e = MAX_SEIFERT_RANK, "9" * MAX_SEIFERT_ENTRY_DIGITS
    rows = "".join(" ".join([e] * n) + "\n" for _ in range(n))
    _, seifert, _ = load_knot(f"knot v1\ngenerators x\nseifert rank {n}\n{rows}end\n")
    assert seifert.size == n and seifert.entries[0][0] == int(e)


# Integer fields and word exponents take exactly [+-]digits: no digit
# separators and no non-ASCII digits, which bare int() would accept.
INTEGER_FIELDS = {
    "rank": (load_complex, "complex v1\nranks 0 {}\nboundary 1\nend\n", 2),
    "seifert entry": (load_knot, "knot v1\ngenerators x\nseifert rank 1\n{}\nend\n", 4),
    "dimclass": (load_ledger, "eta-ledger v1\ndimclass {}\nbase 0\nend\n", 2),
    "sigma_odd": (
        load_ledger, "eta-ledger v1\ndimclass 3\nbase 0\njump t0 0 sigma_odd {}\nend\n", 4
    ),
    "lcoeffs": (
        load_ledger,
        "eta-ledger v1\ndimclass 1\nbase 0\nargpair interval 0 args 1/4 lcoeffs {}\nend\n",
        4,
    ),
}


@pytest.mark.parametrize("bad", ["0_1", "1_000", "٣"])
@pytest.mark.parametrize("field", sorted(INTEGER_FIELDS))
def test_integer_fields_refuse_other_digit_forms(field, bad):
    load, template, lineno = INTEGER_FIELDS[field]
    with pytest.raises(ParseError, match="expected an integer") as info:
        load(template.format(bad), "f")
    assert info.value.lineno == lineno and info.value.token == bad


@pytest.mark.parametrize("bad", ["1_0", "0_1", "1_000", "٣"])
def test_word_exponent_refuses_other_digit_forms(bad):
    for load, header in ((load_knot, "knot v1"), (load_presentation, "presentation v1")):
        text = f"{header}\ngenerators x\nrelator x^{bad}\nrep rank 1\nimage x\n[1]\nend\n"
        with pytest.raises(ParseError, match=f"bad exponent in word token 'x\\^{bad}'") as info:
            load(text, "f")
        assert info.value.lineno == 3
        assert info.value.token == f"x^{bad}"


def test_signed_and_zero_padded_integers_still_accepted():
    cplx, _ = load_complex("complex v1\nranks +1 001\nboundary +1\n[1]\nend\n")
    assert cplx.ranks == (1, 1)
    _, seifert, _ = load_knot("knot v1\ngenerators x\nseifert rank 2\n+3 -2\n007 0\nend\n")
    assert seifert.entries == ((3, -2), (7, 0))
    profile, _ = load_ledger(
        "eta-ledger v1\ndimclass +3\nbase 0\njump t0 0 sigma_odd -2 sigma_even 007\nend\n"
    )
    assert profile.dimension_class == 3
    assert (profile.jumps[0].sigma_odd, profile.jumps[0].sigma_even) == (-2, 7)
    assert parse_word("x^+3 x^-2 x^007", ["x"]) == parse_word("x^8", ["x"])


@pytest.mark.parametrize(
    "load, text",
    [
        (load_knot, "knot v1\ngenerators x y\nrelatorx y x^-1 y^-1\nend\n"),
        (
            load_presentation,
            "presentation v1\ngenerators x y\nrelatorx y x^-1 y^-1\n"
            "rep rank 1\nimage x\n[1]\nimage y\n[1]\nend\n",
        ),
    ],
)
def test_keywords_are_whole_tokens(load, text):
    with pytest.raises(ParseError) as info:
        load(text, "f")
    assert info.value.lineno == 3 and info.value.token == "relatorx"


@pytest.mark.parametrize(
    "line, key, extra",
    [
        ("jump t0 0 7 sigma_odd 1", "t0", "7"),
        ("jump t0 0 sigma_odd 1 5", "sigma_odd", "5"),
        ("jump t0 0 sigma_odd 1 sigma_even 0 2", "sigma_even", "2"),
        ("jump t0 0 sigma_odd 1 nu 1 9", "nu", "9"),
        ("argpair interval 0 3 args 1/4 lcoeffs 2", "interval", "3"),
    ],
)
def test_single_valued_ledger_fields_refuse_a_second_value(line, key, extra):
    text = f"eta-ledger v1\ndimclass 1\nbase 0\n{line}\nend\n"
    with pytest.raises(ParseError, match=f"field {key} takes one value") as info:
        load_ledger(text, "l.eta")
    assert info.value.lineno == 4 and info.value.token == extra


@pytest.mark.parametrize("args, bad", [("1/4 1 1/3/3", "1/3/3"), ("x 1/2", "x"), ("1/0", "1/0")])
def test_bad_ledger_arg_names_its_token(args, bad):
    n = len(args.split())
    text = (
        "eta-ledger v1\ndimclass 1\nbase 0\n"
        f"argpair interval 1 args {args} lcoeffs {' '.join(['2'] * n)}\nend\n"
    )
    with pytest.raises(ParseError, match="bad rational in args") as info:
        load_ledger(text, "l.eta")
    assert info.value.lineno == 4 and info.value.token == bad


@pytest.mark.parametrize(
    "load, text",
    [
        (load_knot, "knot v1\ngenerators x x\nend\n"),
        (load_presentation, "presentation v1\ngenerators x x\nrep rank 1\nend\n"),
    ],
    ids=["knot", "presentation"],
)
def test_duplicate_generator_names_rejected_at_their_line(load, text):
    with pytest.raises(ParseError) as info:
        load(text, "f")
    assert str(info.value) == "f:2: duplicate generator names"


# each section that may appear once, given twice: the second is an error
# at its line naming its token
REPEATED = [
    (
        load_knot,
        "knot v1\ngenerators x\nseifert rank 1\n-1\nseifert rank 1\n1\nend\n",
        "f:5: repeated seifert block (token 'seifert')",
    ),
    (
        load_ledger,
        "eta-ledger v1\ndimclass 3\nbase 0\njump t0 0 sigma_odd 1\n"
        "signs + -\nsigns - +\nend\n",
        "f:6: repeated signs line (token 'signs')",
    ),
    (
        load_ledger,
        "eta-ledger v1\ndimclass 1\nbase 0\njump t0 0 sigma_odd 1\n"
        "argpair interval 0 args 1/4 lcoeffs 2\n"
        "argpair interval +0 args 1/3 lcoeffs 2\n"
        "argpair interval 1 args 1/4 lcoeffs 2\nend\n",
        "f:6: repeated argpair interval (token '+0')",
    ),
]


@pytest.mark.parametrize(
    "load, text, message", REPEATED, ids=["seifert", "signs", "argpair-interval"]
)
def test_repeated_section_rejected_at_its_line(load, text, message):
    with pytest.raises(ParseError) as info:
        load(text, "f")
    assert str(info.value) == message
    # without the repeated line the file loads
    lines = text.splitlines(keepends=True)
    lineno = info.value.lineno
    del lines[lineno - 1 : lineno + (load is load_knot)]
    load("".join(lines), "f")


# each value the loaders build from a whole section, with its refusal
# reported at the line docs/formats.md gives: a relator's word and an
# argpair's pairing at their own line, a whole file's value at `end`
BUILT = [
    (
        load_knot,
        "knot v1\ngenerators x y\nrelator x z\nrelator x y x^-1 y^-1\nend\n",
        "f:3: unknown generator 'z' in word",
        "z",
    ),
    (
        load_complex,
        "complex v1\nranks 1 2 1\nboundary 1\n[1] [1]\nboundary 2\n[1]\n[1]\nend\n",
        "f:8: boundary condition fails: d_1 . d_2 != 0",
        None,
    ),
    (
        load_presentation,
        "presentation v1\ngenerators x\nrelator x\nrep rank 1\nimage x\n[0]\nend\n",
        "f:7: image of generator 0 is singular",
        None,
    ),
    (
        load_knot,
        "knot v1\ngenerators x y\nrelator x y\nend\n",
        "f:4: relator is not conjugation-shaped (needs exponent sums one +1, one -1, rest 0)",
        None,
    ),
    (
        load_ledger,
        "eta-ledger v1\ndimclass 1\nbase 0\njump t0 0 sigma_odd 1\n"
        "argpair interval 0 args 1/4 lcoeffs 3\nargpair interval 1 args 1/4 lcoeffs 2\nend\n",
        "f:5: L-class degree-(m-1) part not even: hypothesis w_{m-1} = 0 / no 2-torsion violated",
        None,
    ),
    (
        load_ledger,
        "eta-ledger v1\ndimclass 3\nbase 0\njump t0 1 sigma_odd 1\njump t0 0 sigma_odd 1\nend\n",
        "f:6: jump points must be strictly increasing",
        None,
    ),
]


@pytest.mark.parametrize(
    "load, text, message, token",
    BUILT,
    ids=["word", "complex", "representation", "knot", "argpair", "profile"],
)
def test_built_value_refused_at_its_documented_line(load, text, message, token):
    with pytest.raises(ParseError) as info:
        load(text, "f")
    assert str(info.value) == message
    assert info.value.token == token
    assert isinstance(info.value.__cause__, ValueError)


ONE_JUMP = "eta-ledger v1\ndimclass 1\nbase 0\njump t0 0 sigma_odd 1\n"


@pytest.mark.parametrize(
    "intervals, message",
    [
        ((0, 7, 1), "f:6: argpair interval outside 0 to 1 (token '7')"),
        ((0, -1, 1), "f:6: argpair interval outside 0 to 1 (token '-1')"),
        ((0,), "f:6: argpair blocks must cover every interval exactly once"),
    ],
    ids=["far", "negative", "missing"],
)
def test_argpair_interval_out_of_range_reported_at_its_line(intervals, message):
    blocks = "".join(f"argpair interval {i} args 1/4 lcoeffs 2\n" for i in intervals)
    with pytest.raises(ParseError) as info:
        load_ledger(ONE_JUMP + blocks + "end\n", "f")
    assert str(info.value) == message


# -- one parse per distinct matrix token --------------------------------------

# the words that open a non-row line of a .cplx or .pres file
HEADS = {"complex", "ranks", "boundary", "duality", "pairing", "end"}
HEADS |= {"presentation", "generators", "relator", "rep", "image"}


@pytest.fixture
def parsed(monkeypatch):
    """The tokens ``fileio`` hands to ``parse_ratfunc``, in call order."""
    calls = []

    def spy(tok):
        calls.append(tok)
        return parse_ratfunc(tok)

    monkeypatch.setattr(fileio, "parse_ratfunc", spy)
    return calls


def _matrix_blocks(text: str) -> list[tuple[tuple[str, str], list[list[str]]]]:
    """Each matrix's opening words (``("boundary", "1")``, ``("image", "x")``)
    with the token rows under it, in file order."""
    blocks = []
    for line in text.splitlines():
        toks = line.split("#", 1)[0].split()
        if toks and toks[0] in HEADS:
            blocks.append((tuple(toks[:2]), []))
        elif toks:
            blocks[-1][1].append(toks)
    return [(head, rows) for head, rows in blocks if head[0] in ("boundary", "pairing", "image")]


def _entry_tokens(text: str) -> list[str]:
    """The distinct matrix tokens of ``text``, in order of first occurrence."""
    rows = (row for _, block in _matrix_blocks(text) for row in block)
    return list(dict.fromkeys(tok for row in rows for tok in row))


def _loaded_matrices(text: str) -> dict[tuple[str, str], Matrix]:
    """The matrix the loader builds for each block, keyed by its opening words."""
    if "presentation v1" in text:
        names, _, rho = load_presentation(text)
        return {("image", name): rho.image(g) for g, name in enumerate(names)}
    cplx, pairing = load_complex(text)
    out = {("boundary", str(k)): cplx.boundary(k) for k in range(1, cplx.top_degree + 1)}
    out.update({("pairing", str(i)): mat for i, mat in enumerate(pairing or ())})
    return out


def _zero_heavy_sum() -> str:
    """The direct sum of eight top-degree-3 corpus families, with its pairing."""
    fams = [f for f in acceptance_corpus(24, 20250) if f.complex.top_degree == 3]
    total = combine("sum", fams[:8])
    return dump_complex(total.complex, list(total.pairing))


@pytest.mark.parametrize("name", ["sum.cplx", "torus3.cplx", "torus2.pres", "zero-heavy sum"])
def test_each_load_parses_its_distinct_entry_tokens_once(parsed, name):
    text = _zero_heavy_sum() if name == "zero-heavy sum" else (DATA / name).read_text()
    _loaded_matrices(text)
    assert parsed == _entry_tokens(text)
    if name == "zero-heavy sum":
        toks = [tok for _, rows in _matrix_blocks(text) for row in rows for tok in row]
        assert toks.count("[0]") > 0.9 * len(toks) and len(toks) > 20 * len(parsed)


def test_no_parse_outlives_its_load(parsed):
    text = (DATA / "sum.cplx").read_text()
    assert load_complex(text) == load_complex(text)
    assert parsed == _entry_tokens(text) * 2


def _oracle_texts():
    files = sorted(DATA.glob("*.cplx")) + sorted(DATA.glob("*.pres"))
    texts = [(path.name, path.read_text()) for path in files]
    corpus = acceptance_corpus(55, 20250)
    return texts + [(fam.name, dump_complex(fam.complex, list(fam.pairing))) for fam in corpus]


def test_every_loaded_entry_is_a_fresh_parse_of_its_token():
    """Entries equal a parse of their own token, and equal tokens load as
    one shared object, on the demo files and on 55 corpus dumps."""
    texts = _oracle_texts()
    assert len(texts) == 55 + 4
    for name, text in texts:
        matrices = _loaded_matrices(text)
        shared = {}
        for head, rows in _matrix_blocks(text):
            mat = matrices.pop(head)
            assert len(rows) == (mat.nrows if mat.ncols else 0), (name, head)
            for toks, row in zip(rows, mat.rows):
                assert len(toks) == len(row), (name, head)
                for tok, entry in zip(toks, row):
                    assert type(entry) is RatFunc and entry == parse_ratfunc(tok), (name, tok)
                    assert shared.setdefault(tok, entry) is entry, (name, tok)
        assert not matrices, name


@pytest.mark.parametrize("bad", ["[1,x]", "[1]/[0]"], ids=["grammar", "zero-denominator"])
def test_bad_token_on_two_lines_is_reported_at_the_first(parsed, bad):
    text = f"complex v1\nranks 2 2\nboundary 1\n[1] {bad}\n{bad} [1]\nend\n"
    with pytest.raises(ParseError) as info:
        load_complex(text, "f.cplx")
    assert info.value.lineno == 4 and info.value.token == bad
    assert str(info.value) == f"f.cplx:4: bad rational-function token (token {bad!r})"
    assert parsed == ["[1]", bad]


def test_all_zero_complex_at_the_rank_cap_loads_with_one_parse(parsed):
    """A 3.9 MB file of MAX_RANK x MAX_RANK zero tokens; it loads in about
    0.15 s on a 2-vCPU Xeon, and took 5 to 6 s when every token was parsed."""
    row = " ".join(["[0]"] * MAX_RANK)
    text = f"complex v1\nranks {MAX_RANK} {MAX_RANK}\nboundary 1\n"
    text += "\n".join([row] * MAX_RANK) + "\nend\n"
    start = time.perf_counter()
    cplx, pairing = load_complex(text)
    elapsed = time.perf_counter() - start
    assert parsed == ["[0]"] and pairing is None
    assert cplx.ranks == (MAX_RANK, MAX_RANK) and cplx.boundary(1).is_zero()
    assert elapsed < 2.0, f"{elapsed:.2f} s"
