from fractions import Fraction

import pytest

from torsionfam.corpus import acceptance_corpus, circle_family, torus3_family
from torsionfam.eta import ArgPairing, EtaProfile, JumpRecord
from torsionfam.fileio import (
    MAX_RANK,
    MAX_RELATOR_DEGREE,
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
from torsionfam.knots import bundled_knots
from torsionfam.linalg import Matrix
from torsionfam.ratfunc import RatFunc, cayley

ZERO = RatFunc.zero()


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
        assert pres2 == pres
        if seif.size:
            assert seif2 == seif
        else:
            assert seif2 is None
        assert dump_knot(pres2, seif2, names) == text


def test_knot_errors():
    with pytest.raises(ParseError, match="expected 'relator'"):
        load_knot("knot v1\ngenerators x\nwat\nend\n", "k.knot")
    with pytest.raises(ParseError, match="2 integers"):
        load_knot("knot v1\ngenerators x\nseifert rank 2\n1 2\n1\nend\n", "k.knot")


def test_ledger_round_trip():
    pairing = ArgPairing((Fraction(1, 4), Fraction(1, 3)), (2, 6), 2)
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
    with pytest.raises(ParseError, match=f"cap of {MAX_WORD_LETTERS} letters"):
        load_knot(knot)
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
    assert MAX_RELATOR_DEGREE == 100
    # the bound is rank * (sum over relators of 4n letters of degree 1)
    accepted = [(1, [25]), (1, [12, 12, 1]), (2, [12]), (3, [8])]
    refused = [(1, [26], 3), (1, [12, 12, 2], 5), (2, [13], 3), (2, [6, 7], 4), (3, [9], 3)]
    for rank, powers in accepted:
        names, relators, rho = load_presentation(_power_commutators(rank, powers), "p.pres")
        assert len(relators) == len(powers) and rho.rank == rank
    for rank, powers, lineno in refused:
        with pytest.raises(ParseError, match=f"past the cap of {MAX_RELATOR_DEGREE}") as info:
            load_presentation(_power_commutators(rank, powers), "p.pres")
        assert info.value.lineno == lineno
    with pytest.raises(ParseError, match="relators reach degree 104,"):
        load_presentation(_power_commutators(1, [26]))
    # an inverse letter counts the degree of the inverse image: here 2, not 1
    shear = (
        "presentation v1\ngenerators x\nrelator {}\n"
        "rep rank 2\nimage x\n[0,1] [1]\n[-1] [0,1]\nend\n"
    )
    for word in ("x^50", "x^-25"):
        load_presentation(shear.format(word))
    with pytest.raises(ParseError, match="relators reach degree 104,"):
        load_presentation(shear.format("x^-26"))
    # images of degree 0 add nothing: the word cap alone bounds them
    constant = "presentation v1\ngenerators x\nrelator x^4000\nrep rank 1\nimage x\n[i]\nend\n"
    assert len(load_presentation(constant)[1][0]) == 4000


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
    documented in docs/formats.md (a few seconds)."""
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
