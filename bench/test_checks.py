"""The benchmark's output checks pass on real outputs and catch planted errors.

Run with ``python3 -m pytest bench/test_checks.py`` from the repository root.
"""

import copy
import random
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import worker  # noqa: E402
from torsionfam.corpus import acceptance_corpus, combine  # noqa: E402
from torsionfam.fileio import dump_complex, load_complex, load_knot  # noqa: E402
from torsionfam.knots import SeifertMatrix, bundled_knots  # noqa: E402


def _family_output(spec):
    fam = worker.Families(worker._Package())
    item = {"centers": [str(c) for c in spec.centers], "parts": None}
    text = dump_complex(spec.complex, list(spec.pairing))
    loaded = load_complex(text)
    out = fam.output(item, loaded, fam.run(item, loaded))
    return fam, item, loaded, text, out


def test_family_checks_pass_and_catch_a_flipped_interval_sign():
    spec = acceptance_corpus(8, inputs.CORPUS_SEED)[5]  # rank 8, two centers
    fam, item, loaded, text, out = _family_output(spec)
    assert fam.errors(item, loaded, text, out) == []
    bad = copy.deepcopy(out)
    bad["signs"][1] = -bad["signs"][1]
    assert any("interval signs" in e for e in checks.family_errors(bad))


def test_family_checks_catch_a_wrong_valuation_and_asymmetric_dims():
    spec = acceptance_corpus(8, inputs.CORPUS_SEED)[5]
    out = _family_output(spec)[-1]
    bad = copy.deepcopy(out)
    bad["reports"][0]["nu"] += 2
    assert checks.family_errors(bad)
    bad = copy.deepcopy(out)
    bad["reports"][0]["dims"][0] += 1
    assert checks.family_errors(bad)


def test_rebased_family_passes_and_direct_sum_check_catches_a_wrong_part():
    corpus = acceptance_corpus(5, inputs.CORPUS_SEED)
    rng = random.Random(7)
    parts = [inputs._rebase(corpus[i], rng, reflect=True) for i in (3, 4)]
    total = combine("sum", parts)
    fam, item, loaded, text, out = _family_output(total)
    assert fam.errors(item, loaded, text, out) == []
    taus = [_family_output(p)[-1]["tau"] for p in parts]
    assert checks.direct_sum_errors(out["tau"], taus) == []
    num, den = taus[0]
    doubled = [(2 * a, 2 * b) for a, b in num]
    assert checks.direct_sum_errors(out["tau"], [(doubled, den), taus[1]])


def test_knot_checks_pass_and_catch_changed_coefficients():
    pres = load_knot(inputs.two_bridge_text(13, 3))[0]
    knots = worker.Knots(worker._Package())
    item = {"p": 13, "q": 3}
    out = knots.output(item, None, knots.run(item, (pres,)))
    assert knots.errors(item, None, "", out) == []
    delta = dict(out["delta"])
    delta[0] += 1
    assert checks.knot_errors(13, 3, delta, out["conway"])
    conway = list(out["conway"])
    conway[2] += 1
    assert checks.knot_errors(13, 3, out["delta"], conway)


def test_schubert_partner_has_the_same_closed_form():
    for p in (7, 9, 11, 13, 15, 25):
        for q in checks.two_bridge_qs(p):
            partner = checks.schubert_partner(p, q)
            assert partner % 2 == 1 and (q * partner) % p in (1, p - 1)
            assert checks.hartley_minkus(p, q) == checks.hartley_minkus(p, partner)


def test_knot_items_pair_the_fixed_schubert_partners(tmp_path):
    items = inputs.make_knots(random.Random(1), tmp_path)
    partners = {i["name"]: i["partner"] for i in items if i["partner"]}
    assert partners == {"S7-3": "S7-5", "S7-5": "S7-3", "S9-5": "S9-7", "S9-7": "S9-5"}


def test_seifert_checks_pass_and_catch_a_changed_conway_coefficient():
    table = bundled_knots()
    v = [[0] * 6 for _ in range(6)]
    at = 0
    for comp in ("trefoil", "5_1"):
        block = table[comp][1].entries
        for j, row in enumerate(block):
            v[at + j][at : at + len(row)] = row
        at += len(block)
    v = inputs._scramble(random.Random(3), v)
    seifert = worker.Seifert(worker._Package())
    item = {"v": v, "components": ["trefoil", "5_1"]}
    out = seifert.output(item, None, seifert.run(item, (None, SeifertMatrix(v))))
    assert seifert.errors(item, None, "", out) == []
    bad = list(out["conway"])
    bad[2] += 1
    errs = checks.seifert_errors(v, item["components"], bad)
    assert any("product" in e for e in errs)
    assert any("det(sV" in e for e in errs)


def test_seifert_file_is_a_connected_sum_with_the_same_alexander_polynomial():
    from torsionfam.knots import alexander_from_fox, conway_normalize

    v = [list(r) for r in bundled_knots()["5_2"][1].entries]
    text = inputs.seifert_text(["trefoil", "5_2"], [[-1, 1, 0, 0], [0, -1, 0, 0], [0, 0] + v[0], [0, 0] + v[1]])
    pres, seif, _ = load_knot(text)
    assert seif.size == 4
    assert conway_normalize(alexander_from_fox(pres)).coefficients == checks.conway_product(
        ["trefoil", "5_2"]
    )


def test_closed_form_matches_the_bundled_two_bridge_knots():
    assert checks.hartley_minkus(3, 1) == {-1: 1, 0: -1, 1: 1}
    assert checks.hartley_minkus(5, 3) == {-1: -1, 0: 3, 1: -1}
    assert checks.hartley_minkus(7, 3) == {-1: 2, 0: -3, 1: 2}
    assert checks.conway_to_alexander((1, 0, 2)) == {-1: 2, 0: -3, 1: 2}
    assert checks.interval_points([0, 1]) == [Fraction(-1, 2), Fraction(1, 2), Fraction(3, 2)]
