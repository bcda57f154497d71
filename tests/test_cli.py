import argparse
import math
import random
import re
import time
from pathlib import Path

import pytest

from torsionfam.cli import Report, _build_parser, main, run, selftest
from torsionfam.corpus import circle_family, torus3_family
from torsionfam.fileio import ParseError, dump_complex, dump_ledger
from torsionfam.ratfunc import cayley

DATA = Path(__file__).resolve().parent.parent / "demos" / "data"


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["frobnicate"], "invalid choice: 'frobnicate'"),
        (["torsion"], "the following arguments are required: FILE"),
        (["selftest", "a.cplx"], "unrecognized arguments: a.cplx"),
        (["torsion", str(DATA / "circle.cplx"), "--convention", "FT-cal-1"],
         "unrecognized arguments: --convention FT-cal-1"),
    ],
    ids=["unknown-command", "torsion-without-file", "selftest-with-file", "convention-switch"],
)
def test_usage_error_exits_2(capsys, argv, message):
    """The parser alone rejects a bad command line, before any file is read."""
    with pytest.raises(SystemExit) as info:
        main(argv)
    captured = capsys.readouterr()
    assert info.value.code == 2 and captured.out == ""
    assert message in captured.err


def test_torsion_circle(capsys):
    code, out, err = invoke(capsys, "torsion", str(DATA / "circle.cplx"))
    assert code == 0
    assert "torsion.value = [0,-2]/[i,1]" in out
    assert "torsion.valuation.0 = 1" in out
    assert "verdict: pass" in out


def test_torsion_explicit_points(capsys):
    code, out, _ = invoke(
        capsys, "torsion", str(DATA / "circle.cplx"), "--t0", "0,1"
    )
    assert code == 0
    assert "torsion.valuation.0 = 1" in out
    assert "torsion.valuation.1 = 0" in out


def test_analyze_torus3(capsys):
    code, out, _ = invoke(
        capsys, "analyze", str(DATA / "torus3.cplx"), "--t0", "0",
        "--format", "structured",
    )
    assert code == 0
    assert "item analysis.0.nu 0" in out
    assert "item analysis.0.dims 1 2 1 0" in out
    assert "check" in out and "duality pass" in out
    assert out.endswith("verdict pass\n")


def test_analyze_auto_discovery(capsys):
    code, out, _ = invoke(capsys, "analyze", str(DATA / "sum.cplx"))
    assert code == 0
    for point in ("-1", "0", "1"):
        assert f"analysis.{point}.nu = 1" in out


def test_analyze_duality_off(capsys):
    code, out, _ = invoke(
        capsys, "analyze", str(DATA / "circle.cplx"), "--t0", "0",
        "--duality", "off", "--format", "structured",
    )
    assert code == 0
    assert "duality" not in out.replace("convention", "")


def test_eta_check_pass_and_fail(capsys):
    code, out, _ = invoke(capsys, "eta-check", str(DATA / "ledger_pass.eta"))
    assert code == 0 and "verdict: pass" in out
    code, out, _ = invoke(capsys, "eta-check", str(DATA / "ledger_fail.eta"))
    assert code == 1 and "verdict: fail" in out
    assert "ray.failing_interval = 1" in out


def test_eta_check_with_family(capsys):
    code, out, _ = invoke(
        capsys, "eta-check", str(DATA / "ledger_circle.eta"),
        "--complex", str(DATA / "circle.cplx"),
    )
    assert code == 0
    assert "signs.synthesized = + -" in out
    assert "family-parity" in out


def test_conway_oracle(capsys):
    for name, conway in [
        ("unknot", "1"),
        ("trefoil", "1 + z^2"),
        ("figure8", "1 - z^2"),
        ("5_1", "1 + 3*z^2 + z^4"),
        ("5_2", "1 + 2*z^2"),
    ]:
        code, out, _ = invoke(capsys, "conway", str(DATA / f"{name}.knot"))
        assert code == 0, name
        assert f"conway = {conway}" in out, name
        if name != "unknot":
            assert "oracle-agreement" in out


def _planted_knot(letters: int, seed: int) -> str:
    """Three meridians and the relators w x w^-1 y^-1, w' y w'^-1 z^-1,
    with w and w' of ``letters`` random positive letters each."""
    rng = random.Random(seed)
    relators = []
    for a, b in (("x", "y"), ("y", "z")):
        w = [rng.choice("xyz") for _ in range(letters)]
        inverse = " ".join(f"{g}^-1" for g in reversed(w))
        relators.append(f"relator {' '.join(w)} {a} {inverse} {b}^-1")
    return "knot v1\ngenerators x y z\n" + "\n".join(relators) + "\nend\n"


def test_knot_past_the_minor_cap_exits_2_at_once(capsys, tmp_path):
    """An 11 KB file whose Alexander minor (degree up to 1600 on a 2x2
    block) is past ``knots.MAX_MINOR_WORK`` is refused before any
    evaluation: exit 2 with the file named, and in a run of several the
    other files go on."""
    path = tmp_path / "long.knot"
    path.write_text(_planted_knot(800, 25))
    start = time.perf_counter()
    code, out, err = invoke(capsys, "conway", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err == (
        f"torsionfam: error: {path}: Alexander minor of degree up to 1600 on a 2x2 block "
        "is past the cap of 1500000000 (knots.MAX_MINOR_WORK)\n"
    )
    code, out, _ = invoke(capsys, "conway", str(path), str(DATA / "trefoil.knot"))
    assert code == 2 and "conway = 1 + z^2" in out and f"note: error: {path}:" in out


def test_presentation_files_accepted(capsys):
    code, out, _ = invoke(
        capsys, "analyze", str(DATA / "torus2.pres"), "--t0", "0"
    )
    assert code == 0
    assert "analysis.0.dims = 1 1 0" in out
    assert "nu-equals-chi" in out
    code, out, _ = invoke(capsys, "torsion", str(DATA / "torus2.pres"))
    assert code == 0 and "ranks = 1 2 1" in out


def test_selftest_passes(capsys):
    code, out, _ = invoke(capsys, "selftest", "--format", "structured")
    assert code == 0
    assert out.endswith("verdict pass\n")
    for name in ("circle", "torus3", "knots.5_2", "ledgers.broken", "invariants.galois"):
        assert name in out


def test_structured_output_deterministic(capsys):
    args = ("analyze", str(DATA / "torus3.cplx"), "--t0", "0", "--format", "structured")
    _, out1, _ = invoke(capsys, *args)
    _, out2, _ = invoke(capsys, *args)
    assert out1 == out2


def test_inputs_not_mutated(capsys, tmp_path):
    fam = circle_family(cayley() - 1)
    path = tmp_path / "c.cplx"
    text = dump_complex(fam.complex, list(fam.pairing))
    path.write_text(text)
    invoke(capsys, "analyze", str(path), "--t0", "0")
    assert path.read_text() == text


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.cplx"
    bad.write_text("complex v1\nranks 1 1\nboundary 1\nwat\nend\n")
    code, out, err = invoke(capsys, "analyze", str(bad))
    assert code == 2
    assert "bad.cplx:4" in err
    # a run of one file propagates the parse error itself, path and line
    with pytest.raises(ParseError, match=f"^{re.escape(str(bad))}:4: ") as info:
        run(_build_parser().parse_args(["analyze", str(bad)]))
    assert info.value.lineno == 4


def test_missing_file_exit_code(capsys):
    code, out, err = invoke(capsys, "torsion", "no-such-file.cplx")
    assert (code, out) == (2, "")
    assert err == "torsionfam: error: no-such-file.cplx: cannot read: No such file or directory\n"
    # a multi-file run names the file once too
    code, out, err = invoke(capsys, "torsion", "no-such-file.cplx", str(DATA / "circle.cplx"))
    assert code == 2 and err.count("no-such-file.cplx") == 1 and "cannot read" in err


def test_run_api_report_shape():
    report = run(_build_parser().parse_args(["torsion", str(DATA / "circle.cplx"), "--t0", "0"]))
    assert isinstance(report, Report)
    assert report.all_pass
    structured = report.structured()
    assert structured.startswith("torsionfam-report v1\n")
    assert "convention FT-cal-1" in structured


def test_readme_command_line_matches_parser():
    """README's "Command line" section lists exactly the parser's subcommands and flags."""
    readme = (DATA.parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    (subparsers,) = (
        action for action in _build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    flags = {
        flag
        for sub in subparsers.choices.values()
        for action in sub._actions
        for flag in action.option_strings
        if flag.startswith("--") and flag != "--help"
    }
    assert set(re.findall(r"^torsionfam ([a-z-]+)", section, re.M)) == set(subparsers.choices)
    assert set(re.findall(r"--[a-z0-9]+", section)) == flags


def test_selftest_seed_changes_samples_not_verdict():
    a = selftest(seed=1)
    b = selftest(seed=2)
    assert a.all_pass and b.all_pass


def test_rejected_pairing_fails_a_check(capsys, tmp_path):
    bad = tmp_path / "bad_pairing.cplx"
    text = (DATA / "circle.cplx").read_text()
    bad.write_text(text.replace("pairing 0\n[i,1]/[-i,1]\n", "pairing 0\n[0,1]\n"))
    good = DATA / "circle.cplx"
    code, out, err = invoke(
        capsys, "analyze", str(bad), str(good), "--t0", "0", "--format", "structured",
    )
    assert code == 1 and err == ""
    assert f"check {bad}:0:duality fail" in out
    assert f"note {bad}:0: duality pairing rejected: duality matrix 0 is not invertible" in out
    assert f"check {good}:0:duality pass" in out
    assert out.count("item analysis.0.nu 1") == 2
    assert out.endswith("verdict fail\n")


def test_eta_check_rejected_pairing_fails_a_check(capsys, tmp_path):
    bad = tmp_path / "bad_pairing.cplx"
    text = (DATA / "circle.cplx").read_text()
    bad.write_text(text.replace("pairing 0\n[i,1]/[-i,1]\n", "pairing 0\n[0,1]\n"))
    ledger = DATA / "ledger_circle.eta"
    again = tmp_path / "again.eta"
    again.write_text(ledger.read_text())
    code, out, err = invoke(
        capsys, "eta-check", str(ledger), str(again), "--complex", str(bad),
        "--format", "structured",
    )
    assert code == 1 and err == ""
    for path in (ledger, again):
        assert f"check {path}:jump-0:duality fail" in out
        assert (
            f"note {path}:jump-0: duality pairing rejected: "
            "duality matrix 0 is not invertible" in out
        )
        # the point is still analyzed, without the pairing
        assert f"check {path}:jump-0:family-parity pass" in out
        assert f"check {path}:jump-0:nu-matches-family pass" in out
        assert f"check {path}:ray-invariance pass" in out
    assert out.count("item signs.synthesized + -") == 2
    assert out.endswith("verdict fail\n")


def _one_boundary(tmp_path, name, coeffs):
    path = tmp_path / f"{name}.cplx"
    path.write_text(f"complex v1\nranks 1 1\nboundary 1\n[{coeffs}]\nend\n")
    return path


def test_auto_discovery_divides_out_the_content(capsys, tmp_path):
    """A common integer factor does not enlarge the candidate set."""
    start = time.perf_counter()
    for big, small in (("720720,720720,720720", "1,1,1"),
                       ("-2162160,3603600,1441440", "-3,5,2")):
        outs = []
        for name, coeffs in (("big", big), ("small", small)):
            code, out, err = invoke(
                capsys, "torsion", str(_one_boundary(tmp_path, name, coeffs)),
                "--format", "structured",
            )
            assert code == 0 and err == ""
            outs.append([line for line in out.splitlines() if "valuation" in line])
        assert outs[0] == outs[1]
    assert outs[0] == ["item torsion.valuation.-3 1", "item torsion.valuation.1/2 1"]
    assert time.perf_counter() - start < 5.0


def test_auto_discovery_refuses_too_many_candidates(capsys, tmp_path):
    """A candidate cap once refused this file (13,286,025 divisor pairs);
    the q-adic search has no cap and answers with the leftover note."""
    code, out, err = invoke(
        capsys, "torsion", str(_one_boundary(tmp_path, "wide", "720720,1,720720")),
        "--format", "structured",
    )
    assert code == 0 and err == ""
    assert "valuation" not in out
    assert "note 2 zero/pole degrees of the torsion lie outside exact rational search" in out


def test_auto_discovery_refuses_before_listing_divisors(capsys, tmp_path):
    """The file the cap refused at once is answered at once."""
    path = str(_one_boundary(tmp_path, "wide", "720720,1,720720"))
    start = time.perf_counter()
    code, _, err = invoke(capsys, "torsion", path)
    elapsed = time.perf_counter() - start
    assert code == 0 and err == ""
    assert elapsed < 0.05


def test_auto_discovery_on_degree_40_with_40_digit_coefficients(capsys, tmp_path):
    import random

    rng = random.Random(1640)

    def poly():
        return ",".join(str(rng.choice((1, -1)) * rng.randrange(10**39, 10**40))
                        for _ in range(41))

    path = tmp_path / "big.cplx"
    path.write_text(f"complex v1\nranks 1 1\nboundary 1\n[{poly()}]/[{poly()}]\nend\n")
    start = time.perf_counter()
    code, out, err = invoke(capsys, "torsion", str(path), "--format", "structured")
    assert time.perf_counter() - start < 5.0
    assert code == 0 and err == ""
    assert "note 80 zero/pole degrees of the torsion lie outside" in out


def test_auto_discovery_when_every_prime_below_100_divides_the_lead(capsys, tmp_path):
    """(P t - 1)(t - 3), P the product of the primes below 100: the search
    must take a prime of at least 101."""
    lead = math.prod(p for p in range(2, 100) if all(p % d for d in range(2, p)))
    path = _one_boundary(tmp_path, "primorial", f"3,{-3 * lead - 1},{lead}")
    code, out, err = invoke(capsys, "torsion", str(path), "--format", "structured")
    assert code == 0 and err == ""
    assert [line for line in out.splitlines() if "valuation" in line] == [
        f"item torsion.valuation.1/{lead} 1", "item torsion.valuation.3 1",
    ]


def _break_calibration(monkeypatch, nu=3):
    """Fake a singularity exponent that disagrees with chi everywhere."""
    import torsionfam.dvr as dvr_module

    monkeypatch.setattr(dvr_module, "singularity_exponent", lambda c, t0: nu)


def test_calibration_violation_fails_a_check(capsys, tmp_path, monkeypatch):
    _break_calibration(monkeypatch)
    circle, torus3 = DATA / "circle.cplx", DATA / "torus3.cplx"
    bad = tmp_path / "bad_pairing.cplx"
    bad.write_text(
        circle.read_text().replace("pairing 0\n[i,1]/[-i,1]\n", "pairing 0\n[0,1]\n")
    )
    code, out, err = invoke(
        capsys, "analyze", str(circle), str(bad), str(torus3), "--t0", "0",
        "--format", "structured",
    )
    assert code == 1 and err == ""
    for path, chi in ((circle, 1), (bad, 1), (torus3, 0)):
        assert f"item analysis.0.chi {chi}" in out
        assert f"check {path}:0:nu-equals-chi fail" in out
        assert f"note {path}:0: convention calibration violated: nu = 3, chi = {chi}" in out
    # the rest of each point's report still comes out
    assert out.count("item analysis.0.nu 3") == 3
    assert f"check {circle}:0:duality pass" in out
    assert f"check {bad}:0:duality fail" in out
    assert out.endswith("verdict fail\n")


def test_eta_check_calibration_violation_fails_a_check(capsys, monkeypatch):
    _break_calibration(monkeypatch)
    ledger = DATA / "ledger_circle.eta"
    code, out, err = invoke(
        capsys, "eta-check", str(ledger), "--complex", str(DATA / "circle.cplx"),
        "--format", "structured",
    )
    assert code == 1 and err == ""
    assert f"check {ledger}:jump-0:nu-equals-chi fail" in out
    assert f"note {ledger}:jump-0: convention calibration violated: nu = 3, chi = 1" in out
    assert f"check {ledger}:jump-0:family-parity" in out
    assert f"check {ledger}:ray-invariance" in out


def test_eta_check_passing_calibration_adds_no_check(capsys):
    code, out, _ = invoke(
        capsys, "eta-check", str(DATA / "ledger_circle.eta"), "--complex",
        str(DATA / "circle.cplx"), "--format", "structured",
    )
    assert code == 0 and "nu-equals-chi" not in out


def test_conway_oracle_failure_is_isolated_per_file(capsys, tmp_path):
    bad = tmp_path / "bad.knot"
    bad.write_text(
        "knot v1\ngenerators x\nseifert rank 2\n1 0\n0 1\nend\n"
    )
    good = DATA / "trefoil.knot"
    code, out, err = invoke(capsys, "conway", str(bad), str(good), "--format", "structured")
    assert code == 1 and err == ""
    assert f"check {bad}:oracle-agreement fail" in out
    assert (
        f"note {bad}: Seifert oracle rejected the matrix: "
        "Conway normalization failed: constant term is not 1" in out
    )
    assert f"check {good}:oracle-agreement pass" in out
    assert "item conway.oracle 1 + z^2" in out
    assert out.endswith("verdict fail\n")


def test_conway_degenerate_presentation_is_isolated_per_file(capsys, tmp_path):
    bad = tmp_path / "bad.knot"
    bad.write_text("knot v1\ngenerators x y\nrelator x y x^-1 y^-1\nend\n")
    good = DATA / "trefoil.knot"
    code, out, err = invoke(capsys, "conway", str(bad), str(good), "--format", "structured")
    assert code == 1 and err == ""
    assert f"check {bad}:alexander fail" in out
    assert f"note {bad}: degenerate presentation: exponent span is odd" in out
    assert f"check {good}:oracle-agreement pass" in out
    assert "item conway 1 + z^2" in out
    assert out.endswith("verdict fail\n")


def test_conway_duplicate_generator_names_is_a_parse_error(capsys, tmp_path):
    bad = tmp_path / "dup.knot"
    bad.write_text("knot v1\ngenerators x x\nrelator x x^-1\nend\n")
    code, out, err = invoke(capsys, "conway", str(bad))
    assert (code, out) == (2, "")
    assert err == f"torsionfam: error: {bad}:2: duplicate generator names\n"


def test_conway_seifert_rank_past_the_cap_exits_2_and_the_other_files_go_on(
    capsys, tmp_path
):
    big = tmp_path / "big.knot"
    big.write_text("knot v1\ngenerators x\nseifert rank 200\nend\n")
    good, other = DATA / "trefoil.knot", DATA / "figure8.knot"
    start = time.perf_counter()
    code, out, err = invoke(
        capsys, "conway", str(good), str(big), str(other), "--format", "structured"
    )
    assert time.perf_counter() - start < 5.0
    assert code == 2
    assert err == (
        f"torsionfam: error: {big}:3: seifert rank outside 0 to the cap of 48 (token '200')\n"
    )
    assert f"check {good}:oracle-agreement pass" in out
    assert f"check {other}:oracle-agreement pass" in out
    assert f"note error: {big}:3: seifert rank outside" in out
    assert out.index(str(good)) < out.index(str(other))
    assert out.endswith("verdict fail\n")


def test_conway_seifert_entry_past_the_cap_exits_2_and_the_other_files_go_on(
    capsys, tmp_path
):
    # 16x16 of 1000-digit entries: the oracle would run for minutes
    digits = "7" * 1000
    rows = "".join(" ".join([digits] * 16) + "\n" for _ in range(16))
    big = tmp_path / "big.knot"
    big.write_text(f"knot v1\ngenerators x\nseifert rank 16\n{rows}end\n")
    good, other = DATA / "trefoil.knot", DATA / "figure8.knot"
    start = time.perf_counter()
    code, out, err = invoke(
        capsys, "conway", str(good), str(big), str(other), "--format", "structured"
    )
    assert time.perf_counter() - start < 5.0
    assert code == 2
    assert err == (
        f"torsionfam: error: {big}:4: seifert entry past the cap of 6 digits "
        f"(token '{digits}')\n"
    )
    assert f"check {good}:oracle-agreement pass" in out
    assert f"check {other}:oracle-agreement pass" in out
    assert f"note error: {big}:4: seifert entry past the cap" in out
    assert out.index(str(good)) < out.index(str(other))
    assert out.endswith("verdict fail\n")


def test_multi_file_run_matches_its_single_file_runs(capsys):
    """Running the files together reports what running them one by one does."""
    paths = [str(DATA / f"{name}.knot") for name in ("trefoil", "figure8", "5_2")]
    parts = [invoke(capsys, "conway", path, "--format", "structured")[1] for path in paths]
    code, out, _ = invoke(capsys, "conway", *paths, "--format", "structured")
    assert code == 0
    head = parts[0].split("item ")[0]
    body = [part[len(head) : -len("verdict pass\n")] for part in parts]
    lines = [line for part in body for line in part.splitlines(keepends=True)]
    order = {"item": 0, "note": 1, "check": 2}
    lines.sort(key=lambda line: order[line.split()[0]])
    assert out == head + "".join(lines) + "verdict pass\n"


def test_multi_file_error_without_a_path_is_led_by_its_file(capsys, tmp_path):
    """An error that carries no path is led by its file's path, in a run
    of one file as in a run of several."""
    pole = tmp_path / "pole.cplx"
    pole.write_text("complex v1\nranks 1 1\nboundary 1\n[1]/[0,1]\nend\n")
    message = f"{pole}: matrix not defined over the local ring"
    code, out, err = invoke(capsys, "analyze", str(pole), "--t0", "0")
    assert (code, out, err) == (2, "", f"torsionfam: error: {message}\n")
    good = DATA / "circle.cplx"
    code, out, err = invoke(
        capsys, "analyze", str(pole), str(good), "--t0", "0", "--format", "structured"
    )
    assert code == 2
    assert err == f"torsionfam: error: {message}\n"
    assert f"note error: {message}\n" in out
    assert f"check {good}:0:nu-equals-chi pass" in out


def test_unrespected_relator_is_named_by_file_and_line(capsys, tmp_path):
    """The error names the relator's line, not its letters (x^100 expands
    to 100 of them), in single-file and multi-file runs alike."""
    bad = tmp_path / "bad.pres"
    text = (DATA / "torus2.pres").read_text().replace("relator x y x^-1 y^-1", "relator x^100")
    bad.write_text(text)
    message = f"{bad}:3: relator is not respected by the representation"
    for command in ("torsion", "analyze"):
        code, out, err = invoke(capsys, command, str(bad))
        assert (code, out, err) == (2, "", f"torsionfam: error: {message}\n")
    good = DATA / "circle.cplx"
    code, out, err = invoke(capsys, "torsion", str(bad), str(good), "--format", "structured")
    assert code == 2
    assert err == f"torsionfam: error: {message}\n"
    assert f"note error: {message}\n" in out
    assert f"check {good}:generically-acyclic pass" in out


def test_long_relators_are_refused_before_the_fox_pass(capsys, tmp_path):
    """x^50 y^50 x^-50 y^-50 over the torus2 images is respected, but its
    Fox pass runs for minutes; the loader refuses it at the relator."""
    text = (DATA / "torus2.pres").read_text()
    slow = tmp_path / "slow.pres"
    slow.write_text(text.replace("relator x y x^-1 y^-1", "relator x^50 y^50 x^-50 y^-50"))
    start = time.perf_counter()
    code, out, err = invoke(capsys, "torsion", str(slow))
    assert code == 2 and time.perf_counter() - start < 2
    cap = "relators reach weight 1700, past the cap of 800"
    assert err == f"torsionfam: error: {slow}:3: {cap}\n" and out == ""
    good = DATA / "torus2.pres"
    code, out, err = invoke(capsys, "torsion", str(slow), str(good), "--format", "structured")
    assert code == 2
    assert err == f"torsionfam: error: {slow}:3: {cap}\n"
    assert f"note error: {slow}:3: {cap}\n" in out
    assert f"check {good}:generically-acyclic pass" in out


@pytest.mark.parametrize(
    "rank,images,relator",
    [
        # Cayley images with 9-digit speeds: degree sum 80 (over 60 s uncapped)
        (
            1,
            ["[1,987654321i]/[1,-987654321i]", "[1,123456787/1000003i]/[1,-123456787/1000003i]"],
            "x^20 y^20 x^-20 y^-20",
        ),
        # a rotation of degree 0 whose coefficients grow (over 60 s uncapped)
        (2, ["[3/5] [-4/5]\n[4/5] [3/5]"], "x^10000"),
    ],
)
def test_large_coefficients_count_toward_the_relator_cap(capsys, tmp_path, rank, images, relator):
    """The cap weighs the images' coefficient sizes, not only their degrees."""
    names = ["x", "y"][: len(images)]
    blocks = "".join(f"image {g}\n{img}\n" for g, img in zip(names, images))
    path = tmp_path / "big.pres"
    path.write_text(
        f"presentation v1\ngenerators {' '.join(names)}\nrelator {relator}\n"
        f"rep rank {rank}\n{blocks}end\n"
    )
    start = time.perf_counter()
    code, out, err = invoke(capsys, "torsion", str(path), "--t0", "0")
    assert code == 2 and time.perf_counter() - start < 2
    assert out == "" and err.startswith(f"torsionfam: error: {path}:3: relators reach weight")
