import time
from pathlib import Path

import pytest

from torsionfam.cli import JobSpec, Report, main, run, selftest
from torsionfam.corpus import circle_family, torus3_family
from torsionfam.fileio import dump_complex, dump_ledger
from torsionfam.ratfunc import cayley

DATA = Path(__file__).resolve().parent.parent / "demos" / "data"


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_jobspec_validation():
    with pytest.raises(ValueError, match="unknown command"):
        JobSpec(command="frobnicate")


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


def test_missing_file_exit_code(capsys):
    code, _, err = invoke(capsys, "torsion", "no-such-file.cplx")
    assert code == 2
    assert "cannot read" in err


def test_unknown_convention_rejected(capsys):
    code, _, err = invoke(
        capsys, "torsion", str(DATA / "circle.cplx"), "--convention", "other"
    )
    assert code == 2
    assert "FT-cal-1" in err


def test_run_api_report_shape():
    job = JobSpec(
        command="torsion",
        input_paths=(str(DATA / "circle.cplx"),),
        options={"t0": "0"},
    )
    report = run(job)
    assert isinstance(report, Report)
    assert report.all_pass
    structured = report.structured()
    assert structured.startswith("torsionfam-report v1\n")
    assert "convention FT-cal-1" in structured


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
    start = time.perf_counter()
    code, _, err = invoke(
        capsys, "torsion", str(_one_boundary(tmp_path, "wide", "720720,1,720720")),
    )
    assert code == 2
    assert "auto discovery infeasible" in err and "supply --t0" in err
    assert time.perf_counter() - start < 5.0


def test_auto_discovery_refuses_before_listing_divisors(capsys, tmp_path):
    """The cap is applied to divisor counts, so a refusal is immediate."""
    path = str(_one_boundary(tmp_path, "wide", "720720,1,720720"))
    start = time.perf_counter()
    code, _, err = invoke(capsys, "torsion", path)
    elapsed = time.perf_counter() - start
    assert code == 2
    assert err == (
        "torsionfam: error: auto discovery infeasible: 13286025 divisor pairs "
        "exceed the cap of 20000, supply --t0\n"
    )
    assert elapsed < 0.05


def _trial_divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def test_divisor_count_matches_listing():
    import random

    from torsionfam.cli import _divisor_count, _integer_divisors, _is_prime

    rng = random.Random(71)
    for n in list(range(1, 400)) + [rng.randrange(1, 10**5) for _ in range(100)]:
        assert _integer_divisors(n) == _trial_divisors(n)
        assert _divisor_count(n) == len(_trial_divisors(n))
        assert _is_prime(n) == (len(_trial_divisors(n)) == 2)
    # strong pseudoprimes to the bases 2; 2, 3; 2, 3, 5; 2, 3, 5, 7; and 2, 13, 23
    for n in (2047, 1373653, 25326001, 3215031751, 1122004669633):
        assert not _is_prime(n)
    big_p, big_q = 999983, 999979  # primes just below 10**6
    assert _is_prime(big_p) and _is_prime(999999999989)
    for n, count in ((big_p * big_q, 4), (big_p**2, 3), (999999999989, 2),
                     (10**12, 169), (720720, 240), (2**39, 40), (7**14, 15)):
        assert _divisor_count(n) == count
    with pytest.raises(ValueError, match="coefficients too large"):
        _divisor_count(10**12 + 1)


def _squarefree(*primes):
    from itertools import combinations
    from math import prod

    return sorted(prod(c) for k in range(len(primes) + 1) for c in combinations(primes, k))


@pytest.mark.parametrize(
    "n, expected",
    [
        (999983**2, [1, 999983, 999983**2]),  # cofactor p^2, read directly
        (999983 * 999979, _squarefree(999979, 999983)),  # cofactor p*q, split by rho
        (7 * 999983, _squarefree(7, 999983)),  # cofactor p after trial division
        (2 * 3 * 101 * 1009 * 9973, _squarefree(2, 3, 101, 1009, 9973)),
    ],
)
def test_integer_divisors_from_the_factorization(n, expected):
    from torsionfam.cli import _divisor_count, _integer_divisors

    start = time.perf_counter()
    divisors = _integer_divisors(n)
    elapsed = time.perf_counter() - start
    assert divisors == expected
    assert _divisor_count(n) == len(expected)
    assert elapsed < 0.01


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
    # 16x16 of 1000-digit entries: the oracle would run for about 20 s
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
    bad = tmp_path / "bad.pres"
    text = (DATA / "torus2.pres").read_text().replace("relator x y x^-1 y^-1", "relator x y")
    bad.write_text(text)
    good = DATA / "circle.cplx"
    code, out, err = invoke(capsys, "torsion", str(bad), str(good), "--format", "structured")
    assert code == 2
    message = f"{bad}: relator 'x0 x1' is not respected by the representation"
    assert err == f"torsionfam: error: {message}\n"
    assert f"note error: {message}\n" in out
    assert f"check {good}:generically-acyclic pass" in out
