"""Command-line entry point and reproducible end-to-end pipelines.

Subcommands: ``torsion`` (torsion of a complex file and its valuations
at degeneration points), ``analyze`` (full deformation reports),
``eta-check`` (ray invariance of an eta ledger, optionally fed by a
family complex), ``conway`` (knot pipeline with oracle comparison),
and ``selftest`` (bundled corpus and cross-module invariants).  The
argparse parser is the one place that declares, defaults and checks
the commands and their options; each subcommand names its handler
there, and ``run`` takes the parsed namespace.

Reports exist in two renderings: a human-readable text form and a
versioned line-oriented key-value document (``--format structured``)
meant for test harnesses; the structured form is byte-identical across
runs on identical inputs.  Every report is computed under the one sign
convention ``FT-cal-1``, which both renderings name.  Exit status is 0
when every check passes, 1 on a failed verdict, 2 on usage or input
errors.
"""

from __future__ import annotations

import argparse
import random
import sys
from fractions import Fraction
from typing import Optional

from . import __version__
from .complexes import (
    CONVENTION_TAG,
    conjugate_complex,
    direct_sum,
    is_generically_acyclic,
    torsion,
)
from .corpus import (
    bundled_direct_sum, circle_family, random_acyclic_complex, random_local_matrix,
    random_ratfunc, random_word, torus3_family,
)
from .dvr import CalibrationError, DualityError, analyze, snf_local
from .eta import (
    ArgPairing,
    EtaProfile,
    JumpRecord,
    eta_at_jump,
    ray_invariant_check,
    signs_from_reports,
)
from .fileio import (
    _load_family,
    dump_complex,
    dump_knot,
    dump_ledger,
    load_complex,
    load_knot,
    load_ledger,
)
from .groupring import GroupRingElem, Word, fox_derivative
from .knots import (
    MinorTooLarge, alexander_from_fox, bundled_knots, conway_from_seifert, conway_normalize,
)
from .linalg import Matrix
from .poly import rational_real_roots
from .ratfunc import RatFunc, cayley, conj_family
from .scalars import GaussRat, format_gauss, parse_gauss

__all__ = ["Report", "run", "selftest", "main"]


class Report:
    """Ordered items and named verdicts; renders text or structured."""

    def __init__(self, command: str):
        self.command = command
        self.items: list[tuple[str, str]] = []
        self.checks: list[tuple[str, bool]] = []
        self.notes: list[str] = []
        self.errors: list[str] = []  # input files left out by a usage or parse error

    def item(self, key: str, value) -> None:
        self.items.append((key, str(value)))

    def check(self, name: str, ok: bool) -> None:
        self.checks.append((name, bool(ok)))

    def note(self, text: str) -> None:
        self.notes.append(text)

    @property
    def all_pass(self) -> bool:
        return not self.errors and all(ok for _, ok in self.checks)

    def structured(self) -> str:
        lines = [
            "torsionfam-report v1",
            f"tool torsionfam {__version__}",
            f"convention {CONVENTION_TAG}",
            f"command {self.command}",
        ]
        for key, value in self.items:
            lines.append(f"item {key} {value}")
        for text in self.notes:
            lines.append(f"note {text}")
        for name, ok in self.checks:
            lines.append(f"check {name} {'pass' if ok else 'fail'}")
        lines.append(f"verdict {'pass' if self.all_pass else 'fail'}")
        return "\n".join(lines) + "\n"

    def text(self) -> str:
        lines = [f"torsionfam {__version__} :: {self.command} (convention {CONVENTION_TAG})"]
        for key, value in self.items:
            lines.append(f"  {key} = {value}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        for name, ok in self.checks:
            lines.append(f"  [{'PASS' if ok else 'FAIL'}] {name}")
        lines.append(f"verdict: {'pass' if self.all_pass else 'fail'}")
        return "\n".join(lines) + "\n"


# -- command implementations --------------------------------------------------


def _resolve_centers(report: Report, value: RatFunc, t0: str) -> list[GaussRat]:
    """The points of ``--t0``, or for 'auto' the real rational zeros and poles of value."""
    if t0 != "auto":
        out = []
        for tok in t0.split(","):
            try:
                out.append(parse_gauss(tok))
            except ValueError as exc:
                raise ValueError(f"bad --t0 value {tok!r}: {exc}") from exc
        return out
    roots_num, left_num = rational_real_roots(value.num)
    roots_den, left_den = rational_real_roots(value.den)
    if left_num + left_den:
        report.note(
            f"{left_num + left_den} zero/pole degrees of the torsion lie outside exact "
            "rational search (irrational or non-real); supply --t0 to analyze them"
        )
    return [GaussRat(c) for c in sorted(set(roots_num) | set(roots_den))]


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ValueError(f"{path}: cannot read: {exc.strerror}") from exc


def _cmd_torsion(args: argparse.Namespace, path: str) -> Report:
    report = Report("torsion")
    cplx, _ = _load_family(_read_text(path), path)
    report.item("input", path)
    report.item("ranks", " ".join(str(r) for r in cplx.ranks))
    acyclic = is_generically_acyclic(cplx)
    report.check(f"{path}:generically-acyclic", acyclic)
    if not acyclic:
        return report
    value = torsion(cplx).value
    report.item("torsion.value", value)
    for t0 in _resolve_centers(report, value, args.t0):
        report.item(f"torsion.valuation.{format_gauss(t0)}", value.valuation(t0))
    return report


def _load_duality(args: argparse.Namespace, inline: Optional[list[Matrix]]):
    opt = args.duality
    if opt == "off":
        return None
    if opt == "on":
        return inline
    text = _read_text(opt)
    _, pairing = load_complex(text, opt)
    if pairing is None:
        raise ValueError(f"{opt} contains no duality section")
    return pairing


def _analyze_point(cplx, t0, pairing):
    """Deformation report at t0, and why the pairing was rejected there.

    A pairing rejected at t0 is dropped and the point analyzed without
    it.  A calibration failure (nu != chi) does not stop the run: its
    report is returned, and the caller reports the failed check.
    """
    try:
        return analyze(cplx, t0, duality=pairing), None
    except CalibrationError as exc:
        return exc.report, None
    except DualityError as exc:
        rejected = str(exc)
    try:
        return analyze(cplx, t0), rejected
    except CalibrationError as exc:
        return exc.report, rejected


def _cmd_analyze(args: argparse.Namespace, path: str) -> Report:
    report = Report("analyze")
    cplx, inline = _load_family(_read_text(path), path)
    report.item("input", path)
    pairing = _load_duality(args, inline)
    acyclic = is_generically_acyclic(cplx)
    report.check(f"{path}:generically-acyclic", acyclic)
    if not acyclic:
        return report
    value = torsion(cplx).value
    report.item("torsion.value", value)
    for t0 in _resolve_centers(report, value, args.t0):
        key = format_gauss(t0)
        rep, rejected = _analyze_point(cplx, t0, pairing)
        report.item(f"analysis.{key}.nu", rep.nu)
        report.item(f"analysis.{key}.chi", rep.chi)
        report.item(f"analysis.{key}.dims", " ".join(str(d) for d in rep.dims.dims))
        if rep.middle_dim_parity is not None:
            report.item(f"analysis.{key}.middle_parity", rep.middle_dim_parity)
        report.item(f"analysis.{key}.sign_flip", rep.sign_flip)
        if rep.nu != rep.chi:
            report.note(f"{path}:{key}: {CalibrationError(rep)}")
        report.check(f"{path}:{key}:nu-equals-chi", rep.nu == rep.chi)
        if rejected is not None:
            report.note(f"{path}:{key}: duality pairing rejected: {rejected}")
            report.check(f"{path}:{key}:duality", False)
        elif rep.duality_ok is not None:
            report.check(f"{path}:{key}:duality", rep.duality_ok)
    return report


def _cmd_eta_check(args: argparse.Namespace, path: str) -> Report:
    report = Report("eta-check")
    profile, signs = load_ledger(_read_text(path), path)
    report.item("input", path)
    report.item("dimclass", profile.dimension_class)
    report.item("jumps", len(profile.jumps))
    for warning in profile.warnings():
        report.note(f"{path}: {warning}")
    if args.complex:
        cplx, inline = _load_family(_read_text(args.complex), args.complex)
        pairing = _load_duality(args, inline)
        reports = []
        for rec in profile.jumps:
            rep, rejected = _analyze_point(cplx, GaussRat(rec.t0), pairing)
            reports.append(rep)
            if rejected is not None:
                report.note(f"{path}:jump-{rec.t0}: duality pairing rejected: {rejected}")
                report.check(f"{path}:jump-{rec.t0}:duality", False)
            if rep.nu != rep.chi:
                report.note(f"{path}:jump-{rec.t0}: {CalibrationError(rep)}")
                report.check(f"{path}:jump-{rec.t0}:nu-equals-chi", False)
        for rec, rep in zip(profile.jumps, reports):
            parity_ok = (
                rep.middle_dim_parity == rec.sigma_odd % 2
                and rep.nu % 2 == rec.sigma_odd % 2
            )
            report.check(f"{path}:jump-{rec.t0}:family-parity", parity_ok)
            if rec.nu is not None:
                report.check(f"{path}:jump-{rec.t0}:nu-matches-family", rec.nu == rep.nu)
        if signs is None:
            signs = signs_from_reports(reports)
            report.item("signs.synthesized", " ".join("+" if s == 1 else "-" for s in signs))
    if signs is None:
        raise ValueError(f"{path}: ledger has no signs and no family complex was given")
    if profile.slope_data is None:
        # eta itself is reconstructible; report its value at each jump
        values = profile.interval_values()
        for rec, before, after in zip(profile.jumps, values, values[1:]):
            report.item(f"eta.at.{rec.t0}", eta_at_jump(after, before, rec.sigma_even))
    verdict = ray_invariant_check(profile, signs)
    if verdict.failing_interval is not None:
        report.item("ray.failing_interval", verdict.failing_interval)
    report.item("ray.phases", " ".join(str(p) for p in verdict.phases))
    report.check(f"{path}:ray-invariance", verdict.passed)
    return report


def _cmd_conway(args: argparse.Namespace, path: str) -> Report:
    report = Report("conway")
    pres, seifert, _names = load_knot(_read_text(path), path)
    report.item("input", path)
    try:
        delta = alexander_from_fox(pres)
    except MinorTooLarge:
        raise  # a refused input, as a parse error is: exit 2
    except ValueError as exc:
        report.note(f"{path}: {exc}")
        report.check(f"{path}:alexander", False)
        return report
    nabla = conway_normalize(delta)
    report.item("alexander", repr(delta))
    report.item("conway", repr(nabla))
    if seifert is not None:
        try:
            oracle = conway_from_seifert(seifert)
        except ValueError as exc:
            report.note(f"{path}: Seifert oracle rejected the matrix: {exc}")
            report.check(f"{path}:oracle-agreement", False)
            return report
        report.item("conway.oracle", repr(oracle))
        report.check(f"{path}:oracle-agreement", nabla == oracle)
    return report


# -- self test ----------------------------------------------------------------


def _selftest_ledgers() -> list[tuple[str, EtaProfile, list[int], bool]]:
    """Four bundled ledgers: three passing, one designed to fail."""
    jump1 = JumpRecord(Fraction(0), 1, 0, 1)
    jump2 = JumpRecord(Fraction(1), 2, 1, 2)
    pairing = ArgPairing((Fraction(1, 4), Fraction(1, 3)), (2, 6))
    return [
        ("class3", EtaProfile(3, Fraction(1, 2), (jump1, jump2)), [1, -1, -1], True),
        ("su", EtaProfile(1, Fraction(0), (jump1,)), [1, -1], True),
        (
            "argclass",
            EtaProfile(1, Fraction(1, 2), (jump1,), (pairing, pairing)),
            [1, -1],
            True,
        ),
        ("broken", EtaProfile(3, Fraction(1, 2), (jump1, jump2)), [1, 1, 1], False),
    ]


def selftest(seed: int = 20250) -> Report:
    """Run the bundled corpus and cross-module invariants."""
    report = Report("selftest")
    rng = random.Random(seed)
    report.item("seed", seed)

    # circle family
    circ = circle_family(cayley() - 1, centers=(Fraction(0),))
    tau = torsion(circ.complex).value
    report.check("circle.torsion", tau == cayley() - 1)
    rep = analyze(circ.complex, GaussRat(0), duality=list(circ.pairing))
    report.check(
        "circle.analysis",
        rep.nu == rep.chi == 1 and rep.sign_flip and rep.duality_ok
        and rep.middle_dim_parity == 1,
    )

    # 3-torus family: two routes to the exponent plus duality
    tor = torus3_family()
    rep = analyze(tor.complex, GaussRat(0), duality=list(tor.pairing))
    report.check("torus3.analysis", rep.nu == rep.chi == 0 and rep.duality_ok)
    report.check("torus3.dims", rep.dims.dims == (1, 2, 1, 0))

    # direct sums: everything adds
    both = direct_sum(circ.complex, tor.complex)
    rep_a = analyze(circ.complex, GaussRat(0))
    rep_b = analyze(tor.complex, GaussRat(0))
    rep_ab = analyze(both, GaussRat(0))
    report.check(
        "directsum.additivity",
        rep_ab.nu == rep_a.nu + rep_b.nu
        and rep_ab.dims.dims
        == tuple(
            a + b
            for a, b in zip(
                rep_a.dims.dims + (0,) * 4, rep_b.dims.dims + (0,) * 4
            )
        )[: len(rep_ab.dims.dims)],
    )
    bundle = bundled_direct_sum()
    ok = True
    for c in bundle.centers:
        r = analyze(bundle.complex, GaussRat(c), duality=list(bundle.pairing))
        ok = ok and r.nu == r.chi and bool(r.duality_ok)
    report.check("directsum.bundle", ok)

    # five knots against the oracle
    expected = {
        "unknot": (1,),
        "trefoil": (1, 0, 1),
        "figure8": (1, 0, -1),
        "5_1": (1, 0, 3, 0, 1),
        "5_2": (1, 0, 2),
    }
    for name, (pres, seif) in bundled_knots().items():
        nab = conway_normalize(alexander_from_fox(pres))
        oracle = conway_from_seifert(seif)
        report.check(
            f"knots.{name}",
            nab == oracle and nab.coefficients == expected[name],
        )

    # four ledgers
    for name, profile, signs, expect_pass in _selftest_ledgers():
        verdict = ray_invariant_check(profile, signs)
        report.check(f"ledgers.{name}", verdict.passed == expect_pass)

    # round trips
    text = dump_complex(tor.complex, list(tor.pairing))
    cplx2, pairing2 = load_complex(text)
    report.check(
        "roundtrip.complex",
        cplx2 == tor.complex and tuple(pairing2) == tor.pairing,
    )
    pres, seif = bundled_knots()["trefoil"]
    p2, s2, _ = load_knot(dump_knot(pres, seif))
    report.check("roundtrip.knot", p2 == pres and s2 == seif)
    prof = _selftest_ledgers()[2][1]
    prof2, signs2 = load_ledger(dump_ledger(prof, [1, -1]))
    report.check("roundtrip.ledger", prof2 == prof and signs2 == [1, -1])

    # randomized invariants (smaller counts than the acceptance suite)
    ok = True
    for _ in range(50):
        w = random_word(rng, max_len=9)
        total = GroupRingElem.zero()
        for g in range(3):
            xg = GroupRingElem.of_word(Word.generator(g)) - GroupRingElem.one()
            total = total + fox_derivative(w, g) * xg
        ok = ok and total == GroupRingElem.of_word(w) - GroupRingElem.one()
    report.check("invariants.fox-identity", ok)

    ok = True
    for _ in range(50):
        t0 = GaussRat(rng.randrange(-2, 3))
        f = random_ratfunc(rng, zero_at=t0 if rng.randrange(2) else None)
        g = random_ratfunc(rng, zero_at=t0 if rng.randrange(2) else None)
        ok = ok and f.valuation(t0) + g.valuation(t0) == (f * g).valuation(t0)
    report.check("invariants.valuation-additivity", ok)

    ok = True
    for _ in range(20):
        mat = random_local_matrix(rng, rng.randrange(1, 6), rng.randrange(1, 6))
        back = mat.submatrix(range(mat.nrows - 1, -1, -1), range(mat.ncols - 1, -1, -1))
        ok = ok and snf_local(mat, 0) == snf_local(back, 0)
    report.check("invariants.snf-pivots", ok)

    ok = True
    for _ in range(10):
        cplx = random_acyclic_complex(rng)
        ok = ok and torsion(conjugate_complex(cplx)).value == conj_family(
            torsion(cplx).value
        )
    report.check("invariants.galois", ok)

    passed = sum(1 for _, okk in report.checks if okk)
    report.item("checks.passed", passed)
    report.item("checks.total", len(report.checks))
    return report


# -- dispatch ------------------------------------------------------------------


def run(args: argparse.Namespace) -> Report:
    """Run a parsed command line, one input file at a time.

    ``args`` comes from the parser of :func:`main`; each subcommand
    names its handler there.  A usage or parse error in a file is led
    by the file's path once.  In a run of one file it propagates, as a
    ``ValueError`` with the path when it carried none.  In a run of
    several, the file is left out of the report, with the error in
    ``errors`` and a note, and the other files go on.
    """
    if args.command == "selftest":
        return args.handler(args.seed)
    report = Report(args.command)
    for path in args.inputs:
        try:
            part = args.handler(args, path)
        except (ValueError, ZeroDivisionError) as exc:
            error = str(exc) if str(exc).startswith(f"{path}:") else f"{path}: {exc}"
            if len(args.inputs) == 1:
                if error == str(exc):
                    raise
                raise ValueError(error) from exc
            report.errors.append(error)
            report.note(f"error: {error}")
            continue
        report.items += part.items
        report.notes += part.notes
        report.checks += part.checks
    return report


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torsionfam",
        description="Exact sign-determined torsion of parameter families, "
        "deformation analysis, and eta-invariant ledger checks.",
    )
    parser.add_argument("--version", action="version", version=f"torsionfam {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help, metavar=None):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        if metavar is not None:
            p.add_argument("inputs", nargs="+", metavar=metavar)
        p.add_argument(
            "--format", choices=("text", "structured"), default="text",
            help="output rendering (default: text)",
        )
        return p

    t0_help = "comma list of points, or 'auto'"
    p = command("torsion", _cmd_torsion, "torsion of complex files", "FILE")
    p.add_argument("--t0", default="auto", help=t0_help)

    p = command("analyze", _cmd_analyze, "deformation reports of complex files", "FILE")
    p.add_argument("--t0", default="auto", help=t0_help)
    p.add_argument(
        "--duality", default="on",
        help="'on' (inline section), 'off', or a file with a duality section",
    )

    p = command("eta-check", _cmd_eta_check, "ray invariance of eta ledgers", "LEDGER")
    p.add_argument("--complex", default=None, help="family complex feeding the ledger")
    p.add_argument(
        "--duality", default="on",
        help="duality handling for --complex (on/off/file)",
    )

    command("conway", _cmd_conway, "knot pipeline with Seifert oracle", "KNOT")

    p = command("selftest", selftest, "bundled corpus and invariants")
    p.add_argument("--seed", type=int, default=20250,
                   help="seed for the randomized invariant samples")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        report = run(args)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"torsionfam: error: {exc}", file=sys.stderr)
        return 2
    for error in report.errors:
        print(f"torsionfam: error: {error}", file=sys.stderr)
    rendering = report.structured() if args.format == "structured" else report.text()
    sys.stdout.write(rendering)
    return 2 if report.errors else 0 if report.all_pass else 1


if __name__ == "__main__":
    raise SystemExit(main())
