"""Byte-identity of the structured reports and of the corpus torsion.

Each case runs the CLI from the repository root on the bundled demo
inputs and compares its ``--format structured`` output (standard output
followed by standard error), byte for byte, with a committed file under
``tests/golden/``.  ``corpus_torsion.txt`` holds the torsion of every
family of the acceptance corpus, then that of the same family with
every degree's basis reversed (the rightmost staircase).  Regenerate
the files (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden.py
"""

import os
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from rebasing import reversed_complex

from torsionfam.cli import main
from torsionfam.complexes import torsion
from torsionfam.corpus import ACCEPTANCE_SIZE, acceptance_corpus

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
DATA = "demos/data"

# golden file stem -> (expected exit code, CLI arguments before --format)
CASES = {}
for _name in ("circle.cplx", "sum.cplx", "torus3.cplx", "torus2.pres"):
    _stem = _name.replace(".", "_")
    CASES[f"torsion_{_stem}"] = (0, ["torsion", f"{DATA}/{_name}"])
    CASES[f"analyze_{_stem}"] = (0, ["analyze", f"{DATA}/{_name}", "--t0", "auto"])
for _name in ("unknot", "trefoil", "figure8", "5_1", "5_2"):
    CASES[f"conway_{_name}"] = (0, ["conway", f"{DATA}/{_name}.knot"])
# ledger_circle.eta has no signs: without --complex it is an input error
for _name, _code in (("argclass", 0), ("circle", 2), ("fail", 1), ("pass", 0), ("su", 0)):
    CASES[f"eta_check_{_name}"] = (_code, ["eta-check", f"{DATA}/ledger_{_name}.eta"])
CASES["eta_check_circle_complex"] = (
    0,
    ["eta-check", f"{DATA}/ledger_circle.eta", "--complex", f"{DATA}/circle.cplx"],
)
for _seed in (20250, 7):
    CASES[f"selftest_{_seed}"] = (0, ["selftest", "--seed", str(_seed)])


def _report(argv) -> tuple[int, str]:
    """Exit code and output of the CLI run from the repo root."""
    cwd, out, err = os.getcwd(), StringIO(), StringIO()
    try:
        os.chdir(ROOT)
        with redirect_stdout(out), redirect_stderr(err):
            code = main([*argv, "--format", "structured"])
    finally:
        os.chdir(cwd)
    return code, out.getvalue() + err.getvalue()


def _corpus_torsion() -> str:
    lines = []
    for spec in acceptance_corpus(ACCEPTANCE_SIZE, 20250):
        left = torsion(spec.complex).value
        right = torsion(reversed_complex(spec.complex)).value
        lines.append(f"{spec.name} {left} {right}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("stem", sorted(CASES))
def test_structured_report_matches_golden(stem):
    want_code, argv = CASES[stem]
    code, out = _report(argv)
    assert code == want_code
    assert out == (GOLDEN / f"{stem}.txt").read_text(encoding="utf-8")


def test_corpus_torsion_matches_golden():
    want = (GOLDEN / "corpus_torsion.txt").read_text(encoding="utf-8")
    assert _corpus_torsion() == want


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for stem, (_, argv) in CASES.items():
        (GOLDEN / f"{stem}.txt").write_text(_report(argv)[1], encoding="utf-8")
    (GOLDEN / "corpus_torsion.txt").write_text(_corpus_torsion(), encoding="utf-8")
