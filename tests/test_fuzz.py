"""Seeded mutation fuzz of the demo inputs through the CLI.

Every file under ``demos/data`` is corrupted a few hundred times
(lines deleted, duplicated or swapped, tokens swapped or copied, huge
or signed numbers, stray brackets and slashes) and run in process
through ``cli.main`` with the subcommand its format feeds.  Every run
must end in exit status 0, 1 or 2 with no exception escaping, and the
whole fuzz must finish within a stated time bound.  Each mutant is also
passed to its loader: a parse error that names a token must name one
that stands on the line it reports.
"""

import contextlib
import io
import random
import re
import time
from pathlib import Path

from torsionfam.cli import main
from torsionfam.fileio import ParseError, _load_family, load_knot, load_ledger

DATA = Path(__file__).resolve().parent.parent / "demos" / "data"
MUTANTS = 300
TIME_BOUND_S = 20.0
SEED = 20251

_NUMBER = re.compile(r"\d+")
LOADERS = {".cplx": _load_family, ".pres": _load_family, ".knot": load_knot, ".eta": load_ledger}


def _mutate_number(line, rng):
    spots = list(_NUMBER.finditer(line))
    if not spots:
        return line
    m = rng.choice(spots)
    new = rng.choice([
        "9" * rng.randrange(13, 60),
        "1" + "0" * rng.randrange(12, 40),
        "-" + m.group(),
        "+" + m.group(),
        "0",
        str(rng.randrange(2, 2000)),
    ])
    return line[: m.start()] + new + line[m.end():]


def _mutate_tokens(line, other, rng):
    toks = line.split(" ")
    if rng.random() < 0.5 and len(toks) > 1:
        j, k = rng.sample(range(len(toks)), 2)
        toks[j], toks[k] = toks[k], toks[j]
    else:
        donor = other.split(" ")
        toks[rng.randrange(len(toks))] = rng.choice(donor)
    return " ".join(toks)


def _stray(line, rng):
    k = rng.randrange(len(line) + 1)
    return line[:k] + rng.choice(["[", "]", "/", ",", "^", "i", "-", " "]) + line[k:]


def mutate(text, rng):
    lines = text.splitlines()
    for _ in range(rng.randrange(1, 4)):
        if not lines:
            lines = [""]
        k = rng.randrange(len(lines))
        op = rng.randrange(7)
        if op == 0:
            del lines[k]
        elif op == 1:
            lines.insert(k, lines[k])
        elif op == 2:
            j = rng.randrange(len(lines))
            lines[j], lines[k] = lines[k], lines[j]
        elif op in (3, 4):
            lines[k] = _mutate_number(lines[k], rng)
        elif op == 5:
            lines[k] = _mutate_tokens(lines[k], rng.choice(lines), rng)
        else:
            lines[k] = _stray(lines[k], rng)
    return "\n".join(lines) + "\n"


def _commands(path):
    if path.suffix == ".cplx":
        return [["torsion", str(path)], ["analyze", str(path)]]
    if path.suffix == ".pres":
        return [["analyze", str(path)]]
    if path.suffix == ".knot":
        return [["conway", str(path)]]
    return [["eta-check", str(path)],
            ["eta-check", str(path), "--complex", str(DATA / "circle.cplx")]]


def test_mutated_inputs_end_in_a_known_exit_status(tmp_path):
    rng = random.Random(SEED)
    sources = sorted(DATA.iterdir())
    start = time.perf_counter()
    codes = []
    for n in range(MUTANTS):
        src = sources[n % len(sources)]
        path = tmp_path / f"m{n:03d}{src.suffix}"
        text = mutate(src.read_text(), rng)
        path.write_text(text)
        try:
            LOADERS[src.suffix](text, path.name)
        except ParseError as exc:
            if exc.token is not None:
                assert exc.token in text.splitlines()[exc.lineno - 1], (str(exc), text)
        for argv in _commands(path):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(argv + ["--format", "structured"])
            assert code in (0, 1, 2), (argv, path.read_text())
            codes.append(code)
    elapsed = time.perf_counter() - start
    assert elapsed < TIME_BOUND_S, elapsed
    # the corruptions reach past the parsers as well as into them
    assert {0, 1, 2} <= set(codes)
