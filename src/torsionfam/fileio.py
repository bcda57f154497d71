"""Text file formats for complexes, presentations, knots, and ledgers.

All formats are line oriented: ``#`` starts a comment, blank lines are
skipped, every file opens with a type header carrying a format version
and closes with a literal ``end`` line (which catches truncation).
Matrix rows are whitespace-separated tokens in the canonical scalar
syntax (which itself contains no spaces); standalone scalar fields may
contain spaces, as the scalar grammar tolerates them.

The exact grammars are documented in docs/formats.md; serialization
and parsing round-trip bit for bit.
"""

from __future__ import annotations

from typing import Optional

from .complexes import BasedChainComplex
from .eta import ArgPairing, EtaProfile, JumpRecord
from .groupring import RepFamily, Word, parse_word, presentation_complex, specialize_word
from .knots import KnotPresentation, SeifertMatrix
from .linalg import Matrix
from .ratfunc import format_ratfunc, parse_ratfunc
from .scalars import format_rational, parse_integer, parse_rational

__all__ = [
    "ParseError",
    "load_complex",
    "dump_complex",
    "load_presentation",
    "dump_presentation",
    "load_knot",
    "dump_knot",
    "load_ledger",
    "dump_ledger",
]

# largest rank load_complex accepts in any degree
MAX_RANK = 1000
# largest rank * (sum over the letters of all relators of the letter's
# weight, 8 * degree + log2 height of its image) load_presentation
# accepts: a torsion run at the cap took at most 2.3 s (docs/formats.md)
MAX_RELATOR_WEIGHT = 800
# largest Seifert rank load_knot accepts: the oracle's one determinant
# takes about 3 s on a dense 48x48 matrix of 1-digit entries (docs/formats.md)
MAX_SEIFERT_RANK = 48
# most digits of a Seifert entry: at the cap, a dense 48x48 matrix takes
# about 31 s, and the time grows with the digits (docs/formats.md)
MAX_SEIFERT_ENTRY_DIGITS = 6


class ParseError(ValueError):
    """Parse failure with file, line, and offending token context."""

    def __init__(self, path: str, lineno: int, message: str, token: Optional[str] = None):
        self.path = path
        self.lineno = lineno
        self.token = token
        suffix = f" (token {token!r})" if token is not None else ""
        super().__init__(f"{path}:{lineno}: {message}{suffix}")


class _Reader:
    """Comment- and blank-skipping line cursor over a text document, and
    the one maker of its parse errors, so that each names a line."""

    def __init__(self, text: str, path: str):
        self.path = path
        self.lines = text.splitlines()
        self.pos = 0
        # matrix token -> its immutable entry, parsed at its first line in this text
        self.entries = {}

    def next_line(self) -> tuple[int, str]:
        while self.pos < len(self.lines):
            self.pos += 1
            raw = self.lines[self.pos - 1]
            stripped = raw.split("#", 1)[0].strip()
            if stripped:
                return self.pos, stripped
        raise ParseError(self.path, len(self.lines) + 1, "unexpected end of file")

    def peek_line(self) -> Optional[str]:
        saved = self.pos
        try:
            return self.next_line()[1]
        except ParseError:
            return None
        finally:
            self.pos = saved

    def error(self, lineno: int, message: str, token: Optional[str] = None):
        raise ParseError(self.path, lineno, message, token)

    def built(self, lineno: int, make, *args, **kwargs):
        """``make(*args, **kwargs)``, its ValueError and ``.token`` reported at ``lineno``."""
        try:
            return make(*args, **kwargs)
        except ValueError as exc:
            error = ParseError(self.path, lineno, str(exc))
            error.token = getattr(exc, "token", None)
            raise error from exc


def _expect_header(reader: _Reader, header: str) -> None:
    lineno, line = reader.next_line()
    if line != header:
        reader.error(lineno, f"expected header {header!r}", line.split()[0])


def _expect_end(reader: _Reader, message: str = "expected 'end'") -> None:
    lineno, line = reader.next_line()
    if line != "end":
        reader.error(lineno, message, line.split()[0])


def _keyword_line(
    reader: _Reader, usage: str, keys: int = 1, nargs: int = 1, more: bool = False
) -> tuple[int, list[str]]:
    """Next line, which must open with the first ``keys`` words of
    ``usage`` as whole tokens and carry ``nargs`` arguments after them
    (at least that many when ``more``); returns its number and arguments."""
    lineno, line = reader.next_line()
    toks = line.split()
    args = toks[keys:]
    too_many = len(args) > nargs and not more
    if toks[:keys] != usage.split()[:keys] or len(args) < nargs or too_many:
        reader.error(lineno, f"expected '{usage}'", toks[0])
    return lineno, args


def _peek_word(reader: _Reader) -> Optional[str]:
    """First token of the next line, or None at the end of the text."""
    line = reader.peek_line()
    return line and line.split()[0]


def _read_int(reader: _Reader, lineno: int, tok: str) -> int:
    try:
        return parse_integer(tok)
    except ValueError:
        reader.error(lineno, "expected an integer", tok)


def _read_rational(reader: _Reader, lineno: int, tok: str, message: str = "bad rational"):
    try:
        return parse_rational(tok)
    except ValueError:
        reader.error(lineno, message, tok)


def _read_generators(reader: _Reader) -> list[str]:
    lineno, names = _keyword_line(reader, "generators name ...", more=True)
    if len(set(names)) != len(names):
        reader.error(lineno, "duplicate generator names")
    return names


def _read_relator(reader: _Reader, names: list[str]) -> tuple[int, Word]:
    lineno, args = _keyword_line(reader, "relator <word>", nargs=0, more=True)
    return lineno, reader.built(lineno, parse_word, " ".join(args), names)


def _read_matrix(reader: _Reader, nrows: int, ncols: int) -> Matrix:
    rows = []
    memo = reader.entries
    for _ in range(nrows if ncols > 0 else 0):
        lineno, line = reader.next_line()
        toks = line.split()
        if len(toks) != ncols:
            reader.error(lineno, f"expected {ncols} entries, found {len(toks)}")
        for tok in toks:
            if tok not in memo:
                try:
                    memo[tok] = parse_ratfunc(tok)
                except (ValueError, ZeroDivisionError):
                    reader.error(lineno, "bad rational-function token", tok)
        rows.append([memo[tok] for tok in toks])
    return Matrix(rows, ncols) if rows else Matrix.zeros(nrows, ncols)


def _numbered_matrix(
    reader: _Reader, keyword: str, plural: str, k: int, nrows: int, ncols: int
) -> Matrix:
    """A ``keyword k`` line, with k its expected index, and the matrix under it."""
    lineno, (tok,) = _keyword_line(reader, f"{keyword} {k}")
    if _read_int(reader, lineno, tok) != k:
        reader.error(lineno, f"{plural} must appear in order; expected {k}", tok)
    return _read_matrix(reader, nrows, ncols)


def _dump_matrix(mat: Matrix) -> list[str]:
    if mat.ncols == 0 or mat.nrows == 0:
        return []
    return [" ".join(format_ratfunc(e) for e in row) for row in mat.rows]


# -- complex files ---------------------------------------------------------


def load_complex(
    text: str, path: str = "<complex>"
) -> tuple[BasedChainComplex, Optional[list[Matrix]]]:
    """Parse a complex file; returns the complex and an optional pairing."""
    reader = _Reader(text, path)
    _expect_header(reader, "complex v1")
    lineno, toks = _keyword_line(reader, "ranks r0 r1 ...", more=True)
    ranks = [_read_int(reader, lineno, tok) for tok in toks]
    for tok, r in zip(toks, ranks):
        if not 0 <= r <= MAX_RANK:
            reader.error(lineno, f"rank outside 0 to the cap of {MAX_RANK}", tok)
    m = len(ranks) - 1
    boundaries = [
        _numbered_matrix(reader, "boundary", "boundaries", k, ranks[k - 1], ranks[k])
        for k in range(1, m + 1)
    ]
    pairing: Optional[list[Matrix]] = None
    if reader.peek_line() == "duality":
        reader.next_line()
        pairing = [
            _numbered_matrix(reader, "pairing", "pairings", i, ranks[m - i], ranks[i])
            for i in range(m + 1)
        ]
    _expect_end(reader)
    return reader.built(reader.pos, BasedChainComplex, ranks, boundaries), pairing


def dump_complex(
    cplx: BasedChainComplex, pairing: Optional[list[Matrix]] = None
) -> str:
    lines = ["complex v1", "ranks " + " ".join(str(r) for r in cplx.ranks)]
    for k in range(1, cplx.top_degree + 1):
        lines.append(f"boundary {k}")
        lines.extend(_dump_matrix(cplx.boundary(k)))
    if pairing is not None:
        lines.append("duality")
        for i, mat in enumerate(pairing):
            lines.append(f"pairing {i}")
            lines.extend(_dump_matrix(mat))
    lines.append("end")
    return "\n".join(lines) + "\n"


# -- presentation files ----------------------------------------------------


def load_presentation(
    text: str, path: str = "<presentation>"
) -> tuple[list[str], list[Word], RepFamily]:
    """Parse generator names, relators, and a representation family."""
    names, relators, rho = _read_presentation(_Reader(text, path))
    return names, [rel for _, rel in relators], rho


def _read_presentation(reader: _Reader):
    """:func:`load_presentation`, with each relator's line number."""
    _expect_header(reader, "presentation v1")
    names = _read_generators(reader)
    relators = []
    while _peek_word(reader) == "relator":
        relators.append(_read_relator(reader, names))
    lineno, toks = _keyword_line(reader, "rep rank d [unitary] [su]", keys=2, more=True)
    rank = _read_int(reader, lineno, toks[0])
    flags = set(toks[1:])
    bad = flags - {"unitary", "su"}
    if bad:
        reader.error(lineno, "unknown representation flag", sorted(bad)[0])
    images = {}
    for _ in names:
        lineno, (name,) = _keyword_line(reader, "image <generator>")
        if name not in names:
            reader.error(lineno, "unknown generator in image", name)
        if name in images:
            reader.error(lineno, "duplicate image", name)
        images[name] = _read_matrix(reader, rank, rank)
    _expect_end(reader)
    ordered = tuple(images[name] for name in names)
    rho = reader.built(reader.pos, RepFamily, rank, ordered, "unitary" in flags, "su" in flags)
    # the prefix pass of presentation_complex multiplies the letters'
    # images, whose degrees and coefficient sizes add up: refuse what it
    # could not finish
    weight = [[_weight(m) for m in mats] for mats in (rho.images, rho.inverses)]
    bound = 0
    for lineno, rel in relators:
        bound += rank * sum(weight[e < 0][g] for g, e in rel.letters)
        if bound > MAX_RELATOR_WEIGHT:
            cap = MAX_RELATOR_WEIGHT
            reader.error(lineno, f"relators reach weight {bound}, past the cap of {cap}")
    return names, relators, rho


def _weight(m: Matrix) -> int:
    """8 * degree + floor(log2 height) of the entries (docs/formats.md)."""
    polys = [p for e in m.entries() for p in (e.num, e.den)]
    height = max(abs(x) for p in polys for x in (*p.re, *p.im, p.den))
    return 8 * max(p.degree for p in polys) + height.bit_length() - 1


def _load_family(text: str, path: str) -> tuple[BasedChainComplex, Optional[list[Matrix]]]:
    """A complex file through :func:`load_complex`, or a presentation file
    pushed through the twisted complex of its presentation, which carries
    no duality section; the header line decides which.  A relator the
    representation does not respect is reported at its line."""
    reader = _Reader(text, path)
    if reader.peek_line() == "presentation v1":
        names, relators, rho = _read_presentation(reader)
        ident = Matrix.identity(rho.rank)
        for lineno, rel in relators:
            if specialize_word(rel, rho) != ident:
                reader.error(lineno, "relator is not respected by the representation")
        return presentation_complex(len(names), [rel for _, rel in relators], rho), None
    return load_complex(text, path)


def dump_presentation(names: list[str], relators: list[Word], rho: RepFamily) -> str:
    lines = ["presentation v1", "generators " + " ".join(names)]
    for rel in relators:
        lines.append("relator " + _word_with_names(rel, names))
    flags = ""
    if rho.unitary:
        flags += " unitary"
    if rho.special:
        flags += " su"
    lines.append(f"rep rank {rho.rank}{flags}")
    for g, name in enumerate(names):
        lines.append(f"image {name}")
        lines.extend(_dump_matrix(rho.image(g)))
    lines.append("end")
    return "\n".join(lines) + "\n"


def _word_with_names(w: Word, names: list[str]) -> str:
    parts = []
    for g, e in w.letters:
        parts.append(names[g] if e == 1 else f"{names[g]}^-1")
    return " ".join(parts)


# -- knot files -------------------------------------------------------------


def load_knot(
    text: str, path: str = "<knot>"
) -> tuple[KnotPresentation, Optional[SeifertMatrix], list[str]]:
    reader = _Reader(text, path)
    _expect_header(reader, "knot v1")
    names = _read_generators(reader)
    relators = []
    seifert = None
    while True:
        word = _peek_word(reader)
        if word == "relator":
            relators.append(_read_relator(reader, names)[1])
        elif word == "seifert":
            lineno, (tok,) = _keyword_line(reader, "seifert rank n", keys=2)
            if seifert is not None:
                reader.error(lineno, "repeated seifert block", word)
            n = _read_int(reader, lineno, tok)
            cap = MAX_SEIFERT_RANK
            if not 0 <= n <= cap:
                reader.error(lineno, f"seifert rank outside 0 to the cap of {cap}", tok)
            rows = []
            for _ in range(n):
                lineno, line = reader.next_line()
                toks = line.split()
                if len(toks) != n:
                    reader.error(lineno, f"expected {n} integers", line.split()[0])
                rows.append(tuple(_read_int(reader, lineno, tok) for tok in toks))
                for tok, e in zip(toks, rows[-1]):
                    if abs(e) >= 10**MAX_SEIFERT_ENTRY_DIGITS:
                        cap = MAX_SEIFERT_ENTRY_DIGITS
                        reader.error(lineno, f"seifert entry past the cap of {cap} digits", tok)
            seifert = SeifertMatrix(tuple(rows))
        else:
            break
    _expect_end(reader, "expected 'relator', 'seifert' or 'end'")
    pres = reader.built(reader.pos, KnotPresentation, len(names), tuple(relators))
    return pres, seifert, names


def dump_knot(
    pres: KnotPresentation, seifert: Optional[SeifertMatrix], names: Optional[list[str]] = None
) -> str:
    if names is None:
        names = [f"x{g}" for g in range(pres.strands)]
    lines = ["knot v1", "generators " + " ".join(names)]
    for rel in pres.wirtinger_relators:
        lines.append("relator " + _word_with_names(rel, names))
    if seifert is not None:
        lines.append(f"seifert rank {seifert.size}")
        for row in seifert.entries:
            lines.append(" ".join(str(e) for e in row))
    lines.append("end")
    return "\n".join(lines) + "\n"


# -- eta ledger files --------------------------------------------------------


def load_ledger(
    text: str, path: str = "<ledger>"
) -> tuple[EtaProfile, Optional[list[int]]]:
    reader = _Reader(text, path)
    _expect_header(reader, "eta-ledger v1")
    lineno, (tok,) = _keyword_line(reader, "dimclass 1|3")
    dimclass = _read_int(reader, lineno, tok)
    lineno, (tok,) = _keyword_line(reader, "base <rational>")
    base = _read_rational(reader, lineno, tok)
    jumps: list[JumpRecord] = []
    signs: Optional[list[int]] = None
    # interval -> (line, interval token, pairing): the range is known at `end`
    argpairs: dict[int, tuple[int, str, ArgPairing]] = {}
    while True:
        lineno, line = reader.next_line()
        if line == "end":
            break
        toks = line.split()
        if toks[0] == "jump":
            fields = _keyed_fields(reader, lineno, toks[1:])
            if "t0" not in fields or "sigma_odd" not in fields:
                reader.error(lineno, "jump needs t0 and sigma_odd")
            t0 = _read_rational(reader, lineno, fields["t0"][0])
            ints = {
                key: _read_int(reader, lineno, fields[key][0])
                for key in ("sigma_odd", "sigma_even", "nu") if key in fields
            }
            jumps.append(
                JumpRecord(t0, ints["sigma_odd"], ints.get("sigma_even", 0), ints.get("nu"))
            )
        elif toks[0] == "signs":
            if signs is not None:
                reader.error(lineno, "repeated signs line", toks[0])
            signs = []
            for tok in toks[1:]:
                if tok not in ("+", "-"):
                    reader.error(lineno, "signs are '+' or '-'", tok)
                signs.append(1 if tok == "+" else -1)
        elif toks[0] == "argpair":
            fields = _keyed_fields(reader, lineno, toks[1:])
            if "interval" not in fields or "args" not in fields or "lcoeffs" not in fields:
                reader.error(lineno, "argpair needs interval, args and lcoeffs")
            (interval,) = fields["interval"]
            idx = _read_int(reader, lineno, interval)
            if idx in argpairs:
                reader.error(lineno, "repeated argpair interval", interval)
            args = tuple(
                _read_rational(reader, lineno, tok, "bad rational in args")
                for tok in fields["args"]
            )
            ls = tuple(_read_int(reader, lineno, tok) for tok in fields["lcoeffs"])
            if len(args) != len(ls):
                reader.error(lineno, "args and lcoeffs must have equal length")
            argpairs[idx] = (lineno, interval, reader.built(lineno, ArgPairing, args, ls))
        else:
            reader.error(lineno, "expected 'jump', 'signs', 'argpair' or 'end'", toks[0])
    slope_data = None
    if argpairs:
        for idx, (lineno, interval, _) in argpairs.items():
            if not 0 <= idx <= len(jumps):
                reader.error(lineno, f"argpair interval outside 0 to {len(jumps)}", interval)
        if len(argpairs) != len(jumps) + 1:
            reader.error(reader.pos, "argpair blocks must cover every interval exactly once")
        slope_data = tuple(argpairs[i][2] for i in range(len(jumps) + 1))
    profile = reader.built(reader.pos, EtaProfile, dimclass, base, tuple(jumps), slope_data)
    if signs is not None and len(signs) != profile.intervals:
        reader.error(reader.pos, f"need {profile.intervals} signs, got {len(signs)}")
    return profile, signs


def _keyed_fields(reader: _Reader, lineno: int, toks: list[str]) -> dict[str, list[str]]:
    """Split ``key v1 v2 key2 v ...`` tokens into lists per key; only
    ``args`` and ``lcoeffs`` take more than one value."""
    lists = {"args", "lcoeffs"}
    keys = {"t0", "sigma_odd", "sigma_even", "nu", "interval"} | lists
    fields: dict[str, list[str]] = {}
    current: Optional[str] = None
    for tok in toks:
        if tok in keys:
            if tok in fields:
                reader.error(lineno, "duplicate field", tok)
            current = tok
            fields[current] = []
        elif current is None:
            reader.error(lineno, "value before any field name", tok)
        elif fields[current] and current not in lists:
            reader.error(lineno, f"field {current} takes one value", tok)
        else:
            fields[current].append(tok)
    for key, vals in fields.items():
        if not vals:
            reader.error(lineno, f"field {key} has no value")
    return fields


def dump_ledger(profile: EtaProfile, signs: Optional[list[int]] = None) -> str:
    lines = [
        "eta-ledger v1",
        f"dimclass {profile.dimension_class}",
        f"base {format_rational(profile.base_value)}",
    ]
    for rec in profile.jumps:
        line = f"jump t0 {format_rational(rec.t0)} sigma_odd {rec.sigma_odd}"
        if rec.sigma_even:
            line += f" sigma_even {rec.sigma_even}"
        if rec.nu is not None:
            line += f" nu {rec.nu}"
        lines.append(line)
    if signs is not None:
        lines.append("signs " + " ".join("+" if s == 1 else "-" for s in signs))
    if profile.slope_data is not None:
        for idx, pairing in enumerate(profile.slope_data):
            lines.append(
                f"argpair interval {idx} args "
                + " ".join(format_rational(a) for a in pairing.arg_coeffs)
                + " lcoeffs "
                + " ".join(str(c) for c in pairing.l_coeffs)
            )
    lines.append("end")
    return "\n".join(lines) + "\n"
