"""Seeded inputs of the three workloads, written in the package's formats.

Each ``make_<workload>(rng, out_dir)`` writes the workload's input files
(``.cplx`` with a duality section, or ``.knot``) into ``out_dir`` and
returns the item list: one dict per item naming its file and the data
the checks need (planted centers, knot parameters, components).

The seed changes the inputs but not how much work a pass holds, so that
runs on different seeds measure the same thing:

* ``families`` uses one fixed corpus (``CORPUS_SEED``).  The run seed
  draws a sign flip for every basis vector of every family (a change of
  basis with determinant +-1, which moves the torsion by a sign) and one
  reflection t -> -t for the whole workload.  Redrawing the corpus
  itself, or permuting bases, moves the pass time by a third.
* ``knots`` fixes p and, for p >= 11, draws q; the small knots that hold
  the median item do not depend on the seed.
* ``seifert`` fixes the matrix sizes and draws the components and the
  unimodular congruence that scrambles them.
"""

from __future__ import annotations

import random
from pathlib import Path

from checks import schubert_partner, two_bridge_qs
from torsionfam.complexes import BasedChainComplex
from torsionfam.corpus import FamilySpec, acceptance_corpus, combine
from torsionfam.fileio import dump_complex
from torsionfam.knots import bundled_knots
from torsionfam.linalg import Matrix
from torsionfam.poly import Poly
from torsionfam.ratfunc import RatFunc

CORPUS_SEED = 20250
CORPUS_COUNT = 24
SMALL_RANK = 8  # corpus families up to this total rank are items
# direct sums of corpus families (indices into the corpus), all of top degree 3;
# their parts are items too, so the sum's torsion can be checked against them
SUMS = {"sum-a": (6, 9, 20, 22), "sum-b": (5, 12)}

# (p, q) of the knots items that do not depend on the seed: the trefoil,
# both knots with p = 5, and the only Schubert pairs S(p, q), S(p, q') with
# q >= 3 at p = 7 and 9; they hold the median item
FIXED_KNOTS = ((3, 1), (5, 1), (5, 3), (7, 3), (7, 5), (9, 5), (9, 7))
# p of the knots items whose q the seed draws (odd, >= 3, prime to p)
SEEDED_PS = (11, 13, 15, 17, 21, 25)

SEIFERT_SIZES = (4,) * 6 + (6,) * 8 + (8,) * 3
# table knots whose Seifert matrices the seifert workload sums
SEIFERT_KNOTS = ("trefoil", "figure8", "5_1", "5_2")


def _text(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")


# -- families -----------------------------------------------------------------


def _reflect(f: RatFunc) -> RatFunc:
    """f(-t)."""

    def flip(p: Poly) -> Poly:
        return Poly([c if k % 2 == 0 else -c for k, c in enumerate(p.coeffs)])

    return RatFunc(flip(f.num), flip(f.den))


def _rebase(spec: FamilySpec, rng: random.Random, reflect: bool) -> FamilySpec:
    """Flip the sign of random basis vectors; optionally substitute t -> -t.

    With Q_k the diagonal sign matrix of degree k, the boundaries become
    Q_{k-1} d_k Q_k and the duality pairing Q_{m-i} P_i Q_i, which is
    again a chain isomorphism onto the dual.
    """
    c = spec.complex
    m = c.top_degree
    signs = [[rng.choice((1, -1)) for _ in range(r)] for r in c.ranks]

    def signed(mat: Matrix, rs, cs) -> Matrix:
        if mat.nrows == 0 or mat.ncols == 0:
            return mat
        rows = []
        for i, row in enumerate(mat.rows):
            out = []
            for j, e in enumerate(row):
                e = _reflect(e) if reflect else e
                out.append(e if rs[i] == cs[j] else -e)
            rows.append(out)
        return Matrix(rows, mat.ncols)

    boundaries = [
        signed(c.boundary(k), signs[k - 1], signs[k]) for k in range(1, m + 1)
    ]
    pairing = [
        signed(p, signs[m - i], signs[i]) for i, p in enumerate(spec.pairing)
    ]
    centers = sorted(-x for x in spec.centers) if reflect else spec.centers
    return FamilySpec(
        spec.name, BasedChainComplex(c.ranks, boundaries), tuple(pairing), centers
    )


def make_families(rng: random.Random, out_dir: Path) -> list[dict]:
    reflect = rng.random() < 0.5
    corpus = [
        _rebase(spec, rng, reflect)
        for spec in acceptance_corpus(CORPUS_COUNT, CORPUS_SEED)
    ]
    in_sums = {i for idx in SUMS.values() for i in idx}
    specs = [
        (spec, None)
        for i, spec in enumerate(corpus)
        if spec.complex.total_rank() <= SMALL_RANK or i in in_sums
    ]
    for name, idx in SUMS.items():
        specs.append((combine(name, [corpus[i] for i in idx]), [corpus[i].name for i in idx]))
    items = []
    for spec, parts in specs:
        fname = f"{spec.name}.cplx"
        _text(out_dir / fname, dump_complex(spec.complex, list(spec.pairing)))
        items.append(
            {
                "name": spec.name,
                "file": fname,
                "centers": [str(x) for x in spec.centers],
                "parts": parts,
                "rank": spec.complex.total_rank(),
                "m": spec.complex.top_degree,
            }
        )
    return items


# -- two-bridge knots -----------------------------------------------------------


def two_bridge_text(p: int, q: int) -> str:
    """.knot text of S(p, q): relator w x w^-1 y^-1 with the alternating word w."""
    w = []
    for i in range(1, p):
        gen = "x" if i % 2 == 1 else "y"
        w.append(gen if ((i * q) // p) % 2 == 0 else f"{gen}^-1")
    w_inv = [tok[:-3] if tok.endswith("^-1") else f"{tok}^-1" for tok in reversed(w)]
    relator = " ".join(w + ["x"] + w_inv + ["y^-1"])
    return f"knot v1\ngenerators x y\nrelator {relator}\nend\n"


def make_knots(rng: random.Random, out_dir: Path) -> list[dict]:
    """Two-bridge knots; q = 1 (the torus knot, a third cheaper) is not drawn."""
    pairs = list(FIXED_KNOTS)
    pairs += [(p, rng.choice([q for q in two_bridge_qs(p) if q >= 3])) for p in SEEDED_PS]
    items = []
    for p, q in pairs:
        name = f"S{p}-{q}"
        partner = schubert_partner(p, q)
        _text(out_dir / f"{name}.knot", two_bridge_text(p, q))
        items.append(
            {
                "name": name,
                "file": f"{name}.knot",
                "p": p,
                "q": q,
                "partner": f"S{p}-{partner}" if (p, partner) in pairs and partner != q else None,
            }
        )
    return items


# -- Seifert matrices -------------------------------------------------------------


def _components(rng: random.Random, size: int) -> list[str]:
    sizes = {name: bundled_knots()[name][1].size for name in SEIFERT_KNOTS}
    out = []
    while size:
        fits = [k for k in SEIFERT_KNOTS if sizes[k] <= size]
        name = rng.choice(fits)
        out.append(name)
        size -= sizes[name]
    return out


def _scramble(rng: random.Random, v: list[list[int]]) -> list[list[int]]:
    """P V P^T for a random unimodular P built from elementary moves.

    Redrawn until no entry is zero: the cofactor determinant skips zero
    entries, so a dense matrix keeps the work per size independent of
    the seed.
    """
    while True:
        w = _congruent(rng, v)
        if all(all(row) for row in w):
            return w


def _congruent(rng: random.Random, v: list[list[int]]) -> list[list[int]]:
    n = len(v)
    p = [[int(j == k) for k in range(n)] for j in range(n)]
    for _ in range(2 * n):
        j, k = rng.sample(range(n), 2)
        c = rng.choice((1, -1))
        p[j] = [a + c * b for a, b in zip(p[j], p[k])]
    rng.shuffle(p)
    pv = [[sum(p[j][i] * v[i][k] for i in range(n)) for k in range(n)] for j in range(n)]
    return [[sum(pv[j][i] * p[k][i] for i in range(n)) for k in range(n)] for j in range(n)]


def seifert_text(components: list[str], v: list[list[int]]) -> str:
    """.knot text of the connected sum, carrying the scrambled matrix V."""
    table = bundled_knots()
    names, relators = [], []
    for c, comp in enumerate(components):
        pres = table[comp][0]
        local = [f"{g}{c}" for g in ("x", "y")[: pres.strands]]
        names += local
        for rel in pres.wirtinger_relators:
            relators.append(
                " ".join(local[g] if e == 1 else f"{local[g]}^-1" for g, e in rel.letters)
            )
        if c:
            relators.append(f"x0 x{c}^-1")  # identify the meridians
    lines = ["knot v1", "generators " + " ".join(names)]
    lines += [f"relator {r}" for r in relators]
    lines.append(f"seifert rank {len(v)}")
    lines += [" ".join(str(e) for e in row) for row in v]
    lines.append("end")
    return "\n".join(lines) + "\n"


def make_seifert(rng: random.Random, out_dir: Path) -> list[dict]:
    table = bundled_knots()
    items = []
    for idx, size in enumerate(SEIFERT_SIZES):
        comps = _components(rng, size)
        v = [[0] * size for _ in range(size)]
        at = 0
        for comp in comps:
            block = table[comp][1].entries
            for j, row in enumerate(block):
                v[at + j][at : at + len(row)] = row
            at += len(block)
        v = _scramble(rng, v)
        name = f"V{idx:02d}-n{size}"
        _text(out_dir / f"{name}.knot", seifert_text(comps, v))
        items.append(
            {"name": name, "file": f"{name}.knot", "components": comps, "size": size, "v": v}
        )
    return items


MAKERS = {"families": make_families, "knots": make_knots, "seifert": make_seifert}


def make_inputs(workload: str, seed: int, out_dir: Path) -> list[dict]:
    out_dir.mkdir(parents=True, exist_ok=True)
    for old in out_dir.iterdir():
        if old.suffix in (".cplx", ".knot"):
            old.unlink()
    rng = random.Random(f"{workload}:{seed}")
    return MAKERS[workload](rng, out_dir)

