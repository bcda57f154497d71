"""Static checks on the package source, written with the standard ``ast``
module so they need no linter."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "torsionfam"


def _exported(tree: ast.Module) -> set[str]:
    """The names listed in a module-level ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {e.value for e in node.value.elts}
    return set()


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that the module never reads
    and does not export through ``__all__``."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.append(alias.asname or alias.name.split(".")[0])
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read | _exported(tree)]


def test_unused_import_finder():
    assert unused_imports("import os\nimport re\nre.compile('x')\n") == ["os"]
    assert unused_imports("from a import b as c\n__all__ = ['c']\n") == []
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def imported_modules(source: str) -> list[str]:
    """The top-level name of each module that an import statement loads,
    at any depth of the source; relative imports are left out."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append(node.module.split(".")[0])
    return found


def test_imported_module_finder():
    source = (
        "import os.path, re as regex\nfrom dataclasses import dataclass\n"
        "from . import scalars\nfrom .linalg import Matrix\n"
        "def f():\n    import dataclasses\n"
    )
    assert imported_modules(source) == ["os", "re", "dataclasses", "dataclasses"]


def test_the_package_imports_no_dataclasses():
    """Records are ``scalars._Record`` subclasses: no module of the package
    imports ``dataclasses``, at module level or inside a function."""
    found = {p.name: imported_modules(p.read_text()) for p in sorted(PACKAGE.rglob("*.py"))}
    assert len(found) > 10
    assert [name for name, modules in found.items() if "dataclasses" in modules] == []


ARITHMETIC = {
    "__add__", "__radd__", "__sub__", "__rsub__",
    "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
}
# the scalar path of a polynomial product builds no constant polynomial
OWN_OPERATORS = {("Poly", "__mul__")}


def arithmetic_operators(source: str) -> list[tuple[str, str]]:
    """(class, name) of each binary arithmetic dunder that a class other
    than ``_Exact`` defines.  Binding ``_Exact``'s operator is not a
    definition, and an alias of the class's own method counts as that
    method, which is listed already."""
    out = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef) or cls.name == "_Exact":
            continue
        defined = {n.name for n in cls.body if isinstance(n, ast.FunctionDef)}
        out += [(cls.name, name) for name in sorted(defined & ARITHMETIC)]
        for node in cls.body:
            if not isinstance(node, ast.Assign):
                continue
            value = node.value
            inherited = isinstance(value, ast.Attribute) and ast.unparse(value.value) == "_Exact"
            alias = isinstance(value, ast.Name) and value.id in defined
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id in ARITHMETIC:
                    if not (inherited or alias):
                        out.append((cls.name, target.id))
    return out


def test_arithmetic_operator_finder():
    source = (
        "class _Exact:\n    def __add__(self, o): pass\n    __radd__ = __add__\n"
        "class A(_Exact):\n    __mul__ = __rmul__ = _Exact.__mul__\n"
        "class B(_Exact):\n    def __sub__(self, o): pass\n    __rsub__ = __sub__\n"
        "    __add__ = lambda self, o: o\n    _add = None\n"
    )
    assert arithmetic_operators(source) == [("B", "__sub__"), ("B", "__add__")]


def test_arithmetic_operators_are_written_once_in_exact():
    found, classes = [], 0
    for name in ("scalars.py", "poly.py", "ratfunc.py"):
        source = (PACKAGE / name).read_text()
        classes += sum(isinstance(n, ast.ClassDef) for n in ast.walk(ast.parse(source)))
        found += arithmetic_operators(source)
    assert classes >= 5  # _Frozen, _Exact, GaussRat, Poly, RatFunc
    assert sorted(found) == sorted(OWN_OPERATORS)


EQ_HASH = {"__eq__", "__hash__"}


def eq_hash_definitions(sources: list[str]) -> tuple[set[str], list[tuple[str, str]]]:
    """The classes of ``sources`` that derive ``_Record``, directly or not,
    and (class, name) of each ``__eq__`` or ``__hash__`` that any class
    defines or assigns, sorted."""
    classes = {
        n.name: n for src in sources for n in ast.walk(ast.parse(src)) if isinstance(n, ast.ClassDef)
    }
    records = {"_Record"}
    while True:
        more = {
            name
            for name, cls in classes.items()
            if any(isinstance(b, ast.Name) and b.id in records for b in cls.bases)
        }
        if more <= records:
            break
        records |= more
    defined = []
    for name, cls in classes.items():
        for node in cls.body:
            if isinstance(node, ast.FunctionDef):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [getattr(t, "id", "") for t in node.targets]
            else:
                continue
            defined += [(name, n) for n in names if n in EQ_HASH]
    return records - {"_Record"}, sorted(defined)


def test_eq_hash_definition_finder():
    sources = [
        "class _Record:\n    def __eq__(self, o): pass\n    def __hash__(self): pass\n",
        "class A(_Record):\n    __hash__ = None\nclass B(A):\n    def __eq__(self, o): pass\n"
        "class C:\n    def __eq__(self, o): pass\n    _eq = __eq__\n",
    ]
    records, defined = eq_hash_definitions(sources)
    assert records == {"A", "B"}
    assert defined == [
        ("A", "__hash__"), ("B", "__eq__"), ("C", "__eq__"), ("_Record", "__eq__"),
        ("_Record", "__hash__"),
    ]


def test_records_take_equality_and_hashing_from_record():
    """No record writes its own ``__eq__``, and only ``_GroupRing``, whose
    field is a dict, its own ``__hash__``; the exact numbers, which
    compare through coercion, write both."""
    sources = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))]
    records, defined = eq_hash_definitions(sources)
    values = {"Matrix", "Word", "BasedChainComplex", "_GroupRing", "GroupRingElem", "LaurentInt"}
    assert len(records) == 20 and values <= records
    assert [d for d in defined if d[0] in records] == [("_GroupRing", "__hash__")]
    own = [(cls, name) for cls in ("GaussRat", "Poly", "RatFunc", "_Record") for name in EQ_HASH]
    assert defined == sorted(own + [("_GroupRing", "__hash__")])


def parse_error_sites(source: str) -> list[str]:
    """The scope of each ``ParseError(...)`` call: ``Class.method`` for a
    method, the function's name for a module-level function, ``<body>``
    for a statement outside any function."""
    sites = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef):
            scopes = [(f"{node.name}.", n) for n in node.body]
        else:
            scopes = [("", node)]
        for prefix, scope in scopes:
            name = prefix + getattr(scope, "name", "<body>")
            sites += [
                name for n in ast.walk(scope)
                if isinstance(n, ast.Call) and ast.unparse(n.func) == "ParseError"
            ]
    return sites


def test_parse_error_site_finder():
    source = (
        "class _Reader:\n    def error(self):\n        raise ParseError(1)\n"
        "    x = ParseError(2)\n"
        "def load():\n    def inner():\n        return ParseError(3)\n"
        "y = ParseError(4)\n"
    )
    assert parse_error_sites(source) == ["_Reader.error", "_Reader.<body>", "load", "<body>"]


def test_parse_errors_are_made_only_by_the_reader():
    """Every parse error is made by a method of ``fileio._Reader``, so
    each names its file and line the same way."""
    sites = parse_error_sites((PACKAGE / "fileio.py").read_text())
    assert sites and all(site.startswith("_Reader.") for site in sites), sites
    assert "_Reader.<body>" not in sites


def _reads(node: ast.AST, name: str) -> bool:
    """Whether node reads ``name``: as a bare name, as an attribute, or in
    an import, under an alias or not.  A string holding it is no reference."""
    if isinstance(node, ast.Name):
        return node.id == name
    if isinstance(node, ast.Attribute):
        return node.attr == name
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return any(alias.name.split(".")[-1] == name for alias in node.names)
    return False


def references(source: str, name: str) -> list[int]:
    """The lines that read ``name``, once per reference."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source)) if _reads(node, name))


def test_reference_finder():
    source = (
        "from .linalg import Matrix, _eliminate as elim\n"
        "import torsionfam.linalg as la\n"
        "def f(w):\n    return la._eliminate(w, []), _eliminate\n"
        "x = '_eliminate'\n"
    )
    assert references(source, "_eliminate") == [1, 4, 4]


def test_elimination_format_stays_in_linalg():
    """Only ``linalg`` reads ``_eliminate``'s (columns, pivots, odd
    swaps): every other module takes a determinant from ``_minor``."""
    repo = PACKAGE.parent.parent
    paths = sorted(p for d in ("src", "tests", "bench", "demos") for p in (repo / d).rglob("*.py"))
    found = {str(p.relative_to(repo)): references(p.read_text(), "_eliminate") for p in paths}
    assert found.pop("src/torsionfam/linalg.py")
    assert len(found) > 40 and not any(found.values()), {k: v for k, v in found.items() if v}


def call_sites(source: str, name: str) -> list[tuple[str, str]]:
    """Each call of ``name``, as a bare name or an attribute: the function
    it is made in (``<module>`` outside any) and its whole statement."""
    tree = ast.parse(source)
    parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _reads(node.func, name):
            stmt = node
            while not isinstance(stmt, ast.stmt):
                stmt = parent[stmt]
            scope = stmt
            while not isinstance(scope, (ast.FunctionDef, ast.Module)):
                scope = parent[scope]
            sites.append((node.lineno, getattr(scope, "name", "<module>"), ast.unparse(stmt)))
    return [site[1:] for site in sorted(sites)]


def test_call_site_finder():
    source = (
        "from .ratfunc import parse_ratfunc\n"
        "def f(memo, tok):\n    if tok not in memo:\n        memo[tok] = parse_ratfunc(tok)\n"
        "    return [rf.parse_ratfunc(t) for t in tok], parse_ratfunc\n"
        "x = parse_ratfunc('[1]')\n"
    )
    assert call_sites(source, "parse_ratfunc") == [
        ("f", "memo[tok] = parse_ratfunc(tok)"),
        ("f", "return ([rf.parse_ratfunc(t) for t in tok], parse_ratfunc)"),
        ("<module>", "x = parse_ratfunc('[1]')"),
    ]


def test_matrix_tokens_are_parsed_only_on_a_memo_miss():
    """``fileio`` calls ``parse_ratfunc`` at one site, which stores the entry
    in the document's memo, and reads the name nowhere else but its import:
    no matrix reader can parse a token past the memo."""
    source = (PACKAGE / "fileio.py").read_text()
    assert call_sites(source, "parse_ratfunc") == [
        ("_read_matrix", "memo[tok] = parse_ratfunc(tok)")
    ]
    assert len(references(source, "parse_ratfunc")) == 2


def test_every_bench_record_claims_a_declared_workload_and_metric():
    """Each ``BENCH_<n>.json`` claims nothing (``claimed`` is null) or names
    a workload and an end-to-end metric that ``BENCHMARK.json`` declares,
    so a record cannot claim a gain on a figure the benchmark never reports."""
    import json

    repo = PACKAGE.parent.parent
    spec = json.loads((repo / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in spec["workloads"]}
    metrics = {m["name"] for m in spec["end_to_end"]}
    records = sorted(repo.glob("BENCH_*.json"))
    assert len(records) >= 19
    for path in records:
        claimed = json.loads(path.read_text())["claimed"]
        if claimed is None:
            continue
        assert claimed["workload"] in workloads, path.name
        assert claimed["metric"] in metrics, path.name
        assert claimed.get("with", claimed["metric"]) in metrics, path.name
