"""The benchmark's layer hooks name functions the package still has.

``bench/tracing.py`` wraps package functions by dotted name
(``GROUPS``); a rename in ``src/`` that it does not follow would only
show in a traced benchmark run.  This test reads that file as text,
without importing it from ``bench/`` or writing there, and resolves
every target the way the tracer does.
"""

import sys
import types
from pathlib import Path

import torsionfam
from torsionfam import complexes, dvr, eta, fileio, knots  # noqa: F401  (the worker's imports)
from torsionfam.scalars import GaussRat

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing() -> types.ModuleType:
    module = types.ModuleType("bench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_traced_target_resolves_to_a_package_function():
    tracing = load_tracing()
    modules = {
        name: mod
        for name, mod in sys.modules.items()
        if name == "torsionfam" or name.startswith("torsionfam.")
    }
    assert modules["torsionfam"] is torsionfam
    seen = 0
    for group, (_, _, targets) in tracing.GROUPS.items():
        for dotted in targets:
            owner, attr = tracing._resolve(modules, dotted)
            assert callable(getattr(owner, attr, None)), f"{group}: {dotted}"
            seen += 1
    assert seen >= len(tracing.GROUPS)
    # the tracer wraps every alias of a method in its class; scalars.mul
    # counts both sides of a product only while __rmul__ is __mul__
    assert GaussRat.__rmul__ is GaussRat.__mul__


def test_every_traced_method_is_bound_in_its_own_class():
    """``tracing.install`` rebinds a method only where ``vars(owner)`` holds
    it, so a traced method a class inherits would go silently uncounted."""
    tracing = load_tracing()
    modules = {
        name: mod
        for name, mod in sys.modules.items()
        if name == "torsionfam" or name.startswith("torsionfam.")
    }
    methods = 0
    for group, (_, _, targets) in tracing.GROUPS.items():
        for dotted in targets:
            owner, attr = tracing._resolve(modules, dotted)
            if isinstance(owner, type):
                assert attr in vars(owner), f"{group}: {dotted} is inherited"
                methods += 1
    assert methods >= 1
