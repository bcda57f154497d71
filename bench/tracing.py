"""Counting and timing wrappers around the package's layer boundaries.

Only traced passes call :func:`install`; an untraced worker never
imports this module.  A wrapper replaces the function (or method) under
every name that refers to it in any ``torsionfam`` module, so calls made
through ``from .complexes import torsion`` are seen as well.

Each metric group gets a call count.  A timed group also gets its busy
time: the union of its calls' intervals, so a call nested in another
call of the same group (``specialize`` -> ``specialize_word``) is not
counted twice.  Every timed call also feeds the per-function self time
(its duration minus the time of the timed calls inside it).  Calls into
the coarse layer entry points are kept as spans (name, start, end,
parent span, item) for the trace file; the hot inner functions are
aggregated only, which keeps a traced pass's memory flat.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# metric group -> (timed?, keep spans?, wrapped functions as "module.attr[.attr]")
GROUPS = {
    "fileio.load": (True, True, ("fileio.load_complex", "fileio.load_knot")),
    "complexes.torsion": (True, True, ("complexes.torsion",)),
    "complexes.sign_eval": (True, True, ("complexes.torsion_sign_at",)),
    "dvr.analyze": (True, True, ("dvr.analyze",)),
    "dvr.snf_local": (True, True, ("dvr.snf_local",)),
    "dvr.duality_check": (True, True, ("dvr.check_duality_pairing",)),
    "linalg.det": (True, False, ("linalg.Matrix.det",)),
    "linalg.elim": (
        True,
        False,
        ("linalg.Matrix.rank", "linalg.Matrix.pivot_columns", "linalg.Matrix.inverse"),
    ),
    "linalg.mul": (True, False, ("linalg.Matrix.__matmul__", "linalg.Matrix.mul_with_zero")),
    "ratfunc.normalize": (False, False, ("ratfunc.RatFunc.__init__",)),
    "poly.gcd": (True, False, ("poly.poly_gcd",)),
    "scalars.mul": (False, False, ("scalars.GaussRat.__mul__",)),
    "groupring.fox": (False, False, ("groupring.fox_derivative",)),
    "groupring.specialize": (
        True,
        False,
        ("groupring.specialize", "groupring.specialize_word"),
    ),
    "groupring.presentation_complex": (True, True, ("groupring.presentation_complex",)),
    "knots.alexander": (True, True, ("knots.alexander_from_fox",)),
    "knots.seifert": (True, True, ("knots.conway_from_seifert",)),
    "knots.laurent_mul": (False, False, ("knots.LaurentInt.__mul__",)),
    "eta.ledger": (
        True,
        True,
        ("eta.profile_from_reports", "eta.signs_from_reports", "eta.ray_invariant_check"),
    ),
}


def metric_names() -> list[str]:
    """Per-layer metric names a traced run reports, with their units."""
    out = []
    for group, (timed, _, _) in GROUPS.items():
        out.append((f"{group}_calls", "count"))
        if timed:
            out.append((f"{group}_s", "s"))
    return out


class Tracer:
    """Counts, busy times, self times and spans of one traced pass.

    Recording happens only while ``active`` is set, so the benchmark's
    own checks, which run between items, leave no trace.
    """

    def __init__(self):
        self.active = False
        self.item = None
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_s = defaultdict(float)
        self.spans = []
        self._depth = defaultdict(int)
        # frames of the timed calls in progress: [child seconds, enclosing span id]
        self._stack = []

    def metrics(self) -> dict:
        out = {}
        for group, (timed, _, _) in GROUPS.items():
            out[f"{group}_calls"] = self.calls[group]
            if timed:
                out[f"{group}_s"] = self.busy[group]
        return out

    def counted(self, group, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                calls[group] += 1
            return fn(*args, **kwargs)

        return wrapper

    def timed(self, group, name, keep_span, fn):
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self.calls[group] += 1
            depth = self._depth[group]
            self._depth[group] = depth + 1
            parent = stack[-1][1] if stack else None
            span_id = len(self.spans) if keep_span else parent
            if keep_span:
                self.spans.append(None)  # reserve the id; filled in on return
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self._depth[group] = depth
                dur = end - start
                if depth == 0:
                    self.busy[group] += dur
                self.self_s[name] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if keep_span:
                    self.spans[span_id] = (name, start, end, parent, self.item)

        return wrapper


def _resolve(modules, dotted):
    mod_name, *attrs = dotted.split(".")
    owner = modules[f"torsionfam.{mod_name}"]
    for attr in attrs[:-1]:
        owner = getattr(owner, attr)
    return owner, attrs[-1]


def install(tracer: Tracer) -> None:
    """Wrap every function of ``GROUPS`` under all names bound to it."""
    modules = {
        name: mod
        for name, mod in sys.modules.items()
        if name == "torsionfam" or name.startswith("torsionfam.")
    }
    for group, (timed, keep_span, targets) in GROUPS.items():
        for dotted in targets:
            owner, attr = _resolve(modules, dotted)
            original = getattr(owner, attr)
            if timed:
                wrapper = tracer.timed(group, dotted, keep_span, original)
            else:
                wrapper = tracer.counted(group, original)
            if isinstance(owner, type):
                # methods: every alias in the class (GaussRat.__rmul__ is __mul__)
                homes = [owner]
            else:
                homes = list(modules.values())
            for home in homes:
                for key, value in list(vars(home).items()):
                    if value is original:
                        setattr(home, key, wrapper)
