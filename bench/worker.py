"""One pass of a workload, run in a fresh process by run.py.

    python3 bench/worker.py SRC_DIR MANIFEST RESULT [TRACE_FILE]

Times the set-up (importing torsionfam from SRC_DIR and parsing every
input file with ``fileio``), then each item's pipeline alone; each of
these timings is bracketed by two runs of ``probe_s``.  After an
item, and outside its timing, the outputs are turned into plain data and
checked by ``checks``.  Checks that span items (direct sums, Schubert
pairs) run after the last item.  With TRACE_FILE the layer wrappers of
``tracing`` are installed before parsing, and the spans, self times and
counts are written there.  The result is written to RESULT as JSON.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

import checks

DELTAS = (Fraction(1, 1000), Fraction(1, 10000))
PROBE_REPS = 5
_PROBE_ROWS = [
    [Fraction(1 + (j * k) % 5, 1 + (j + 2 * k) % 7) for k in range(8)] for j in range(8)
]


def probe_s() -> float:
    """Best of PROBE_REPS timings of a fixed exact 8x8 elimination that runs
    no torsionfam code: how fast the machine is right now.  The cyclic
    collector is off meanwhile, so the package's heap cannot slow it."""
    gc.disable()
    try:
        best = float("inf")
        for _ in range(PROBE_REPS):
            t0 = time.perf_counter()
            checks.frac_det(_PROBE_ROWS)
            best = min(best, time.perf_counter() - t0)
        return best
    finally:
        gc.enable()


def _gpoly(p):
    return [(c.re, c.im) for c in p.coeffs]


class Families:
    suffix = "load_complex"

    def __init__(self, tf):
        self.tf = tf

    def run(self, item, loaded):
        complexes, dvr, eta, GaussRat = (
            self.tf.complexes, self.tf.dvr, self.tf.eta, self.tf.GaussRat,
        )
        cplx, pairing = loaded
        centers = [Fraction(c) for c in item["centers"]]
        tau = complexes.torsion(cplx).value
        reports = [dvr.analyze(cplx, GaussRat(t0), duality=pairing) for t0 in centers]
        near = [
            [
                (
                    d,
                    complexes.torsion_sign_at(cplx, GaussRat(t0 + d)),
                    complexes.torsion_sign_at(cplx, GaussRat(t0 - d)),
                )
                for d in DELTAS
            ]
            for t0 in centers
        ]
        dimclass = 3 if cplx.top_degree % 4 == 3 else 1
        profile = eta.profile_from_reports(reports, dimension_class=dimclass)
        signs = eta.signs_from_reports(reports)
        verdict = eta.ray_invariant_check(profile, signs)
        return tau, reports, near, profile, signs, verdict

    def output(self, item, loaded, result):
        tau, reports, near, profile, signs, verdict = result
        check = self.tf.eta.ray_invariant_check
        mutants = [signs[:k] + [-signs[k]] + signs[k + 1:] for k in range(len(signs))]
        return {
            "m": loaded[0].top_degree,
            "centers": [Fraction(c) for c in item["centers"]],
            "tau": (_gpoly(tau.num), _gpoly(tau.den)),
            "reports": [
                {
                    "t0": Fraction(c),
                    "nu": rep.nu,
                    "chi": rep.chi,
                    "dims": list(rep.dims.dims),
                    "duality_ok": rep.duality_ok,
                    "near": near_c,
                }
                for c, rep, near_c in zip(item["centers"], reports, near)
            ],
            "signs": signs,
            "ledger_ok": verdict.passed,
            "mutations_rejected": len(signs) == 1
            or not any(check(profile, s).passed for s in mutants),
        }

    def errors(self, item, loaded, text, out):
        errs = checks.family_errors(out)
        fileio = self.tf.fileio
        cplx, pairing = loaded
        dumped = fileio.dump_complex(cplx, pairing)
        if dumped != text or fileio.load_complex(dumped) != (cplx, pairing):
            errs.append("load_complex(dump_complex(x)) != x")
        return errs

    def cross_errors(self, items, outs):
        errs = {}
        for item in items:
            if item["parts"] is None or item["name"] not in outs:
                continue
            parts = [outs.get(p) for p in item["parts"]]
            if any(p is None for p in parts):
                errs[item["name"]] = ["a part of the direct sum failed"]
            else:
                e = checks.direct_sum_errors(
                    outs[item["name"]]["tau"], [p["tau"] for p in parts]
                )
                if e:
                    errs[item["name"]] = e
        return errs


class Knots:
    suffix = "load_knot"

    def __init__(self, tf):
        self.tf = tf

    def run(self, item, loaded):
        knots = self.tf.knots
        delta = knots.alexander_from_fox(loaded[0])
        return delta, knots.conway_normalize(delta)

    def output(self, item, loaded, result):
        delta, conway = result
        return {"delta": dict(delta.terms), "conway": conway.coefficients}

    def errors(self, item, loaded, text, out):
        return checks.knot_errors(item["p"], item["q"], out["delta"], out["conway"])

    def cross_errors(self, items, outs):
        errs = {}
        for item in items:
            partner = item["partner"]
            if partner is None or item["name"] not in outs:
                continue
            if partner not in outs:
                errs[item["name"]] = ["its Schubert partner failed"]
            elif outs[partner]["delta"] != outs[item["name"]]["delta"]:
                errs[item["name"]] = [f"Delta differs from Schubert partner {partner}"]
        return errs


class Seifert(Knots):
    def run(self, item, loaded):
        return self.tf.knots.conway_from_seifert(loaded[1])

    def output(self, item, loaded, result):
        return {"conway": result.coefficients}

    def errors(self, item, loaded, text, out):
        return checks.seifert_errors(item["v"], item["components"], out["conway"])

    def cross_errors(self, items, outs):
        return {}


WORKLOADS = {"families": Families, "knots": Knots, "seifert": Seifert}


class _Package:
    """The torsionfam modules the pipelines call, looked up at call time
    so that tracing wrappers installed after import are the ones used."""

    def __init__(self):
        import torsionfam
        from torsionfam import complexes, dvr, eta, fileio, knots

        self.torsionfam = torsionfam
        self.complexes, self.dvr, self.eta = complexes, dvr, eta
        self.fileio, self.knots = fileio, knots
        self.GaussRat = torsionfam.GaussRat


def main(argv) -> int:
    src_dir, manifest_path, result_path = argv[1:4]
    trace_path = argv[4] if len(argv) > 4 else None
    manifest = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
    in_dir = Path(manifest_path).parent
    items = manifest["items"]
    texts = [(in_dir / item["file"]).read_text(encoding="utf-8") for item in items]

    setup_probe = probe_s()
    started = time.perf_counter()
    sys.path.insert(0, src_dir)
    tf = _Package()
    if not Path(tf.torsionfam.__file__).resolve().is_relative_to(Path(src_dir).resolve()):
        raise SystemExit(f"torsionfam imported from {tf.torsionfam.__file__}, not {src_dir}")
    tracer = None
    if trace_path:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracer.active = True
    workload = WORKLOADS[manifest["workload"]](tf)
    load = getattr(tf.fileio, workload.suffix)
    loaded = [load(text, item["file"]) for item, text in zip(items, texts)]
    setup_s = time.perf_counter() - started
    setup_probes = [setup_probe, probe_s()]
    if tracer:
        tracer.active = False

    results = {}
    outs = {}
    clock = time.perf_counter
    for item, text, obj in zip(items, texts, loaded):
        name = item["name"]
        probe = probe_s()
        if tracer:
            tracer.item = name
            tracer.active = True
        try:
            t0 = clock()
            result = workload.run(item, obj)
            elapsed = clock() - t0
        except Exception as exc:  # an item that raises is a failed item
            results[name] = {"time_s": None, "errors": [f"{type(exc).__name__}: {exc}"]}
            continue
        finally:
            if tracer:
                tracer.active = False
        probes = [probe, probe_s()]
        try:
            out = workload.output(item, obj, result)
            errs = workload.errors(item, obj, text, out)
        except Exception as exc:
            errs = [f"check raised {type(exc).__name__}: {exc}"]
        else:
            if not errs:
                outs[name] = out
        results[name] = {"time_s": elapsed, "probe_s": probes, "errors": errs}
    for name, errs in workload.cross_errors(items, outs).items():
        results[name]["errors"] += errs

    report = {
        "setup_s": setup_s,
        "setup_probe_s": setup_probes,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "items": results,
        "trace": tracer.metrics() if tracer else None,
    }
    if tracer:
        trace = {
            "calls": dict(tracer.calls),
            "busy_s": dict(tracer.busy),
            "self_s": dict(tracer.self_s),
            "spans": tracer.spans,
        }
        Path(trace_path).write_text(json.dumps(trace), encoding="utf-8")
    Path(result_path).write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
