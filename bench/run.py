"""Multi-pass benchmark of torsionfam.

    python3 bench/run.py --workload families|knots|seifert --seed N \
        --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``.  The inputs are generated from the seed into
``.bench_out/<workload>-s<seed>/``.  Then whole passes over the item list
run, each in a fresh worker process started after the previous one has
exited, until the next pass would end after S seconds (at least three
passes; with ``--trace 1`` untraced and traced passes alternate, at
least one of each).  The worker brackets every item with two timings of
a fixed probe that runs no package code; an item's time is the median
over untraced passes of its time scaled by PROBE_REF_S / probe time,
which removes the slowdowns a shared host imposes on whole stretches
of a run (README.md, "Noise").

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A readable
summary goes to standard error.  See README.md for the definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKER = BENCH / "worker.py"

MIN_PASSES = 3
# the probe's time on a 2-vCPU Xeon under Python 3.11.7 when nothing else
# slows it; scaled times read as seconds at that speed
PROBE_REF_S = 0.0006
MAX_PASSES = 100
RUN_LIMIT_S = 170  # a run must end within 180 s


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("families", "knots", "seifert"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _run_pass(manifest: Path, result: Path, trace_file, deadline: float) -> dict:
    cmd = [sys.executable, str(WORKER), str(SRC), str(manifest), str(result)]
    if trace_file is not None:
        cmd.append(str(trace_file))
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = max(1.0, deadline - time.perf_counter())
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(result.read_text(encoding="utf-8"))


def _scaled(seconds: float, probes) -> float:
    """A time scaled to the machine speed at which the probe takes PROBE_REF_S."""
    return seconds * PROBE_REF_S / statistics.mean(probes)


def _item_times(passes) -> dict:
    """Each item's median over passes of its probe-scaled time."""
    samples = {}
    for p in passes:
        for name, r in p["items"].items():
            if r["time_s"] is not None and not r["errors"]:
                samples.setdefault(name, []).append(_scaled(r["time_s"], r["probe_s"]))
    return {name: statistics.median(v) for name, v in samples.items()}


def _end_to_end(untraced) -> dict:
    times = list(_item_times(untraced).values())
    if not times:
        raise SystemExit("no item succeeded in any pass")
    setup = [_scaled(p["setup_s"], p["setup_probe_s"]) for p in untraced]
    return {
        "items_per_s": (len(times) / sum(times), "1/s"),
        "item_p50_ms": (statistics.median(times) * 1000, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (max(p["rss_mb"] for p in untraced), "MB"),
    }


def _per_layer(untraced, traced) -> dict:
    import tracing

    out = {}
    first = traced[0]["trace"]
    for name, unit in tracing.metric_names():
        if unit == "count":
            out[name] = (first[name], unit)
            if any(p["trace"][name] != first[name] for p in traced[1:]):
                print(f"warning: {name} differs between traced passes", file=sys.stderr)
        else:
            out[name] = (min(p["trace"][name] for p in traced), unit)
    plain, slow = _item_times(untraced), _item_times(traced)
    common = plain.keys() & slow.keys()
    base = sum(plain[k] for k in common)
    extra = sum(slow[k] for k in common) - base
    out["trace.overhead_s"] = (extra, "s")
    out["trace.overhead_pct"] = (100 * extra / base if base else 0.0, "%")
    return out


def main(argv=None) -> int:
    args = _args(argv)
    if not (SRC / "torsionfam" / "__init__.py").is_file():
        print(f"no torsionfam package under {SRC}", file=sys.stderr)
        return 2
    run_started = time.perf_counter()
    hard_deadline = run_started + RUN_LIMIT_S
    sys.path.insert(0, str(SRC))
    import inputs

    out_dir = OUT / f"{args.workload}-s{args.seed}"
    items = inputs.make_inputs(args.workload, args.seed, out_dir)
    manifest = out_dir / "manifest.json"
    manifest.write_text(
        json.dumps({"workload": args.workload, "seed": args.seed, "items": items}, indent=1),
        encoding="utf-8",
    )

    deadline = time.perf_counter() + args.seconds
    kinds = ("plain", "traced") if args.trace else ("plain",)
    done = {k: [] for k in kinds}
    last = {}
    while True:
        n = sum(len(v) for v in done.values())
        kind = kinds[n % len(kinds)]
        trace_file = out_dir / f"trace-{n:03d}.json" if kind == "traced" else None
        started = time.perf_counter()
        done[kind].append(_run_pass(manifest, out_dir / "result.json", trace_file, hard_deadline))
        last[kind] = time.perf_counter() - started
        enough = all(len(done[k]) >= (1 if args.trace else MIN_PASSES) for k in kinds)
        nxt = kinds[(n + 1) % len(kinds)]
        if n + 1 >= MAX_PASSES or (
            enough and time.perf_counter() + last.get(nxt, last[kind]) > deadline
        ):
            break

    every = [p for k in kinds for p in done[k]]
    attempted = sum(len(p["items"]) for p in every)
    failed = sum(1 for p in every for r in p["items"].values() if r["errors"])
    wrong = sorted(
        {f"{name}: {e}" for p in every for name, r in p["items"].items()
         if r["time_s"] is not None for e in r["errors"]}
    )
    metrics = _per_layer(done["plain"], done["traced"]) if args.trace else _end_to_end(done["plain"])
    summary = {
        "passes": {k: len(v) for k, v in done.items()},
        "item_s": {k: _item_times(v) for k, v in done.items()},
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    (out_dir / f"summary-trace{args.trace}.json").write_text(json.dumps(summary, indent=1))

    print(
        f"{args.workload} seed {args.seed}: {len(every)} passes of {len(items)} items "
        f"in {time.perf_counter() - run_started:.1f} s, {failed} of {attempted} failed",
        file=sys.stderr,
    )
    for line in wrong:
        print(f"  wrong output: {line}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not wrong,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
