"""Benchmark of lagsem: two closed-loop workloads with correctness gates.

Usage (from the repository root):

    python3 perfbench/run.py --workload suite-1d --seed 7 --seconds 55 --trace 0

Workloads are ``suite-1d`` and ``grid-operators`` (see ``workloads.py``).
One process runs one workload: it times its own set-up, takes further
set-up samples from fresh processes (``setup_probe.py``), then runs passes
one after another until the next pass would end after ``--seconds``.
Every pass is checked against ``reference.json``.

With ``--trace 0`` the last stdout line reports the end-to-end metrics of
``BENCHMARK.json`` (mean pass wall time, median set-up time, peak RSS).
``wall_s`` is the mean, the run's measured time over its passes: the
host's speed drifts by a quarter over minutes, and the mean of a run
varied less from run to run than its median did.
With ``--trace 1`` passes alternate untraced and traced, and the line
reports the per-layer metrics of the traced passes (medians) together with
the tracing overhead; the spans go to ``.perfbench_out/trace-<workload>.jsonl``.

The exit code is 1 when any output fails its gate or a pass raises.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

from harness import HERE, OUT_DIR, ROOT, environment, limit_blas_threads, timed_setup

SETUP_PROBES = 5


def setup_samples(workload: str, seed: int) -> list:
    """Set-up times of fresh processes, one process at a time."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"set-up failed for {workload} (exit code {proc.returncode})")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def run_passes(wl, inputs, seconds: float, reference: dict, tracer=None) -> dict:
    """Run passes until the next would end after ``seconds``.

    With a tracer, odd-numbered passes are traced and even-numbered ones are
    not, and at least one pass of each kind runs.
    """
    from workloads import check_outputs

    walls = {False: [], True: []}
    layers = []
    attempted = failed = 0
    start = time.perf_counter()
    item = 0
    while True:
        traced = tracer is not None and item % 2 == 1
        if traced:
            tracer.begin_pass(item)
        t0 = time.perf_counter()
        try:
            outputs, timings = wl.run_pass(inputs)
        except Exception:  # a raising pass is a failed pass; keep measuring
            traceback.print_exc()
            outputs, timings = None, {}
        wall = time.perf_counter() - t0
        if traced:
            flat = tracer.end_pass()
            flat.update({f"suites.check.{cid}.s": s for cid, s in timings.items()})
            layers.append(flat)
        walls[traced].append(wall)
        checked, bad = check_outputs(wl, outputs, reference)
        attempted += checked
        failed += bad
        item += 1
        elapsed = time.perf_counter() - start
        all_kinds = tracer is None or walls[True]
        if all_kinds and elapsed + statistics.median(walls[False] + walls[True]) > seconds:
            break
    return {"walls": walls, "layers": layers, "attempted": attempted, "failed": failed}


def tail_percentile(samples: list) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 20:
        return "no percentile above the median has ten samples beyond it"
    p = math.floor(100 * (1 - 10 / n))
    return f"p{p} {statistics.quantiles(samples, n=100)[p - 1]:.4f} s"


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    limit_blas_threads()

    setups = [] if args.trace else setup_samples(args.workload, args.seed)
    seconds, wl, inputs = timed_setup(args.workload, args.seed)
    setups.append(seconds)

    import workloads

    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)[args.workload][str(workloads.family_of(args.seed))]
    env = environment(args.seed, workloads.family_of(args.seed))
    print(json.dumps({"env": env}))

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    result = run_passes(wl, inputs, args.seconds, reference, tracer)
    if "out" in inputs and os.path.exists(inputs["out"]):
        os.remove(inputs["out"])

    walls = result["walls"][False]
    error_rate = result["failed"] / result["attempted"]
    print(
        f"{args.workload}: wall_s mean {statistics.fmean(walls):.4f} s, median "
        f"{statistics.median(walls):.4f} s over {len(walls)} "
        f"untraced passes, {tail_percentile(walls)}; setup_s samples "
        f"{[round(s, 4) for s in setups]}; error_rate {error_rate:g} "
        f"({result['failed']} of {result['attempted']} outputs failed)"
    )
    if args.trace:
        traced_walls = result["walls"][True]
        values = {
            m["name"]: statistics.median(flat.get(m["name"], 0.0) for flat in result["layers"])
            for m in spec["per_layer"]
        }
        values["trace.wall_s"] = statistics.fmean(traced_walls)
        values["trace.overhead_s"] = statistics.fmean(traced_walls) - statistics.fmean(walls)
        metrics = {m["name"]: metric(values[m["name"]], m["unit"]) for m in spec["per_layer"]}
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, f"trace-{args.workload}.jsonl"), env)
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {
            "wall_s": statistics.fmean(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {m["name"]: metric(values[m["name"]], m["unit"]) for m in spec["end_to_end"]}
    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
