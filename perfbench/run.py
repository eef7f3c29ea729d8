#!/usr/bin/env python3
"""The repository benchmark: one workload per run, end to end or traced.

    python3 perfbench/run.py --workload sim-stream --seed 1 --seconds 36 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing instrumented.
``--trace 1`` is the separate traced run: an untraced half, then a half
with the public calls wrapped and cProfile on, giving the per-layer
metrics and the tracing overhead; its spans and counters are written to
``.perfbench/trace-<workload>.json`` when it ends.

The human-readable lines come first (host stamp, every metric with its
unit); the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A result that does
not match its recorded digest makes ``correct`` false and the exit code 1.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: spawn-to-ready samples per sim-* run; ``setup_s`` is their median.
SIM_SETUP_SAMPLES = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MiB",
    "sweep_s": "s",
    "events_per_s": "1/s",
    "points_per_s": "1/s",
}


#: per-layer metrics only serve-steady exercises.
SERVING_ONLY = (
    "jobs.", "http.", "obsv.", "loadgen.", "experiments.runner.memory_hit_ratio",
    "experiments.runner.simulate_share",
)


def per_layer_units() -> dict:
    from perfbench.layers import LAYERS, STORE_OPS

    units = {f"{layer}.self_share": "ratio" for layer in LAYERS}
    units.update({
        "sim.event.events": "count",
        "sim.sm.mem_ops": "count",
        "sim.l2.accesses": "count",
        "sim.l2.misses": "count",
        "sim.l2.mshr_merges": "count",
        "secure.meta_accesses": "count",
        "secure.meta_misses": "count",
        "secure.meta_secondary_misses": "count",
        "secure.tree_walks": "count",
        "secure.aes_ops": "count",
        "sim.dram.txn_total": "count",
        "sim.dram.meta_txn_share": "ratio",
        "sim.gpu.build_s": "s",
        "sim.gpu.run_s": "s",
        "sim.columnar.groups": "count",
        "sim.columnar.group_size_p50": "count",
        "sim.columnar.delegated": "count",
        "experiments.runner.overhead_s": "s",
        "experiments.runner.memory_hit_ratio": "ratio",
        "experiments.runner.simulate_share": "ratio",
        "telemetry.export_s": "s",
        "telemetry.ring_events": "count",
        "telemetry.artifact_bytes": "B",
    })
    for op in STORE_OPS:
        units[f"jobs.store.{op}.calls"] = "count"
        units[f"jobs.store.{op}.p50_us"] = "us"
    units.update({
        "jobs.store.claim_hit_ratio": "ratio",
        "jobs.store.rows_end": "count",
        "jobs.worker.point_p50_ms": "ms",
        "jobs.worker.idle_sleeps": "count",
        "jobs.worker.busy_share": "ratio",
        "jobs.worker.store_share": "ratio",
    })
    for endpoint in ("submit", "progress", "results", "metrics"):
        units[f"http.{endpoint}.p50_ms"] = "ms"
        units[f"http.{endpoint}.p90_ms"] = "ms"
        units[f"http.{endpoint}.count"] = "count"
    units.update({
        "obsv.spans_per_point": "ratio",
        "obsv.metrics_bytes": "B",
        "loadgen.lag_p90_ms": "ms",
        "trace.overhead_ratio": "ratio",
    })
    return units


def parse_args(argv):
    from perfbench.pools import WORKLOAD_NAMES

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def sim_setup_s(workload: str, ref) -> float:
    """Median spawn-to-ready time of a fresh process set up for *workload*,
    scaled to the host reference speed."""
    from perfbench.hostref import SETUP_REPEATS, scale

    samples = []
    ref_before = ref.measure(SETUP_REPEATS)
    for _ in range(SIM_SETUP_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--probe"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        with proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - start)
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {line!r}")
    return scale(statistics.median(samples), ref_before, ref.measure(SETUP_REPEATS))


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    args = parse_args(argv)

    from perfbench import common, hostref, layers, pools, serveload, simload

    workload = pools.SIM_WORKLOADS.get(args.workload)
    if args.probe:
        simload.prepare(workload)
        print("ready", flush=True)
        return 0

    layers.check_layer_map()
    stamp = common.HostStamp()
    with hostref.HostRef() as ref:
        if workload is not None:
            setup = None if args.trace else sim_setup_s(args.workload, ref)
            attempted, failed, metrics, trace_doc, summary = simload.run(
                workload, args.seed, args.seconds, bool(args.trace), ref
            )
            if setup is not None:
                metrics["setup_s"] = setup
        else:
            attempted, failed, metrics, trace_doc, summary = serveload.run(
                args.seed, args.seconds, bool(args.trace), ref
            )
    common.clean_work()
    host = stamp.finish()

    units = per_layer_units() if args.trace else END_TO_END_UNITS
    if args.trace and workload is not None:
        # the sim-* workloads never reach the serving layers
        metrics.update({name: 0.0 for name in units if name.startswith(SERVING_ONLY)})
    if not args.trace:
        metrics["ok_ratio"] = 1.0 - failed / attempted
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    report = {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()}

    if trace_doc is not None:
        trace_doc.update(workload=args.workload, seed=args.seed, host=host, metrics=report)
        out = common.WORK / f"trace-{args.workload}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(trace_doc) + "\n")
        print(f"trace written to {out.relative_to(ROOT)}")
    print("host " + json.dumps(host, sort_keys=True))
    if summary:
        print(summary)
    print(f"{args.workload} seed={args.seed} attempted={attempted} failed={failed} "
          f"failed_ratio={failed / attempted:.6f}")
    for name, entry in report.items():
        print(f"  {name:40s} {entry['value']:.6g} {entry['unit']}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": report}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
