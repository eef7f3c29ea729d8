"""The sim-* workloads: serial ``Runner`` sweeps over a fixed point pool.

One pass builds a fresh ``Runner`` and sweeps every pool point once, in an
order the seed picks, through ``Runner.prefetch`` and ``Runner.run``.
A first, untimed pass fills the process's memos; timed passes then repeat
while the median pass still fits in the run's time.  The host reference
is timed between passes, and each pass's time is also kept scaled to the
reference speed (``hostref``); the end-to-end metrics use the scaled
times.  Every result is checked against its recorded digest outside the
timed region.
"""

from __future__ import annotations

import cProfile
import pstats
import random
import shutil
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List

from perfbench import digests, hostref, layers
from perfbench.common import fresh_dir, p50, peak_rss_mb
from perfbench.pools import PARTITIONS, SIM_HORIZON, SIM_WARMUP, SimWorkload, point_key


def prepare(workload: SimWorkload):
    """Everything a pass needs, built once: configs, digest table."""
    from repro.common.config import TelemetryConfig
    from repro.experiments.designs import build_named_gpu

    configs = {}
    for design in workload.designs:
        config = build_named_gpu(design, num_partitions=PARTITIONS)
        if workload.telemetry:
            config = replace(config, telemetry=TelemetryConfig(enabled=True))
        configs[design] = config
    return configs, digests.DigestCheck(digests.load())


@dataclass
class Passes:
    seconds: List[float] = field(default_factory=list)
    scaled: List[float] = field(default_factory=list)
    events: List[int] = field(default_factory=list)
    points: int = 0
    failed: int = 0


def run_passes(workload, configs, check, rng, ref, budget_s, on_pass=None,
               profiler=None) -> Passes:
    """Sweep passes within ``budget_s`` (at least one).

    A pass is not started when the median pass so far would end past the
    budget.  *profiler*, when given, runs over the timed region of every
    pass only.
    """
    from repro.experiments.runner import Runner, result_to_dict

    out = Passes()
    deadline = time.perf_counter() + budget_s
    ref_before = ref.measure()
    while out.points == 0 or time.perf_counter() + p50(out.seconds) < deadline:
        order = workload.pass_order(rng)
        tel_dir = fresh_dir("telemetry") if workload.telemetry else None
        points = [(bench, configs[design]) for bench, design, _, _ in order]
        if profiler is not None:
            profiler.enable()
        start = time.perf_counter()
        try:
            runner = Runner(horizon=SIM_HORIZON, warmup=SIM_WARMUP, telemetry_dir=tel_dir)
            runner.prefetch(points)
            results = [runner.run(bench, config) for bench, config in points]
        except Exception as exc:  # noqa: BLE001 - a failed pass is counted, not fatal
            print(f"pass failed: {type(exc).__name__}: {exc}")
            out.points += len(points)
            out.failed += len(points)
            continue
        finally:
            elapsed = time.perf_counter() - start
            if profiler is not None:
                profiler.disable()
        for point, result in zip(order, results):
            if not check.check(point_key(point), result_to_dict(result)):
                out.failed += 1
        out.points += len(points)
        out.seconds.append(elapsed)
        ref_after = ref.measure()
        out.scaled.append(hostref.scale(elapsed, ref_before, ref_after))
        ref_before = ref_after
        out.events.append(sum(r.events_processed for r in results))
        if tel_dir is not None:
            shutil.rmtree(tel_dir, ignore_errors=True)
        if on_pass is not None:
            on_pass()
    return out


def end_to_end(workload, passes: Passes) -> Dict[str, float]:
    rates = [e / s for e, s in zip(passes.events, passes.scaled)]
    pool = len(workload.pool())
    return {
        "sweep_s": p50(passes.scaled),
        "events_per_s": p50(rates),
        "points_per_s": p50([pool / s for s in passes.scaled]),
        "peak_rss_mb": peak_rss_mb(),
    }


def describe(passes: Passes, ref) -> str:
    return (
        f"passes={len(passes.seconds)} sweep_wall_p50_s={p50(passes.seconds):.4f} "
        f"sweep_scaled_p50_s={p50(passes.scaled):.4f} "
        f"host_ref_p50_s={p50(ref.samples):.4f} (nominal {hostref.REF_NOMINAL_S})"
    )


def run(workload: SimWorkload, seed: int, seconds: float, trace: bool, ref):
    """Returns ``(attempted, failed, metrics, trace_doc, summary)``."""
    configs, check = prepare(workload)
    rng = random.Random(seed)
    deadline = time.perf_counter() + seconds
    # one pass builds the process-wide memos a cold start pays for once
    warm = run_passes(workload, configs, check, rng, ref, 0.0)
    if not trace:
        passes = run_passes(workload, configs, check, rng, ref, deadline - time.perf_counter())
        return (warm.points + passes.points, warm.failed + passes.failed,
                end_to_end(workload, passes), None, describe(passes, ref))

    plain = run_passes(workload, configs, check, rng, ref,
                       (deadline - time.perf_counter()) / 2)
    profiler = cProfile.Profile()
    first: dict = {}

    with layers.Tracer() as tracer:

        def snapshot_first_pass():
            if not first:
                first["results"] = layers.result_counters(tracer.results)
                first["groups"] = dict(tracer.group_sizes)
                first["counters"] = dict(tracer.counters)
            tracer.results.clear()  # results carry telemetry exports

        traced = run_passes(workload, configs, check, rng, ref, deadline - time.perf_counter(),
                            on_pass=snapshot_first_pass, profiler=profiler)
    shares = layers.profile_shares(pstats.Stats(profiler))
    metrics = {f"{layer}.self_share": share for layer, share in shares.items()}
    metrics.update(layers.sim_layer_metrics(
        tracer, first["results"], first["groups"], first["counters"]
    ))
    metrics["trace.overhead_ratio"] = p50(traced.scaled) / p50(plain.scaled)
    return (
        warm.points + plain.points + traced.points,
        warm.failed + plain.failed + traced.failed,
        metrics,
        tracer.dump(),
        "untraced: " + describe(plain, ref) + "\ntraced: " + describe(traced, ref),
    )

