"""Per-layer accounting for the traced pass.

Two instruments, both installed only for the traced pass:

* ``profile_shares`` maps one aggregated cProfile pass onto the layers.
  Every module under ``src/repro`` must appear in ``LAYER_MAP``; a module
  missing from it fails the run, so a new module has to be given a layer.
  Code outside ``src/repro`` (C builtins, the standard library) and the
  shared helper modules mapped to ``CALLER`` are charged to the layer that
  called them, split by the time each caller spent in them.
* ``Tracer`` wraps the named public calls (``Gpu``, ``Gpu.run``,
  ``simulate``, ``Runner.run``, ``ColumnarLane.deliver``, telemetry export
  and artifact writes, every ``SQLiteJobStore`` operation) and records a
  span and counters at each one.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import pstats
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, Optional

from perfbench.common import p50

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

#: time is charged to whichever layer called into these modules.
CALLER = "<caller>"

#: module -> layer.  A key ending in ``.*`` covers a package and every
#: module in it; the ``repro.sim`` modules are listed one by one because
#: they split across layers.
LAYER_MAP = {
    "repro": "other",
    "repro.__main__": "other",
    "repro.cli": "other",
    "repro.analysis.*": "other",
    "repro.common.*": CALLER,
    "repro.sim": "sim.gpu",
    "repro.sim.gpu": "sim.gpu",
    "repro.sim.fastpath": "sim.gpu",
    "repro.sim.resource": CALLER,
    "repro.sim.event": "sim.event",
    "repro.sim.sm": "sim.sm",
    "repro.sim.columnar": "sim.columnar",
    "repro.sim.interconnect": "sim.interconnect",
    "repro.sim.partition": "sim.l2",
    "repro.sim.cache": "sim.l2",
    "repro.sim.mshr": "sim.l2",
    "repro.sim.dram": "sim.dram",
    "repro.secure.*": "secure",
    "repro.workloads.*": "workloads",
    "repro.telemetry.*": "telemetry",
    "repro.experiments.*": "experiments",
    "repro.jobs.*": "jobs",
    "repro.obsv.*": "obsv",
}

#: the layers reported as ``<layer>.self_share``.
LAYERS = (
    "sim.event", "sim.sm", "sim.columnar", "sim.interconnect", "sim.l2",
    "sim.dram", "sim.gpu", "secure", "workloads", "telemetry", "experiments",
    "jobs", "obsv", "other",
)

#: the SQLiteJobStore operations timed in the traced serve pass.
STORE_OPS = (
    "submit_sweep", "claim", "report", "heartbeat", "requeue_expired",
    "progress", "counts", "results", "record_span", "record_worker",
    "workers_seen",
)


#: builtins whose time is spent waiting (a worker's idle sleeps, joins),
#: not working; they are left out of the self-time shares.
WAITS = frozenset({
    "<built-in method time.sleep>",
    "<method 'acquire' of '_thread.lock' objects>",
})


class UnmappedModule(RuntimeError):
    pass


def repro_modules() -> List[str]:
    """Every module under ``src/repro``, by dotted name."""
    names = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        names.append(".".join(parts))
    return names


def layer_of(module: str) -> str:
    """The layer of one module: its own entry, else its package's."""
    layer = LAYER_MAP.get(module)
    if layer is not None:
        return layer
    parts = module.split(".")
    for cut in range(len(parts), 0, -1):
        layer = LAYER_MAP.get(".".join(parts[:cut]) + ".*")
        if layer is not None:
            return layer
    raise UnmappedModule(f"module {module} has no layer in perfbench/layers.py")


def check_layer_map(modules: Optional[Iterable[str]] = None) -> Dict[str, str]:
    """Map every module; raises ``UnmappedModule`` on the first gap."""
    return {m: layer_of(m) for m in (modules if modules is not None else repro_modules())}


def _module_of_file(filename: str) -> Optional[str]:
    try:
        rel = Path(filename).resolve().relative_to(SRC)
    except (ValueError, OSError):
        return None
    parts = list(rel.with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def profile_shares(stats: pstats.Stats) -> Dict[str, float]:
    """Self-time share of each layer in one aggregated profile."""
    table = stats.stats  # func -> (cc, nc, tottime, cumtime, callers)
    own: Dict[tuple, Optional[str]] = {}
    for func in table:
        filename = func[0]
        if filename.startswith(str(HERE)):
            own[func] = "other"  # the benchmark's own harness
            continue
        module = _module_of_file(filename)
        layer = layer_of(module) if module else CALLER
        own[func] = None if layer == CALLER else layer

    memo: Dict[tuple, Dict[str, float]] = {}
    active = set()

    def dist(func) -> Dict[str, float]:
        if own.get(func):
            return {own[func]: 1.0}
        if func in memo:
            return memo[func]
        if func in active or func not in table:
            return {"other": 1.0}
        active.add(func)
        callers = table[func][4]
        weights: Dict[str, float] = defaultdict(float)
        total = 0.0
        for caller, edge in callers.items():
            tt = edge[2]
            if tt <= 0:
                continue
            total += tt
            for layer, share in dist(caller).items():
                weights[layer] += tt * share
        active.discard(func)
        result = {k: v / total for k, v in weights.items()} if total > 0 else {"other": 1.0}
        memo[func] = result
        return result

    per_layer: Dict[str, float] = defaultdict(float)
    grand = 0.0
    for func, row in table.items():
        tt = row[2]
        if tt <= 0 or func[2] in WAITS:
            continue
        grand += tt
        for layer, share in dist(func).items():
            per_layer[layer] += tt * share
    return {layer: (per_layer.get(layer, 0.0) / grand if grand else 0.0) for layer in LAYERS}


# -- call wrappers ----------------------------------------------------------


class Tracer:
    """Monkeypatches the named public calls for the duration of a ``with``.

    Each call records a span ``(name, start, end, parent, thread)``; the
    per-call durations and work counters accumulate in plain dicts.
    """

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.durations: Dict[str, List[float]] = defaultdict(list)
        self.counters: Counter = Counter()
        self.group_sizes: Counter = Counter()
        self.results: List = []
        self.claims: Dict[int, float] = {}
        self.point_s: List[float] = []
        self._local = threading.local()
        self._patches: List[tuple] = []
        self._lock = threading.Lock()

    # span bookkeeping -------------------------------------------------

    def _wrap(self, owner, attr: str, name: str, after=None):
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            parent = stack[-1] if stack else -1
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                out = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                with tracer._lock:
                    tracer.spans[index] = (name, start, end, parent, threading.get_ident())
                    tracer.durations[name].append(end - start)
            if after is not None:
                after(args, out, end)
            return out

        wrapper.__wrapped__ = original
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def __enter__(self) -> "Tracer":
        from repro.experiments import runner as runner_mod
        from repro.jobs.store import SQLiteJobStore
        from repro.sim.columnar import ColumnarLane
        from repro.sim.gpu import Gpu
        from repro.telemetry.session import TelemetrySession

        self._wrap(Gpu, "__init__", "sim.gpu.build")
        self._wrap(Gpu, "run", "sim.gpu.run")
        self._wrap(runner_mod, "simulate", "simulate", after=self._after_simulate)
        self._wrap(runner_mod.Runner, "run", "experiments.runner.run")
        self._wrap(TelemetrySession, "export", "telemetry.export", after=self._after_export)
        self._wrap(runner_mod, "write_artifacts", "telemetry.write", after=self._after_write)
        for op in STORE_OPS:
            after = {"claim": self._after_claim, "report": self._after_report}.get(op)
            self._wrap(SQLiteJobStore, op, f"jobs.store.{op}", after=after)

        original_deliver = ColumnarLane.deliver
        tracer = self

        def deliver(lane, now, items):
            accepted = original_deliver(lane, now, items)
            if accepted:
                tracer.group_sizes[len(items)] += 1
            else:
                tracer.counters["sim.columnar.delegated"] += 1
            return accepted

        self._patches.append((ColumnarLane, "deliver", original_deliver))
        ColumnarLane.deliver = deliver
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # counters -----------------------------------------------------------

    def _after_simulate(self, args, result, end) -> None:
        self.results.append(result)

    def _after_export(self, args, export, end) -> None:
        self.counters["telemetry.ring_events"] += len(export.get("events", ()))

    def _after_write(self, args, paths, end) -> None:
        self.counters["telemetry.artifact_bytes"] += sum(
            p.stat().st_size for p in paths.values()
        )

    def _after_claim(self, args, job, end) -> None:
        self.counters["jobs.store.claim.hits" if job is not None else "jobs.store.claim.empty"] += 1
        if job is not None:
            self.claims[job.id] = end

    def _after_report(self, args, accepted, end) -> None:
        started = self.claims.pop(args[1], None)
        if started is not None:
            self.point_s.append(end - started)

    def self_times(self) -> Dict[str, float]:
        """Span self time by name: duration minus the children's."""
        child = defaultdict(float)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        out: Dict[str, float] = defaultdict(float)
        for index, span in enumerate(self.spans):
            if span is not None:
                out[span[0]] += span[2] - span[1] - child.get(index, 0.0)
        return dict(out)

    def dump(self) -> dict:
        return {
            "spans": [
                {"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "thread": s[4]}
                for s in self.spans
                if s is not None
            ],
            "self_s": self.self_times(),
            "counters": dict(self.counters),
            "group_sizes": {str(k): v for k, v in sorted(self.group_sizes.items())},
        }


RESULT_COUNTERS = (
    "sim.event.events", "sim.sm.mem_ops", "sim.l2.accesses", "sim.l2.misses",
    "sim.l2.mshr_merges", "secure.meta_accesses", "secure.meta_misses",
    "secure.meta_secondary_misses", "secure.tree_walks", "secure.aes_ops",
    "sim.dram.txn_total",
)


def result_counters(results: Iterable) -> Dict[str, float]:
    """Exact work counters summed over simulation results."""
    totals: Dict[str, float] = dict.fromkeys(RESULT_COUNTERS, 0.0)
    for result in results:
        totals["sim.event.events"] += result.events_processed
        totals["sim.l2.accesses"] += result.l2_accesses
        totals["sim.l2.misses"] += result.l2_misses
        for stats in result.metadata.values():
            totals["secure.meta_accesses"] += stats["accesses"]
            totals["secure.meta_misses"] += stats["misses"]
            totals["secure.meta_secondary_misses"] += stats["secondary_misses"]
        txn = result.dram_txn
        data = txn.get("data_read", 0.0) + txn.get("data_write", 0.0)
        total = sum(v for k, v in txn.items() if k != "total")
        totals["sim.dram.txn_total"] += total
        totals["_dram_meta_txn"] = totals.get("_dram_meta_txn", 0.0) + total - data
        for path, key, value in result.stats.walk():
            leaf = path.rsplit(".", 1)[-1]
            if leaf.startswith("sm") and key in ("loads", "stores"):
                totals["sim.sm.mem_ops"] += value
            elif leaf.startswith("partition"):
                if key == "l2_secondary_misses":
                    totals["sim.l2.mshr_merges"] += value
                elif key == "l2_duplicate_fetches":
                    totals["sim.l2.mshr_merges"] -= value
            elif leaf == "secure" and key == "tree_walks":
                totals["secure.tree_walks"] += value
            elif leaf == "aes" and key == "ops":
                totals["secure.aes_ops"] += value
    meta = totals.pop("_dram_meta_txn", 0.0)
    totals["sim.dram.meta_txn_share"] = meta / totals["sim.dram.txn_total"] if totals["sim.dram.txn_total"] else 0.0
    return dict(totals)


def sim_layer_metrics(tracer: Tracer, work, group_sizes, counters) -> Dict[str, float]:
    """The simulator-side per-layer metrics of one traced phase.

    *work* (``result_counters`` output), *group_sizes* and *counters* cover
    the work the exact counts describe (one pass for sim-*); the timings
    are per-call medians over the whole traced phase.
    """
    durations = tracer.durations
    sizes = [size for size, count in group_sizes.items() for _ in range(count)]
    metrics = dict(work)
    metrics.update({
        "sim.columnar.groups": len(sizes),
        "sim.columnar.group_size_p50": p50(sizes),
        "sim.columnar.delegated": counters.get("sim.columnar.delegated", 0),
        "sim.gpu.build_s": p50(durations.get("sim.gpu.build", [])),
        "sim.gpu.run_s": p50(durations.get("sim.gpu.run", [])),
        "experiments.runner.overhead_s": runner_overhead(tracer),
        "telemetry.export_s": p50(durations.get("telemetry.export", []))
        + p50(durations.get("telemetry.write", [])),
        "telemetry.ring_events": counters.get("telemetry.ring_events", 0),
        "telemetry.artifact_bytes": counters.get("telemetry.artifact_bytes", 0),
    })
    return metrics


def runner_overhead(tracer: Tracer) -> float:
    """Median ``Runner.run`` time outside ``simulate``, over simulated points."""
    spans = tracer.spans
    overheads = []
    for span in spans:
        if span is not None and span[0] == "simulate" and span[3] >= 0:
            parent = spans[span[3]]
            if parent is not None and parent[0] == "experiments.runner.run":
                overheads.append((parent[2] - parent[1]) - (span[2] - span[1]))
    return p50(overheads)
