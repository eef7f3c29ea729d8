"""One simulation's telemetry: tracer + sampler + artifact export.

A :class:`TelemetrySession` is created by the GPU top level when
``GpuConfig.telemetry.enabled`` is set.  After the run, :meth:`export`
condenses everything into one deterministic, JSON-able dict (safe to move
across process boundaries — the parallel runner's workers return it with
their result payloads), and :func:`write_artifacts` lays the dict out on
disk:

* ``trace.json``   — Chrome ``trace_event`` file (chrome://tracing, Perfetto)
* ``trace.jsonl``  — the typed event stream, one JSON object per line
* ``samples.json`` — the sampler's columnar time-series
* ``latency.json`` — per-hop latency histograms, stall accounting, and the
  byte-conservation check against the DRAM totals
* ``summary.json`` — run metadata, event/sample counts, per-class bytes
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Optional

from repro.common.config import TelemetryConfig
from repro.telemetry.latency import NULL_LATENCY, LatencyRecorder, conservation_check
from repro.telemetry.tracer import NULL_TRACER, Tracer, write_event_streams
from repro.telemetry.sampler import Sampler

#: artifact file names, in the order write_artifacts produces them.
ARTIFACT_NAMES = (
    "trace.json",
    "trace.jsonl",
    "samples.json",
    "latency.json",
    "summary.json",
)


class TelemetrySession:
    """Tracer + sampler + latency-recorder bundle for one GPU instance."""

    def __init__(self, config: TelemetryConfig, events) -> None:
        self.config = config
        self.tracer = (
            Tracer(events, config.ring_capacity) if config.trace_events else NULL_TRACER
        )
        self.sampler = Sampler(events, config.sample_every, config.max_samples)
        self.latency = LatencyRecorder() if config.latency_histograms else NULL_LATENCY

    def reset(self) -> None:
        """Drop everything recorded so far; used at the warmup boundary so
        exported telemetry covers exactly the measured window (matching the
        statistics, which are zeroed at the same instant)."""
        self.tracer.clear()
        self.sampler.clear()
        self.latency.clear()

    def export(self, meta: Optional[dict] = None) -> dict:
        """Everything recorded, as one plain JSON-able dict."""
        tracer = self.tracer
        recording = isinstance(tracer, Tracer)
        return {
            "meta": dict(meta or {}),
            "events": tracer.events_as_dicts() if recording else [],
            "events_dropped": tracer.dropped if recording else 0,
            "ring_capacity": self.config.ring_capacity,
            "samples": {name: list(col) for name, col in self.sampler.columns.items()},
            "samples_truncated": self.sampler.truncated,
            "latency": self.latency.export(),
        }


def write_artifacts(directory: str | Path, export: dict) -> Dict[str, Path]:
    """Persist one session export; returns ``{artifact name: path}``.

    Output is byte-deterministic for a given export (sorted keys, no
    timestamps), so serial and parallel runs of the same point produce
    identical artifact files.  ``trace.jsonl`` and ``trace.json`` are
    streamed together by :func:`~repro.telemetry.tracer.write_event_streams`.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    events = export.get("events", [])
    meta = export.get("meta", {})

    paths = {name: directory / name for name in ARTIFACT_NAMES}
    with paths["trace.jsonl"].open("w") as jsonl, paths["trace.json"].open("w") as chrome:
        write_event_streams(jsonl, chrome, events, meta)
    paths["samples.json"].write_text(
        json.dumps({"columns": export.get("samples", {})}, sort_keys=True) + "\n"
    )
    latency = export.get("latency")
    latency_doc: dict = {"latency": latency}
    if latency is not None and "class_bytes" in meta:
        latency_doc["conservation"] = conservation_check(latency, meta["class_bytes"])
    paths["latency.json"].write_text(
        json.dumps(latency_doc, sort_keys=True, indent=2) + "\n"
    )
    summary = {
        "meta": meta,
        "events_recorded": len(events),
        "events_dropped": export.get("events_dropped", 0),
        "ring_capacity": export.get("ring_capacity"),
        "num_samples": len(export.get("samples", {}).get("cycle", [])),
        "samples_truncated": export.get("samples_truncated", False),
    }
    paths["summary.json"].write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return paths
