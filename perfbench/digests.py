"""Recorded result digests for every pool point, and the check against them.

A digest is the SHA-256 of the canonical ``result_to_dict`` JSON (sorted
keys; telemetry is never part of it), so a result read back from the job
store's JSON and one held in memory digest alike.  ``events`` is the
point's logical event count with telemetry off, which serve-steady uses to
turn completed points into simulated events per second.

Regenerate after a change that is meant to move simulated results::

    python3 perfbench/digests.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, Iterable

HERE = Path(__file__).resolve().parent
DIGESTS_PATH = HERE / "digests.json"


def digest(result_dict: dict) -> str:
    blob = json.dumps(result_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def load() -> Dict[str, dict]:
    return json.loads(DIGESTS_PATH.read_text())["points"]


class DigestCheck:
    """Checks results against the recorded table, keeping the mismatches."""

    def __init__(self, table: Dict[str, dict]) -> None:
        self.table = table
        self.mismatches: list = []

    def check(self, key: str, result_dict: dict) -> bool:
        expected = self.table.get(key)
        ok = expected is not None and expected["digest"] == digest(result_dict)
        if not ok:
            self.mismatches.append(key)
        return ok


def record(points: Iterable) -> Dict[str, dict]:
    from repro.experiments.designs import build_named_gpu
    from repro.experiments.runner import result_to_dict
    from repro.sim.gpu import simulate
    from repro.workloads.suite import get_benchmark

    from perfbench.pools import PARTITIONS, point_key

    table = {}
    for point in sorted(set(points), key=point_key):
        bench, design, horizon, warmup = point
        result = simulate(
            build_named_gpu(design, num_partitions=PARTITIONS),
            get_benchmark(bench),
            horizon=horizon,
            warmup=warmup,
        )
        table[point_key(point)] = {
            "digest": digest(result_to_dict(result)),
            "events": result.events_processed,
        }
    DIGESTS_PATH.write_text(
        json.dumps({"format": 1, "points": table}, indent=1, sort_keys=True) + "\n"
    )
    return table


def main() -> int:
    root = HERE.parent
    sys.path[:0] = [str(root / "src"), str(root)]
    from perfbench.pools import SIM_WORKLOADS, serve_pool

    points = [p for w in SIM_WORKLOADS.values() for p in w.pool()] + serve_pool()
    table = record(points)
    print(f"recorded {len(table)} digests to {DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
