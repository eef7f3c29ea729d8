"""The benchmark's workloads: fixed input pools and the seeded draws from them.

Every workload owns a fixed pool of simulation points.  The seed only
chooses from that pool (the order points run in, or which points an
arriving sweep asks for, and when it arrives); the program receives only
the generated inputs.  ``digests.json`` records the canonical result of
every pool point, so any seed can be checked.

A point is ``(benchmark, design, horizon, warmup)`` at ``PARTITIONS``
memory partitions; ``point_key`` names it in the digest table.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import List, Tuple

#: memory partitions of every point (the scaled GPU; the paper has 32).
PARTITIONS = 2

#: simulated window of every sim-* point, in core cycles.
SIM_HORIZON = 4_000.0
SIM_WARMUP = 2_000.0

Point = Tuple[str, str, float, float]


@dataclass(frozen=True)
class SimWorkload:
    """A serial ``Runner`` sweep over benchmarks x designs."""

    name: str
    why: str
    benchmarks: Tuple[str, ...]
    designs: Tuple[str, ...]
    telemetry: bool = False

    def pool(self) -> List[Point]:
        return [
            (bench, design, SIM_HORIZON, SIM_WARMUP)
            for design in self.designs
            for bench in self.benchmarks
        ]

    def pass_order(self, rng: random.Random) -> List[Point]:
        """One pass: every pool point once, in a seeded order."""
        points = self.pool()
        rng.shuffle(points)
        return points


SIM_WORKLOADS = {
    w.name: w
    for w in (
        SimWorkload(
            name="sim-stream",
            why="streaming, bandwidth-bound benchmarks on designs without "
            "metadata: the delivery lane, event queue and SM issue do the work",
            benchmarks=("fdtd2d", "srad_v2", "streamcluster", "2Dconvolution",
                        "backprop", "lbm"),
            designs=("baseline", "direct_40"),
        ),
        SimWorkload(
            name="sim-telemetry",
            why="mixed-pattern benchmarks on metadata-heavy designs, telemetry on "
            "and artifacts persisted: metadata misses, tree walks and telemetry do the work",
            benchmarks=("bfs", "kmeans", "b+tree", "cfd", "lbm", "fdtd2d"),
            designs=("secureMem_mshr64", "unified"),
            telemetry=True,
        ),
    )
}


# -- serve-steady ---------------------------------------------------------

SERVE_NAME = "serve-steady"
SERVE_WHY = (
    "open-loop 2-point sweeps through repro serve and one worker: the store, "
    "HTTP, worker loop and runner memo do the work, the simulation little"
)
SERVE_BENCHMARKS = ("nw", "heartwall", "lavaMD", "bfs", "kmeans")
SERVE_DESIGNS = ("baseline", "secureMem_mshr64", "direct_40", "unified")
SERVE_HORIZONS = (600.0, 1_000.0, 1_400.0)
SERVE_WARMUP = 400.0
#: offered load: Poisson sweep arrivals per second (2 points each).
SWEEP_RATE = 30.0
#: fixed-cadence ``GET /sweeps/<id>`` polls per second; above the sweep
#: rate, so every sweep's completion is seen soon after it lands.
POLL_RATE = 40.0
#: ``GET /metrics`` scrapes per second.
SCRAPE_RATE = 1.0


def serve_pool() -> List[Point]:
    return [
        (bench, design, horizon, SERVE_WARMUP)
        for design in SERVE_DESIGNS
        for horizon in SERVE_HORIZONS
        for bench in SERVE_BENCHMARKS
    ]


@dataclass(frozen=True)
class Submit:
    due: float
    design: str
    benchmarks: Tuple[str, str]
    horizon: float
    warmup: float = SERVE_WARMUP

    def body(self) -> dict:
        return {
            "designs": [self.design],
            "workloads": list(self.benchmarks),
            "partitions": PARTITIONS,
            "horizon": self.horizon,
            "warmup": self.warmup,
            "max_attempts": 1,
        }

    def points(self) -> List[Point]:
        return [(b, self.design, self.horizon, self.warmup) for b in self.benchmarks]


@dataclass(frozen=True)
class Schedule:
    """The whole open-loop schedule, fixed before the run starts."""

    submits: Tuple[Submit, ...]
    polls: Tuple[float, ...]
    scrapes: Tuple[float, ...]


def sweep_kinds() -> List[Tuple[str, float, Tuple[str, str]]]:
    """Every ``(design, horizon, benchmark pair)`` a sweep can ask for."""
    pairs = list(itertools.combinations(SERVE_BENCHMARKS, 2))
    return [(d, h, pair) for d in SERVE_DESIGNS for h in SERVE_HORIZONS for pair in pairs]


def serve_schedule(seed: int, seconds: float) -> Schedule:
    """Seeded arrivals over ``[0, seconds)``.

    The sweep count is fixed at ``SWEEP_RATE * seconds`` and the arrival
    times are that many sorted uniform draws: a Poisson process conditioned
    on its count.  Sweeps walk seeded shuffles of ``sweep_kinds()``, so
    every seed asks for the same mix of points.
    """
    rng = random.Random(seed)
    count = max(1, round(SWEEP_RATE * seconds))
    times = sorted(rng.uniform(0.0, seconds) for _ in range(count))
    kinds: list = []
    while len(kinds) < count:
        cycle = sweep_kinds()
        rng.shuffle(cycle)
        kinds.extend(cycle)
    submits = tuple(
        Submit(due=t, design=design, benchmarks=pair, horizon=horizon)
        for t, (design, horizon, pair) in zip(times, kinds)
    )
    polls = tuple(k / POLL_RATE for k in range(int(seconds * POLL_RATE)))
    scrapes = tuple((k + 0.5) / SCRAPE_RATE for k in range(int(seconds * SCRAPE_RATE)))
    return Schedule(submits, polls, scrapes)


def point_key(point: Point) -> str:
    bench, design, horizon, warmup = point
    return f"{bench}|{design}|p{PARTITIONS}|h{horizon:g}|w{warmup:g}"


WORKLOAD_NAMES = (*SIM_WORKLOADS, SERVE_NAME)
