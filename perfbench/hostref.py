"""Host-speed reference: a fixed pure-Python kernel timed in a child process.

The shared 2-core hosts this benchmark runs on change speed by up to 1.9x
over minutes as other tenants come and go, and every part of a simulator
pass (simulation, telemetry export, artifact writes) slows together, so
raw wall times of the same code spread far past the benchmark's bounds
between runs.  Timing this kernel right before and right after each timed
interval measures the host's speed at that moment; ``scale`` turns the
interval into seconds at the speed where the kernel takes
``REF_NOMINAL_S``.

The kernel is independent of the program (it never imports ``repro``), so
a change to the program moves the scaled times in the same proportion as
the raw ones.  It chases pointers through a dictionary of 400,000 small
objects and allocates as it goes, like the simulator's own hot loops: a
cache-resident kernel followed the host's speed too loosely to be of use.
It runs in its own process so that its 120 MB table does not count in the
benchmark process's peak memory; that process only computes while the
benchmark waits for its answer.

    python3 perfbench/hostref.py    # the child: one timing per input line
"""

from __future__ import annotations

import gc
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: the kernel's typical time on the host the benchmark was defined on.
REF_NOMINAL_S = 0.09

#: timings on each side of a set-up series, whose single scaled value
#: has no median over passes to absorb one timing's noise (up to a fifth).
SETUP_REPEATS = 3

TABLE_SIZE = 400_000
STEPS = 120_000


class _Node:
    __slots__ = ("key", "name", "link")

    def __init__(self, key, name):
        self.key = key
        self.name = name
        self.link = None


def _kernel(table, keys) -> None:
    acc = 0
    for key in keys:
        node = table[key]
        acc += node.key
        node.link = _Node(acc, None)


def _child() -> None:
    # the kernel makes no cycles: with the collector off it does the same
    # work every time
    gc.disable()
    table = {i: _Node(i, str(i)) for i in range(TABLE_SIZE)}
    keys = list(range(TABLE_SIZE))
    random.Random(1).shuffle(keys)
    keys = keys[:STEPS]
    _kernel(table, keys)  # first touch of the links' memory
    print("ready", flush=True)
    for _ in sys.stdin:
        start = time.perf_counter()
        _kernel(table, keys)
        print(time.perf_counter() - start, flush=True)


class HostRef:
    """The reference child for one run; ``samples`` keeps every timing."""

    def __enter__(self) -> "HostRef":
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        if self.proc.stdout.readline().strip() != "ready":
            self.__exit__()
            raise RuntimeError("host reference did not start")
        self.samples: list = []
        return self

    def measure(self, repeats: int = 1) -> float:
        """The median of *repeats* kernel timings, taken now."""
        times = []
        for _ in range(repeats):
            self.proc.stdin.write("go\n")
            self.proc.stdin.flush()
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError("host reference exited")
            times.append(float(line))
        self.samples.extend(times)
        return statistics.median(times)

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def scale(seconds: float, ref_before: float, ref_after: float) -> float:
    """*seconds* of wall time at the speed where the kernel takes REF_NOMINAL_S."""
    return seconds * REF_NOMINAL_S * 2.0 / (ref_before + ref_after)


if __name__ == "__main__":
    _child()
