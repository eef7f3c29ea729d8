"""Shared helpers: order statistics, the host stamp, and the work directory."""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import shutil
import statistics
import subprocess
from pathlib import Path
from typing import Sequence

ROOT = Path(__file__).resolve().parent.parent
#: scratch space and trace output inside the checkout (git-ignored).
WORK = ROOT / ".perfbench"


def p50(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def p90(values: Sequence[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set size in MiB (Linux reports ``ru_maxrss`` in KiB)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def fresh_dir(name: str) -> Path:
    path = WORK / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def clean_work() -> None:
    """Remove the run's scratch directories; keep the trace files."""
    if WORK.is_dir():
        for path in WORK.iterdir():
            if path.is_dir():
                shutil.rmtree(path, ignore_errors=True)


def _loadavg() -> list:
    try:
        return [round(x, 2) for x in os.getloadavg()]
    except OSError:
        return []


def _git_commit() -> str | None:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    """SHA-256 over ``src/repro``: identifies the code when git cannot."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


class HostStamp:
    """Host state around one run: taken before, completed after."""

    def __init__(self) -> None:
        import numpy

        from repro.sim import fastpath

        self.doc = {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "fastpath": fastpath.switch_state(),
            "git_commit": _git_commit(),
            "source_digest": source_digest(),
            "loadavg_before": _loadavg(),
        }

    def finish(self) -> dict:
        self.doc["loadavg_after"] = _loadavg()
        return self.doc
