"""One sweep-service worker process with a fixed worker id.

    python3 perfbench/serve_worker.py STORE_PATH

Does what ``repro serve --workers 1`` does for its embedded worker (one
``MetricsRegistry`` shared by the store and the ``Worker``, polling
forever), except that the worker id is fixed.  The id seeds the worker's
idle-backoff jitter, a factor between 0.75 and 1.25 on every idle sleep,
and idle sleeps set the sweep latency at serve-steady's load; a random id
would move the latency median by up to a quarter from run to run.
"""

from __future__ import annotations

import signal
import sys
from pathlib import Path

WORKER_ID = "perfbench-worker"


def main(store_path: str) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from repro.jobs.store import SQLiteJobStore
    from repro.jobs.worker import Worker
    from repro.obsv.metrics import MetricsRegistry

    # stop cleanly on SIGTERM: unwind through the finally below
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    registry = MetricsRegistry()
    store = SQLiteJobStore(store_path, metrics=registry)
    try:
        Worker(store, worker_id=WORKER_ID, metrics=registry).run(until="forever")
    finally:
        store.close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
