"""serve-steady: an open-loop sweep load against ``repro serve``.

The untraced run starts ``repro serve --port 0`` and one worker process
(``serve_worker.py``, the embedded worker of ``repro serve --workers 1``
with a fixed id) on an empty store.  One single-threaded asyncio client, with
at most ``nproc`` connections open, plays a schedule fixed before the run
starts: Poisson ``POST /sweeps`` arrivals, fixed-cadence
``GET /sweeps/<id>`` polls, and a ``GET /metrics`` scrape once a second.
A poll that finds a sweep terminal triggers ``GET /sweeps/<id>/results``,
whose rows are checked against the recorded digests.  Every request is
timed from its due time, so a stall is charged to the requests it delays.

The traced run repeats the schedule twice over half the time each: once
against the subprocess, once against a ``SweepService`` and a ``Worker``
running in this process with the public ``SQLiteJobStore`` methods
wrapped, so store time can be set against ``simulate`` time per point.
"""

from __future__ import annotations

import asyncio
import cProfile
import http.client
import json
import os
import pstats
import re
import resource
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.request
from collections import Counter, defaultdict, deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from perfbench import digests, hostref, layers
from perfbench.common import ROOT, fresh_dir, p50, p90, peak_rss_mb
from perfbench.pools import POLL_RATE, Schedule, Submit, point_key, serve_schedule
from perfbench.serve_worker import WORKER_ID

#: serve instances started per run to time set-up; the last one is measured.
SETUP_SAMPLES = 3
#: how long to wait after the window for the last sweeps to finish.
DRAIN_S = 30.0
#: a request that takes longer counts as failed.
REQUEST_TIMEOUT_S = 30.0
#: at most this many connections (and client threads): one per core.
CONN_LIMIT = os.cpu_count() or 1
TERMINAL = ("done", "failed")


# -- the server under test ----------------------------------------------------


class ServeStack:
    """``repro serve`` on a new store, then one ``serve_worker.py`` process
    once the service (and so the store schema) is up, as ``repro serve
    --workers 1`` orders them.  Each runs in its own process group."""

    def __init__(self, name: str) -> None:
        self.dir = fresh_dir(name)
        self.store = str(self.dir / "store.sqlite")
        self.env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        self.log_path = self.dir / "serve.log"
        self.started = time.perf_counter()
        self.procs = [self._spawn([sys.executable, "-m", "repro", "serve",
                                   "--store", self.store, "--port", "0"])]
        self.url = ""

    def _spawn(self, argv) -> subprocess.Popen:
        with open(self.log_path, "ab") as log:
            return subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=log,
                                    stderr=subprocess.STDOUT, start_new_session=True)

    def wait_ready(self, timeout_s: float = 60.0) -> float:
        """Seconds from spawn until ``/healthz`` answers and the worker registered."""
        deadline = time.perf_counter() + timeout_s
        while time.perf_counter() < deadline:
            if any(proc.poll() is not None for proc in self.procs):
                raise RuntimeError(f"serve stack exited: {self.log_path.read_text()}")
            if not self.url:
                match = re.search(r"listening on (http://\S+)", self.log_path.read_text())
                if match:
                    self.url = match.group(1)
                    worker = Path(__file__).with_name("serve_worker.py")
                    self.procs.append(self._spawn([sys.executable, str(worker), self.store]))
            elif _fleet_size(self.url) >= 1:
                return time.perf_counter() - self.started
            time.sleep(0.005)
        raise RuntimeError("serve stack never became ready")

    @property
    def address(self):
        host, port = self.url.split("//", 1)[1].rsplit(":", 1)
        return host, int(port)

    def stop(self) -> None:
        """SIGTERM the worker, then the service; SIGKILL what is left."""
        for proc in reversed(self.procs):
            if proc.poll() is None:
                proc.terminate()
                try:
                    proc.wait(timeout=5)
                except subprocess.TimeoutExpired:
                    _killpg(proc.pid)
                    proc.wait()
            deadline = time.monotonic() + 10
            while _group_alive(proc.pid) and time.monotonic() < deadline:
                _killpg(proc.pid)
                time.sleep(0.05)


def _killpg(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def _fleet_size(url: str) -> int:
    """Workers registered with the service (0 while it is not answering)."""
    try:
        with urllib.request.urlopen(url + "/healthz", timeout=5) as resp:
            if resp.status != 200:
                return 0
        with urllib.request.urlopen(url + "/metrics", timeout=5) as resp:
            text = resp.read().decode()
    except (OSError, http.client.HTTPException):
        return 0
    match = re.search(r"^repro_fleet_workers\s+([0-9.e+]+)", text, re.M)
    return int(float(match.group(1))) if match else 0


# -- the open-loop client -----------------------------------------------------


@dataclass
class SweepState:
    submit: Submit
    sweep_id: Optional[str] = None
    terminal: bool = False
    fetched: bool = False


@dataclass
class LoadResult:
    attempted: int = 0
    failed: int = 0
    latency_ms: Dict[str, List[float]] = field(default_factory=lambda: defaultdict(list))
    lag_ms: List[float] = field(default_factory=list)
    sweep_latency_s: List[float] = field(default_factory=list)
    points_in_window: int = 0
    events_in_window: int = 0
    outcomes: Counter = field(default_factory=Counter)
    metrics_bytes: List[int] = field(default_factory=list)
    max_open: int = 0
    unfinished: int = 0


class LoadGen:
    """Plays one schedule against one server from a single thread."""

    def __init__(self, address, schedule: Schedule, seconds: float, check, table) -> None:
        self.address = address
        self.schedule = schedule
        self.seconds = seconds
        self.check = check
        self.table = table
        self.out = LoadResult()
        self.sweeps = [SweepState(s) for s in schedule.submits]
        self._open = 0
        self._live: deque = deque()
        self._latest: Optional[SweepState] = None
        self._tasks: List[asyncio.Task] = []

    async def _http(self, method: str, path: str, payload=None):
        loop = asyncio.get_running_loop()
        data = json.dumps(payload).encode() if payload is not None else b""
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {self.address[0]}\r\n"
            f"Connection: close\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n\r\n"
        ).encode()
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setblocking(False)
        try:
            await loop.sock_connect(sock, self.address)
            await loop.sock_sendall(sock, head + data)
            chunks = []
            while True:
                chunk = await loop.sock_recv(sock, 1 << 16)
                if not chunk:
                    break
                chunks.append(chunk)
        finally:
            sock.close()
        header, _, body = b"".join(chunks).partition(b"\r\n\r\n")
        status = header.split(b" ", 2)[1:2]
        return (int(status[0]) if status and status[0].isdigit() else 0), body

    async def request(self, endpoint: str, due: float, method: str, path: str, payload=None):
        """One timed request; returns the body on a 2xx, else None."""
        loop = asyncio.get_running_loop()
        async with self._sem:
            self._open += 1
            self.out.max_open = max(self.out.max_open, self._open)
            if self._open > CONN_LIMIT or threading.current_thread() is not threading.main_thread():
                raise RuntimeError("load generator exceeded its connection/thread budget")
            in_window = due - self.t0 < self.seconds
            if in_window:
                self.out.lag_ms.append((loop.time() - due) * 1e3)
            self.out.attempted += 1
            try:
                status, body = await asyncio.wait_for(
                    self._http(method, path, payload), REQUEST_TIMEOUT_S
                )
            except (OSError, asyncio.TimeoutError):
                status, body = 0, b""
            finally:
                self._open -= 1
        if in_window:
            self.out.latency_ms[endpoint].append((loop.time() - due) * 1e3)
        if not 200 <= status < 300:
            self.out.failed += 1
            return None
        return body

    async def submit(self, state: SweepState) -> None:
        body = await self.request(
            "submit", self.t0 + state.submit.due, "POST", "/sweeps", state.submit.body()
        )
        if body is not None:
            state.sweep_id = json.loads(body)["sweep_id"]
            self._live.append(state)
            self._latest = state
        else:
            state.terminal = state.fetched = True  # nothing to follow

    async def poll(self, due: float) -> None:
        """Poll the longest-waiting live sweep (FIFO rotation); with none
        live, re-poll the latest one so every tick is one request."""
        live = bool(self._live)
        state = self._live.popleft() if live else self._latest
        if state is None:
            return
        body = await self.request("progress", due, "GET", f"/sweeps/{state.sweep_id}")
        if body is not None and not state.terminal and json.loads(body)["status"] in TERMINAL:
            state.terminal = True
            self._spawn(self.results(state, asyncio.get_running_loop().time()))
        elif live:
            self._live.append(state)

    async def results(self, state: SweepState, due: float) -> None:
        body = await self.request("results", due, "GET", f"/sweeps/{state.sweep_id}/results")
        if body is None:
            return
        state.fetched = True
        rows = json.loads(body)["results"]
        submit = state.submit
        done_ts = []
        for row in rows:
            self.out.attempted += 1
            point = (row["workload"], row["spec"]["design"], submit.horizon, submit.warmup)
            if row["status"] != "done" or not self.check.check(point_key(point), row["result"]):
                self.out.failed += 1
                continue
            self.out.outcomes[row["outcome"]] += 1
            done_ts.append(row["done_ts"])
            if self.wall0 <= row["done_ts"] <= self.wall0 + self.seconds:
                self.out.points_in_window += 1
                self.out.events_in_window += self.table[point_key(point)]["events"]
        if len(done_ts) == len(rows):
            self.out.sweep_latency_s.append(max(done_ts) - (self.wall0 + submit.due))

    async def scrape(self, due: float) -> None:
        body = await self.request("metrics", due, "GET", "/metrics")
        if body is not None:
            self.out.metrics_bytes.append(len(body))

    def _spawn(self, coro) -> None:
        self._tasks.append(asyncio.get_running_loop().create_task(coro))

    async def _at(self, due: float) -> None:
        delay = due - asyncio.get_running_loop().time()
        if delay > 0:
            await asyncio.sleep(delay)

    async def main(self) -> LoadResult:
        loop = asyncio.get_running_loop()
        self._sem = asyncio.Semaphore(CONN_LIMIT)
        events = sorted(
            [(s.submit.due, 0, i) for i, s in enumerate(self.sweeps)]
            + [(t, 1, 0) for t in self.schedule.polls]
            + [(t, 2, 0) for t in self.schedule.scrapes]
        )
        self.t0 = loop.time() + 0.05
        self.wall0 = time.time() + (self.t0 - loop.time())
        for offset, kind, index in events:
            due = self.t0 + offset
            await self._at(due)
            if kind == 0:
                self._spawn(self.submit(self.sweeps[index]))
            elif kind == 1:
                self._spawn(self.poll(due))
            else:
                self._spawn(self.scrape(due))
        # drain: keep the poll cadence until every sweep is fetched
        due = self.t0 + self.seconds
        deadline = due + DRAIN_S
        while any(not s.fetched for s in self.sweeps) and loop.time() < deadline:
            await self._at(due)
            self._spawn(self.poll(due))
            due += 1.0 / POLL_RATE
        while self._tasks:
            batch, self._tasks = self._tasks, []
            for task in batch:
                await task
        self.out.unfinished = sum(1 for s in self.sweeps if not s.fetched)
        self.out.failed += 2 * self.out.unfinished
        self.out.attempted += 2 * self.out.unfinished
        return self.out


def drive(address, schedule, seconds, check, table) -> LoadResult:
    return asyncio.run(LoadGen(address, schedule, seconds, check, table).main())


# -- runs -----------------------------------------------------------------------


def end_to_end(load: LoadResult, seconds: float) -> Dict[str, float]:
    return {
        "sweep_s": p50(load.sweep_latency_s),
        "events_per_s": load.events_in_window / seconds,
        "points_per_s": load.points_in_window / seconds,
    }


def describe(load: LoadResult) -> str:
    lat = load.latency_ms
    return (
        f"submit_p50_ms={p50(lat['submit']):.2f} poll_p50_ms={p50(lat['progress']):.2f} "
        f"sweep_latency_p50_ms={1e3 * p50(load.sweep_latency_s):.1f} "
        f"sweep_latency_p90_ms={1e3 * p90(load.sweep_latency_s):.1f} "
        f"lag_p90_ms={p90(load.lag_ms):.2f} sweeps={len(load.sweep_latency_s)} "
        f"unfinished={load.unfinished} max_connections={load.max_open} "
        f"outcomes={dict(load.outcomes)}"
    )


def subprocess_phase(schedule, seconds, check, table, ref, setup_samples: int = 1):
    """Start ``setup_samples`` servers in turn, timing each one's set-up,
    and drive the load against the last.  Returns ``(load, setup times)``,
    the set-up times scaled to the host reference speed."""
    servers: List[ServeStack] = []
    setups: List[float] = []
    try:
        ref_before = ref.measure(hostref.SETUP_REPEATS)
        for n in range(setup_samples):
            server = ServeStack(f"serve{n}")
            servers.append(server)
            setups.append(server.wait_ready())
            if n < setup_samples - 1:
                server.stop()
        ref_after = ref.measure(hostref.SETUP_REPEATS)
        setups = [hostref.scale(s, ref_before, ref_after) for s in setups]
        load = drive(servers[-1].address, schedule, seconds, check, table)
        if threading.active_count() != 1:
            raise RuntimeError("load generator started a thread")
        return load, setups
    finally:
        for server in servers:
            server.stop()


def run(seed: int, seconds: float, trace: bool, ref):
    """Returns ``(attempted, failed, metrics, trace_doc, summary)``."""
    table = digests.load()
    check = digests.DigestCheck(table)
    if not trace:
        schedule = serve_schedule(seed, seconds)
        load, setups = subprocess_phase(schedule, seconds, check, table, ref, SETUP_SAMPLES)
        metrics = end_to_end(load, seconds)
        metrics["setup_s"] = p50(setups)
        # the largest process the run started (serve or its worker); the
        # host reference child is still running, so it is not counted
        metrics["peak_rss_mb"] = peak_rss_mb(resource.RUSAGE_CHILDREN)
        return load.attempted, load.failed, metrics, None, describe(load)

    half = seconds / 2
    schedule = serve_schedule(seed, half)
    plain, _ = subprocess_phase(schedule, half, check, table, ref)
    traced, tracer, shares, extra = in_process_phase(schedule, half, check, table)
    metrics = {f"{layer}.self_share": share for layer, share in shares.items()}
    metrics.update(layers.sim_layer_metrics(
        tracer, layers.result_counters(tracer.results), tracer.group_sizes, tracer.counters
    ))
    durations = tracer.durations
    for op in layers.STORE_OPS:
        calls = durations.get(f"jobs.store.{op}", [])
        metrics[f"jobs.store.{op}.calls"] = len(calls)
        metrics[f"jobs.store.{op}.p50_us"] = p50(calls) * 1e6
    hits = tracer.counters["jobs.store.claim.hits"]
    claims = hits + tracer.counters["jobs.store.claim.empty"]
    points = sum(traced.outcomes.values())
    simulated = sum(durations.get("simulate", []))
    busy = sum(tracer.point_s)
    metrics.update({
        "jobs.store.claim_hit_ratio": hits / claims if claims else 0.0,
        "jobs.store.rows_end": extra["rows_end"],
        "jobs.worker.point_p50_ms": p50(tracer.point_s) * 1e3,
        "jobs.worker.idle_sleeps": tracer.counters["jobs.store.claim.empty"],
        "jobs.worker.busy_share": busy / extra["wall_s"],
        "jobs.worker.store_share": point_store_s(tracer, extra["worker"]) / busy if busy else 0.0,
        "experiments.runner.memory_hit_ratio": traced.outcomes["cached"] / points if points else 0.0,
        "experiments.runner.simulate_share": simulated / busy if busy else 0.0,
        "obsv.spans_per_point": len(durations.get("jobs.store.record_span", [])) / points if points else 0.0,
        "obsv.metrics_bytes": p50(traced.metrics_bytes),
        "loadgen.lag_p90_ms": p90(traced.lag_ms),
        "trace.overhead_ratio": p50(traced.sweep_latency_s) / p50(plain.sweep_latency_s),
    })
    for endpoint in ("submit", "progress", "results", "metrics"):
        lat = traced.latency_ms.get(endpoint, [])
        metrics[f"http.{endpoint}.p50_ms"] = p50(lat)
        metrics[f"http.{endpoint}.p90_ms"] = p90(lat)
        metrics[f"http.{endpoint}.count"] = len(lat)
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    summary = "untraced: " + describe(plain) + "\ntraced: " + describe(traced)
    return attempted, failed, metrics, tracer.dump(), summary


#: the store calls a worker makes while it holds a point (claim to report).
POINT_STORE_OPS = frozenset(
    f"jobs.store.{op}" for op in ("report", "heartbeat", "record_span", "record_worker")
)


def point_store_s(tracer, worker_thread: int) -> float:
    """Seconds the worker thread spent in store calls inside its points."""
    return sum(
        span[2] - span[1]
        for span in tracer.spans
        if span is not None and span[4] == worker_thread and span[0] in POINT_STORE_OPS
    )


def in_process_phase(schedule, seconds, check, table):
    from repro.jobs.service import SweepService
    from repro.jobs.store import SQLiteJobStore
    from repro.jobs.worker import Worker
    from repro.obsv.metrics import MetricsRegistry

    work = fresh_dir("serve-traced")
    store_path = work / "store.sqlite"
    total_points = 2 * len(schedule.submits)
    profiler = cProfile.Profile()
    with layers.Tracer() as tracer:
        service = SweepService(store_path, port=0)
        service.run_in_thread()
        registry = MetricsRegistry()
        worker_store = SQLiteJobStore(store_path, metrics=registry)
        worker = Worker(worker_store, worker_id=WORKER_ID, metrics=registry,
                        max_points=total_points)

        def work_loop():
            profiler.enable()
            try:
                worker.run(until="forever")
            finally:
                profiler.disable()

        thread = threading.Thread(target=work_loop, name="perfbench-worker", daemon=True)
        try:
            start = time.perf_counter()
            thread.start()
            host, port = service.server_address[:2]
            load = drive((host, port), schedule, seconds, check, table)
            thread.join(timeout=DRAIN_S)
            wall_s = time.perf_counter() - start
            finished = not thread.is_alive()
        finally:
            service.shutdown()
            rows_end = sum(service.store.counts().values())
            service.server_close()
    if not finished:
        raise RuntimeError("in-process worker did not finish its points")
    worker_store.close()
    shares = layers.profile_shares(pstats.Stats(profiler))
    return load, tracer, shares, {"rows_end": rows_end, "wall_s": wall_s, "worker": thread.ident}
