#!/usr/bin/env python
"""End-to-end smoke test of the sweep service over real HTTP.

Starts ``repro serve`` as a subprocess on an ephemeral port and an idle
``repro worker --poll`` subprocess beside it, submits a two-point sweep
with POST /sweeps, waits on the ``/events`` long-poll until the sweep is
terminal (the worker wakes on the submit's commit; the script prints the
submit-to-last-done latency), stops the worker with SIGTERM and asserts
it exits 0, asserts the rendered dashboard HTML is non-empty, scrapes
``GET /metrics``
(asserting the worker's claim/report counters made it through the store
and the service's own request histograms are present), and validates
the distributed trace: ``GET /sweeps/<id>/spans`` must show one trace
id with at least one ``runner.point`` span per point, and ``repro
spans --chrome`` must emit a loadable trace_event file (written to
``$SMOKE_TRACE_OUT`` when set, for CI artifact upload).  Exercises the
exact process boundaries CI cares about: server and worker are separate
OS processes meeting only at the SQLite store, and the client talks
real TCP.

Exit 0 on success; any failure raises (non-zero exit) with the server's
output echoed for diagnosis.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
REPRO = [sys.executable, "-m", "repro"]

sys.path.insert(0, str(ROOT / "src"))
from repro.obsv.metrics import parse_prometheus  # noqa: E402

#: generous per-phase budget; the sweep itself is two sub-second points.
TIMEOUT_S = 120.0


def wait_for_url(proc: subprocess.Popen) -> str:
    """Parse the bound URL from the server's first stdout line."""
    deadline = time.monotonic() + TIMEOUT_S
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            if proc.poll() is not None:
                raise RuntimeError(f"server exited early: rc={proc.returncode}")
            time.sleep(0.05)
            continue
        print(f"  [serve] {line.rstrip()}")
        if "listening on " in line:
            return line.split("listening on ", 1)[1].split()[0]
    raise RuntimeError("server never printed its listening URL")


def http_json(url: str, payload: dict | None = None) -> dict:
    data = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(
        url, data=data,
        headers={"Content-Type": "application/json"} if data else {},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.loads(response.read())


def fleet_size(base: str) -> float:
    """Workers the service has seen, from its ``/metrics`` exposition."""
    with urllib.request.urlopen(base + "/metrics", timeout=30) as response:
        samples = parse_prometheus(response.read().decode())
    return samples.get(("repro_fleet_workers", ()), 0.0)


def main() -> int:
    tmp = Path(tempfile.mkdtemp(prefix="serve-smoke-"))
    store = tmp / "sweeps.sqlite"
    server = subprocess.Popen(
        [*REPRO, "serve", "--store", str(store), "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=ENV, cwd=ROOT,
    )
    worker = None
    try:
        base = wait_for_url(server)

        health = http_json(base + "/healthz")
        assert health["status"] == "ok", health
        print(f"healthz ok (version {health['version']})")

        # an idle worker, polling before anything is queued
        worker = subprocess.Popen(
            [*REPRO, "worker", "--store", str(store), "--poll"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=ENV, cwd=ROOT,
        )
        deadline = time.monotonic() + TIMEOUT_S
        while fleet_size(base) < 1:  # registered, so its loop is running
            if worker.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"worker never joined: rc={worker.poll()}")
            time.sleep(0.05)
        print("worker idle")
        submit_ts = time.time()
        submitted = http_json(
            base + "/sweeps",
            {
                "design": "baseline",
                "workloads": ["nw", "bfs"],  # the 2-point sweep
                "partitions": 2,
                "horizon": 1200,
                "warmup": 800,
                "label": "ci-smoke",
            },
        )
        sweep_id = submitted["sweep_id"]
        assert submitted["total"] == 2, submitted
        print(f"submitted sweep {sweep_id} ({submitted['total']} points)")

        since = 0.0
        deadline = time.monotonic() + TIMEOUT_S
        while True:
            doc = http_json(
                base + f"/sweeps/{sweep_id}/events?since={since!r}&timeout=10"
            )
            since = max([since] + [event["done_ts"] for event in doc["events"]])
            progress = doc["progress"]
            print(
                f"progress: {progress['counts']['done']}/{progress['total']} "
                f"done ({progress['status']})"
            )
            if progress["status"] in ("done", "failed"):
                break
            if time.monotonic() > deadline:
                raise RuntimeError(f"sweep never finished: {progress}")
        assert progress["status"] == "done", progress["failures"]
        print(f"submit -> last done: {1e3 * (since - submit_ts):.0f} ms")

        worker.send_signal(signal.SIGTERM)
        output, _ = worker.communicate(timeout=TIMEOUT_S)
        print(f"  [worker] {output.strip()}")
        assert worker.returncode == 0, f"worker exited {worker.returncode} on SIGTERM"
        print("worker SIGTERM ok (exit 0)")

        results = http_json(base + f"/sweeps/{sweep_id}/results")["results"]
        assert len(results) == 2, results
        assert all(row["result"]["ipc"] > 0 for row in results)

        with urllib.request.urlopen(
            base + f"/sweeps/{sweep_id}/dashboard", timeout=30
        ) as response:
            html_text = response.read().decode()
        assert html_text.strip(), "dashboard HTML is empty"
        assert "<html" in html_text, html_text[:200]
        assert sweep_id in html_text
        assert 'id="fleet"' in html_text, "dashboard lacks the fleet section"
        print(f"dashboard ok ({len(html_text)} bytes)")

        with urllib.request.urlopen(base + "/metrics", timeout=30) as response:
            content_type = response.headers.get("Content-Type", "")
            metrics_text = response.read().decode()
        assert content_type.startswith("text/plain"), content_type
        samples = parse_prometheus(metrics_text)
        claims = sum(
            value
            for (name, labels), value in samples.items()
            if name == "repro_store_claims_total" and dict(labels).get("worker")
        )
        reports = sum(
            value
            for (name, labels), value in samples.items()
            if name == "repro_store_reports_total" and dict(labels).get("worker")
        )
        assert claims >= 2, f"expected >=2 worker claims, got {claims}"
        assert reports >= 2, f"expected >=2 worker reports, got {reports}"
        assert any(
            name == "repro_http_request_duration_us_count"
            for (name, _labels) in samples
        ), "request duration histogram missing"
        assert any(
            name == "repro_worker_points_total" for (name, _labels) in samples
        ), "worker point counters missing"
        print(
            f"metrics ok ({len(metrics_text.splitlines())} lines, "
            f"{claims:.0f} claims / {reports:.0f} reports seen)"
        )

        top = subprocess.run(
            [*REPRO, "top", "--store", str(store), "--once"],
            capture_output=True, text=True, env=ENV, cwd=ROOT,
            timeout=TIMEOUT_S,
        )
        assert top.returncode == 0, top.stderr
        assert sweep_id in top.stdout, top.stdout
        print("repro top ok")

        spans_doc = http_json(base + f"/sweeps/{sweep_id}/spans")
        spans = spans_doc["spans"]
        trace_ids = {s["trace_id"] for s in spans}
        assert trace_ids == {submitted["trace_id"]}, trace_ids
        points = [s for s in spans if s["name"] == "runner.point"]
        assert len(points) >= submitted["total"], (
            f"expected >= {submitted['total']} runner.point spans, "
            f"got {len(points)}"
        )
        assert any(s["name"] == "http.submit" for s in spans), spans
        assert any(s["name"] == "worker.execute" for s in spans), spans
        print(f"spans ok ({len(spans)} spans, one trace)")

        chrome_out = os.environ.get(
            "SMOKE_TRACE_OUT", str(tmp / "sweep-trace.json")
        )
        spans_cli = subprocess.run(
            [*REPRO, "spans", sweep_id, "--store", str(store),
             "--chrome", chrome_out],
            capture_output=True, text=True, env=ENV, cwd=ROOT,
            timeout=TIMEOUT_S,
        )
        assert spans_cli.returncode == 0, spans_cli.stderr
        assert "runner.simulate" in spans_cli.stdout, spans_cli.stdout
        chrome = json.loads(Path(chrome_out).read_text())
        x_events = [e for e in chrome["traceEvents"] if e["ph"] == "X"]
        assert len(x_events) >= submitted["total"], chrome["otherData"]
        assert chrome["otherData"]["sweep_id"] == sweep_id
        print(
            f"repro spans ok ({len(x_events)} timeline events -> {chrome_out})"
        )

        print("serve smoke: PASS")
        return 0
    finally:
        if worker is not None and worker.poll() is None:
            worker.kill()
            worker.wait()
        server.terminate()
        try:
            server.wait(timeout=10)
        except subprocess.TimeoutExpired:
            server.kill()


if __name__ == "__main__":
    sys.exit(main())
