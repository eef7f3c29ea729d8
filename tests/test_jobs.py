"""Sweep service: job store, worker protocol, HTTP front end.

The acceptance bar for the subsystem: any number of workers draining one
store must produce a merged sweep bit-identical to the serial
:class:`~repro.experiments.runner.Runner` on the same points — including
after a worker dies mid-point and another worker re-claims the lease.
"""

import json
import os
import signal
import socket
import sqlite3
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

import repro
from repro.experiments.designs import build_named_gpu
from repro.experiments.runner import Runner, config_key, result_to_dict
from repro.jobs.store import (
    JOB_SCHEMA,
    DEFAULT_MAX_ATTEMPTS,
    WAKE_CHECK_S,
    SQLiteJobStore,
    iter_points,
    wait_for_commit,
)
from repro.jobs.worker import Worker, build_config, default_worker_id
from repro.jobs.service import (
    EVENTS_POLL_S,
    HANDLER_TIMEOUT_S,
    MAX_BODY_BYTES,
    SweepService,
    _Handler,
    sweep_heartbeat_lines,
    sweep_ledger_records,
    validate_submission,
)
from repro.obsv.ledger import canonical_points, read_ledger
from repro.obsv.metrics import (
    MetricsRegistry,
    NULL_METRICS,
    escape_label_value,
    parse_prometheus,
    render_prometheus,
    snapshot_value,
)
from repro.obsv.top import fleet_from_store, render_top

HORIZON, WARMUP = 1200.0, 800.0
BENCHES = ["nw", "bfs"]
SPECS = [{"design": "baseline", "partitions": 2},
         {"design": "direct_40", "partitions": 2}]


def submit(store, points=None, **kwargs):
    kwargs.setdefault("horizon", HORIZON)
    kwargs.setdefault("warmup", WARMUP)
    return store.submit_sweep(points or iter_points(BENCHES, SPECS), **kwargs)


def serial_results():
    """What the pre-subsystem serial path computes for the same points."""
    runner = Runner(horizon=HORIZON, warmup=WARMUP, benchmarks=BENCHES)
    out = {}
    for workload, spec in iter_points(BENCHES, SPECS):
        config = build_config(spec)
        out[(workload, json.dumps(spec, sort_keys=True))] = result_to_dict(
            runner.run(workload, config)
        )
    return out


# ---------------------------------------------------------------------------
# store mechanics
# ---------------------------------------------------------------------------


class TestStore:
    def test_submit_creates_pending_rows(self, tmp_path):
        with SQLiteJobStore(tmp_path / "q.sqlite") as store:
            sweep_id = submit(store)
            assert len(sweep_id) == 12
            counts = store.counts(sweep_id)
            assert counts["pending"] == len(BENCHES) * len(SPECS)
            assert counts["running"] == counts["done"] == counts["failed"] == 0

    def test_empty_sweep_rejected(self, tmp_path):
        with SQLiteJobStore(tmp_path / "q.sqlite") as store:
            with pytest.raises(ValueError):
                store.submit_sweep([], horizon=HORIZON, warmup=WARMUP)

    def test_claim_report_done_roundtrip(self, tmp_path):
        with SQLiteJobStore(tmp_path / "q.sqlite") as store:
            sweep_id = submit(store)
            job = store.claim("w1", lease_s=30)
            assert job is not None
            assert job.sweep_id == sweep_id
            assert job.workload == BENCHES[0]  # oldest first (seq order)
            assert job.spec == SPECS[0]
            assert job.horizon == HORIZON and job.warmup == WARMUP
            assert job.attempts == 1
            assert store.report(job.id, "w1", "simulated",
                                result={"ipc": 1.0}, config_digest="abc")
            counts = store.counts(sweep_id)
            assert counts["done"] == 1 and counts["running"] == 0
            row = store.results(sweep_id)[0]
            assert row["status"] == "done"
            assert row["outcome"] == "simulated"
            assert row["result"] == {"ipc": 1.0}
            assert row["config_digest"] == "abc"
            assert row["worker"] == "w1"

    def test_claim_exhausts_then_none(self, tmp_path):
        with SQLiteJobStore(tmp_path / "q.sqlite") as store:
            submit(store, points=[("nw", SPECS[0])])
            assert store.claim("w1", 30) is not None
            assert store.claim("w1", 30) is None  # only row is running

    def test_report_without_claim_is_refused(self, tmp_path):
        """A worker that lost its lease cannot clobber the re-run."""
        with SQLiteJobStore(tmp_path / "q.sqlite") as store:
            submit(store, points=[("nw", SPECS[0])])
            job = store.claim("w1", 30)
            assert not store.report(job.id, "imposter", "simulated", result={})
            assert store.report(job.id, "w1", "simulated", result={})
            # the job is terminal now; even the owner cannot re-report.
            assert not store.report(job.id, "w1", "simulated", result={})

    def test_failed_attempt_requeues_with_backoff(self, tmp_path):
        with SQLiteJobStore(tmp_path / "q.sqlite") as store:
            sweep_id = submit(store, points=[("nw", SPECS[0])])
            job = store.claim("w1", 30)
            assert store.report(job.id, "w1", "failed", error="boom",
                                retry_in_s=3600)
            counts = store.counts(sweep_id)
            assert counts["pending"] == 1 and counts["failed"] == 0
            # the not_before stamp keeps the row out of reach for now.
            assert store.claim("w2", 30) is None

    def test_poison_failed_at_attempt_budget(self, tmp_path):
        with SQLiteJobStore(tmp_path / "q.sqlite") as store:
            sweep_id = submit(store, points=[("nw", SPECS[0])],
                              max_attempts=2)
            for attempt in (1, 2):
                job = store.claim("w1", 30)
                assert job is not None and job.attempts == attempt
                store.report(job.id, "w1", "failed", error="boom",
                             retry_in_s=0.0)
            counts = store.counts(sweep_id)
            assert counts["failed"] == 1 and counts["pending"] == 0
            assert store.claim("w1", 30) is None
            progress = store.progress(sweep_id)
            assert progress["status"] == "failed"
            assert progress["failures"][0]["error"] == "boom"

    def test_lease_expiry_requeues(self, tmp_path):
        with SQLiteJobStore(tmp_path / "q.sqlite") as store:
            submit(store, points=[("nw", SPECS[0])])
            job = store.claim("crasher", lease_s=0.01)
            time.sleep(0.05)
            requeued, poisoned = store.requeue_expired()
            assert (requeued, poisoned) == (1, 0)
            job2 = store.claim("rescuer", 30)
            assert job2 is not None and job2.id == job.id
            assert job2.attempts == 2
            # the dead worker's late report must be refused.
            assert not store.report(job.id, "crasher", "simulated", result={})

    def test_lease_expiry_poisons_at_budget(self, tmp_path):
        with SQLiteJobStore(tmp_path / "q.sqlite") as store:
            sweep_id = submit(store, points=[("nw", SPECS[0])], max_attempts=1)
            store.claim("crasher", lease_s=0.01)
            time.sleep(0.05)
            assert store.requeue_expired() == (0, 1)
            assert store.counts(sweep_id)["failed"] == 1

    def test_heartbeat_extends_lease(self, tmp_path):
        with SQLiteJobStore(tmp_path / "q.sqlite") as store:
            submit(store, points=[("nw", SPECS[0])])
            job = store.claim("w1", lease_s=0.05)
            assert store.heartbeat(job.id, "w1", lease_s=60)
            time.sleep(0.1)  # original lease would have lapsed
            assert store.requeue_expired() == (0, 0)
            assert not store.heartbeat(job.id, "other", lease_s=60)

    def test_atomic_claim_under_concurrency(self, tmp_path):
        """N threads over one store: every job claimed exactly once."""
        path = tmp_path / "q.sqlite"
        with SQLiteJobStore(path) as store:
            submit(store, points=[("nw", dict(SPECS[0], seq=i))
                                  for i in range(24)])
        claimed, errors = [], []

        def grab():
            own = SQLiteJobStore(path)
            try:
                while True:
                    job = own.claim(threading.current_thread().name, 60)
                    if job is None:
                        return
                    claimed.append(job.id)
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)
            finally:
                own.close()

        threads = [threading.Thread(target=grab, name=f"t{i}") for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(claimed) == 24
        assert len(set(claimed)) == 24  # no double-claims

    def test_progress_and_sweeps(self, tmp_path):
        with SQLiteJobStore(tmp_path / "q.sqlite") as store:
            a = submit(store, points=[("nw", SPECS[0])])
            b = submit(store, points=[("bfs", SPECS[0])], label="second")
            progress = store.progress(a)
            assert progress["total"] == 1 and progress["status"] == "running"
            # sweep ids are random, and cross-sweep claim order follows
            # them — claim until sweep a's job comes up.
            job = store.claim("w1", 30)
            if job.sweep_id != a:
                job = store.claim("w1", 30)
            assert job.sweep_id == a
            store.report(job.id, "w1", "simulated", result={})
            assert store.progress(a)["status"] == "done"
            listed = store.sweeps()
            assert [s["sweep_id"] for s in listed] == [a, b]
            assert listed[1]["label"] == "second"
            with pytest.raises(KeyError):
                store.progress("0" * 12)
            with pytest.raises(KeyError):
                store.results("0" * 12)

    def test_newer_schema_refused(self, tmp_path):
        path = tmp_path / "q.sqlite"
        SQLiteJobStore(path).close()
        conn = sqlite3.connect(str(path))
        conn.execute(f"PRAGMA user_version={JOB_SCHEMA + 1}")
        conn.close()
        with pytest.raises(RuntimeError, match="schema"):
            SQLiteJobStore(path)

    def test_iter_points_cross_product(self):
        points = iter_points(["a", "b"], [{"x": 1}, {"x": 2}])
        assert points == [("a", {"x": 1}), ("b", {"x": 1}),
                          ("a", {"x": 2}), ("b", {"x": 2})]

    def test_default_attempt_budget(self, tmp_path):
        with SQLiteJobStore(tmp_path / "q.sqlite") as store:
            submit(store, points=[("nw", SPECS[0])])
            job = store.claim("w1", 30)
            assert job.max_attempts == DEFAULT_MAX_ATTEMPTS


# ---------------------------------------------------------------------------
# the worker against the store
# ---------------------------------------------------------------------------


class TestWorker:
    def test_build_config_roundtrip(self):
        config = build_config({"design": "direct_40", "partitions": 2})
        assert config_key(config) == config_key(build_named_gpu("direct_40", 2))
        with pytest.raises(ValueError):
            build_config({"partitions": 2})
        with pytest.raises(KeyError):
            build_config({"design": "nope"})

    def test_worker_ids_are_unique(self):
        assert default_worker_id() != default_worker_id()

    def test_single_worker_drains_bit_identical(self, tmp_path):
        path = tmp_path / "q.sqlite"
        with SQLiteJobStore(path) as store:
            sweep_id = submit(store)
        store = SQLiteJobStore(path)
        worker = Worker(store, worker_id="w1", poll_s=0.01)
        assert worker.run() == len(BENCHES) * len(SPECS)
        assert worker.executed["simulated"] == len(BENCHES) * len(SPECS)
        expected = serial_results()
        for row in store.results(sweep_id):
            assert row["status"] == "done"
            key = (row["workload"], json.dumps(row["spec"], sort_keys=True))
            assert row["result"] == expected[key]
            assert row["config_digest"] == config_key(build_config(row["spec"]))
        store.close()

    def test_two_workers_merge_bit_identical_to_serial(self, tmp_path):
        """Two concurrent workers, separate connections, one store."""
        path = tmp_path / "q.sqlite"
        ledger_dir = tmp_path / "ledgers"
        with SQLiteJobStore(path) as store:
            sweep_id = submit(store)

        def drain(worker_id):
            own = SQLiteJobStore(path)
            try:
                Worker(own, worker_id=worker_id, poll_s=0.01,
                       ledger_dir=ledger_dir).run()
            finally:
                own.close()

        threads = [threading.Thread(target=drain, args=(f"w{i}",))
                   for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        store = SQLiteJobStore(path)
        rows = store.results(sweep_id)
        assert all(row["status"] == "done" for row in rows)
        expected = serial_results()
        for row in rows:
            key = (row["workload"], json.dumps(row["spec"], sort_keys=True))
            assert row["result"] == expected[key]
        # merged per-worker ledgers are record-equivalent to a serial run.
        merged = []
        for ledger in sorted(ledger_dir.glob("worker-*.jsonl")):
            merged.extend(read_ledger(ledger))
        serial_ledger = tmp_path / "serial.jsonl"
        runner = Runner(horizon=HORIZON, warmup=WARMUP, benchmarks=BENCHES,
                        ledger_path=serial_ledger)
        for workload, spec in iter_points(BENCHES, SPECS):
            runner.run(workload, build_config(spec))
        assert canonical_points(merged) == canonical_points(
            read_ledger(serial_ledger)
        )
        store.close()

    def test_crash_resume_bit_identical(self, tmp_path):
        """A worker dies mid-point; the lease lapses; a rescuer re-claims;
        the merged sweep is still bit-identical to serial."""
        path = tmp_path / "q.sqlite"
        with SQLiteJobStore(path) as store:
            sweep_id = submit(store)
            # the "crash": claim a point with a tiny lease and never
            # report — exactly what a killed process leaves behind.
            dead = store.claim("crashed-worker", lease_s=0.01)
            assert dead is not None
            time.sleep(0.05)
        store = SQLiteJobStore(path)
        worker = Worker(store, worker_id="rescuer", poll_s=0.01)
        worker.run()  # requeues the expired lease, then drains everything
        rows = store.results(sweep_id)
        assert all(row["status"] == "done" for row in rows)
        crashed_row = [r for r in rows if r["seq"] == dead.seq][0]
        assert crashed_row["worker"] == "rescuer"
        assert crashed_row["attempts"] == 2  # the crash burned one attempt
        expected = serial_results()
        for row in rows:
            key = (row["workload"], json.dumps(row["spec"], sort_keys=True))
            assert row["result"] == expected[key]
        # the dead worker's late report is refused post-completion too.
        assert not store.report(dead.id, "crashed-worker", "simulated",
                                result={"ipc": 0.0})
        store.close()

    def test_failing_spec_poisons_not_wedges(self, tmp_path):
        """One bad config burns its attempts and fails; the rest complete."""
        path = tmp_path / "q.sqlite"
        with SQLiteJobStore(path) as store:
            sweep_id = store.submit_sweep(
                [("nw", SPECS[0]), ("nw", {"design": "no_such_design",
                                           "partitions": 2})],
                horizon=HORIZON, warmup=WARMUP, max_attempts=2,
            )
        store = SQLiteJobStore(path)
        worker = Worker(store, worker_id="w1", poll_s=0.01,
                        backoff_base_s=0.0, backoff_cap_s=0.0)
        worker.run()
        counts = store.counts(sweep_id)
        assert counts["done"] == 1 and counts["failed"] == 1
        assert worker.executed["failed"] == 2  # two attempts, then poison
        progress = store.progress(sweep_id)
        assert progress["status"] == "failed"
        assert "no_such_design" in progress["failures"][0]["error"]
        store.close()

    def test_max_points_caps_claims(self, tmp_path):
        path = tmp_path / "q.sqlite"
        with SQLiteJobStore(path) as store:
            submit(store)
        store = SQLiteJobStore(path)
        assert Worker(store, worker_id="w1", max_points=1).run() == 1
        assert store.counts()["done"] == 1
        store.close()

    def test_until_validated(self, tmp_path):
        with SQLiteJobStore(tmp_path / "q.sqlite") as store:
            with pytest.raises(ValueError):
                Worker(store).run(until="sometimes")


# ---------------------------------------------------------------------------
# the HTTP front end
# ---------------------------------------------------------------------------


def http_json(url, payload=None):
    data = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(
        url, data=data,
        headers={"Content-Type": "application/json"} if data else {},
    )
    with urllib.request.urlopen(request) as response:
        return response.status, json.loads(response.read())


@pytest.fixture()
def service(tmp_path):
    svc = SweepService(tmp_path / "q.sqlite", port=0)
    svc.run_in_thread()
    try:
        yield svc
    finally:
        svc.shutdown()
        svc.server_close()


class TestService:
    def test_healthz(self, service):
        status, doc = http_json(service.url + "/healthz")
        assert status == 200
        assert doc["status"] == "ok"
        assert doc["counts"]["pending"] == 0
        import repro

        assert doc["version"] == repro.__version__

    def test_submit_drain_results_dashboard(self, service, tmp_path):
        status, doc = http_json(
            service.url + "/sweeps",
            {"design": "baseline", "workloads": BENCHES, "partitions": 2,
             "horizon": HORIZON, "warmup": WARMUP, "label": "smoke"},
        )
        assert status == 201
        sweep_id = doc["sweep_id"]
        assert doc["total"] == len(BENCHES)

        # an external worker over its own connection drains the queue.
        store = SQLiteJobStore(tmp_path / "q.sqlite")
        Worker(store, worker_id="w1", poll_s=0.01).run()
        store.close()

        status, progress = http_json(service.url + f"/sweeps/{sweep_id}")
        assert status == 200
        assert progress["status"] == "done"
        assert progress["counts"]["done"] == len(BENCHES)
        assert progress["workers"] == ["w1"]

        status, listing = http_json(service.url + "/sweeps")
        assert [s["sweep_id"] for s in listing["sweeps"]] == [sweep_id]

        status, results = http_json(service.url + f"/sweeps/{sweep_id}/results")
        assert status == 200
        expected = serial_results()
        for row in results["results"]:
            key = (row["workload"], json.dumps(row["spec"], sort_keys=True))
            assert row["result"] == expected[key]

        with urllib.request.urlopen(
            service.url + f"/sweeps/{sweep_id}/dashboard"
        ) as response:
            assert response.status == 200
            assert response.headers["Content-Type"].startswith("text/html")
            html_text = response.read().decode()
        assert "<html" in html_text
        assert sweep_id in html_text

    def test_unknown_sweep_404(self, service):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            http_json(service.url + "/sweeps/" + "0" * 12)
        assert excinfo.value.code == 404

    def test_unknown_endpoint_404(self, service):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            http_json(service.url + "/nope")
        assert excinfo.value.code == 404

    def test_bad_submission_400(self, service):
        for payload in (
            {"design": "no_such_design"},
            {"designs": [["baseline"]]},  # unhashable: 400, not a crash
            {"workloads": ["doom"]},
            {"workloads": []},
            {"partitions": "many"},
            {"horizon": -1},
        ):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                http_json(service.url + "/sweeps", payload)
            assert excinfo.value.code == 400

    @staticmethod
    def raw_post(service, content_length, body=b""):
        """POST /sweeps over a raw socket with a hand-written Content-Length;
        returns (status, error message).  The socket timeout fails the test
        if the server waits for a body that never comes."""
        head = (
            "POST /sweeps HTTP/1.1\r\nHost: localhost\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {content_length}\r\n\r\n"
        ).encode()
        with socket.create_connection(service.server_address[:2], timeout=10) as sock:
            sock.sendall(head + body)
            response = b""
            while chunk := sock.recv(65536):  # the server closes the connection
                response += chunk
        status_line, _, rest = response.partition(b"\r\n")
        return int(status_line.split()[1]), json.loads(rest.partition(b"\r\n\r\n")[2])["error"]

    def test_negative_content_length_400(self, service):
        status, error = self.raw_post(service, -1)
        assert status == 400
        assert "Content-Length" in error

    def test_non_integer_content_length_400(self, service):
        for header in ("abc", "1_0", "+5", "12.5"):
            status, error = self.raw_post(service, header)
            assert status == 400
            assert "Content-Length" in error
            assert "invalid literal" not in error

    def test_oversized_body_413_unread(self, service):
        # declares more than the limit but sends a few bytes: the answer must
        # come without the server reading (or waiting for) the body.
        status, error = self.raw_post(service, MAX_BODY_BYTES + 1, b'{"design"')
        assert status == 413
        assert str(MAX_BODY_BYTES) in error
        status, _ = http_json(service.url + "/healthz")
        assert status == 200  # the handler thread is free again

    def test_progress_query_requeues_expired_leases(self, service, tmp_path):
        _, doc = http_json(
            service.url + "/sweeps",
            {"design": "baseline", "workloads": ["nw"], "partitions": 2,
             "horizon": HORIZON, "warmup": WARMUP},
        )
        store = SQLiteJobStore(tmp_path / "q.sqlite")
        store.claim("doomed", lease_s=0.01)
        time.sleep(0.05)
        _, progress = http_json(service.url + f"/sweeps/{doc['sweep_id']}")
        assert progress["counts"]["pending"] == 1  # back in the queue
        assert progress["counts"]["running"] == 0
        store.close()

    def test_duplicate_names_400_insert_nothing(self, service):
        # duplicates would multiply rows: 50k copies of one name in a
        # sub-MiB body must not become 50k points
        before = service.store.sweep_count()
        for payload, name in (
            ({"workloads": ["bfs"] * 50_000}, "bfs"),
            ({"designs": ["baseline", "direct_40", "baseline"]}, "baseline"),
        ):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                http_json(service.url + "/sweeps", payload)
            assert excinfo.value.code == 400
            error = json.loads(excinfo.value.read())["error"]
            assert "duplicate" in error and repr(name) in error
        assert service.store.sweep_count() == before

    def test_stalled_client_dropped(self, service, monkeypatch):
        assert _Handler.timeout == HANDLER_TIMEOUT_S
        monkeypatch.setattr(_Handler, "timeout", 0.5)
        short_body = (
            b"POST /sweeps HTTP/1.1\r\nHost: localhost\r\n"
            b"Content-Length: 100\r\n\r\n" + b'{"design"'
        )
        for stalled, answer in (
            (b"GET /healthz HTTP/1.1\r\nHost: loc", b""),  # mid-headers
            (short_body, b"HTTP/1.1 408 "),  # fewer bytes than declared
        ):
            with socket.create_connection(service.server_address[:2], timeout=10) as sock:
                sock.sendall(stalled)
                start = time.monotonic()
                response = b""
                while chunk := sock.recv(65536):  # until the server closes
                    response += chunk
                assert time.monotonic() - start < 2.0
            assert response.startswith(answer), response[:80]
            status, _ = http_json(service.url + "/healthz")
            assert status == 200


# ---------------------------------------------------------------------------
# waking on store commits, and stopping
# ---------------------------------------------------------------------------


def idle_waits(worker):
    return snapshot_value(worker.metrics.snapshot(), "repro_worker_idle_sleeps_total")


def wait_until(predicate, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


class TestWakePath:
    def test_change_token_moves_only_on_other_commits(self, tmp_path):
        path = tmp_path / "q.sqlite"
        with SQLiteJobStore(path) as store, SQLiteJobStore(path) as other:
            token = store.change_token()
            submit(store)  # own commit
            assert store.requeue_expired() == (0, 0)  # zero-row update
            assert store.change_token() == token
            submit(other)
            moved = store.change_token()
            assert moved != token
            other.requeue_expired()
            assert store.change_token() == moved

    def test_wait_for_commit_checks_back_off(self):
        class Store:  # counts checks; the token moves once `moved` is set
            checks = 0
            moved = False

            def change_token(self):
                self.checks += 1
                return 1 if self.moved else 0

        store = Store()
        start = time.monotonic()
        assert not wait_for_commit(store, 0, 1.0, threading.Event())
        assert time.monotonic() - start >= 1.0
        # 5 ms doubling up to 0.2 s: 10 checks in 1 s, where a fixed
        # 5 ms gap would make 200
        assert 5 <= store.checks <= 12
        store.moved = True
        start = time.monotonic()
        assert wait_for_commit(store, 0, 1.0, threading.Event())
        assert time.monotonic() - start < 0.5
        assert time.monotonic() - start >= WAKE_CHECK_S

    def test_commit_woken_worker_requeues_at_most_once_per_poll(self, tmp_path):
        path = tmp_path / "q.sqlite"
        store = SQLiteJobStore(path)
        requeues = []
        requeue = store.requeue_expired
        store.requeue_expired = lambda: requeues.append(1) or requeue()
        worker = Worker(store, worker_id="w1", poll_s=1.0)
        thread = threading.Thread(target=worker.run, args=("forever",))
        thread.start()
        try:
            wait_until(lambda: idle_waits(worker) >= 1)
            with SQLiteJobStore(path) as other:
                for n in range(20):  # commits with nothing to claim
                    other.record_worker("other", {"n": n})
                    time.sleep(0.02)
            wakes = idle_waits(worker)
        finally:
            worker.stop()
            thread.join()
        assert wakes >= 5  # the commits woke the worker ...
        assert len(requeues) <= 2  # ... but its one write ran once a poll_s
        store.close()

    def test_idle_worker_wakes_on_commit(self, tmp_path):
        path = tmp_path / "q.sqlite"
        store = SQLiteJobStore(path)
        # poll_s=1.0: the first idle wait is bounded by at least 0.75 s
        worker = Worker(store, worker_id="w1", poll_s=1.0, max_points=1)
        thread = threading.Thread(target=worker.run, args=("forever",))
        thread.start()
        try:
            wait_until(lambda: idle_waits(worker) >= 1)
            time.sleep(0.1)
            with SQLiteJobStore(path) as other:
                submitted = time.monotonic()
                sweep_id = submit(other, points=[("nw", SPECS[0])])
            thread.join(timeout=5.0)
            elapsed = time.monotonic() - submitted
        finally:
            worker.stop()
            thread.join()
        assert store.results(sweep_id)[0]["status"] == "done"
        assert elapsed < 0.5
        store.close()

    def test_not_before_retry_claimed_without_commit(self, tmp_path):
        path = tmp_path / "q.sqlite"
        with SQLiteJobStore(path) as other:
            sweep_id = submit(other, points=[("nw", SPECS[0])])
            job = other.claim("w0", lease_s=30.0)
            reported = time.time()
            assert other.report(job.id, "w0", "failed", error="boom", retry_in_s=0.3)
        # no commit lands from here on: only the timed path can claim
        store = SQLiteJobStore(path)
        worker = Worker(store, worker_id="w1", poll_s=0.05, idle_cap_s=0.2,
                        max_points=1)
        thread = threading.Thread(target=worker.run, args=("forever",))
        thread.start()
        thread.join(timeout=10.0)
        if thread.is_alive():
            worker.stop()
            thread.join()
        row = store.results(sweep_id)[0]
        assert row["status"] == "done" and row["attempts"] == 2
        assert row["done_ts"] >= reported + 0.3
        assert idle_waits(worker) >= 1
        store.close()

    def test_events_wait_requeries_at_most_every_poll(self, service, monkeypatch):
        _, doc = http_json(
            service.url + "/sweeps",
            {"design": "baseline", "workloads": ["nw"], "partitions": 2,
             "horizon": HORIZON, "warmup": WARMUP},
        )
        calls = []
        results = service.store.results
        monkeypatch.setattr(
            service.store, "results",
            lambda sweep_id: calls.append(sweep_id) or results(sweep_id),
        )
        start = time.monotonic()
        _, payload = http_json(
            service.url + f"/sweeps/{doc['sweep_id']}/events?since=0&timeout=1"
        )
        elapsed = time.monotonic() - start
        assert payload["events"] == [] and elapsed >= 0.9
        assert 1 < len(calls) <= elapsed / EVENTS_POLL_S + 1

    def test_closing_server_ends_events_wait(self, service):
        _, doc = http_json(
            service.url + "/sweeps",
            {"design": "baseline", "workloads": ["nw"], "partitions": 2,
             "horizon": HORIZON, "warmup": WARMUP},
        )
        replies = []
        waiter = threading.Thread(target=lambda: replies.append(http_json(
            service.url + f"/sweeps/{doc['sweep_id']}/events?since=0&timeout=30"
        )))
        waiter.start()
        time.sleep(0.3)
        service.shutdown()
        closed = time.monotonic()
        service.server_close()  # closes the store under the waiting request
        waiter.join(timeout=5.0)
        assert time.monotonic() - closed < 1.0
        status, payload = replies[0]
        assert status == 200 and payload["events"] == []
        assert payload["progress"]["status"] == "running"


def repro_process(*args):
    env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1])}
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )


class TestShutdown:
    def test_stop_ends_idle_wait(self, tmp_path):
        store = SQLiteJobStore(tmp_path / "q.sqlite")
        worker = Worker(store, worker_id="w1", poll_s=1.0)
        thread = threading.Thread(target=worker.run, args=("forever",))
        thread.start()
        wait_until(lambda: idle_waits(worker) >= 1)
        stopped = time.time()
        worker.stop()
        thread.join(timeout=2.0)
        assert not thread.is_alive()
        assert time.time() - stopped < 0.5
        assert store.workers_seen()[0]["updated_ts"] >= stopped  # exit snapshot
        store.close()

    def test_stop_mid_point_reports_then_exits(self, tmp_path):
        path = tmp_path / "q.sqlite"
        store = SQLiteJobStore(path)
        sweep_id = submit(store)
        worker = Worker(store, worker_id="w1", poll_s=0.01)
        execute = worker._execute

        def stop_then_execute(job):
            worker.stop()  # arrives while the point is in hand
            return execute(job)

        worker._execute = stop_then_execute
        assert worker.run(until="forever") == 1
        counts = store.counts(sweep_id)
        assert counts["done"] == 1
        assert counts["pending"] == len(BENCHES) * len(SPECS) - 1
        store.close()

    def test_worker_process_exits_on_sigterm(self, tmp_path):
        path = tmp_path / "q.sqlite"
        store = SQLiteJobStore(path)
        proc = repro_process("worker", "--store", str(path), "--poll")
        try:
            wait_until(lambda: store.workers_seen() or proc.poll() is not None, 60.0)
            assert proc.poll() is None, proc.stdout.read()
            signalled = time.time()
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=2.0) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert "0 claim(s)" in proc.stdout.read()
        assert store.workers_seen()[0]["updated_ts"] >= signalled  # exit snapshot
        store.close()

    def test_serve_exits_on_sigterm_and_stops_its_workers(self, tmp_path):
        path = tmp_path / "q.sqlite"
        proc = repro_process("serve", "--store", str(path), "--port", "0",
                             "--workers", "1")
        try:
            assert "listening on" in proc.stdout.readline()
            store = SQLiteJobStore(path)
            wait_until(lambda: store.workers_seen() or proc.poll() is not None, 60.0)
            assert proc.poll() is None, proc.stdout.read()
            signalled = time.time()
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=10.0) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        # the embedded worker stopped through its own SIGTERM path
        assert store.workers_seen()[0]["updated_ts"] >= signalled
        store.close()


# ---------------------------------------------------------------------------
# the metrics registry and fleet observability
# ---------------------------------------------------------------------------


class TestMetricsRegistry:
    def test_concurrent_increments_are_exact(self):
        """4 threads hammering one counter lose nothing."""
        registry = MetricsRegistry()
        counter = registry.counter("t_total", "test", labels=("lane",))
        hist = registry.histogram("t_us", "test")
        per_thread, threads_n = 5_000, 4

        def hammer(lane):
            series = counter.labels(lane)
            for i in range(per_thread):
                series.inc()
                hist.observe(float(i % 7 + 1))

        threads = [threading.Thread(target=hammer, args=(f"l{i % 2}",))
                   for i in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = registry.snapshot()
        assert snapshot_value(snap, "t_total") == per_thread * threads_n
        assert snapshot_value(snap, "t_total", {"lane": "l0"}) == 2 * per_thread
        hist_doc = snap["metrics"]["t_us"]["series"][0]["hist"]
        assert hist_doc["n"] == per_thread * threads_n

    def test_label_cardinality_and_validation(self):
        registry = MetricsRegistry()
        family = registry.counter("c_total", "test", labels=("outcome",))
        family.labels("a").inc()
        family.labels("b").inc(2)
        family.labels("a").inc(3)
        snap = registry.snapshot()
        series = snap["metrics"]["c_total"]["series"]
        assert len(series) == 2  # one series per distinct label tuple
        assert snapshot_value(snap, "c_total", {"outcome": "a"}) == 4
        assert snapshot_value(snap, "c_total", {"outcome": "b"}) == 2
        with pytest.raises(ValueError):
            family.labels("a", "extra")  # arity mismatch
        with pytest.raises(ValueError):
            registry.gauge("c_total")  # kind mismatch on re-register
        with pytest.raises(ValueError):
            registry.counter("c_total", labels=("other",))  # label mismatch
        with pytest.raises(ValueError):
            registry.counter("bad name")
        with pytest.raises(ValueError):
            family.labels("a").inc(-1)  # counters only go up
        # idempotent re-registration returns the same family.
        assert registry.counter("c_total", labels=("outcome",)) is family

    def test_prometheus_escaping_roundtrip(self):
        nasty = 'quo"te\\slash\nnewline'
        assert escape_label_value(nasty) == 'quo\\"te\\\\slash\\nnewline'
        registry = MetricsRegistry()
        registry.counter("e_total", "test", labels=("path",)).labels(nasty).inc()
        text = render_prometheus([(registry.snapshot(), None)])
        assert "\n\n" not in text  # escaped newline never splits a sample
        samples = parse_prometheus(text)
        assert samples[("e_total", (("path", nasty),))] == 1.0

    def test_snapshot_merge_roundtrip(self):
        a = MetricsRegistry()
        a.counter("m_total", "test", labels=("k",)).labels("x").inc(3)
        a.gauge("m_gauge", "test").set(7.0)
        a.histogram("m_us", "test").observe(100.0)
        b = MetricsRegistry()
        b.counter("m_total", "test", labels=("k",)).labels("x").inc(2)
        b.merge(a.snapshot())
        b.merge(a.snapshot())
        snap = b.snapshot()
        # counters add per merge; gauges last-write-win.
        assert snapshot_value(snap, "m_total", {"k": "x"}) == 3 + 3 + 2
        assert snapshot_value(snap, "m_gauge") == 7.0
        assert snap["metrics"]["m_us"]["series"][0]["hist"]["n"] == 2
        # extra labels widen the series without touching the original.
        c = MetricsRegistry()
        c.merge(a.snapshot(), extra_labels={"worker": "w1"})
        stamped = c.snapshot()
        assert snapshot_value(stamped, "m_total",
                              {"k": "x", "worker": "w1"}) == 3
        assert snapshot_value(stamped, "m_total", {"worker": "w9"}) == 0

    def test_render_parse_roundtrip(self):
        registry = MetricsRegistry()
        registry.counter("r_total", "help text", labels=("op",)).labels("claim").inc(5)
        registry.gauge("r_gauge").set(2.5)
        registry.histogram("r_us", "latency").observe(3.0)
        text = render_prometheus([(registry.snapshot(), None)])
        assert "# TYPE r_total counter" in text
        assert "# HELP r_total help text" in text
        samples = parse_prometheus(text)
        assert samples[("r_total", (("op", "claim"),))] == 5.0
        assert samples[("r_gauge", ())] == 2.5
        assert samples[("r_us_count", ())] == 1.0
        assert samples[("r_us_sum", ())] == 3.0
        # cumulative buckets: value 3 lands in le=4, carried into +Inf.
        assert samples[("r_us_bucket", (("le", "4"),))] == 1.0
        assert samples[("r_us_bucket", (("le", "+Inf"),))] == 1.0

    def test_null_registry_absorbs_everything(self):
        assert not NULL_METRICS.enabled
        NULL_METRICS.counter("x_total", labels=("a",)).labels("v").inc()
        NULL_METRICS.gauge("x").set(1.0)
        NULL_METRICS.histogram("x_us").observe(2.0)
        assert NULL_METRICS.snapshot()["metrics"] == {}


class TestProgressEdges:
    def test_zero_completed_has_no_rate_or_eta(self, tmp_path):
        with SQLiteJobStore(tmp_path / "q.sqlite") as store:
            sweep_id = submit(store)
            progress = store.progress(sweep_id)
            assert progress["points_per_s"] == 0.0
            assert progress["eta_s"] is None

    def test_all_failed_has_no_eta(self, tmp_path):
        with SQLiteJobStore(tmp_path / "q.sqlite") as store:
            sweep_id = submit(store, points=[("nw", SPECS[0])], max_attempts=1)
            job = store.claim("w1", 30)
            store.report(job.id, "w1", "failed", error="boom", retry_in_s=0.0)
            progress = store.progress(sweep_id)
            assert progress["status"] == "failed"
            assert progress["points_per_s"] == 0.0
            assert progress["eta_s"] is None

    def test_future_created_ts_never_fabricates_rate(self, tmp_path):
        """A submitting host's clock ahead of ours must not yield a
        ~1e9 points/s division artifact."""
        with SQLiteJobStore(tmp_path / "q.sqlite") as store:
            sweep_id = submit(store, points=[("nw", SPECS[0]),
                                             ("bfs", SPECS[0])])
            job = store.claim("w1", 30)
            store.report(job.id, "w1", "simulated", result={})
            store._conn.execute(
                "UPDATE sweeps SET created_ts=? WHERE id=?",
                (time.time() + 3600.0, sweep_id),
            )
            progress = store.progress(sweep_id)
            assert progress["elapsed_s"] == 0.0
            assert progress["points_per_s"] == 0.0
            assert progress["eta_s"] is None

    def test_done_sweep_has_no_eta(self, tmp_path):
        with SQLiteJobStore(tmp_path / "q.sqlite") as store:
            sweep_id = submit(store, points=[("nw", SPECS[0])])
            job = store.claim("w1", 30)
            store.report(job.id, "w1", "simulated", result={})
            progress = store.progress(sweep_id)
            assert progress["status"] == "done"
            assert progress["eta_s"] is None  # nothing remaining


class TestFleetMetrics:
    def instrumented_drain(self, tmp_path):
        """Mirror ``_worker_main``: store and worker share one registry."""
        path = tmp_path / "q.sqlite"
        with SQLiteJobStore(path) as store:
            sweep_id = submit(store)
        registry = MetricsRegistry()
        store = SQLiteJobStore(path, metrics=registry)
        worker = Worker(store, worker_id="w1", poll_s=0.01, metrics=registry)
        worker.run()
        return store, sweep_id, registry

    def test_store_and_worker_counters(self, tmp_path):
        store, _sweep_id, registry = self.instrumented_drain(tmp_path)
        total = len(BENCHES) * len(SPECS)
        snap = registry.snapshot()
        assert snapshot_value(snap, "repro_store_claims_total") == total
        assert snapshot_value(snap, "repro_store_reports_total",
                              {"outcome": "simulated"}) == total
        assert snapshot_value(snap, "repro_worker_points_total",
                              {"outcome": "simulated"}) == total
        hist = snap["metrics"]["repro_worker_point_duration_us"]["series"]
        assert sum(entry["hist"]["n"] for entry in hist) == total
        op_hist = snap["metrics"]["repro_store_op_us"]["series"]
        assert any(entry["labels"]["op"] == "claim" for entry in op_hist)
        store.close()

    def test_worker_snapshot_persists_through_store(self, tmp_path):
        store, sweep_id, _registry = self.instrumented_drain(tmp_path)
        fleet = store.workers_seen()
        assert [entry["worker"] for entry in fleet] == ["w1"]
        entry = fleet[0]
        assert entry["uptime_s"] is not None and entry["age_s"] >= 0
        persisted = entry["metrics"]
        total = len(BENCHES) * len(SPECS)
        assert snapshot_value(persisted, "repro_worker_points_total",
                              {"outcome": "simulated"}) == total
        # the store's own counters travel inside the worker snapshot.
        assert snapshot_value(persisted, "repro_store_claims_total") == total
        # repro top renders the same fleet state from the store.
        text = render_top(fleet_from_store(store))
        assert sweep_id in text
        assert "w1" in text
        store.close()

    def test_default_worker_self_instruments(self, tmp_path):
        """No registry given: the worker makes its own, so the fleet is
        visible even over an un-instrumented store — but the store's
        counters (NULL registry) stay out of the snapshot."""
        path = tmp_path / "q.sqlite"
        with SQLiteJobStore(path) as store:
            submit(store, points=[("nw", SPECS[0])])
        store = SQLiteJobStore(path)
        Worker(store, worker_id="w1", poll_s=0.01).run()
        fleet = store.workers_seen()
        assert [entry["worker"] for entry in fleet] == ["w1"]
        persisted = fleet[0]["metrics"]
        assert snapshot_value(persisted, "repro_worker_points_total",
                              {"outcome": "simulated"}) == 1
        assert snapshot_value(persisted, "repro_store_claims_total") == 0
        store.close()

    def test_metrics_endpoint(self, service, tmp_path):
        http_json(
            service.url + "/sweeps",
            {"design": "baseline", "workloads": ["nw"], "partitions": 2,
             "horizon": HORIZON, "warmup": WARMUP},
        )
        registry = MetricsRegistry()
        store = SQLiteJobStore(tmp_path / "q.sqlite", metrics=registry)
        Worker(store, worker_id="w1", poll_s=0.01, metrics=registry).run()
        store.close()
        with urllib.request.urlopen(service.url + "/metrics") as response:
            assert response.status == 200
            assert response.headers["Content-Type"].startswith("text/plain")
            text = response.read().decode()
        samples = parse_prometheus(text)
        by_name = {}
        for (name, labels), value in samples.items():
            by_name.setdefault(name, []).append((dict(labels), value))
        # the service's own HTTP series.
        assert any(labels.get("endpoint") == "/sweeps"
                   for labels, _ in by_name["repro_http_requests_total"])
        assert "repro_http_request_duration_us_count" in by_name
        # derived store gauges.
        assert sum(v for labels, v in by_name["repro_store_jobs"]
                   if labels.get("status") == "done") == 1
        assert by_name["repro_store_sweeps"][0][1] == 1
        # the drained worker's snapshot, stamped worker="w1".
        assert any(labels.get("worker") == "w1" and
                   labels.get("outcome") == "simulated" and value == 1
                   for labels, value in by_name["repro_worker_points_total"])
        assert by_name["repro_fleet_workers"][0][1] == 1

    def test_events_endpoint(self, service, tmp_path):
        _, doc = http_json(
            service.url + "/sweeps",
            {"design": "baseline", "workloads": BENCHES, "partitions": 2,
             "horizon": HORIZON, "warmup": WARMUP},
        )
        sweep_id = doc["sweep_id"]
        store = SQLiteJobStore(tmp_path / "q.sqlite")
        Worker(store, worker_id="w1", poll_s=0.01).run()
        store.close()
        status, payload = http_json(
            service.url + f"/sweeps/{sweep_id}/events?since=0&timeout=0"
        )
        assert status == 200
        events = payload["events"]
        assert len(events) == len(BENCHES)
        assert all(event["status"] == "done" for event in events)
        assert all("result" not in event for event in events)  # projection
        assert payload["progress"]["status"] == "done"
        # a cursor past the last event long-polls and returns empty
        # immediately because the sweep is terminal.
        last = max(event["done_ts"] for event in events)
        _, tail = http_json(
            service.url + f"/sweeps/{sweep_id}/events?since={last}&timeout=30"
        )
        assert tail["events"] == []
        assert tail["now"] >= last
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            http_json(service.url + "/sweeps/" + "0" * 12 +
                      "/events?timeout=0")
        assert excinfo.value.code == 404

    def test_access_log(self, tmp_path):
        log_path = tmp_path / "logs" / "access.jsonl"

        def logged_lines(count):
            # the handler writes its access-log line after the response
            # is sent — poll briefly rather than racing it.
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                text = log_path.read_text() if log_path.exists() else ""
                if text.count("\n") >= count:  # whole lines only
                    return text.splitlines()
                time.sleep(0.01)
            return log_path.read_text().splitlines()

        svc = SweepService(tmp_path / "q.sqlite", port=0,
                           access_log=log_path)
        svc.run_in_thread()
        try:
            http_json(svc.url + "/healthz")
            logged_lines(1)
            with pytest.raises(urllib.error.HTTPError):
                http_json(svc.url + "/nope")
            lines = logged_lines(2)
        finally:
            svc.shutdown()
            svc.server_close()
        records = [json.loads(line) for line in lines]
        assert [r["path"] for r in records] == ["/healthz", "/nope"]
        assert [r["status"] for r in records] == [200, 404]
        for record in records:
            assert record["method"] == "GET"
            assert record["duration_ms"] >= 0
            assert record["ts"] > 0

    def test_live_registry_counts_requests(self, service):
        http_json(service.url + "/healthz")
        # the handler's finally block runs just after the client reads
        # the body — poll briefly rather than racing it.
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            snap = service.metrics.snapshot()
            if snapshot_value(snap, "repro_http_requests_total",
                              {"endpoint": "/healthz", "status": "200"}):
                break
            time.sleep(0.01)
        assert snapshot_value(snap, "repro_http_requests_total",
                              {"endpoint": "/healthz", "status": "200"}) == 1


class TestSynthesizedObservability:
    def drained_store(self, tmp_path):
        path = tmp_path / "q.sqlite"
        with SQLiteJobStore(path) as store:
            sweep_id = submit(store)
        store = SQLiteJobStore(path)
        Worker(store, worker_id="w1", poll_s=0.01).run()
        return store, sweep_id

    def test_ledger_records_match_worker_ledger(self, tmp_path):
        """Synthesized records are canonical-equivalent to real ledgers."""
        store, sweep_id = self.drained_store(tmp_path)
        synthesized = sweep_ledger_records(store, sweep_id)
        serial_ledger = tmp_path / "serial.jsonl"
        runner = Runner(horizon=HORIZON, warmup=WARMUP, benchmarks=BENCHES,
                        ledger_path=serial_ledger)
        for workload, spec in iter_points(BENCHES, SPECS):
            runner.run(workload, build_config(spec))
        assert canonical_points(synthesized) == canonical_points(
            read_ledger(serial_ledger)
        )
        store.close()

    def test_heartbeat_lines_lead_with_start(self, tmp_path):
        store, sweep_id = self.drained_store(tmp_path)
        lines = sweep_heartbeat_lines(store, sweep_id)
        assert lines[0]["event"] == "start"
        assert lines[0]["total"] == len(BENCHES) * len(SPECS)
        assert lines[-1]["event"] == "done"
        assert lines[-1]["status"] == "ok"
        store.close()

    def test_validate_submission_defaults(self):
        points, options = validate_submission({})
        from repro.workloads.suite import BENCHMARK_ORDER

        assert [w for w, _ in points] == list(BENCHMARK_ORDER)
        assert all(spec == {"design": "secureMem_mshr64", "partitions": 4}
                   for _, spec in points)
        assert options["horizon"] == 10_000
        with pytest.raises(ValueError):
            validate_submission([])
        with pytest.raises(ValueError):
            validate_submission({"designs": []})
