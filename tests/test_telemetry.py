"""Telemetry subsystem: tracer, sampler, traffic classes, persistence."""

import dataclasses
import hashlib
import json

import pytest

from repro.cli import main
from repro.common.config import TelemetryConfig
from repro.experiments import designs
from repro.experiments.parallel import ParallelRunner
from repro.experiments.runner import Runner, config_key, result_to_dict
from repro.sim.event import EventQueue
from repro.sim.gpu import simulate
from repro.telemetry import (
    ARTIFACT_NAMES,
    NULL_TRACER,
    Sampler,
    Tracer,
    TrafficClass,
    class_bytes_from_result,
    class_shares,
    write_artifacts,
)
from repro.workloads.suite import get_benchmark

FAST = ["--horizon", "1200", "--warmup", "800", "--partitions", "2"]

PARTITIONS = 2
HORIZON = 1_500
WARMUP = 800

TELEMETRY = TelemetryConfig(enabled=True, sample_every=300.0)


def secure_config(telemetry=None):
    config = designs.build_gpu(designs.ctr_mac_bmt(), num_partitions=PARTITIONS)
    if telemetry is not None:
        config = dataclasses.replace(config, telemetry=telemetry)
    return config


def baseline_config(telemetry=None):
    config = designs.build_gpu(None, num_partitions=PARTITIONS)
    if telemetry is not None:
        config = dataclasses.replace(config, telemetry=telemetry)
    return config


class _Clock:
    def __init__(self) -> None:
        self.now = 0.0


class TestTracer:
    def test_null_tracer_is_disabled_and_inert(self):
        assert NULL_TRACER.enabled is False
        NULL_TRACER.instant("x", "c", "t")
        NULL_TRACER.span("x", "c", "t", 0.0, 1.0)

    def test_ring_bounds_and_counts_drops(self):
        tracer = Tracer(_Clock(), capacity=4)
        for i in range(10):
            tracer.instant(f"e{i}", "test", "t0")
        assert len(tracer) == 4
        assert tracer.dropped == 6
        names = [e["name"] for e in tracer.events_as_dicts()]
        assert names == ["e6", "e7", "e8", "e9"]  # newest window survives

    def test_instant_stamps_clock(self):
        clock = _Clock()
        tracer = Tracer(clock)
        clock.now = 42.5
        tracer.instant("hit", "cache", "l2", {"addr": 128})
        (event,) = tracer.events_as_dicts()
        assert event["ph"] == "i"
        assert event["ts"] == 42.5
        assert event["args"] == {"addr": 128}

    def test_chrome_trace_shape(self, tmp_path):
        tracer = Tracer(_Clock())
        tracer.instant("miss", "cache", "p0.l2")
        tracer.span("data_read", "dram", "p0.dram", 10.0, 5.0, {"bytes": 32})
        export = {"events": tracer.events_as_dicts(), "meta": {"workload": "nw"}}
        paths = write_artifacts(tmp_path, export)
        doc = json.loads(paths["trace.json"].read_text())
        events = doc["traceEvents"]
        metas = [e for e in events if e["ph"] == "M"]
        assert {m["args"]["name"] for m in metas} == {"p0.l2", "p0.dram"}
        spans = [e for e in events if e["ph"] == "X"]
        assert spans[0]["dur"] == 5.0
        assert all(isinstance(e["tid"], int) for e in events)
        assert doc["otherData"]["workload"] == "nw"

    def test_jsonl_is_one_object_per_line(self, tmp_path):
        tracer = Tracer(_Clock())
        tracer.instant("a", "c", "t")
        tracer.instant("b", "c", "t")
        paths = write_artifacts(tmp_path, {"events": tracer.events_as_dicts()})
        lines = paths["trace.jsonl"].read_text().splitlines()
        assert [json.loads(line)["name"] for line in lines] == ["a", "b"]


def _reference_chrome_trace(events, meta):
    """The Chrome ``trace_event`` document as plain dicts: the oracle the
    templated writer is compared against."""
    tids = {}
    trace_events = []
    for event in events:
        tid = tids.setdefault(event["tid"], len(tids))
        chrome_event = {
            "ph": event["ph"],
            "ts": event["ts"],
            "pid": 0,
            "tid": tid,
            "name": event["name"],
            "cat": event["cat"],
        }
        if event["ph"] == "X":
            chrome_event["dur"] = event.get("dur", 0.0)
        if event.get("args"):
            chrome_event["args"] = event["args"]
        trace_events.append(chrome_event)
    name_events = [
        {"ph": "M", "pid": 0, "tid": index, "name": "thread_name", "args": {"name": name}}
        for name, index in tids.items()
    ]
    return {
        "traceEvents": name_events + trace_events,
        "displayTimeUnit": "ms",
        "otherData": dict(meta, clock="core cycles (1 cycle rendered as 1 us)"),
    }


def _x(ts, dur, tid="p0.dram", name="data_read", cat="dram", **extra):
    return {"ph": "X", "ts": ts, "dur": dur, "tid": tid, "name": name, "cat": cat, **extra}


def _i(ts, tid="p0.l2", name="miss", cat="cache", **extra):
    return {"ph": "i", "ts": ts, "tid": tid, "name": name, "cat": cat, **extra}


#: hand-built events covering every branch of the templated writer.
HAND_EVENTS = [
    _x(10.0, 5.0, args={"bytes": 32}),
    _x(15.0, 5.0),
    _i(15.0, args={"addr": 128, "cls": "DATA"}),
    _i(16.5),
    # strings needing escapes, and a literal % in values, keys, tid and name
    _i(17.0, args={"cls": 'say "hi" \\ caf\u00e9 \u2603 100% %s %(x)d'}),
    _i(17.0, tid="p%d.l2", name="100%", cat="c%%", args={"%s": 1, "a%": "%"}),
    # bool is an int subclass; floats, int/float/bool of equal value
    _i(18.0, args={"hit": True, "miss": False, "ratio": 0.25, "v": 1}),
    _i(18.0, args={"v": 1.0}),
    _i(18.0, args={"v": True}),
    _i(18.0, args={"big": 1e300, "inf": float("inf"), "tiny": 5e-324, "neg": -2}),
    # int timestamps, signed zeros, NaN and infinite durations
    _i(7),
    _x(0.0, 0.0),
    _x(-0.0, -0.0),
    _x(0.0, 0.0),
    _x(20.0, float("nan")),
    _x(21.0, float("-inf")),
    _x(22, 3),
    # shapes off the exporter's path: no dur on X, dur on i, falsy and
    # non-dict args, non-str and nested args, an extra key
    {"ph": "X", "ts": 23.0, "tid": "p1.dram", "name": "w", "cat": "dram"},
    _i(24.0, dur=9.0),
    _i(25.0, args={}),
    _i(25.0, args=None),
    _i(26.0, args=[1, "two"]),
    _i(27.0, args={2: "b", 1: "a"}),
    _i(28.0, args={"hops": [1, 2.5, None], "d": {"z": 1, "a": "x"}}),
    _i(29.0, args={"addr": 1}, extra=1),
    _x(30.0, 1.5, tid="p1.dram", args={"bytes": 64}),
]

HAND_META = {
    "workload": "bfs 100%",
    "class_bytes": {"DATA": 64, "MAC": 8},
    "trace_id": "4bf92f3577b34da6a3ce929d0e0e4736",
    "span_id": "00f067aa0ba902b7",
}


def assert_same_text(path, expected):
    """Compare a written artifact with its reference; on a mismatch, report
    the first differing offset (a full diff of megabyte strings is slow)."""
    text = path.read_text()
    if text != expected:
        at = next(
            (i for i, (a, b) in enumerate(zip(text, expected)) if a != b),
            min(len(text), len(expected)),
        )
        pytest.fail(
            f"{path.name} differs at offset {at}: "
            f"{text[at - 40:at + 80]!r} != {expected[at - 40:at + 80]!r}"
        )


def assert_matches_reference(paths, events, meta):
    assert_same_text(
        paths["trace.json"],
        json.dumps(_reference_chrome_trace(events, meta), sort_keys=True) + "\n",
    )
    assert_same_text(
        paths["trace.jsonl"], "\n".join(json.dumps(e, sort_keys=True) for e in events) + "\n"
    )


class TestEventWriter:
    """The templated writer against ``json.dumps(..., sort_keys=True)``."""

    @pytest.mark.parametrize(
        "events, meta",
        [
            (HAND_EVENTS, HAND_META),
            (HAND_EVENTS[::-1], {}),
            ([], HAND_META),
        ],
        ids=["hand", "reversed", "empty"],
    )
    def test_bytes_match_reference(self, tmp_path, events, meta):
        paths = write_artifacts(tmp_path, {"events": events, "meta": meta})
        assert_matches_reference(paths, events, meta)

    def test_empty_stream_writes_newline(self, tmp_path):
        paths = write_artifacts(tmp_path, {"events": [], "meta": {}})
        assert paths["trace.jsonl"].read_bytes() == b"\n"
        assert json.loads(paths["trace.json"].read_text())["traceEvents"] == []

    def test_simulated_export_matches_reference(self, tmp_path):
        result = simulate(
            secure_config(TELEMETRY), get_benchmark("bfs"), horizon=HORIZON, warmup=WARMUP
        )
        export = result.telemetry
        paths = write_artifacts(tmp_path, export)
        assert_matches_reference(paths, export["events"], export["meta"])


class TestSampler:
    def test_samples_at_epoch_boundaries(self):
        events = EventQueue()
        sampler = Sampler(events, sample_every=10.0)
        ticks = [0]
        sampler.register("ticks", lambda: ticks[0])
        sampler.start()
        events.schedule_at(25.0, lambda: ticks.__setitem__(0, 7))
        events.run(until=45.0)
        assert sampler.columns["cycle"] == [10.0, 20.0, 30.0, 40.0]
        assert sampler.columns["ticks"] == [0.0, 0.0, 7.0, 7.0]

    def test_duplicate_gauge_rejected(self):
        sampler = Sampler(EventQueue(), sample_every=10.0)
        sampler.register("g", lambda: 0)
        with pytest.raises(ValueError):
            sampler.register("g", lambda: 1)

    def test_max_samples_truncates(self):
        events = EventQueue()
        sampler = Sampler(events, sample_every=1.0, max_samples=3)
        sampler.register("g", lambda: 1.0)
        sampler.start()
        events.run(until=100.0)
        assert sampler.num_samples() == 3
        assert sampler.truncated is True

    def test_disabled_without_gauges(self):
        events = EventQueue()
        sampler = Sampler(events, sample_every=10.0)
        assert not sampler.enabled
        sampler.start()
        assert events.empty()


class TestTelemetryConfig:
    def test_defaults_disabled(self):
        config = designs.build_gpu(None, num_partitions=2)
        assert config.telemetry.enabled is False

    def test_validation(self):
        with pytest.raises(ValueError):
            TelemetryConfig(ring_capacity=0)
        with pytest.raises(ValueError):
            TelemetryConfig(sample_every=-1.0)
        with pytest.raises(ValueError):
            TelemetryConfig(max_samples=0)


class TestZeroDrift:
    """Telemetry must never change simulated behaviour."""

    def test_results_identical_on_vs_off(self):
        workload = get_benchmark("nw")
        off = simulate(secure_config(), workload, horizon=HORIZON, warmup=WARMUP)
        on = simulate(
            secure_config(TELEMETRY), workload, horizon=HORIZON, warmup=WARMUP
        )
        assert result_to_dict(off) == result_to_dict(on)
        assert off.telemetry is None
        assert on.telemetry is not None

    def test_config_key_ignores_telemetry(self):
        assert config_key(secure_config()) == config_key(secure_config(TELEMETRY))
        assert config_key(secure_config()) != config_key(baseline_config())

    def test_export_is_deterministic(self):
        workload = get_benchmark("bfs")
        first = simulate(
            secure_config(TELEMETRY), workload, horizon=HORIZON, warmup=WARMUP
        )
        second = simulate(
            secure_config(TELEMETRY), workload, horizon=HORIZON, warmup=WARMUP
        )
        assert first.telemetry == second.telemetry


class TestTrafficClasses:
    def test_conservation_secure(self):
        result = simulate(
            secure_config(TELEMETRY),
            get_benchmark("bfs"),
            horizon=HORIZON,
            warmup=WARMUP,
        )
        class_bytes = class_bytes_from_result(result)
        assert sum(class_bytes.values()) == result.stats.total("bytes_total")
        assert class_bytes["COUNTER"] > 0
        assert class_bytes["MAC"] > 0
        assert class_bytes["TREE"] > 0
        assert class_bytes["DATA"] > 0

    def test_baseline_is_pure_data(self):
        result = simulate(
            baseline_config(), get_benchmark("bfs"), horizon=HORIZON, warmup=WARMUP
        )
        class_bytes = class_bytes_from_result(result)
        assert class_bytes["DATA"] == result.stats.total("bytes_total")
        assert class_bytes["COUNTER"] == 0
        assert class_bytes["MAC"] == 0
        assert class_bytes["TREE"] == 0

    def test_shares_normalize(self):
        shares = class_shares({"DATA": 75.0, "MAC": 25.0})
        assert shares == {"DATA": 0.75, "MAC": 0.25}
        assert class_shares({"DATA": 0.0}) == {"DATA": 0.0}

    def test_every_class_sampled(self):
        result = simulate(
            secure_config(TELEMETRY),
            get_benchmark("bfs"),
            horizon=HORIZON,
            warmup=WARMUP,
        )
        samples = result.telemetry["samples"]
        cycles = samples["cycle"]
        for tclass in TrafficClass:
            column = samples[f"bytes_{tclass.name}"]
            assert len(column) == len(cycles)
            # cumulative gauges never decrease after the warmup stats reset
            post = [v for c, v in zip(cycles, column) if c > WARMUP]
            assert all(b >= a for a, b in zip(post, post[1:]))


class TestArtifacts:
    def test_write_artifacts_layout(self, tmp_path):
        result = simulate(
            secure_config(TELEMETRY),
            get_benchmark("nw"),
            horizon=HORIZON,
            warmup=WARMUP,
        )
        paths = write_artifacts(tmp_path / "point", result.telemetry)
        assert set(paths) == set(ARTIFACT_NAMES)
        doc = json.loads(paths["trace.json"].read_text())
        assert doc["traceEvents"]
        summary = json.loads(paths["summary.json"].read_text())
        assert summary["events_recorded"] == len(result.telemetry["events"])
        samples = json.loads(paths["samples.json"].read_text())
        assert "cycle" in samples["columns"]

    def test_artifact_bytes_pinned(self, tmp_path):
        """SHA-256 of every artifact of one short traced point.

        The digests were recorded from the generic ``json.dumps(...,
        sort_keys=True)`` writer; the templated writer must reproduce its
        output byte for byte.  Update them only for a change meant to move
        the simulation or the artifact format.
        """
        config = dataclasses.replace(
            designs.build_named_gpu("secureMem_mshr64", num_partitions=2),
            telemetry=TELEMETRY,
        )
        result = simulate(config, get_benchmark("bfs"), horizon=3_000, warmup=1_000)
        paths = write_artifacts(tmp_path, result.telemetry)
        digests = {
            name: hashlib.sha256(paths[name].read_bytes()).hexdigest()
            for name in ARTIFACT_NAMES
        }
        assert digests == {
            "trace.json": "a4951a60fd268447d57bd4f15c03ddd245a9cad8006285866dda035cfdd321c4",
            "trace.jsonl": "2f924573dd2b1ca76213166d075a133c4aec718eadc3ea363281879c58585775",
            "samples.json": "c1728c7bec947cd7c9e75ad2f84ccaf935a156908507dac911c03111df1a2b33",
            "latency.json": "74d02fce2e172c38bdd4f0cc572afd37d7a2e6199d16e2e59fa4c95b98f43815",
            "summary.json": "f7652b3e8a8d69cb5f2aabc40e6d4bbf6274364b95caeb6e1342ed5df2d42844",
        }

    def test_serial_and_parallel_artifacts_byte_identical(self, tmp_path):
        config = secure_config(TELEMETRY)
        points = [("nw", config), ("bfs", config)]
        serial = Runner(
            horizon=HORIZON, warmup=WARMUP, telemetry_dir=tmp_path / "serial"
        )
        serial.prefetch(points)
        parallel = ParallelRunner(
            horizon=HORIZON,
            warmup=WARMUP,
            jobs=2,
            cache_path=tmp_path / "cache",
            telemetry_dir=tmp_path / "parallel",
        )
        parallel.prefetch(points)
        digest = config_key(config)[:12]
        for workload in ("nw", "bfs"):
            for name in ARTIFACT_NAMES:
                a = (tmp_path / "serial" / f"{workload}-{digest}" / name).read_bytes()
                b = (tmp_path / "parallel" / f"{workload}-{digest}" / name).read_bytes()
                assert a == b, (workload, name)

    def test_cached_payloads_free_of_telemetry(self, tmp_path):
        config = secure_config(TELEMETRY)
        runner = ParallelRunner(
            horizon=HORIZON,
            warmup=WARMUP,
            jobs=1,
            cache_path=tmp_path / "cache",
            telemetry_dir=tmp_path / "telemetry",
        )
        runner.prefetch([("nw", config)])
        for shard in (tmp_path / "cache").glob("shard-*.jsonl"):
            for line in shard.read_text().splitlines():
                assert "_telemetry" not in json.loads(line)["result"]

    def test_runner_without_telemetry_dir_writes_nothing(self, tmp_path):
        runner = Runner(horizon=HORIZON, warmup=WARMUP)
        result = runner.run("nw", secure_config(TELEMETRY))
        assert result.telemetry is not None
        assert runner._persist_telemetry("nw", "abc", result.telemetry) is None


class TestCli:
    def test_trace_command(self, tmp_path, capsys):
        out = tmp_path / "artifacts"
        assert (
            main(
                [
                    "trace",
                    "nw",
                    "--design",
                    "ctr_mac_bmt",
                    "--out",
                    str(out),
                    *FAST,
                ]
            )
            == 0
        )
        text = capsys.readouterr().out
        assert "COUNTER" in text and "MAC" in text and "TREE" in text
        for name in ARTIFACT_NAMES:
            assert (out / name).exists()
        doc = json.loads((out / "trace.json").read_text())
        breakdown = doc["otherData"]["class_bytes"]
        assert breakdown["COUNTER"] > 0
        assert breakdown["MAC"] > 0
        assert breakdown["TREE"] > 0

    def test_stats_json_command(self, capsys):
        assert main(["stats", "nw", "--design", "baseline", "--json", *FAST]) == 0
        tree = json.loads(capsys.readouterr().out)
        assert tree["name"] == "gpu"
        assert "partition0" in tree["children"]
        counters = tree["children"]["partition0"]["children"]["dram"]["counters"]
        assert counters["bytes_total"] > 0

    def test_stats_text_command(self, capsys):
        assert main(["stats", "nw", "--design", "baseline", *FAST]) == 0
        assert "gpu.partition0.dram.bytes_total" in capsys.readouterr().out
