"""The benchmark's own tests: ``python3 -m pytest perfbench/tests``."""

import cProfile
import json
import pstats
import re
from pathlib import Path

import pytest

from perfbench import digests, layers, pools, run
from perfbench.pools import point_key

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class TestMetricNames:
    def test_names_and_units_are_well_formed(self):
        units = {**run.END_TO_END_UNITS, **run.per_layer_units()}
        for name, unit in units.items():
            assert NAME.match(name), name
            assert UNIT.match(unit), (name, unit)
        assert len(run.END_TO_END_UNITS) <= 16
        assert len(run.per_layer_units()) <= 128

    def test_benchmark_json_lists_what_a_run_reports(self):
        doc = benchmark_json()
        assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
        assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.per_layer_units()
        whys = {w.name: w.why for w in pools.SIM_WORKLOADS.values()}
        whys[pools.SERVE_NAME] = pools.SERVE_WHY
        assert {w["name"]: w["why"] for w in doc["workloads"]} == whys
        assert [w["name"] for w in doc["workloads"]] == list(pools.WORKLOAD_NAMES)
        for metric in doc["end_to_end"]:
            assert 0 < metric["bound"] <= 0.25
        setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
        assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


class TestSeeds:
    @pytest.mark.parametrize("name", sorted(pools.SIM_WORKLOADS))
    def test_seed_reproduces_point_order(self, name):
        import random

        workload = pools.SIM_WORKLOADS[name]
        a, b, c = random.Random(7), random.Random(7), random.Random(8)
        first = [workload.pass_order(a) for _ in range(3)]
        assert first == [workload.pass_order(b) for _ in range(3)]
        assert first != [workload.pass_order(c) for _ in range(3)]
        assert sorted(first[0]) == sorted(workload.pool())

    def test_seed_reproduces_arrival_schedule(self):
        one = pools.serve_schedule(3, 10.0)
        assert one == pools.serve_schedule(3, 10.0)
        assert one.submits != pools.serve_schedule(4, 10.0).submits
        dues = [s.due for s in one.submits]
        assert dues == sorted(dues) and 0.0 <= dues[0] and dues[-1] < 10.0
        assert len(one.submits) == round(pools.SWEEP_RATE * 10.0)

    def test_every_seed_asks_for_the_same_mix(self):
        kinds = len(pools.sweep_kinds())
        seconds = kinds / pools.SWEEP_RATE
        for seed in (1, 2):
            schedule = pools.serve_schedule(seed, seconds)
            assert len({(s.design, s.horizon, s.benchmarks) for s in schedule.submits}) == kinds

    def test_every_requested_point_has_a_digest(self):
        table = digests.load()
        for workload in pools.SIM_WORKLOADS.values():
            for point in workload.pool():
                assert point_key(point) in table
        for submit in pools.serve_schedule(5, 10.0).submits:
            for point in submit.points():
                assert point_key(point) in table


class TestLayerMap:
    def test_every_module_has_a_layer(self):
        mapped = layers.check_layer_map()
        assert "repro.sim.event" in mapped and "repro.jobs.store" in mapped
        reported = set(layers.LAYERS) | {layers.CALLER}
        assert set(mapped.values()) <= reported

    def test_an_unmapped_module_fails(self):
        with pytest.raises(layers.UnmappedModule):
            layers.check_layer_map(["repro.sim.newlane"])
        with pytest.raises(layers.UnmappedModule):
            layers.check_layer_map(["repro.newpackage.module"])

    def test_profile_shares_cover_the_simulator(self):
        from repro.experiments.designs import build_named_gpu
        from repro.sim.gpu import simulate
        from repro.workloads.suite import get_benchmark

        profiler = cProfile.Profile()
        profiler.enable()
        simulate(build_named_gpu("secureMem_mshr64", num_partitions=2),
                 get_benchmark("bfs"), horizon=600, warmup=200)
        profiler.disable()
        shares = layers.profile_shares(pstats.Stats(profiler))
        assert set(shares) == set(layers.LAYERS)
        assert sum(shares.values()) == pytest.approx(1.0)
        assert shares["sim.event"] > 0 and shares["secure"] > 0


class TestDigestCheck:
    def test_a_corrupted_result_trips_the_check(self):
        from repro.experiments.designs import build_named_gpu
        from repro.experiments.runner import result_to_dict
        from repro.sim.gpu import simulate
        from repro.workloads.suite import get_benchmark

        point = ("nw", "unified", 600.0, pools.SERVE_WARMUP)
        result = result_to_dict(simulate(
            build_named_gpu("unified", num_partitions=pools.PARTITIONS),
            get_benchmark("nw"), horizon=600.0, warmup=pools.SERVE_WARMUP,
        ))
        check = digests.DigestCheck(digests.load())
        assert check.check(point_key(point), result)
        # a value read back from the store's JSON digests the same
        assert check.check(point_key(point), json.loads(json.dumps(result)))
        result["l2_misses"] += 1
        assert not check.check(point_key(point), result)
        assert check.mismatches == [point_key(point)]
        assert not check.check("no-such-point", result)


class TestLoadGenerator:
    def test_short_in_process_load_is_verified_and_bounded(self):
        from perfbench import serveload

        schedule = pools.serve_schedule(1, 2.0)
        table = digests.load()
        check = digests.DigestCheck(table)
        load, tracer, shares, extra = serveload.in_process_phase(schedule, 2.0, check, table)
        assert load.failed == 0 and not check.mismatches
        assert len(load.sweep_latency_s) == len(schedule.submits)
        assert 1 <= load.max_open <= serveload.CONN_LIMIT
        assert extra["rows_end"] == 2 * len(schedule.submits)
        assert tracer.durations["jobs.store.claim"]


class TestHostRef:
    def test_scale_is_relative_to_the_nominal_speed(self):
        from perfbench.hostref import REF_NOMINAL_S, scale

        assert scale(2.0, REF_NOMINAL_S, REF_NOMINAL_S) == pytest.approx(2.0)
        # a host twice as slow halves the scaled time
        assert scale(2.0, REF_NOMINAL_S, 3 * REF_NOMINAL_S) == pytest.approx(1.0)

    def test_the_child_times_its_kernel_and_stops(self):
        from perfbench.hostref import HostRef

        with HostRef() as ref:
            first = ref.measure()
            median = ref.measure(3)
            proc = ref.proc
        assert first > 0 and median > 0 and len(ref.samples) == 4
        assert proc.returncode == 0
