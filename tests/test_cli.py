"""Command-line interface."""

from pathlib import Path

import pytest

import repro
from repro.cli import DESIGNS, main

FAST = ["--horizon", "1200", "--warmup", "800", "--partitions", "2"]


class TestStaticCommands:
    def test_designs_lists_everything(self, capsys):
        assert main(["designs"]) == 0
        out = capsys.readouterr().out
        for name in DESIGNS:
            assert name in out

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert repro.__version__ in capsys.readouterr().out

    def test_version_single_sourced_from_pyproject(self):
        """pyproject declares version dynamic, read from repro.__version__."""
        pyproject = (
            Path(__file__).resolve().parent.parent / "pyproject.toml"
        ).read_text()
        assert 'dynamic = ["version"]' in pyproject
        assert 'version = { attr = "repro.__version__" }' in pyproject

    def test_storage(self, capsys):
        assert main(["storage"]) == 0
        out = capsys.readouterr().out
        assert "290.13" in out or "290.14" in out

    def test_area(self, capsys):
        assert main(["area"]) == 0
        assert "AES engine" in capsys.readouterr().out


class TestRun:
    def test_run_prints_metrics(self, capsys):
        assert main(["run", "nw", "--design", "direct_40", *FAST]) == 0
        out = capsys.readouterr().out
        assert "IPC" in out
        assert "bandwidth util" in out

    def test_run_secure_prints_metadata(self, capsys):
        assert main(["run", "nw", "--design", "secureMem_mshr64", *FAST]) == 0
        out = capsys.readouterr().out
        assert "mac miss rate" in out

    def test_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            main(["run", "doom", *FAST])

    def test_rejects_unknown_design(self):
        with pytest.raises(SystemExit):
            main(["run", "nw", "--design", "nope", *FAST])


class TestReferenceFlag:
    """`repro --reference` runs one command on the scalar reference path."""

    @staticmethod
    def _run(monkeypatch, *flags):
        from repro import cli
        from repro.experiments.runner import result_to_dict
        from repro.sim import fastpath

        seen = {}
        real_simulate = cli.simulate

        def spy(*args, **kwargs):
            seen["reference"] = fastpath.REFERENCE
            result = real_simulate(*args, **kwargs)
            seen["result"] = result_to_dict(result)
            return result

        monkeypatch.setattr(cli, "simulate", spy)
        argv = [*flags, "run", "nw", "--design", "secureMem_mshr64", *FAST]
        assert main(argv) == 0
        return seen

    def test_reference_run_matches_default(self, monkeypatch, capsys):
        from repro.sim import fastpath

        reference = self._run(monkeypatch, "--reference")
        reference_out = capsys.readouterr().out
        assert reference["reference"] is True
        assert fastpath.REFERENCE is False  # scoped to the one command
        default = self._run(monkeypatch)
        assert default["reference"] is False
        assert reference["result"] == default["result"]
        assert capsys.readouterr().out == reference_out

    @pytest.mark.parametrize("retired", ["batch", "pool", "columnar"])
    def test_retired_switches_are_rejected(self, retired, capsys):
        """The old per-optimization opt-outs are gone, not ignored."""
        with pytest.raises(SystemExit) as excinfo:
            main([f"--no-{retired}", "designs"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestFigure:
    def test_figure_table2(self, capsys):
        assert main(["figure", "table2", *FAST]) == 0
        assert "counter" in capsys.readouterr().out

    def test_figure_table6_7(self, capsys):
        assert main(["figure", "table6_7", *FAST]) == 0
        assert "L2 displaced" in capsys.readouterr().out


class TestAttack:
    def test_attack_matrix(self, capsys):
        assert main(["attack"]) == 0
        out = capsys.readouterr().out
        assert "DETECTED" in out
        assert "missed" in out
        # encryption-only rows miss replay; tree rows catch it
        for line in out.splitlines():
            if line.startswith("ctr_mac_bmt"):
                assert line.count("DETECTED") == 3
            if line.startswith("direct ") or line.startswith("ctr "):
                assert "DETECTED" not in line


class TestSweepStore:
    def test_sweep_store_submits_drains_and_prints(self, tmp_path, capsys):
        store = tmp_path / "q.sqlite"
        assert main(["sweep", "--design", "baseline", "--bench", "nw",
                     "--store", str(store), *FAST]) == 0
        out = capsys.readouterr().out
        assert "submitted sweep" in out
        assert "nw" in out
        assert store.exists()

    def test_worker_drains_nothing_cleanly(self, tmp_path, capsys):
        store = tmp_path / "q.sqlite"
        assert main(["worker", "--store", str(store), "--max-points", "1"]) == 0
        assert "0 claim(s)" in capsys.readouterr().out


class TestObservabilityErrors:
    """Missing/empty/misused ledgers die with one line and exit 2."""

    def test_diff_missing_ledger_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.jsonl"
        assert main(["diff", str(missing), str(missing)]) == 2
        err = capsys.readouterr().err
        assert "no such ledger" in err
        assert "Traceback" not in err

    def test_diff_empty_ledger_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("\n")
        assert main(["diff", str(empty), str(empty)]) == 2
        err = capsys.readouterr().err
        assert "no point records" in err
        assert "repro sweep" in err  # the error tells you how to make one

    def test_diff_directory_exits_2(self, tmp_path, capsys):
        assert main(["diff", str(tmp_path), str(tmp_path)]) == 2
        assert "directory" in capsys.readouterr().err

    def test_scorecard_directory_ledger_exits_2(self, tmp_path, capsys):
        assert main(["scorecard", "--profile", "smoke",
                     "--ledger", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "directory" in err
        assert "Traceback" not in err


class TestDesignRegistryConsistency:
    def test_every_factory_builds(self):
        for name, factory in DESIGNS.items():
            secure = factory()
            if name != "baseline":
                assert secure is not None


class TestBench:
    """`repro bench` wraps the perf harness; wiring tested with a canned
    report so the suite never pays for a real multi-second benchmark."""

    @staticmethod
    def _canned_report():
        import json

        from repro.sim import fastpath

        return {
            "host": {"fastpath": fastpath.switch_state()},
            "events_per_second": 100.0,
            "identical_results": True,
            "telemetry": {"drift_free": True},
        }

    def test_load_perf_smoke_exposes_harness(self):
        from repro import cli

        harness = cli._load_perf_smoke()
        assert callable(harness.core_bench)
        assert callable(harness.regression_guard)

    def test_bench_writes_json_and_guards(self, tmp_path, capsys, monkeypatch):
        import json

        from repro import cli
        from repro.sim import fastpath

        harness = cli._load_perf_smoke()
        monkeypatch.setattr(harness, "core_bench", self._canned_report)
        monkeypatch.setattr(cli, "_load_perf_smoke", lambda: harness)
        monkeypatch.setattr("os.getloadavg", lambda: (0.0, 0.0, 0.0))

        out = tmp_path / "bench.json"
        baseline = tmp_path / "base.json"

        baseline.write_text(json.dumps(
            {"events_per_second": 90.0,
             "host": {"fastpath": fastpath.switch_state()}}))
        assert main(["bench", "--json", str(out), "--check",
                     "--baseline", str(baseline)]) == 0
        assert json.loads(out.read_text())["events_per_second"] == 100.0

        # a baseline taken on the other fastpath is never compared
        flipped = dict(fastpath.switch_state())
        flipped["reference"] = not flipped["reference"]
        baseline.write_text(json.dumps(
            {"events_per_second": 90.0, "host": {"fastpath": flipped}}))
        assert main(["bench", "--check", "--baseline", str(baseline)]) == 0
        assert "skipped" in capsys.readouterr().out

        # a real regression against a same-switch baseline fails the check
        baseline.write_text(json.dumps(
            {"events_per_second": 1000.0,
             "host": {"fastpath": fastpath.switch_state()}}))
        assert main(["bench", "--check", "--baseline", str(baseline)]) == 1
