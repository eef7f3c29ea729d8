"""Bit-identity contracts between the fast core and the reference path.

The fast core (grouped crossbar delivery, the columnar delivery lane,
numpy epoch trace generation, the vectorized telemetry fold) is a
*mechanical* optimization: every simulated statistic, latency histogram,
and run-ledger record must be bit-identical to the scalar per-access
reference path (:data:`repro.sim.fastpath.REFERENCE`).  Two tests pin
that claim:

* golden dumps of secure + partitioned configurations — a stencil sweep
  (``fdtd2d``) and a pointer chase (``bfs``), together exercising all four
  protected classes (DATA, COUNTER, MAC, TREE) under both streaming and
  irregular reuse — replayed on both paths;
* a differential run of every registered workload under every registered
  design, fast against reference, compared field by field.

Regenerate the goldens (only after an intentional model change) with::

    PYTHONPATH=src python tests/test_fastpath_identity.py --regen
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.common.config import TelemetryConfig
from repro.experiments import designs
from repro.experiments.runner import Runner, result_to_dict
from repro.obsv.ledger import canonical_points, read_ledger
from repro.sim import fastpath
from repro.sim.gpu import simulate
from repro.workloads.suite import BENCHMARKS, get_benchmark

GOLDEN_DIR = Path(__file__).parent / "golden"

#: golden-pinned workloads: a regular stencil and a pointer chase (the
#: latter drives the columnar lane's irregular/fallback boundaries).
WORKLOADS = ["fdtd2d", "bfs"]
PARTITIONS = 2
HORIZON = 4_000.0
WARMUP = 2_000.0

#: the two paths the identity claim covers: (label, REFERENCE setting).
MODES = [("fast", False), ("reference", True)]
MODE_PARAMS = [pytest.param(reference, id=label) for label, reference in MODES]

#: differential scale: short enough to sweep the whole registry.
DIFF_HORIZON = 1_500.0
DIFF_WARMUP = 500.0


def _golden_path(workload: str) -> Path:
    return GOLDEN_DIR / f"{workload}-secure-telemetry.json"


def _config():
    """Full protection (counters + MAC + BMT) over 2 partitions, telemetry on."""
    config = designs.build_gpu(designs.secure_mem(64), PARTITIONS)
    return dataclasses.replace(
        config, telemetry=TelemetryConfig(enabled=True, sample_every=500.0)
    )


def _dump(workload: str) -> dict:
    """One run's stats + latency export, in golden-file shape."""
    result = simulate(
        _config(), get_benchmark(workload), horizon=HORIZON, warmup=WARMUP
    )
    return {
        "result": result_to_dict(result),
        "stats": result.stats.to_dict(),
        "latency": result.telemetry["latency"],
    }


def _ledger_records(tmp_path: Path, tag: str, workload: str) -> list:
    """Canonical ledger records from one Runner-driven run of the point."""
    ledger_path = tmp_path / f"ledger-{tag}.jsonl"
    runner = Runner(
        horizon=HORIZON,
        warmup=WARMUP,
        benchmarks=[workload],
        ledger_path=ledger_path,
    )
    runner.run(workload, _config())
    return canonical_points(read_ledger(ledger_path))


def _golden(workload: str) -> dict:
    return json.loads(_golden_path(workload).read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("reference", MODE_PARAMS)
def test_mode_matches_golden(workload: str, reference: bool) -> None:
    """Both paths reproduce the committed dumps exactly."""
    golden = _golden(workload)
    with fastpath.scoped(reference=reference):
        dump = _dump(workload)
    assert dump["result"] == golden["result"], (workload, reference)
    assert dump["stats"] == golden["stats"], (workload, reference)
    assert dump["latency"] == golden["latency"], (workload, reference)


@pytest.mark.parametrize("workload", sorted(BENCHMARKS))
def test_fast_matches_reference(workload: str) -> None:
    """Every design runs this workload identically on both paths."""
    spec = get_benchmark(workload)
    for name, factory in designs.DESIGNS.items():
        config = designs.build_gpu(factory(), PARTITIONS)
        dumps = []
        for _, reference in MODES:
            with fastpath.scoped(reference=reference):
                result = simulate(
                    config, spec, horizon=DIFF_HORIZON, warmup=DIFF_WARMUP
                )
            dumps.append(result_to_dict(result))
        assert dumps[0] == dumps[1], (workload, name)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_golden_exercises_all_protected_classes(workload: str) -> None:
    """The pinned points really do carry DATA, COUNTER, MAC and TREE traffic."""
    golden = _golden(workload)
    dram_classes = set()
    for hop_classes in golden["latency"]["hops"].values():
        dram_classes.update(hop_classes)
    assert {"DATA", "COUNTER", "MAC", "TREE"} <= dram_classes
    txn = golden["result"]["dram_txn"]
    assert txn["ctr"] > 0 and txn["mac"] > 0 and txn["bmt"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_ledger_records_identical_across_modes(
    tmp_path: Path, workload: str
) -> None:
    """Both paths write record-equivalent run ledgers."""
    golden = _golden(workload)
    for label, reference in MODES:
        with fastpath.scoped(reference=reference):
            records = _ledger_records(tmp_path, label, workload)
        assert records == golden["ledger"], (workload, label)


def test_columnar_contract_attributes_resolve() -> None:
    """Every attribute the columnar lane binds exists on a live model.

    The lane (:mod:`repro.sim.columnar`) flattens private state of the
    partition, L2 MSHR, DRAM channel and secure engine into slot views at
    construction.  Each owning module declares that surface in a
    ``COLUMNAR_CONTRACT`` tuple next to the class; this test resolves
    every name against freshly built instances so a rename in one layer
    fails here with the contract's name, not as an ``AttributeError``
    mid-simulation (or worse, a silently disengaged lane).
    """
    from repro.secure import engine as engine_mod
    from repro.sim import dram as dram_mod
    from repro.sim import mshr as mshr_mod
    from repro.sim import partition as partition_mod
    from repro.sim.gpu import Gpu

    gpu = Gpu(_config(), get_benchmark(WORKLOADS[0]))
    part = gpu.partitions[0]
    for owner, contract in [
        (part, partition_mod.COLUMNAR_CONTRACT),
        (part.l2_mshr, mshr_mod.COLUMNAR_CONTRACT),
        (part.dram, dram_mod.COLUMNAR_CONTRACT),
        (part.engine, engine_mod.COLUMNAR_CONTRACT),
    ]:
        for name in contract:
            assert hasattr(owner, name), (type(owner).__name__, name)


def _regenerate() -> None:
    import tempfile

    for workload in WORKLOADS:
        dump = _dump(workload)
        with tempfile.TemporaryDirectory() as tmp:
            dump["ledger"] = _ledger_records(Path(tmp), "regen", workload)
        path = _golden_path(workload)
        path.write_text(json.dumps(dump, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
