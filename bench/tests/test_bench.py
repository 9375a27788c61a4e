"""Tests of the benchmark itself: run with ``python3 -m pytest bench/tests``."""

import json
import sys

import pytest

import inputs
import run
from spans import Tracer
from workloads import IdentifyWorkload, PartialWorkload, SweepWorkload

TINY_SWEEP = SweepWorkload("tiny-sweep", ((1.0, range(2, 5)),), (20, 1), 4)
TINY_PARTIAL = PartialWorkload("tiny-partial", (("exact", 2), ("exact", 3)))


def _units(workload, seed, tmp_path, **kw):
    if isinstance(workload, IdentifyWorkload):
        pairs = inputs.make_identify_inputs(seed, tmp_path / "inputs", files=2, d=4)
        return [workload._unit(t.stem, t, g, tmp_path / "report.json") for t, g in pairs]
    if isinstance(workload, PartialWorkload):
        items = inputs.make_partial_inputs(seed, tmp_path / "inputs", workload.cases, per_case=3)
        return [workload._unit(p.stem, m, p, tmp_path / "summary.json") for m, _d, p in items]
    return workload.units(seed, tmp_path)


def _traced_phase(workload, units, golden=None):
    tracer = Tracer()
    tracer.install()
    try:
        phase = run.run_phase(workload, units, 0.0, golden or {}, {}, {})
    finally:
        tracer.uninstall()
    return tracer, phase


@pytest.mark.parametrize("workload", [TINY_SWEEP, IdentifyWorkload(), TINY_PARTIAL],
                         ids=lambda w: w.name)
def test_self_times_sum_to_traced_wall(workload, tmp_path):
    units = _units(workload, 1, tmp_path)
    tracer, phase = _traced_phase(workload, units)
    assert phase.failed == 0
    wall = sum(map(sum, phase.raw.values()))
    assert abs(tracer.self_sum_ns() / 1e9 - wall) <= 0.1 * wall
    # every per-layer metric of BENCHMARK.json has a rule that computes it
    names = [m["name"] for m in json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    values = run.per_layer(names, tracer, units, phase, phase)
    assert values["trace.self_sum_ms"] == pytest.approx(values["trace.op_ms"], rel=0.1)


def test_perturbed_golden_record_counts_as_failed(tmp_path):
    units = _units(TINY_SWEEP, 1, tmp_path)
    golden = {u.key: u.collect(u.run()) for u in units}
    assert run.run_phase(TINY_SWEEP, units, 0.0, golden, {}, {}).failed == 0

    golden[units[-1].key][0]["eps_median"] *= 1 + 1e-6
    failures = {}
    phase = run.run_phase(TINY_SWEEP, units, 0.0, golden, {}, failures)
    assert phase.failed == TINY_SWEEP.trials  # one cell, all its trials
    assert list(failures) == [units[-1].key]

    ident = IdentifyWorkload()
    units = _units(ident, 1, tmp_path)
    golden = {u.key: u.collect(u.run()) for u in units}
    golden[units[0].key]["label_rank"] -= 1
    assert run.run_phase(ident, units, 0.0, golden, {}, {}).failed == 1


def _tree_bytes(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def test_equal_seeds_regenerate_identical_inputs(tmp_path):
    for seed, name in ((5, "a"), (5, "b"), (6, "c")):
        inputs.make_identify_inputs(seed, tmp_path / name, files=2, d=5)
        inputs.make_partial_inputs(seed, tmp_path / name, (("exact", 3),), per_case=2)
    assert _tree_bytes(tmp_path / "a") == _tree_bytes(tmp_path / "b")
    other = _tree_bytes(tmp_path / "c")
    assert all(other[k] != v for k, v in _tree_bytes(tmp_path / "a").items())


def test_removed_function_reads_zero_calls(tmp_path, monkeypatch):
    for name, mod in list(sys.modules.items()):
        if name == "qnetid" or name.startswith("qnetid."):
            if hasattr(mod, "read_trajectory_csv"):
                monkeypatch.delattr(mod, "read_trajectory_csv")
    units = _units(TINY_SWEEP, 1, tmp_path)
    tracer, phase = _traced_phase(TINY_SWEEP, units)
    assert phase.failed == 0
    assert tracer.metric("dynamics.read_trajectory_csv.calls", phase.attempted) == 0
    assert tracer.metric("dynamics.read_trajectory_csv.self_ms", phase.attempted) == 0
    assert tracer.metric("sweep.run_sweep.calls", phase.attempted) > 0
