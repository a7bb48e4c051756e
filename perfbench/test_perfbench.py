"""Tests of the benchmark itself: determinism, seeding and tracing.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
for path in (HERE.parent / "src", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import pytest  # noqa: E402

import run  # noqa: E402
from layers import PER_LAYER, LayerTracer  # noqa: E402
from repro.quic.connection import reset_instance_counter  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Operations per determinism check: about 1-2 s of work each.
OPS = {"bulk-plugged": 2, "short-conns": 1, "plugin-exchange": 2}


def _workload(name: str, seed: int):
    workload = WORKLOADS[name](seed)
    workload.setup()
    return workload


def _observed_run(workload, ops: int) -> tuple:
    """Sim-time results and work counts of ``ops`` operations, with the
    tracer watching objects but nothing patched."""
    tracer = LayerTracer()
    workload.probe = tracer
    try:
        results = [workload.run_op(i) for i in range(ops)]
    finally:
        workload.probe = None
    sim = [(r.sim_goodputs, r.conn_times_ms, r.payload_bytes) for r in results]
    assert all(not r.failures for r in results), [r.failures for r in results]
    return sim, tracer.work_counts()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_repeats_sim_metrics_and_work_counts(name):
    reset_instance_counter()
    first = _observed_run(_workload(name, 3), OPS[name])
    reset_instance_counter()
    second = _observed_run(_workload(name, 3), OPS[name])
    assert first == second
    counts = first[1]
    assert counts["sim_events"] > 0 and counts["packets_sent"] > 0
    assert counts["protoop_runs"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_different_seed_changes_inputs(name):
    a, b = WORKLOADS[name](1), WORKLOADS[name](2)
    assert a.op_input(0) != b.op_input(0)
    assert a.op_input(0) == WORKLOADS[name](1).op_input(0)


def _code(value) -> bool:
    return callable(value) or isinstance(value, (classmethod, staticmethod))


def _bindings() -> dict:
    """Identity of every function and method bound in a ``repro`` module
    or class (state such as counters may change; code may not)."""
    seen = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("repro"):
            continue
        for attr, value in list(vars(mod).items()):
            if _code(value):
                seen[(mod_name, attr)] = value
            if isinstance(value, type):
                for cattr, cvalue in list(vars(value).items()):
                    if _code(cvalue):
                        seen[(mod_name, attr, cattr)] = cvalue
    return seen


def _same(before: dict, after: dict) -> bool:
    return all(after.get(k) is v for k, v in before.items())


def test_untraced_run_patches_nothing():
    workload = _workload("plugin-exchange", 1)
    workload.sim_ops = 1
    before = _bindings()
    results, probes = run.run_ops(workload, 0.0, run.ReferenceKernel(),
                                  lambda: 0.5)
    assert results and not results[0].failures
    assert probes == [0.5] * run.SETUP_PROBES
    assert _same(before, _bindings())


def test_tracer_restores_every_patch():
    workload = _workload("plugin-exchange", 1)
    before = _bindings()
    tracer = LayerTracer()
    tracer.install()
    try:
        patched = _bindings()
    finally:
        tracer.restore()
    changed = [k for k, v in before.items() if patched.get(k) is not v]
    assert len(changed) > 30
    assert _same(before, _bindings())
    assert not tracer.installed
    assert workload.probe is None


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_reports_every_layer(name, tmp_path):
    workload = _workload(name, 1)
    workload.trace_ops = 1
    metrics, results = run.run_traced(workload, tmp_path, run.ReferenceKernel())
    assert results and not any(r.failures for r in results)
    assert [m for m, _, _ in PER_LAYER] == list(metrics)
    assert (tmp_path / f"spans-{name}-seed1.bin").stat().st_size > 0
    for key in ("netsim.events", "codec.parse_calls", "crypto.seal_calls",
                "protoop.runs", "scheduler.calls", "conn.receive_calls",
                "endpoint.pump_calls", "trace.overhead_ratio"):
        assert metrics[key] > 0, key
    assert 0.0 <= metrics["trace.unattributed_share"] < 0.5
    if name == "short-conns":
        assert metrics["pre.invocations"] == 0
    else:
        assert metrics["pre.invocations"] > 0
    if name == "plugin-exchange":
        assert metrics["exchange.chunks"] > 0
        assert metrics["jit.compile_calls"] > 0


def test_unattributed_share_counts_unwrapped_event_work():
    """An event target no layer wraps runs inside ``Simulator.run``; its
    time must count as unattributed, not as the simulator's."""
    from repro.netsim import Simulator

    def busy() -> None:
        t_end = perf_counter() + 0.05
        while perf_counter() < t_end:
            pass

    tracer = LayerTracer()
    tracer.install()
    try:
        sim = Simulator()
        sim.schedule(1.0, busy)
        t0 = perf_counter()
        sim.run()
        tracer.op_walls.append(perf_counter() - t0)
    finally:
        tracer.restore()
    self_times = tracer.self_times()
    assert tracer.unattributed_share(self_times) > 0.9
    assert self_times["netsim.queue"] < 0.01


def test_tail_percentile_keeps_ten_samples_beyond():
    values = list(range(100))
    value, pct = run.tail(values)
    assert sum(v > value for v in values) == 10
    assert pct == 90.0
    assert run.tail([3.0, 1.0]) == (3.0, 100.0)


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
