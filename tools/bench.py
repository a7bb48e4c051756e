#!/usr/bin/env python
"""Fast-path benchmark harness and regression gate.

Runs the Table-3 / §4.6-style workloads across every layer the fast-path
engine touches — plus the many-connection ``quic-scale`` lifecycle
workload, the NAT-rebinding ``migration`` workload, the batched-datapath
``goodput`` A/B and the RFC 9002 ``lossy-recovery`` A/B — and writes
``BENCH_pr10.json`` at the repository root, the trajectory file that
future PRs compare themselves against.

Usage (from the repository root)::

    python tools/bench.py            # full run, writes BENCH_pr10.json
    python tools/bench.py --quick    # smaller iteration counts (CI smoke)
    python tools/bench.py --quick --check
                                     # additionally fail on >2x regression
                                     # vs the checked-in baseline (skipped
                                     # when no baseline exists yet)
    python tools/bench.py --profile  # cProfile each workload, print the
                                     # top 25 functions by cumulative time

Metrics are throughputs (ops/sec, events/sec, bytes/sec) plus the
interpreter-vs-JIT pluglet speedup; higher is always better.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.vm import PluginMemory, VirtualMachine, assemble, compile_pluglet  # noqa: E402
from repro.vm.jit import JitVirtualMachine  # noqa: E402

#: §4.6 compute kernel (same as benchmarks/test_micro_pre_overhead.py).
KERNEL_SOURCE = """
def kernel(n):
    total = 0
    i = 0
    while i < n:
        total = (total + i * 3) % 65521
        i += 1
    return total
"""

REGRESSION_FACTOR = 2.0  # --check fails when a metric drops below 1/2x
MIN_JIT_SPEEDUP = 3.0    # acceptance floor for the JIT on the kernel
#: The proof-specialized (monitor-free) closure strictly removes work
#: from the monitored one, so it must never be slower.  Measured as an
#: interleaved best-of-N in one process, so machine drift cancels.
MIN_MONITOR_FREE_SPEEDUP = 1.0
#: Same argument for the static fuel certificate on a *looping* kernel:
#: the certified closure only drops fuel-exhaustion checks (the
#: ``_fuel -= k`` accounting stays), so it must not be slower than the
#: monitored path.  Interleaved best-of-N again.
MIN_CERTIFICATE_SPEEDUP = 1.0
#: Observability must be zero-cost when disabled: a connection that had
#: tracing/metrics/profiling enabled and then disabled may dispatch at
#: most this much slower than one that never enabled them (the latter is
#: the untouched BENCH_pr2.json-era dispatch path).  Measured interleaved
#: in one process, so machine drift cancels.
TRACE_OVERHEAD_LIMIT_PCT = 5.0
#: Acceptance floor for the batched datapath: the GSO/GRO + zero-copy
#: path must move bulk data at least this many times faster (wall-clock)
#: than the same transfer with ``REPRO_BATCH=0``, plugins attached.
MIN_GOODPUT_SPEEDUP = 2.0
#: Acceptance floor for RFC 9002 loss recovery: goodput under 2% ambient
#: loss with PTO probes must be *strictly* above the legacy
#: declare-all-lost baseline.  Measured in deterministic simulated time
#: (identical seeded topology), so the ratio cannot flake with machine
#: load.
MIN_LOSSY_RECOVERY_SPEEDUP = 1.0


def _time(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - t0, result


# --- workloads ---------------------------------------------------------------

def bench_pre_kernel(quick: bool) -> dict:
    """Interpreter vs JIT on the §4.6 compute kernel."""
    code = compile_pluglet(KERNEL_SOURCE)
    n = 4_000 if quick else 20_000
    interp = VirtualMachine(code, PluginMemory(), instruction_budget=10_000_000)
    jit = JitVirtualMachine(code, PluginMemory(), instruction_budget=10_000_000)
    assert jit.jit_enabled
    # Warm up both engines, and prove equivalence while at it.
    assert interp.run(100) == jit.run(100)

    interp_t, expected = _time(interp.run, n)
    jit_t, got = _time(jit.run, n)
    assert got == expected
    ips_interp = interp.instructions_executed / interp_t if interp_t else 0.0
    return {
        "pre_kernel_interp_ops_per_sec": (n / interp_t, "kernel-iters/s"),
        "pre_kernel_jit_ops_per_sec": (n / jit_t, "kernel-iters/s"),
        "pre_kernel_jit_speedup": (interp_t / jit_t, "x"),
        "pre_interp_instructions_per_sec": (ips_interp, "instr/s"),
    }


def _analysis_kernel(n_pairs: int = 120) -> list:
    """Loop-free, memory-heavy bytecode where every access is provable:
    the workload the analyzer's proofs specialize best (fuel checks and
    the two-region monitor both elide)."""
    from repro.vm.interpreter import HEAP_BASE

    lines = [f"lddw r6, {HEAP_BASE}", "mov r0, 0"]
    for i in range(n_pairs):
        off = (i * 8) % 1024
        lines.append(f"stdw [r6+{off}], {i + 1}")
        lines.append(f"ldxdw r1, [r6+{off}]")
        lines.append("add r0, r1")
    lines.append("exit")
    return assemble("\n".join(lines))


def _certificate_kernel(trips: int = 200) -> list:
    """A *looping* kernel with a register counter the fuel-certificate
    analysis can bound: constant start, +1 per lap, compared against a
    constant at the loop head.  Loop-freedom proofs do not apply here —
    only a certificate lets the JIT drop the batched fuel checks."""
    return assemble("\n".join([
        "mov r6, 0",
        "mov r0, 0",
        "loop:",
        "add r0, 2",
        "add r6, 1",
        f"jlt r6, {trips}, loop",
        "exit",
    ]))


def bench_analysis(quick: bool) -> dict:
    """Static-analyzer throughput plus the payoff of its proofs: the
    same JIT-compiled kernel with and without the inlined runtime
    monitor (``--check`` gates monitor-free >= monitored), and the
    ``fuel_certificate`` variant — a looping kernel where certified
    fuel-check elision must be no slower than the monitored path."""
    from repro.vm.analysis import analyze

    program = _analysis_kernel()
    rounds = 20 if quick else 100
    t, report = _time(lambda: [analyze(program)
                               for _ in range(rounds)][-1])
    assert report.ok and report.memory_safe
    assert report.fuel_bound == len(program)

    monitored = JitVirtualMachine(program, PluginMemory(),
                                  instruction_budget=10_000_000)
    free = JitVirtualMachine(program, PluginMemory(),
                             instruction_budget=10_000_000, analysis=report)
    assert monitored.jit_enabled and free.jit_specialized
    assert monitored.run() == free.run()  # equivalence while warming up

    runs = 300 if quick else 2_000

    def spin(vm):
        for _ in range(runs):
            vm.run()

    best = {"monitored": float("inf"), "free": float("inf")}
    for _ in range(5):  # interleaved best-of-N
        for name, vm in (("monitored", monitored), ("free", free)):
            dt, _ = _time(spin, vm)
            best[name] = min(best[name], dt)

    # --- fuel_certificate variant: a loop only a certificate can elide --
    loop_program = _certificate_kernel()
    loop_report = analyze(loop_program)
    assert loop_report.fuel_certificate is not None, \
        "certificate kernel must certify"
    assert not loop_report.loop_free
    cert_monitored = JitVirtualMachine(loop_program, PluginMemory(),
                                       instruction_budget=10_000_000)
    certified = JitVirtualMachine(loop_program, PluginMemory(),
                                  instruction_budget=10_000_000,
                                  analysis=loop_report)
    assert cert_monitored.jit_enabled and certified.jit_specialized
    assert cert_monitored.run() == certified.run()
    assert (cert_monitored.instructions_executed
            == certified.instructions_executed)
    cert_best = {"monitored": float("inf"), "certified": float("inf")}
    for _ in range(5):  # interleaved best-of-N
        for name, vm in (("monitored", cert_monitored),
                         ("certified", certified)):
            dt, _ = _time(spin, vm)
            cert_best[name] = min(cert_best[name], dt)

    return {
        "analysis_instrs_per_sec":
            (len(program) * rounds / t, "instr/s"),
        "jit_monitored_kernel_ops_per_sec":
            (runs / best["monitored"], "ops/s"),
        "jit_monitor_free_kernel_ops_per_sec":
            (runs / best["free"], "ops/s"),
        "jit_monitor_free_speedup":
            (best["monitored"] / best["free"], "x"),
        "jit_fuel_cert_monitored_ops_per_sec":
            (runs / cert_best["monitored"], "ops/s"),
        "jit_fuel_cert_elided_ops_per_sec":
            (runs / cert_best["certified"], "ops/s"),
        "jit_fuel_certificate_speedup":
            (cert_best["monitored"] / cert_best["certified"], "x"),
    }


def bench_pluglet_invocation(quick: bool) -> dict:
    """Invocation-rate micro-benchmark: a tiny pluglet called many times
    (per-call overhead rather than per-instruction throughput)."""
    code = assemble("add r6, r1\nmov r0, r6\nexit")
    rounds = 2_000 if quick else 20_000

    def spin(vm):
        for i in range(rounds):
            vm.run(i)

    interp = VirtualMachine(code, PluginMemory())
    jit = JitVirtualMachine(code, PluginMemory())
    spin(interp), spin(jit)  # warm-up
    interp_t, _ = _time(spin, interp)
    jit_t, _ = _time(spin, jit)
    return {
        "pluglet_invocations_per_sec_interp": (rounds / interp_t, "ops/s"),
        "pluglet_invocations_per_sec_jit": (rounds / jit_t, "ops/s"),
        "pluglet_invocation_speedup": (interp_t / jit_t, "x"),
    }


def bench_protoop_dispatch(quick: bool) -> dict:
    """Hot no-plugin dispatch: a call through the operation's bound slot."""
    from repro.quic import QuicConfiguration
    from repro.quic.connection import QuicConnection

    conn = QuicConnection(QuicConfiguration(is_client=True))
    rounds = 10_000 if quick else 100_000
    slot = conn.ops.packet_sent_event
    for _ in range(1_000):  # warm up
        slot(conn)
    t, _ = _time(lambda: [slot(conn) for _ in range(rounds)])
    return {"protoop_dispatch_ops_per_sec": (rounds / t, "ops/s")}


def bench_trace_overhead(quick: bool) -> dict:
    """Observability cost on the hot dispatch path, measured as an
    interleaved in-process A/B so machine drift cancels:

    * ``off``      — a connection that never saw the trace subsystem
      (byte-identical dispatch to the pre-observability engine);
    * ``detached`` — tracing + metrics + profiling enabled, then fully
      disabled again (must return to the zero-cost path);
    * ``on``       — a live tracer, metrics and profiler (the price of
      actually observing).

    ``--check`` gates ``detached`` within ``TRACE_OVERHEAD_LIMIT_PCT`` of
    ``off``.
    """
    import types

    from repro.quic import QuicConfiguration
    from repro.quic.connection import QuicConnection
    from repro.trace import (
        ConnectionMetrics,
        ConnectionTracer,
        MetricsRegistry,
        PreProfiler,
    )

    rounds = 4_000 if quick else 40_000
    repeats = 5
    # The tracer / metrics decoders read real packet fields, so every
    # variant dispatches the same fake sent-packet record.
    sent = types.SimpleNamespace(packet_number=0, size=1200, path_id=0,
                                 ack_eliciting=True)

    def make_conn():
        return QuicConnection(QuicConfiguration(is_client=True))

    conn_off = make_conn()

    conn_detached = make_conn()
    profiler = PreProfiler().attach(conn_detached)
    det_metrics = ConnectionMetrics(conn_detached, MetricsRegistry())
    det_tracer = ConnectionTracer(conn_detached, max_events=16)
    det_tracer.finish()
    det_metrics.detach()
    profiler.detach(conn_detached)

    conn_on = make_conn()
    PreProfiler().attach(conn_on)
    ConnectionMetrics(conn_on, MetricsRegistry())
    on_tracer = ConnectionTracer(conn_on, max_events=rounds * (repeats + 2))

    def dispatch(conn):
        slot = conn.ops.packet_sent_event
        for _ in range(rounds):
            slot(conn, sent)

    variants = [("off", conn_off), ("detached", conn_detached),
                ("on", conn_on)]
    for _, conn in variants:  # warm up identically
        dispatch(conn)
    best = {name: float("inf") for name, _ in variants}
    # The live tracer retains every event; left unbounded, generational
    # GC passes over that growing heap would land randomly inside the
    # gated off/detached samples.  Bound the heap and keep the collector
    # out of the timed regions.
    import gc

    gc_was_enabled = gc.isenabled()
    try:
        for _ in range(repeats):  # interleaved best-of-N
            for name, conn in variants:
                on_tracer.events.clear()
                gc.collect()
                gc.disable()
                t, _ = _time(dispatch, conn)
                gc.enable()
                best[name] = min(best[name], t)
    finally:
        if gc_was_enabled:
            gc.enable()
        else:
            gc.disable()
    return {
        "trace_off_dispatch_ops_per_sec": (rounds / best["off"], "ops/s"),
        "trace_detached_dispatch_ops_per_sec":
            (rounds / best["detached"], "ops/s"),
        "trace_on_dispatch_ops_per_sec": (rounds / best["on"], "ops/s"),
    }


def bench_crypto(quick: bool) -> dict:
    """AEAD seal+open throughput on full-size packets."""
    from repro.quic.crypto import AeadContext

    aead = AeadContext(b"k" * 16)
    payload = b"\xa5" * 1200
    header = b"\x40" + b"\x07" * 8
    rounds = 500 if quick else 4_000

    def seal_all():
        for pn in range(rounds):
            aead.seal(pn, header, payload)

    def open_all(packets):
        for pn, ct in packets:
            aead.open(pn, header, ct)

    seal_all()  # warm the block cache path
    t_seal, _ = _time(seal_all)
    packets = [(pn, aead.seal(pn, header, payload)) for pn in range(rounds)]
    t_open, _ = _time(open_all, packets)
    return {
        "crypto_seal_bytes_per_sec": (rounds * len(payload) / t_seal, "B/s"),
        "crypto_open_bytes_per_sec": (rounds * len(payload) / t_open, "B/s"),
    }


def bench_simulator(quick: bool) -> dict:
    """Event-loop throughput with a live cancel/pending mix (the workload
    the O(1) ``pending()`` and lazy deletion target)."""
    from repro.netsim import Simulator

    n_events = 20_000 if quick else 200_000
    sim = Simulator()
    fired = [0]

    def tick():
        fired[0] += 1
        if fired[0] < n_events:
            ev = sim.schedule(0.001, tick)
            # A second, immediately-cancelled timer: the retransmission
            # alarm pattern that used to make pending() O(n).
            sim.schedule(0.002, tick).cancel()
            assert sim.pending() >= 1
            del ev

    sim.schedule(0.0, tick)
    t, _ = _time(sim.run)
    return {"sim_events_per_sec": (fired[0] / t, "events/s")}


def bench_transfer(quick: bool) -> dict:
    """End-to-end QUIC transfer over the simulated testbed topology."""
    from repro.netsim import Simulator, symmetric_topology
    from repro.quic import ClientEndpoint, ServerEndpoint

    size = 100_000 if quick else 400_000
    sim = Simulator()
    topo = symmetric_topology(sim, d_ms=10, bw_mbps=20)
    server = ServerEndpoint(sim, topo.server, "server.0", 443)
    received = bytearray()
    done = [False]

    def on_conn(conn):
        conn.on_stream_data = lambda sid, d, fin: (
            received.extend(d), done.__setitem__(0, fin))

    server.on_connection = on_conn
    client = ClientEndpoint(sim, topo.client, "client.0", 5000,
                            "server.0", 443)

    def transfer():
        client.connect()
        assert sim.run_until(lambda: client.conn.is_established, timeout=10)
        sid = client.conn.create_stream()
        client.conn.send_stream_data(sid, b"z" * size, fin=True)
        client.pump()
        assert sim.run_until(lambda: done[0], timeout=600)

    t, _ = _time(transfer)
    assert len(received) == size
    return {"e2e_transfer_bytes_per_sec": (size / t, "B/s")}


def bench_quic_scale(quick: bool) -> dict:
    """Many-connection server scale: N concurrent clients through one
    shared bottleneck against a single ``ServerEndpoint``, then a
    sequential churn loop.  Exercises the close/drain state machine,
    server-side eviction and the far-timer wheel; asserts along the way
    that server state stays bounded by the number of *open* connections.
    """
    from repro.netsim import Simulator, symmetric_topology
    from repro.quic import ClientEndpoint, ServerEndpoint
    from repro.quic.connection import ConnectionState
    from repro.trace import MetricsRegistry

    n_concurrent = 60 if quick else 500
    n_churn = 100 if quick else 1000

    # --- phase 1: N concurrent connections -----------------------------
    sim = Simulator()
    topo = symmetric_topology(sim, d_ms=10, bw_mbps=20)
    metrics = MetricsRegistry()

    def on_conn(conn):
        def on_data(sid, data, fin):
            if fin:
                conn.close(0, "done")
        conn.on_stream_data = on_data

    server = ServerEndpoint(sim, topo.server, "server.0", 443,
                            on_connection=on_conn, metrics=metrics)
    clients = []
    closed_clients = [0]

    for i in range(n_concurrent):
        client = ClientEndpoint(sim, topo.client, "client.0", 5000 + i,
                                "server.0", 443)
        client.conn.on_closed = (
            lambda c: closed_clients.__setitem__(0, closed_clients[0] + 1))
        clients.append(client)

    def run_concurrent():
        # Staggered starts (2 ms apart) so the Initial burst does not
        # overrun the shared bottleneck buffer.
        for i, client in enumerate(clients):
            sim.schedule(i * 0.002, client.connect)

        def sendall():
            for client in clients:
                if client.conn.is_established and not client.conn.closed \
                        and not client.conn.streams_send:
                    sid = client.conn.create_stream()
                    client.conn.send_stream_data(sid, b"q" * 1200, fin=True)
                    client.pump()

        # Poll for establishment on a coarse clock instead of per-event.
        for k in range(1, 200):
            sim.schedule(k * 0.05, sendall)
        ok = sim.run_until(
            lambda: (server.stats["evicted"] == n_concurrent
                     and closed_clients[0] == n_concurrent),
            timeout=300,
        )
        assert ok, (
            f"scale run stalled: evicted={server.stats['evicted']}"
            f"/{n_concurrent}, clients closed={closed_clients[0]}")

    t_concurrent, _ = _time(run_concurrent)
    assert server.stats["accepted"] == n_concurrent
    assert len(server._by_cid) == 0 and len(server.connections) == 0
    assert metrics.counter("quic.server.connections_evicted").value \
        == n_concurrent

    # --- phase 2: sequential churn --------------------------------------
    sim2 = Simulator()
    topo2 = symmetric_topology(sim2, d_ms=5, bw_mbps=50)
    server2 = ServerEndpoint(sim2, topo2.server, "server.0", 443,
                             on_connection=on_conn)

    def run_churn():
        for _ in range(n_churn):
            client = ClientEndpoint(sim2, topo2.client, "client.0", 5000,
                                    "server.0", 443)
            client.connect()
            assert sim2.run_until(lambda: client.conn.is_established,
                                  timeout=10)
            sid = client.conn.create_stream()
            client.conn.send_stream_data(sid, b"q" * 600, fin=True)
            client.pump()
            assert sim2.run_until(
                lambda: client.conn.state is ConnectionState.CLOSED,
                timeout=60)
            # Bounded server state: everything from terminated
            # connections is evicted (<= one still-draining connection,
            # which holds three CIDs: initial DCID, server CID, spare).
            assert len(server2._by_cid) <= 3, len(server2._by_cid)
            assert len(server2.connections) <= 1
        # Let the last drain finish, then the event queue must be empty
        # of connection timers (only the nothing-pending steady state).
        sim2.run(until=sim2.now + 2.0)
        assert len(server2._by_cid) == 0
        assert sim2.pending() == 0, sim2.pending()

    t_churn, _ = _time(run_churn)
    assert server2.stats["evicted"] == n_churn
    return {
        "quic_scale_conns_per_sec": (n_concurrent / t_concurrent, "conns/s"),
        "quic_churn_conns_per_sec": (n_churn / t_churn, "conns/s"),
    }


def bench_migration(quick: bool) -> dict:
    """Transfer through a NAT that rebinds mid-flight: the RFC 9000 §9
    migration scenario.  Measures end-to-end goodput including the
    validation stall and how fast the server re-validates the new path
    (time from the rebind to the server's PATH_RESPONSE arriving)."""
    from repro.netsim import FaultInjector, Simulator, nat_topology
    from repro.quic import ClientEndpoint, ServerEndpoint
    from repro.quic.connection import PathState

    size = 80_000 if quick else 300_000
    sim = Simulator()
    topo = nat_topology(sim, d_ms=10, bw_mbps=20, seed=1)
    received = bytearray()
    done = [False]
    server_conn = []

    def on_conn(conn):
        server_conn.append(conn)
        conn.on_stream_data = lambda sid, d, fin: (
            received.extend(d), done.__setitem__(0, fin))

    server = ServerEndpoint(sim, topo.server, "server.0", 443,
                            on_connection=on_conn)
    client = ClientEndpoint(sim, topo.client, "client.0", 5000,
                            "server.0", 443)
    injector = FaultInjector(sim)
    rebind_at = [None]
    validated_at = [None]

    def watch_validation():
        conn = server_conn[0] if server_conn else None
        if (validated_at[0] is None and conn is not None
                and sim.now > rebind_at[0]
                and conn.stats["migrations"] > 0
                and conn.paths[0].state == PathState.VALIDATED):
            validated_at[0] = sim.now
        if not done[0]:
            sim.schedule(0.005, watch_validation)

    def transfer():
        client.connect()
        assert sim.run_until(lambda: client.conn.is_established, timeout=10)
        # Rebind relative to establishment, so the fault always lands
        # mid-transfer regardless of handshake duration or payload size.
        rebind_at[0] = sim.now + 0.02
        injector.schedule_nat_rebind(topo.nat, at=rebind_at[0])
        sid = client.conn.create_stream()
        client.conn.send_stream_data(sid, b"m" * size, fin=True)
        client.pump()
        sim.schedule(0.0, watch_validation)
        assert sim.run_until(lambda: done[0], timeout=600)

    t, _ = _time(transfer)
    assert len(received) == size
    sconn = server_conn[0]
    assert sconn.stats["migrations"] >= 1, "NAT rebind never migrated"
    assert validated_at[0] is not None, "new path never validated"
    revalidation_s = validated_at[0] - rebind_at[0]
    return {
        "migration_transfer_bytes_per_sec": (size / t, "B/s"),
        "migration_revalidations_per_sec": (1.0 / revalidation_s, "ops/s"),
    }


def _goodput_transfer(size: int, batch: bool) -> dict:
    """One bulk upload over the paper's lossy 100 ms-RTT bottleneck with
    the monitoring plugin attached on both ends, timed in wall-clock
    seconds.  ``batch`` toggles the GSO/GRO datapath via the same
    ``REPRO_BATCH`` kill switch users have; connections cache the flag at
    construction, so both modes coexist in this one process."""
    import os

    from repro.core.plugin import PluginInstance
    from repro.netsim import Simulator, symmetric_topology
    from repro.plugins import build_monitoring_plugin
    from repro.quic import ClientEndpoint, ServerEndpoint

    previous = os.environ.get("REPRO_BATCH")
    os.environ["REPRO_BATCH"] = "1" if batch else "0"
    try:
        sim = Simulator()
        topo = symmetric_topology(sim, d_ms=50, bw_mbps=20, loss_pct=0.5,
                                  seed=7, buffer_bytes=256 * 1024)
        received = bytearray()
        done = [False]

        def on_conn(conn):
            PluginInstance(build_monitoring_plugin(), conn).attach()
            conn.on_stream_data = lambda sid, d, fin: (
                received.extend(d), done.__setitem__(0, fin))

        ServerEndpoint(sim, topo.server, "server.0", 443,
                       on_connection=on_conn)
        client = ClientEndpoint(sim, topo.client, "client.0", 5000,
                                "server.0", 443)
        PluginInstance(build_monitoring_plugin(), client.conn).attach()

        # Establish first (the server's plugin attaches — and JIT-compiles
        # — at accept time): goodput times the bulk phase only, so that
        # fixed setup cost common to both modes does not dilute the ratio.
        client.connect()
        assert sim.run_until(lambda: client.conn.is_established, timeout=10)

        def bulk():
            sid = client.conn.create_stream()
            client.conn.send_stream_data(sid, b"g" * size, fin=True)
            client.pump()
            assert sim.run_until(lambda: done[0], timeout=600)

        t, _ = _time(bulk)
        assert len(received) == size
        assert client.conn._batch is batch
        return {"wall_s": t, "sim_s": sim.now,
                "events_coalesced": sim.events_coalesced}
    finally:
        if previous is None:
            del os.environ["REPRO_BATCH"]
        else:
            os.environ["REPRO_BATCH"] = previous


def bench_goodput(quick: bool) -> dict:
    """Batched-datapath A/B: the same plugin-laden bulk transfer over a
    100 ms RTT, 0.5 %-loss bottleneck, with the GSO/GRO + zero-copy
    datapath on (default) and off (``REPRO_BATCH=0``).  Identical seeded
    topology, identical payload; the gated ``goodput_batch_speedup`` is
    the wall-clock ratio (``--check`` enforces ``MIN_GOODPUT_SPEEDUP``)."""
    size = 300_000 if quick else 2_000_000
    batched = _goodput_transfer(size, batch=True)
    legacy = _goodput_transfer(size, batch=False)
    assert batched["events_coalesced"] > 0  # GSO actually engaged
    assert legacy["events_coalesced"] == 0  # kill switch really off
    # The absolute coalesce count scales with the payload, so it is
    # printed rather than gated (a quick CI run would trip a count gate
    # against the full-run baseline).
    print(f"    goodput: {batched['events_coalesced']:,} simulator events"
          f" coalesced; sim-time {batched['sim_s']:.2f}s batched vs"
          f" {legacy['sim_s']:.2f}s unbatched")
    return {
        "goodput_batched_bytes_per_sec":
            (size / batched["wall_s"], "B/s"),
        "goodput_unbatched_bytes_per_sec":
            (size / legacy["wall_s"], "B/s"),
        "goodput_batch_speedup":
            (legacy["wall_s"] / batched["wall_s"], "x"),
    }


def _lossy_recovery_transfer(size: int, declare_all: bool,
                             episodes: int) -> dict:
    """One bulk upload over a 50 ms-RTT, 2 %-loss path with the
    monitoring plugin attached, punctuated by deterministic delayed-ACK
    episodes (the return path stalls for 350 ms, then recovers — think
    bufferbloat bursts).  Each episode expires the PTO timer without any
    forward loss: the RFC 9002 path sends <= 2 probes and keeps its
    window; ``declare_all`` instead toggles the legacy PTO response that
    declares whole flights lost, retransmitting delivered data and
    collapsing cwnd.  Both runs share the seeded topology, so the
    simulated completion time is deterministic and the ratio cannot
    flake with machine load."""
    from repro.core.plugin import PluginInstance
    from repro.netsim import Simulator, symmetric_topology
    from repro.plugins import build_monitoring_plugin
    from repro.quic import (
        ClientEndpoint,
        QuicConfiguration,
        ServerEndpoint,
    )

    sim = Simulator()
    topo = symmetric_topology(sim, d_ms=25, bw_mbps=10, loss_pct=2.0,
                              seed=11, buffer_bytes=256 * 1024)
    received = bytearray()
    done = [False]

    def on_conn(conn):
        PluginInstance(build_monitoring_plugin(), conn).attach()
        conn.on_stream_data = lambda sid, d, fin: (
            received.extend(d), done.__setitem__(0, fin))

    ServerEndpoint(sim, topo.server, "server.0", 443, on_connection=on_conn)
    cfg = QuicConfiguration(is_client=True, declare_all_on_pto=declare_all)
    client = ClientEndpoint(sim, topo.client, "client.0", 5000,
                            "server.0", 443, configuration=cfg)
    PluginInstance(build_monitoring_plugin(), client.conn).attach()

    client.connect()
    assert sim.run_until(lambda: client.conn.is_established, timeout=10)
    bulk_start = sim.now

    base_delay = topo.path_links[0].backward.delay

    def bulk():
        sid = client.conn.create_stream()
        client.conn.send_stream_data(sid, b"r" * size, fin=True)
        client.pump()
        for _ in range(episodes):
            sim.run(until=sim.now + 0.4)
            if done[0]:
                break
            for link in topo.path_links:
                link.backward.delay = 0.35
            sim.run(until=sim.now + 0.35)
            for link in topo.path_links:
                link.backward.delay = base_delay
        assert sim.run_until(lambda: done[0], timeout=600)

    t, _ = _time(bulk)
    assert len(received) == size
    stats = client.conn.stats
    assert stats["pto_fired"] > 0  # the stalls really expired the timer
    if declare_all:
        assert stats["probes_sent"] == 0  # legacy flag really engaged
    return {"wall_s": t, "sim_s": sim.now - bulk_start,
            "pto_fired": stats["pto_fired"],
            "probes_sent": stats["probes_sent"],
            "packets_lost": stats["packets_lost"]}


def bench_lossy_recovery(quick: bool) -> dict:
    """RFC 9002 loss-recovery A/B: the same 2 %-loss bulk transfer with
    PTO probes (default) versus the legacy declare-everything-lost PTO
    response (``declare_all_on_pto``).  Goodput is computed from the
    deterministic *simulated* completion time; ``--check`` enforces the
    strict ``MIN_LOSSY_RECOVERY_SPEEDUP`` floor (probing must beat the
    collapse-the-window baseline outright)."""
    size = 400_000 if quick else 1_500_000
    episodes = 3 if quick else 8
    rfc = _lossy_recovery_transfer(size, declare_all=False,
                                   episodes=episodes)
    legacy = _lossy_recovery_transfer(size, declare_all=True,
                                      episodes=episodes)
    print(f"    lossy-recovery: rfc sim-time {rfc['sim_s']:.2f}s"
          f" ({rfc['pto_fired']} PTOs, {rfc['probes_sent']} probes,"
          f" {rfc['packets_lost']} lost) vs legacy {legacy['sim_s']:.2f}s"
          f" ({legacy['pto_fired']} PTOs, {legacy['packets_lost']} lost)")
    return {
        "lossy_recovery_goodput_bytes_per_sec":
            (size / rfc["sim_s"], "B/s"),
        "lossy_recovery_legacy_bytes_per_sec":
            (size / legacy["sim_s"], "B/s"),
        "lossy_recovery_speedup":
            (legacy["sim_s"] / rfc["sim_s"], "x"),
    }


WORKLOADS = [
    ("pre-kernel", bench_pre_kernel),
    ("analysis", bench_analysis),
    ("pluglet-invocation", bench_pluglet_invocation),
    ("protoop-dispatch", bench_protoop_dispatch),
    ("trace-overhead", bench_trace_overhead),
    ("crypto", bench_crypto),
    ("simulator", bench_simulator),
    ("e2e-transfer", bench_transfer),
    ("quic-scale", bench_quic_scale),
    ("migration", bench_migration),
    ("goodput", bench_goodput),
    ("lossy-recovery", bench_lossy_recovery),
]


# --- reporting / regression gate --------------------------------------------

def run_all(quick: bool, profile: bool = False) -> dict:
    metrics = {}
    for name, fn in WORKLOADS:
        print(f"[bench] {name} ...", flush=True)
        if profile:
            import cProfile
            import pstats

            profiler = cProfile.Profile()
            results = profiler.runcall(fn, quick)
        else:
            results = fn(quick)
        for key, (value, unit) in results.items():
            metrics[key] = {"value": round(value, 3), "unit": unit}
            print(f"    {key:42s} {value:>14,.1f} {unit}")
        if profile:
            print(f"[bench] cProfile top 25 for {name}:")
            stats = pstats.Stats(profiler)
            stats.sort_stats("cumulative").print_stats(25)
    return metrics


def check_regressions(metrics: dict, baseline_path: pathlib.Path) -> list:
    """>2x drops vs the checked-in baseline.  All metrics are
    higher-is-better throughputs/speedups.

    Ratio metrics (unit ``x``) are skipped: they divide two noisy
    timings, so they flake hardest under shared-runner load, and each
    already has a dedicated absolute floor (``MIN_JIT_SPEEDUP``)."""
    if not baseline_path.exists():
        print(f"[bench] no baseline at {baseline_path}; skipping check")
        return []
    baseline = json.loads(baseline_path.read_text()).get("metrics", {})
    failures = []
    for key, entry in metrics.items():
        base = baseline.get(key)
        if base is None or base.get("unit") != entry["unit"]:
            continue
        if entry["unit"] == "x":
            continue
        if entry["value"] * REGRESSION_FACTOR < base["value"]:
            failures.append(
                f"{key}: {entry['value']:,.1f} {entry['unit']} is >"
                f"{REGRESSION_FACTOR}x below baseline {base['value']:,.1f}"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smaller iteration counts (CI smoke run)")
    parser.add_argument("--check", action="store_true",
                        help="fail on >2x regression vs the baseline")
    parser.add_argument("--profile", action="store_true",
                        help="run each workload under cProfile and print "
                             "the top 25 functions by cumulative time")
    parser.add_argument("--output", type=pathlib.Path,
                        default=ROOT / "BENCH_pr10.json")
    parser.add_argument("--baseline", type=pathlib.Path,
                        default=ROOT / "BENCH_pr10.json",
                        help="baseline file compared by --check")
    args = parser.parse_args(argv)

    metrics = run_all(args.quick, profile=args.profile)

    failures = []
    speedup = metrics["pre_kernel_jit_speedup"]["value"]
    if speedup < MIN_JIT_SPEEDUP:
        msg = (f"pre_kernel_jit_speedup {speedup:.2f}x below the "
               f"{MIN_JIT_SPEEDUP}x acceptance floor")
        if args.check:
            failures.append(msg)
        else:
            print(f"[bench] WARNING: {msg}")

    mf_speedup = metrics["jit_monitor_free_speedup"]["value"]
    if mf_speedup < MIN_MONITOR_FREE_SPEEDUP:
        msg = (f"jit_monitor_free_speedup {mf_speedup:.3f}x: the "
               f"proof-specialized closure must not be slower than the "
               f"monitored one ({MIN_MONITOR_FREE_SPEEDUP}x floor)")
        if args.check:
            failures.append(msg)
        else:
            print(f"[bench] WARNING: {msg}")

    cert_speedup = metrics["jit_fuel_certificate_speedup"]["value"]
    if cert_speedup < MIN_CERTIFICATE_SPEEDUP:
        msg = (f"jit_fuel_certificate_speedup {cert_speedup:.3f}x: the "
               f"certified fuel-check-elided closure must not be slower "
               f"than the monitored one ({MIN_CERTIFICATE_SPEEDUP}x floor)")
        if args.check:
            failures.append(msg)
        else:
            print(f"[bench] WARNING: {msg}")

    off = metrics["trace_off_dispatch_ops_per_sec"]["value"]
    detached = metrics["trace_detached_dispatch_ops_per_sec"]["value"]
    overhead_pct = (off - detached) / off * 100.0 if off else 0.0
    print(f"[bench] tracing-disabled dispatch overhead: {overhead_pct:+.2f}%"
          f" (limit {TRACE_OVERHEAD_LIMIT_PCT:.0f}%)")
    if overhead_pct > TRACE_OVERHEAD_LIMIT_PCT:
        msg = (f"tracing-disabled dispatch overhead {overhead_pct:.2f}% "
               f"exceeds the {TRACE_OVERHEAD_LIMIT_PCT}% budget "
               f"({detached:,.0f} vs {off:,.0f} ops/s)")
        if args.check:
            failures.append(msg)
        else:
            print(f"[bench] WARNING: {msg}")

    goodput = metrics["goodput_batch_speedup"]["value"]
    if goodput < MIN_GOODPUT_SPEEDUP:
        msg = (f"goodput_batch_speedup {goodput:.2f}x below the "
               f"{MIN_GOODPUT_SPEEDUP}x acceptance floor (batched datapath "
               f"must move bulk data >= {MIN_GOODPUT_SPEEDUP}x faster than "
               f"REPRO_BATCH=0)")
        if args.check:
            failures.append(msg)
        else:
            print(f"[bench] WARNING: {msg}")

    lossy = metrics["lossy_recovery_speedup"]["value"]
    if lossy <= MIN_LOSSY_RECOVERY_SPEEDUP:
        msg = (f"lossy_recovery_speedup {lossy:.3f}x: goodput under 2% "
               f"loss with PTO probes must be strictly above the "
               f"declare-all-lost baseline (> "
               f"{MIN_LOSSY_RECOVERY_SPEEDUP}x)")
        if args.check:
            failures.append(msg)
        else:
            print(f"[bench] WARNING: {msg}")

    if args.check:
        failures += check_regressions(metrics, args.baseline)

    report = {
        "schema": "pquic-bench-v1",
        "pr": "pr10",
        "quick": args.quick,
        "python": sys.version.split()[0],
        "metrics": metrics,
    }
    # The quick CI run must never clobber the checked-in full baseline.
    out = args.output
    if args.quick and out == args.baseline and out.exists():
        out = out.with_suffix(".quick.json")
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"[bench] wrote {out}")
    if args.quick:
        # Stable alias so consumers (the CI artifact upload) never have
        # to track the PR-numbered report filename.
        alias = ROOT / "BENCH_quick.json"
        if alias != out:
            alias.write_text(json.dumps(report, indent=2) + "\n")
            print(f"[bench] wrote {alias}")

    if failures:
        for f in failures:
            print(f"[bench] FAIL: {f}", file=sys.stderr)
        return 1
    print(f"[bench] ok (JIT speedup {speedup:.1f}x)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
