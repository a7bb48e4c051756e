"""The benchmark's three seeded workloads.

Each workload builds its inputs from the seed (payloads, Poisson arrival
times, loss seeds) and runs *operations* through ``repro.netsim`` in one
process on one thread.  An operation always starts from a fresh
simulator and generates its own input, outside its timed region, so
operation ``i`` depends only on ``(seed, i % inputs)`` and the program's
set-up holds no benchmark data:

* ``bulk-plugged``: one connection uploads one seeded payload over the
  paper's Fig. 7 bottleneck with the monitoring plugin on both ends.
* ``short-conns``: one session of connections arriving on a seeded
  Poisson schedule; each sends a request, receives a response, closes.
* ``plugin-exchange``: one pair of sequential connections; the first
  fetches two plugins in-band into an empty cache (cold), the second
  injects them from the filled cache (cached).

Every operation checks its outputs (payload SHA-256, the send ledger
``sent == acked + lost + in_flight``, the exchange outcome) and reports
each failed check; nothing is retried.

``probe`` is the traced run's hook: when set, the workload hands it every
simulator, connection, endpoint, exchanger and cache it creates.  The
untraced run leaves it ``None`` and touches nothing.
"""

from __future__ import annotations

import hashlib
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core import PluginCache
from repro.core.exchange import PluginExchanger, TrustStore, make_proof_provider
from repro.core.plugin import PluginInstance
from repro.netsim import Host, Link, Simulator, symmetric_topology
from repro.plugins import build_monitoring_plugin
from repro.plugins.fec import build_fec_plugin
from repro.quic import ClientEndpoint, QuicConfiguration, ServerEndpoint
from repro.quic.connection import reset_instance_counter
from repro.secure import PluginRepository, PluginValidator

now = time.perf_counter


def _subseed(seed: int, j: int) -> int:
    return (seed * 1_000_003 + j * 7919 + 17) & 0x7FFFFFFF


def _pipes(*nodes) -> list:
    """The transmit pipe of every interface of ``nodes``."""
    return [iface.tx for node in nodes for iface in node.interfaces]


def ledger_failure(conn, who: str) -> Optional[str]:
    """The send-side conservation ledger read from ``conn.stats``: every
    packet sent is acked, declared lost or still tracked in flight."""
    in_flight = len(conn.initial_space.sent)
    in_flight += sum(len(path.space.sent) for path in conn.paths)
    s = conn.stats
    if s["packets_sent"] != s["packets_acked"] + s["packets_lost"] + in_flight:
        return (f"{who}: ledger sent {s['packets_sent']} != acked "
                f"{s['packets_acked']} + lost {s['packets_lost']} + "
                f"in_flight {in_flight}")
    return None


@dataclass
class OpResult:
    """What one operation measured and checked."""

    host_s: float = 0.0            # host seconds of the whole operation
    attempted: int = 0             # connections checked
    conns: int = 0                 # connections that passed every check
    payload_bytes: int = 0         # application payload delivered
    payload_host_s: float = 0.0    # host seconds over which it moved
    conn_times_ms: list = field(default_factory=list)  # simulated, per connection
    sim_goodputs: list = field(default_factory=list)   # bit/s, simulated
    speed: float = 1.0             # machine speed vs reference, set by the runner
    failures: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)


class Workload:
    """Base class: ``setup`` once per process, then ``run_op(i)``."""

    name = ""
    #: Distinct seeded inputs; operation ``i`` uses input ``i % inputs``.
    inputs = 1
    #: Operations whose simulated-time results form the run's sim metrics
    #: (fixed, so they repeat exactly for a seed).
    sim_ops = 1
    #: Operations the traced run traces.
    trace_ops = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.probe = None

    def _watch(self, kind: str, obj) -> None:
        if self.probe is not None:
            self.probe.watch(kind, obj)

    def setup(self) -> None:
        """The program's set-up: everything shared by the operations."""

    def op_input(self, j: int):
        """The seeded input of every operation ``i`` with ``i % inputs == j``."""
        raise NotImplementedError

    def run_op(self, i: int) -> OpResult:
        raise NotImplementedError

    def summary(self, ops: list, sim_ops: list) -> list:
        """Workload-specific lines for the human-readable report."""
        return []


class BulkPlugged(Workload):
    """Closed loop, one transfer at a time: connect, upload, verify."""

    name = "bulk-plugged"
    inputs = 8
    sim_ops = 8
    trace_ops = 2
    SIZE = 2_000_000
    #: The path's loss patterns are a fixed pool that every run covers
    #: once in its first ``sim_ops`` transfers; the seed varies payload
    #: bytes and sizes.  A per-seed loss draw would swamp the sim metrics:
    #: at 0.5% loss a 2 MB NewReno upload takes 1.8-14 s of simulated time
    #: depending only on where the first slow-start loss falls.
    LOSS_SEEDS = (1, 2, 3, 4, 5, 6, 7, 8)

    def setup(self) -> None:
        self.plugin = build_monitoring_plugin()

    def op_input(self, j: int) -> tuple:
        rng = random.Random(_subseed(self.seed, j))
        size = self.SIZE
        data = rng.randbytes(size + rng.randrange(-size // 100, size // 100 + 1))
        return (data, hashlib.sha256(data).digest(), self.LOSS_SEEDS[j],
                _subseed(self.seed, j))

    def run_op(self, i: int) -> OpResult:
        payload, digest, loss_seed, conn_seed = self.op_input(i % self.inputs)
        res = OpResult(attempted=1)
        reset_instance_counter()
        received = bytearray()
        done = [False]
        server_conns: list = []
        t0 = now()
        sim = Simulator()
        topo = symmetric_topology(sim, d_ms=50, bw_mbps=20, loss_pct=0.5,
                                  seed=loss_seed, buffer_bytes=256 * 1024)
        self._watch("sim", sim)
        self._watch("pipes", _pipes(topo.client, topo.server,
                                    topo.r1, topo.r2, topo.r3))

        def on_conn(conn):
            PluginInstance(self.plugin, conn).attach()
            conn.on_stream_data = lambda sid, d, fin: (
                received.extend(d), done.__setitem__(0, fin))
            server_conns.append(conn)
            self._watch("conn", conn)

        server = ServerEndpoint(sim, topo.server, "server.0", 443,
                                on_connection=on_conn)
        self._watch("server", server)
        client = ClientEndpoint(
            sim, topo.client, "client.0", 5000, "server.0", 443,
            configuration=QuicConfiguration(is_client=True, seed=conn_seed))
        PluginInstance(self.plugin, client.conn).attach()
        self._watch("conn", client.conn)
        client.connect()
        if not sim.run_until(lambda: client.conn.is_established, timeout=30):
            res.failures.append("handshake did not complete")
            res.host_s = now() - t0
            return res
        t_bulk = now()
        sim_bulk = sim.now
        sid = client.conn.create_stream()
        client.conn.send_stream_data(sid, payload, fin=True)
        client.pump()
        ok = sim.run_until(lambda: done[0], timeout=600)
        t1 = now()
        res.host_s = t1 - t0
        res.payload_host_s = t1 - t_bulk
        if not ok:
            res.failures.append("transfer did not complete")
            return res
        res.sim_goodputs.append(len(received) * 8 / (sim.now - sim_bulk))
        res.conn_times_ms.append(sim.now * 1000.0)
        if hashlib.sha256(received).digest() != digest:
            res.failures.append("delivered bytes differ from the payload")
        for conn, who in [(client.conn, "client")] + [
                (c, "server") for c in server_conns]:
            failure = ledger_failure(conn, who)
            if failure:
                res.failures.append(failure)
        if not res.failures:
            res.conns = 1
            res.payload_bytes = len(received)
        return res


class ShortConns(Workload):
    """Open loop: seeded Poisson arrivals at a fixed rate, no plugins."""

    name = "short-conns"
    inputs = 4
    sim_ops = 4
    trace_ops = 1
    CONNS = 200          # connections per session
    RATE = 200.0         # arrivals per simulated second
    REQUEST = 1024
    RESPONSE = 8192

    def op_input(self, j: int) -> list:
        rng = random.Random(_subseed(self.seed, j))
        t = 0.0
        session = []
        for k in range(self.CONNS):
            t += rng.expovariate(self.RATE)
            req_len = self.REQUEST + rng.randrange(-128, 129)
            resp_len = self.RESPONSE + rng.randrange(-1024, 1025)
            request = k.to_bytes(4, "big") + rng.randbytes(req_len - 4)
            response = rng.randbytes(resp_len)
            session.append((t, request, hashlib.sha256(request).digest(),
                            response, hashlib.sha256(response).digest()))
        return session

    def run_op(self, i: int) -> OpResult:
        session = self.op_input(i % self.inputs)
        res = OpResult(attempted=len(session), extra={"duplicate_fin": 0})
        reset_instance_counter()
        failed: set = set()

        def fail(k: int, why: str) -> None:
            failed.add(k)
            res.failures.append(f"connection {k}: {why}")

        t0 = now()
        sim = Simulator()
        topo = symmetric_topology(sim, d_ms=10, bw_mbps=100)
        self._watch("sim", sim)
        self._watch("pipes", _pipes(topo.client, topo.server,
                                    topo.r1, topo.r2, topo.r3))

        def on_conn(conn):
            buf = bytearray()
            ident = [-1]

            def on_data(sid, data, fin):
                if ident[0] >= 0:
                    # The stream already ended; a retransmitted FIN is
                    # reported to the application again.
                    res.extra["duplicate_fin"] += 1
                    return
                buf.extend(data)
                if not fin:
                    return
                k = ident[0] = int.from_bytes(buf[:4], "big")
                if k >= len(session) or \
                        hashlib.sha256(buf).digest() != session[k][2]:
                    fail(k, "server received a corrupted request")
                    return
                conn.send_stream_data(sid, session[k][3], fin=True)

            def on_close(code, reason):
                failure = ledger_failure(conn, "server")
                if failure:
                    fail(ident[0], failure)

            conn.on_stream_data = on_data
            conn.on_close = on_close
            self._watch("conn", conn)

        server = ServerEndpoint(sim, topo.server, "server.0", 443,
                                on_connection=on_conn)
        self._watch("server", server)
        finished = [0]
        closed = [0]
        lateness = [0.0]

        def arrive(k: int) -> None:
            due, request, _, _, resp_digest = session[k]
            lateness[0] = max(lateness[0], sim.now - due)
            client = ClientEndpoint(
                sim, topo.client, "client.0", 10_000 + k, "server.0", 443,
                configuration=QuicConfiguration(
                    is_client=True, seed=_subseed(self.seed, k)))
            conn = client.conn
            self._watch("conn", conn)
            buf = bytearray()

            def on_established():
                sid = conn.create_stream()
                conn.send_stream_data(sid, request, fin=True)

            def on_data(sid, data, fin):
                if conn.closed:
                    res.extra["duplicate_fin"] += 1
                    return
                buf.extend(data)
                if not fin:
                    return
                res.conn_times_ms.append((sim.now - due) * 1000.0)
                res.sim_goodputs.append((len(request) + len(buf)) * 8 / (sim.now - due))
                if hashlib.sha256(buf).digest() != resp_digest:
                    fail(k, "client received a corrupted response")
                failure = ledger_failure(conn, "client")
                if failure:
                    fail(k, failure)
                finished[0] += 1
                res.payload_bytes += len(request) + len(buf)
                conn.close(0, "done")

            conn.on_established = on_established
            conn.on_stream_data = on_data
            conn.on_closed = lambda c: closed.__setitem__(0, closed[0] + 1)
            client.connect()

        for k, entry in enumerate(session):
            sim.schedule_at(entry[0], arrive, k)
        n = len(session)
        ok = sim.run_until(
            lambda: closed[0] == n and server.stats["evicted"] == n,
            timeout=session[-1][0] + 60)
        res.host_s = res.payload_host_s = now() - t0
        if not ok:
            res.failures.append(
                f"session stalled: {finished[0]}/{n} responses, {closed[0]} "
                f"closed, {server.stats['evicted']} evicted")
            return res
        if server.connections or sim.pending():
            res.failures.append("server or simulator kept state after the session")
            return res
        if finished[0] != n:
            res.failures.append(f"only {finished[0]}/{n} responses completed")
            return res
        res.conns = n - len(failed)
        res.extra["peak_open"] = server.stats["peak_connections"]
        res.extra["lateness_ms"] = lateness[0] * 1000.0
        return res

    def summary(self, ops: list, sim_ops: list) -> list:
        return [f"generator lateness max {max(r.extra['lateness_ms'] for r in ops):.3f} "
                f"ms (sim); peak open connections "
                f"{max(r.extra['peak_open'] for r in ops)}; duplicate FIN "
                f"notifications {sum(r.extra['duplicate_fin'] for r in ops)}"]


class PluginExchange(Workload):
    """Pairs of sequential connections: cold in-band fetch, then cached."""

    name = "plugin-exchange"
    inputs = 48
    sim_ops = 48
    trace_ops = 16
    FORMULA = "PV1 & (PV2 | PV3)"
    DELAY_S = 0.010
    #: Seeded per-packet delay variation (uniform 0..JITTER_S): it makes
    #: every pair's simulated fetch time depend on its seed, where a
    #: lossless fixed-delay path would give one value for every seed.
    JITTER_S = 0.002

    def setup(self) -> None:
        plugins = [build_fec_plugin("rlc", "eos"), build_monitoring_plugin()]
        self.names = sorted(p.name for p in plugins)
        repo = PluginRepository()
        validators = {f"PV{i}": PluginValidator(f"PV{i}", seed=i)
                      for i in (1, 2, 3)}
        for pv in validators.values():
            repo.register_validator(pv)
        for p in plugins:
            repo.publish("alice", p.name, p.serialize())
        repo.advance_epoch()
        self.trust = TrustStore()
        for pv in validators.values():
            self.trust.trust_validator(pv.validator_id, pv.public_key)
            self.trust.cache_str(repo.get_str(pv.validator_id))
        self.provider = make_proof_provider(repo, validators)
        self.server_cache = PluginCache()
        for p in plugins:
            self.server_cache.store(p)

    def op_input(self, j: int) -> int:
        """The seed of the path's jitter and of both client connections."""
        return _subseed(self.seed, j) % 100_000

    def _client(self, sim, host, port: int, cache: PluginCache, seed: int):
        client = ClientEndpoint(
            sim, host, "client.0", port, "server.0", 443,
            configuration=QuicConfiguration(is_client=True, seed=seed))
        self._watch("conn", client.conn)
        exchanger = PluginExchanger(client.conn, cache, trust=self.trust,
                                    formula=self.FORMULA)
        self._watch("exchanger", exchanger)
        return client, exchanger

    def run_op(self, i: int) -> OpResult:
        path_seed = self.op_input(i % self.inputs)
        res = OpResult(attempted=2)
        reset_instance_counter()
        names = self.names
        t0 = now()
        sim = Simulator()
        topo = Link(sim, self.DELAY_S, 20e6, seed=path_seed,
                    jitter=self.JITTER_S)
        client_host, server_host = Host(sim, "client"), Host(sim, "server")
        client_host.attach(topo, "client.0")
        server_host.attach(topo, "server.0", far_side=True)
        self._watch("sim", sim)
        self._watch("pipes", _pipes(client_host, server_host))
        server_conns: list = []

        def on_conn(conn):
            server_conns.append(conn)
            self._watch("conn", conn)
            self._watch("exchanger", PluginExchanger(
                conn, self.server_cache, proof_provider=self.provider))

        server = ServerEndpoint(
            sim, server_host, "server.0", 443,
            configuration_factory=lambda: QuicConfiguration(
                is_client=False, plugins_to_inject=list(names)),
            on_connection=on_conn)
        self._watch("server", server)

        # Cold: an empty client cache fetches every plugin in-band.
        cache = PluginCache()
        self._watch("cache", cache)
        cold, ex_cold = self._client(sim, client_host, 5000, cache, path_seed)
        t_cold = now()
        sim_cold = sim.now
        cold.connect()
        ok = sim.run_until(
            lambda: (len(ex_cold.received) + len(ex_cold.rejected)
                     + len(ex_cold.degraded)) >= len(names), timeout=120)
        t_fetched = now()
        res.extra["fetch_host_ms"] = (t_fetched - t_cold) * 1000.0
        res.extra["fetch_sim_ms"] = (sim.now - sim_cold) * 1000.0
        res.conn_times_ms.append(res.extra["fetch_sim_ms"])
        cold_failures = []
        if not ok or sorted(ex_cold.received) != names:
            cold_failures.append(f"cold fetch received {sorted(ex_cold.received)}")
        if ex_cold.rejected or ex_cold.degraded:
            cold_failures.append(f"cold fetch rejected {ex_cold.rejected} "
                                 f"degraded {ex_cold.degraded}")
        failure = ledger_failure(cold.conn, "cold client")
        if failure:
            cold_failures.append(failure)

        # Cached: the filled cache injects both plugins locally.
        cached, ex_cached = self._client(sim, client_host, 5001, cache,
                                         path_seed + 1)
        t_cached = now()
        cached.connect()
        ok = sim.run_until(lambda: len(ex_cached.injected) >= len(names)
                           or bool(ex_cached.degraded), timeout=120)
        t_injected = now()
        res.extra["inject_host_ms"] = (t_injected - t_cached) * 1000.0
        cached_failures = []
        if not ok or sorted(ex_cached.injected) != names or ex_cached.degraded:
            cached_failures.append(
                f"cached connection injected {sorted(ex_cached.injected)}, "
                f"degraded {ex_cached.degraded}")
        if ex_cached.pending or ex_cached.received:
            cached_failures.append("cached connection fetched in-band")
        if sorted(cached.conn.plugins) != names:
            cached_failures.append(f"attached {sorted(cached.conn.plugins)}")
        for conn, who in [(cached.conn, "cached client")] + [
                (c, "server") for c in server_conns]:
            failure = ledger_failure(conn, who)
            if failure:
                cached_failures.append(failure)
        res.host_s = res.payload_host_s = t_injected - t0
        res.failures = cold_failures + cached_failures
        res.conns = (not cold_failures) + (not cached_failures)
        if not cold_failures:
            res.payload_bytes = sum(len(cache.get(n).compressed()) for n in names)
            res.sim_goodputs.append(
                res.payload_bytes * 8 / (res.extra["fetch_sim_ms"] / 1000.0))
        for client in (cold, cached):
            client.close()
        sim.run(until=sim.now + 5.0)
        return res

    def summary(self, ops: list, sim_ops: list) -> list:
        med = statistics.median
        fetch = med(r.extra["fetch_host_ms"] * r.speed for r in ops)
        inject = med(r.extra["inject_host_ms"] * r.speed for r in ops)
        fetch_sim = med(r.extra["fetch_sim_ms"] for r in sim_ops)
        return [f"plugin_fetch_host_ms {fetch:.4f} ms; plugin_fetch_sim_ms "
                f"{fetch_sim:.4f} ms; plugin_inject_host_ms {inject:.4f} ms"]


WORKLOADS: dict[str, Callable[..., Workload]] = {
    w.name: w for w in (BulkPlugged, ShortConns, PluginExchange)
}
