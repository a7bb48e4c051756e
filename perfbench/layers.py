"""Per-layer tracing for the benchmark's traced run.

A :class:`LayerTracer` wraps the public entry points of each
``src/repro`` layer (``Simulator.run``, ``ProtoopTable.run``,
``PluginInstance.invoke``, ...) with span-recording shims and restores
the originals on :meth:`LayerTracer.restore`.  Nothing in ``src/`` is
edited, and nothing is patched unless :meth:`LayerTracer.install` runs.

Each span records its name, start, end, parent span and the id of the
benchmark operation it belongs to.  Spans stay in memory (flat arrays)
and are written once, by :meth:`LayerTracer.dump`; a layer's self time
is its spans' duration minus the part covered by their child spans.

Work counts come from the program's own observability, read only in the
traced run: ``conn.stats``, ``ProtoopTable.runs`` and run counting (via
a ``PreProfiler``), ``sim.events_fired``/``events_coalesced``, link
stats, ``ServerEndpoint.stats``, ``PluginExchanger.stats`` and the
plugin cache's hit counters.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

from repro.core.cache import PluginCache
from repro.core.exchange import PluginFrame
from repro.core.plugin import PluginInstance
from repro.core.protoop import ProtoopTable
from repro.netsim.link import Pipe
from repro.netsim.node import Host, Interface
from repro.netsim.sim import Event, Simulator
from repro.quic import frames as quic_frames
from repro.quic.connection import QuicConnection
from repro.quic.crypto import AeadContext
from repro.quic.endpoint import ServerEndpoint, _ConnectionDriver
from repro.quic.recovery import PacketNumberSpace
from repro.quic.stream import ReceiveStream, SendStream
from repro.trace import PreProfiler

#: The span of ``Simulator.run``/``run_until``; see :meth:`LayerTracer.install`.
LOOP_SPAN = "netsim.loop"

#: Per-layer metrics the traced run reports: (name, unit, better).
#: Times and counts are per benchmark operation; ratios are over the
#: whole traced phase.
PER_LAYER = [
    ("netsim.events", "count/op", "lower"),
    ("netsim.events_per_pkt", "ratio", "lower"),
    ("netsim.events_coalesced", "count/op", "higher"),
    ("netsim.self_s", "s/op", "lower"),
    ("netsim.queue_peak_bytes", "bytes", "lower"),
    ("netsim.drops", "count/op", "lower"),
    ("codec.parse_s", "s/op", "lower"),
    ("codec.parse_calls", "count/op", "lower"),
    ("codec.bytes_parsed_per_pkt", "bytes", "lower"),
    ("codec.serialize_s", "s/op", "lower"),
    ("codec.frames_per_pkt", "ratio", "higher"),
    ("crypto.seal_s", "s/op", "lower"),
    ("crypto.open_s", "s/op", "lower"),
    ("crypto.seal_calls", "count/op", "lower"),
    ("crypto.open_calls", "count/op", "lower"),
    ("crypto.open_failures", "count/op", "lower"),
    ("protoop.runs", "count/op", "lower"),
    ("protoop.runs_per_pkt", "ratio", "lower"),
    ("protoop.unplugged_share", "ratio", "higher"),
    ("protoop.self_s", "s/op", "lower"),
    ("protoop.table_build_s", "s/op", "lower"),
    ("pre.invocations", "count/op", "lower"),
    ("pre.invocations_per_pkt", "ratio", "lower"),
    ("pre.fuel", "count/op", "lower"),
    ("pre.helper_calls", "count/op", "lower"),
    ("pre.invoke_s", "s/op", "lower"),
    ("analysis.calls", "count/op", "lower"),
    ("analysis.instrs", "count/op", "lower"),
    ("analysis.s", "s/op", "lower"),
    ("jit.compile_calls", "count/op", "lower"),
    ("jit.compile_s", "s/op", "lower"),
    ("exchange.verify_s", "s/op", "lower"),
    ("exchange.chunks", "count/op", "lower"),
    ("exchange.chunks_duplicated", "count/op", "lower"),
    ("exchange.retries", "count/op", "lower"),
    ("exchange.plugin_bytes", "bytes/op", "lower"),
    ("cache.instantiate_s", "s/op", "lower"),
    ("cache.reuse_ratio", "ratio", "higher"),
    ("recovery.on_ack_s", "s/op", "lower"),
    ("recovery.detect_lost_s", "s/op", "lower"),
    ("recovery.packets_lost", "count/op", "lower"),
    ("recovery.spurious_losses", "count/op", "lower"),
    ("recovery.pto_fired", "count/op", "lower"),
    ("recovery.probes_sent", "count/op", "lower"),
    ("recovery.retx_ratio", "ratio", "lower"),
    ("scheduler.calls", "count/op", "lower"),
    ("scheduler.s", "s/op", "lower"),
    ("scheduler.frames_per_pkt", "ratio", "higher"),
    ("scheduler.empty_ratio", "ratio", "lower"),
    ("stream.next_chunk_s", "s/op", "lower"),
    ("stream.receive_s", "s/op", "lower"),
    ("conn.receive_calls", "count/op", "lower"),
    ("conn.receive_self_s", "s/op", "lower"),
    ("conn.send_self_s", "s/op", "lower"),
    ("conn.timer_calls", "count/op", "lower"),
    ("conn.pkts_sent", "count/op", "lower"),
    ("conn.host_us_per_pkt", "us", "lower"),
    ("endpoint.pump_calls", "count/op", "lower"),
    ("endpoint.segments_per_burst", "ratio", "higher"),
    ("endpoint.peak_connections", "count", "lower"),
    ("endpoint.evicted", "count/op", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
]


def _module_aliases(fn: Callable) -> list:
    """Every ``repro`` module attribute bound to ``fn`` (``from x import
    f`` copies the reference, so each importer is patched too)."""
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is fn:
                found.append((mod, attr))
    return found


def _frame_classes() -> list:
    seen, todo = [], [quic_frames.Frame]
    while todo:
        cls = todo.pop()
        for sub in cls.__subclasses__():
            if sub not in seen:
                seen.append(sub)
                todo.append(sub)
    return seen


class LayerTracer:
    """Span recorder plus the wrap/restore machinery of the traced run."""

    def __init__(self) -> None:
        self.span_names: list = []
        self._name_ids: dict = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self._stack = [-1]
        self.op_id = -1
        self.op_walls: list = []  # host seconds of each traced run_op call
        self.counts: dict = defaultdict(int)
        self._patches: list = []
        self.profiler = PreProfiler()
        self.watched: dict = defaultdict(list)

    # --- spans --------------------------------------------------------------

    def _span_id(self, span: str) -> int:
        if span not in self._name_ids:
            self._name_ids[span] = len(self.span_names)
            self.span_names.append(span)
        return self._name_ids[span]

    def _wrapper(self, span: str, fn: Callable,
                 after: Optional[Callable] = None) -> Callable:
        sid = self._span_id(span)
        names, starts, ends = self.name, self.start, self.end
        parents, ops, stack = self.parent, self.op, self._stack
        counts = self.counts
        tracer = self

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(sid)
            parents.append(stack[-1])
            ops.append(tracer.op_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[span + ".raised"] += 1
                raise
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, span: str,
               after: Optional[Callable] = None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(self._wrapper(span, original.__func__, after))
        elif isinstance(original, staticmethod):
            replacement = staticmethod(self._wrapper(span, original.__func__, after))
        else:
            replacement = self._wrapper(span, original, after)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def _patch_function(self, fn: Callable, span: str,
                        after: Optional[Callable] = None) -> None:
        for mod, attr in _module_aliases(fn):
            self._patch(mod, attr, span, after)

    # --- counting hooks -------------------------------------------------------

    def _queue_peak(self, args, result) -> None:
        queued = args[0].queued_bytes
        if queued > self.counts["netsim.queue_peak_bytes"]:
            self.counts["netsim.queue_peak_bytes"] = queued

    def _burst(self, args, result) -> None:
        self.counts["endpoint.bursts"] += 1
        self.counts["endpoint.burst_segments"] += len(args[1].segments)

    def _scheduled(self, args, result) -> None:
        frames = result[0]
        if frames:
            self.counts["scheduler.frames"] += len(frames)
        else:
            self.counts["scheduler.empty"] += 1

    def _analyzed(self, args, result) -> None:
        self.counts["analysis.instrs"] += len(args[0])

    def _plugin_chunk(self, args, result) -> None:
        self.counts["exchange.chunks"] += 1
        self.counts["exchange.plugin_bytes"] += len(result.data)

    # --- install / restore ----------------------------------------------------

    def install(self) -> None:
        """Wrap every layer entry point (idempotent per tracer)."""
        if self._patches:
            return
        from repro.core import scheduler
        from repro.quic import packet
        from repro.secure import merkle
        from repro.vm import compiler, jit
        from repro.vm.analysis import rules

        p = self._patch
        # The event loop is not a layer: its self time (predicates, the
        # workload's own callbacks, any event target left unwrapped)
        # counts as unattributed.  The simulator's own work is its queue
        # and the pipes and hosts its events run.
        p(Simulator, "run", LOOP_SPAN)
        p(Simulator, "run_until", LOOP_SPAN)
        for attr in ("_pop", "_push_back", "schedule", "schedule_at"):
            p(Simulator, attr, "netsim.queue")
        p(Event, "cancel", "netsim.queue")
        p(Pipe, "send", "netsim.pipe", self._queue_peak)
        p(Pipe, "send_burst", "netsim.pipe", self._queue_peak)
        p(Pipe, "_transmit_next", "netsim.pipe")
        # A pipe delivers to the far interface's bound method, taken when
        # the topology is built; every traced operation builds its own.
        p(Interface, "_on_receive", "netsim.pipe")
        p(Host, "sendto", "netsim.host")
        p(Host, "send_burst", "netsim.host", self._burst)
        for cls in _frame_classes():
            if "parse" in cls.__dict__:
                after = self._plugin_chunk if cls is PluginFrame else None
                p(cls, "parse", "codec.parse", after)
            if "serialize" in cls.__dict__:
                p(cls, "serialize", "codec.serialize")
        p(quic_frames.FrameRegistry, "parse_all", "codec.parse")
        self._patch_function(packet.parse_header, "codec.parse")
        self._patch_function(packet.encode_long_header, "codec.serialize")
        self._patch_function(packet.encode_short_header, "codec.serialize")
        p(AeadContext, "seal", "crypto.seal")
        p(AeadContext, "seal_into", "crypto.seal")
        p(AeadContext, "open", "crypto.open")
        p(ProtoopTable, "run", "protoop.run")
        p(ProtoopTable, "register", "protoop.table")
        p(ProtoopTable, "declare", "protoop.table")
        p(PluginInstance, "__init__", "pre.load")
        p(PluginInstance, "attach", "pre.load")
        p(PluginInstance, "invoke", "pre.invoke")
        self._patch_function(rules.analyze, "analysis.analyze", self._analyzed)
        self._patch_function(jit.compile_jit, "analysis.jit")
        self._patch_function(compiler.compile_pluglet, "analysis.compile")
        self._patch_function(merkle.verify_path, "exchange.verify")
        p(PluginCache, "instantiate", "cache.instantiate")
        p(PluginCache, "store", "cache.store")
        p(PacketNumberSpace, "on_ack_received", "recovery.on_ack")
        p(PacketNumberSpace, "detect_lost", "recovery.detect_lost")
        self._patch_function(scheduler.schedule_packet_frames,
                             "scheduler.schedule", self._scheduled)
        p(SendStream, "next_chunk", "stream.next_chunk")
        p(ReceiveStream, "receive", "stream.receive")
        p(QuicConnection, "receive_datagram", "conn.receive")
        p(QuicConnection, "datagrams_to_send", "conn.send")
        p(QuicConnection, "handle_timer", "conn.timer")
        for attr in ("__init__", "create_stream", "send_stream_data", "close"):
            p(QuicConnection, attr, "conn.app")
        p(_ConnectionDriver, "pump", "endpoint.pump")
        p(_ConnectionDriver, "_on_timer", "endpoint.timer")
        p(_ConnectionDriver, "receive", "endpoint.receive")
        p(_ConnectionDriver, "receive_burst", "endpoint.receive")
        # The server's demux entry points are what its host delivers to.
        p(ServerEndpoint, "_receive", "endpoint.receive")
        p(ServerEndpoint, "_receive_burst", "endpoint.receive")

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    # --- observed objects -------------------------------------------------------

    def watch(self, kind: str, obj) -> None:
        """Called by a workload for every object it creates while traced."""
        self.watched[kind].append(obj)
        if kind == "conn":
            self.profiler.attach(obj)

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id

    # --- results ------------------------------------------------------------------

    def self_times(self) -> dict:
        """Self time per span name: duration minus the time covered by
        direct children (children of one span never overlap)."""
        n = len(self.start)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        totals: dict = defaultdict(float)
        names = self.span_names
        name = self.name
        for i in range(n):
            totals[names[name[i]]] += end[i] - start[i] - child[i]
        return totals

    def span_counts(self) -> dict:
        counts: dict = defaultdict(int)
        for sid in self.name:
            counts[self.span_names[sid]] += 1
        return counts

    def inclusive_times(self, span: str) -> float:
        sid = self._name_ids.get(span)
        if sid is None:
            return 0.0
        return sum(self.end[i] - self.start[i]
                   for i in range(len(self.start)) if self.name[i] == sid)

    def unattributed_share(self, self_times: dict) -> float:
        """Share of the traced operations' host time outside every layer
        span: time under no span at all, plus the event loop's self time."""
        op_wall = sum(self.op_walls)
        if not op_wall:
            return 0.0
        covered = sum(self.end[i] - self.start[i]
                      for i in range(len(self.start)) if self.parent[i] < 0)
        outside = op_wall - covered + self_times.get(LOOP_SPAN, 0.0)
        return min(1.0, max(0.0, outside / op_wall))

    def metrics(self, ops: int, overhead_ratio: float) -> dict:
        """The per-layer metrics of the traced phase (``ops`` operations)."""
        st = self.self_times()
        calls = self.span_counts()
        c = self.counts
        w = self.watched
        conns = w["conn"]

        def stat(key: str) -> int:
            return sum(conn.stats[key] for conn in conns)

        sent, received = stat("packets_sent"), stat("packets_received")
        pkts = max(1, sent + received)
        runs = sum(conn.protoops.runs for conn in conns)
        plugged = 0
        for conn in conns:
            hooked = {pl.protoop for inst in conn.plugins.values()
                      for pl in inst.plugin.pluglets}
            plugged += sum(n for op, n in conn.protoops.run_counts.items()
                           if op in hooked)
        counted = sum(sum(conn.protoops.run_counts.values()) for conn in conns)
        pre = self.profiler.totals()
        events = sum(sim.events_fired for sim in w["sim"])
        drops = sum(pipe.stats.dropped_buffer + pipe.stats.dropped_loss
                    for pipes in w["pipes"] for pipe in pipes)
        hits = sum(cache.hits for cache in w["cache"])
        misses = sum(cache.misses for cache in w["cache"])
        sched_calls = calls["scheduler.schedule"]
        conn_time = sum(self.inclusive_times(s)
                        for s in ("conn.receive", "conn.send", "conn.timer"))
        k = max(1, ops)
        values = {
            "netsim.events": events / k,
            "netsim.events_per_pkt": events / max(1, sent),
            "netsim.events_coalesced": sum(s.events_coalesced for s in w["sim"]) / k,
            "netsim.self_s": (st["netsim.queue"] + st["netsim.pipe"]
                              + st["netsim.host"]) / k,
            "netsim.queue_peak_bytes": c["netsim.queue_peak_bytes"],
            "netsim.drops": drops / k,
            "codec.parse_s": st["codec.parse"] / k,
            "codec.parse_calls": calls["codec.parse"] / k,
            "codec.bytes_parsed_per_pkt": stat("bytes_received") / max(1, received),
            "codec.serialize_s": st["codec.serialize"] / k,
            "codec.frames_per_pkt": stat("frames_received") / max(1, received),
            "crypto.seal_s": st["crypto.seal"] / k,
            "crypto.open_s": st["crypto.open"] / k,
            "crypto.seal_calls": calls["crypto.seal"] / k,
            "crypto.open_calls": calls["crypto.open"] / k,
            "crypto.open_failures": c["crypto.open.raised"] / k,
            "protoop.runs": runs / k,
            "protoop.runs_per_pkt": runs / pkts,
            "protoop.unplugged_share": 1.0 - plugged / max(1, counted),
            "protoop.self_s": st["protoop.run"] / k,
            "protoop.table_build_s": st["protoop.table"] / k,
            "pre.invocations": pre["invocations"] / k,
            "pre.invocations_per_pkt": pre["invocations"] / pkts,
            "pre.fuel": pre["fuel"] / k,
            "pre.helper_calls": pre["helper_calls"] / k,
            "pre.invoke_s": st["pre.invoke"] / k,
            "analysis.calls": calls["analysis.analyze"] / k,
            "analysis.instrs": c["analysis.instrs"] / k,
            "analysis.s": (st["analysis.analyze"] + st["analysis.compile"]) / k,
            "jit.compile_calls": calls["analysis.jit"] / k,
            "jit.compile_s": st["analysis.jit"] / k,
            "exchange.verify_s": st["exchange.verify"] / k,
            "exchange.chunks": c["exchange.chunks"] / k,
            "exchange.chunks_duplicated": sum(
                ex.stats["chunks_duplicated"] for ex in w["exchanger"]) / k,
            "exchange.retries": sum(ex.stats["retries"] for ex in w["exchanger"]) / k,
            "exchange.plugin_bytes": c["exchange.plugin_bytes"] / k,
            "cache.instantiate_s": st["cache.instantiate"] / k,
            "cache.reuse_ratio": hits / max(1, hits + misses),
            "recovery.on_ack_s": st["recovery.on_ack"] / k,
            "recovery.detect_lost_s": st["recovery.detect_lost"] / k,
            "recovery.packets_lost": stat("packets_lost") / k,
            "recovery.spurious_losses": stat("spurious_losses") / k,
            "recovery.pto_fired": stat("pto_fired") / k,
            "recovery.probes_sent": stat("probes_sent") / k,
            "recovery.retx_ratio": (stat("packets_lost") + stat("probes_sent"))
            / max(1, sent),
            "scheduler.calls": sched_calls / k,
            "scheduler.s": st["scheduler.schedule"] / k,
            "scheduler.frames_per_pkt": c["scheduler.frames"]
            / max(1, sched_calls - c["scheduler.empty"]),
            "scheduler.empty_ratio": c["scheduler.empty"] / max(1, sched_calls),
            "stream.next_chunk_s": st["stream.next_chunk"] / k,
            "stream.receive_s": st["stream.receive"] / k,
            "conn.receive_calls": calls["conn.receive"] / k,
            "conn.receive_self_s": st["conn.receive"] / k,
            "conn.send_self_s": st["conn.send"] / k,
            "conn.timer_calls": calls["conn.timer"] / k,
            "conn.pkts_sent": sent / k,
            "conn.host_us_per_pkt": conn_time / pkts * 1e6,
            "endpoint.pump_calls": calls["endpoint.pump"] / k,
            "endpoint.segments_per_burst": c["endpoint.burst_segments"]
            / max(1, c["endpoint.bursts"]),
            "endpoint.peak_connections": max(
                (s.stats["peak_connections"] for s in w["server"]), default=0),
            "endpoint.evicted": sum(s.stats["evicted"] for s in w["server"]) / k,
            "trace.overhead_ratio": overhead_ratio,
            "trace.unattributed_share": self.unattributed_share(st),
        }
        return values

    def work_counts(self) -> dict:
        """Deterministic work counts of the traced phase (for the
        determinism check)."""
        conns = self.watched["conn"]
        pre = self.profiler.totals()
        return {
            "sim_events": sum(sim.events_fired for sim in self.watched["sim"]),
            "packets_sent": sum(c.stats["packets_sent"] for c in conns),
            "packets_lost": sum(c.stats["packets_lost"] for c in conns),
            "protoop_runs": sum(c.protoops.runs for c in conns),
            "pluglet_invocations": pre["invocations"],
            "fuel": pre["fuel"],
        }

    def dump(self, path: Path) -> None:
        """Write the spans once: a JSON header and one raw array per field."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {"span_names": self.span_names, "spans": len(self.start),
                  "fields": ["name:u16", "start:f64", "end:f64",
                             "parent:i64", "op:i64"]}
        with open(path, "wb") as out:
            blob = json.dumps(header).encode() + b"\n"
            out.write(len(blob).to_bytes(4, "little"))
            out.write(blob)
            for arr in (self.name, self.start, self.end, self.parent, self.op):
                arr.tofile(out)
