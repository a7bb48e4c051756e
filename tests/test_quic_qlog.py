"""Connection tracer tests (dogfooding the protoop anchors)."""

import json

from repro.core import PluginInstance
from repro.netsim import Simulator, symmetric_topology
from repro.plugins.monitoring import build_monitoring_plugin
from repro.quic import ClientEndpoint, ServerEndpoint
from repro.trace import ConnectionTracer


def traced_transfer(size=40_000, loss=0, seed=3):
    sim = Simulator()
    topo = symmetric_topology(sim, d_ms=10, bw_mbps=10, loss_pct=loss,
                              seed=seed)
    server = ServerEndpoint(sim, topo.server, "server.0", 443)
    client = ClientEndpoint(sim, topo.client, "client.0", 5000, "server.0", 443)
    tracer = ConnectionTracer(client.conn)
    done = [False]
    server.on_connection = lambda conn: setattr(
        conn, "on_stream_data", lambda sid, d, fin: done.__setitem__(0, fin))
    client.connect()
    assert sim.run_until(lambda: client.conn.is_established, timeout=5)
    sid = client.conn.create_stream()
    client.conn.send_stream_data(sid, b"t" * size, fin=True)
    client.pump()
    assert sim.run_until(lambda: done[0], timeout=60)
    return tracer, client


def test_events_recorded_in_order():
    tracer, client = traced_transfer()
    names = [e.name for e in tracer.events]
    assert "connection_established" in names
    assert names.index("connection_established") < names.index("stream_opened")
    assert tracer.summary()["packet_sent"] == client.conn.stats["packets_sent"]


def test_loss_events_traced():
    tracer, client = traced_transfer(size=150_000, loss=4, seed=8)
    assert tracer.summary().get("packet_lost", 0) > 0
    assert tracer.summary().get("metrics_updated", 0) > 0


def test_plugin_injection_traced():
    sim = Simulator()
    topo = symmetric_topology(sim, d_ms=10, bw_mbps=10)
    client = ClientEndpoint(sim, topo.client, "client.0", 5000, "server.0", 443)
    tracer = ConnectionTracer(client.conn)
    PluginInstance(build_monitoring_plugin(), client.conn).attach()
    assert any(
        e.name == "plugin_injected"
        and e.data["plugin"] == "org.pquic.monitoring"
        for e in tracer.events
    )


def test_json_output_parses():
    tracer, client = traced_transfer(size=5_000)
    doc = json.loads(tracer.to_json())
    assert doc["traces"][0]["vantage_point"]["type"] == "client"
    assert len(doc["traces"][0]["events"]) == len(tracer.events)


def test_detach_stops_recording():
    tracer, client = traced_transfer(size=5_000)
    count = len(tracer.events)
    tracer.detach()
    client.conn.protoops.run(client.conn, "stream_opened", None, 99)
    assert len(tracer.events) == count


def test_event_cap():
    sim = Simulator()
    topo = symmetric_topology(sim, d_ms=10, bw_mbps=10)
    client = ClientEndpoint(sim, topo.client, "client.0", 5000, "server.0", 443)
    tracer = ConnectionTracer(client.conn, max_events=3)
    for i in range(10):
        client.conn.protoops.run(client.conn, "stream_opened", None, i)
    assert len(tracer.events) == 3

