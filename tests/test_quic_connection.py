"""Integration tests: two QUIC endpoints over the simulated network."""

import pytest

from repro.netsim import Simulator, symmetric_topology
from repro.quic import (
    ClientEndpoint,
    QuicConfiguration,
    ServerEndpoint,
    TransportParameters,
)


def build_pair(sim, topo, client_config=None, server_config=None):
    server = ServerEndpoint(
        sim, topo.server, "server.0", 443,
        configuration_factory=(lambda: server_config) if server_config else None,
    )
    client = ClientEndpoint(
        sim, topo.client, "client.0", 5000, "server.0", 443,
        configuration=client_config,
    )
    return client, server


def run_transfer(sim, client, server, size, timeout=120.0):
    received = bytearray()
    done = [False]

    def on_conn(conn):
        def on_data(stream_id, data, fin):
            received.extend(data)
            if fin:
                done[0] = True
        conn.on_stream_data = on_data

    server.on_connection = on_conn
    client.connect()
    assert sim.run_until(lambda: client.conn.is_established, timeout=10.0)
    stream_id = client.conn.create_stream()
    client.conn.send_stream_data(stream_id, b"z" * size, fin=True)
    client.pump()
    assert sim.run_until(lambda: done[0], timeout=timeout)
    return bytes(received)


class TestHandshake:
    def test_handshake_completes_in_one_rtt(self):
        sim = Simulator()
        topo = symmetric_topology(sim, d_ms=10, bw_mbps=10)
        client, server = build_pair(sim, topo)
        client.connect()
        assert sim.run_until(lambda: client.conn.is_established, timeout=5.0)
        # One-way delay 10ms each way + serialization: the client finishes
        # right around one RTT.
        assert sim.now < 0.040
        assert server.connections[0].is_established

    def test_transport_parameters_exchanged(self):
        sim = Simulator()
        topo = symmetric_topology(sim, d_ms=5, bw_mbps=10)
        cfg = QuicConfiguration(
            is_client=True,
            transport_parameters=TransportParameters(initial_max_data=123_456),
        )
        client, server = build_pair(sim, topo, client_config=cfg)
        client.connect()
        assert sim.run_until(lambda: bool(server.connections), timeout=5.0)
        sim.run_until(lambda: client.conn.is_established, timeout=5.0)
        sconn = server.connections[0]
        assert sconn.peer_transport_parameters.initial_max_data == 123_456
        assert sconn.max_data_remote == 123_456

    def test_plugin_negotiation_parameters(self):
        sim = Simulator()
        topo = symmetric_topology(sim, d_ms=5, bw_mbps=10)
        cfg = QuicConfiguration(
            is_client=True,
            supported_plugins=["monitoring"],
        )
        scfg = QuicConfiguration(
            is_client=False,
            plugins_to_inject=["fec"],
        )
        client, server = build_pair(sim, topo, client_config=cfg, server_config=scfg)
        client.connect()
        assert sim.run_until(lambda: client.conn.is_established, timeout=5.0)
        sconn = server.connections[0]
        assert sconn.peer_transport_parameters.supported_plugins == ["monitoring"]
        assert client.conn.peer_transport_parameters.plugins_to_inject == ["fec"]

    def test_connection_ids_learned(self):
        sim = Simulator()
        topo = symmetric_topology(sim, d_ms=5, bw_mbps=10)
        client, server = build_pair(sim, topo)
        client.connect()
        assert sim.run_until(lambda: client.conn.is_established, timeout=5.0)
        sconn = server.connections[0]
        assert client.conn.peer_cid == sconn.local_cid
        assert sconn.peer_cid == client.conn.local_cid


class TestDataTransfer:
    def test_small_transfer(self):
        sim = Simulator()
        topo = symmetric_topology(sim, d_ms=10, bw_mbps=10)
        client, server = build_pair(sim, topo)
        data = run_transfer(sim, client, server, 1500)
        assert data == b"z" * 1500

    def test_multi_window_transfer(self):
        sim = Simulator()
        topo = symmetric_topology(sim, d_ms=10, bw_mbps=10)
        client, server = build_pair(sim, topo)
        data = run_transfer(sim, client, server, 300_000)
        assert len(data) == 300_000

    def test_transfer_with_random_loss(self):
        sim = Simulator()
        topo = symmetric_topology(sim, d_ms=10, bw_mbps=10, loss_pct=5, seed=3)
        client, server = build_pair(sim, topo)
        data = run_transfer(sim, client, server, 200_000)
        assert len(data) == 200_000
        assert client.conn.stats["packets_lost"] > 0

    def test_transfer_with_heavy_loss(self):
        sim = Simulator()
        topo = symmetric_topology(sim, d_ms=20, bw_mbps=5, loss_pct=15, seed=9)
        client, server = build_pair(sim, topo)
        data = run_transfer(sim, client, server, 50_000, timeout=300)
        assert len(data) == 50_000

    def test_bidirectional_streams(self):
        sim = Simulator()
        topo = symmetric_topology(sim, d_ms=10, bw_mbps=10)
        client, server = build_pair(sim, topo)
        from_client = bytearray()
        from_server = bytearray()
        sconn_holder = []

        def on_conn(conn):
            sconn_holder.append(conn)
            conn.on_stream_data = lambda sid, d, fin: from_client.extend(d)

        server.on_connection = on_conn
        client.conn.on_stream_data = lambda sid, d, fin: from_server.extend(d)
        client.connect()
        assert sim.run_until(lambda: client.conn.is_established and sconn_holder, timeout=5)
        sid_c = client.conn.create_stream()
        client.conn.send_stream_data(sid_c, b"c" * 5000, fin=True)
        client.pump()
        sconn = sconn_holder[0]
        sid_s = sconn.create_stream()
        sconn.send_stream_data(sid_s, b"s" * 5000, fin=True)
        # Server pushes through its driver: pump via endpoint dict.
        for drv in server._by_cid.values():
            drv.pump()
        assert sim.run_until(
            lambda: len(from_client) == 5000 and len(from_server) == 5000,
            timeout=30,
        )
        assert sid_c % 4 == 0  # client-initiated bidi
        assert sid_s % 4 == 1  # server-initiated

    def test_multiple_concurrent_connections(self):
        sim = Simulator()
        topo = symmetric_topology(sim, d_ms=10, bw_mbps=10)
        server = ServerEndpoint(sim, topo.server, "server.0", 443)
        done = {}

        def on_conn(conn):
            conn.on_stream_data = lambda sid, d, fin: done.__setitem__(
                conn.local_cid, done.get(conn.local_cid, 0) + len(d)
            )

        server.on_connection = on_conn
        clients = [
            ClientEndpoint(sim, topo.client, "client.0", 5000 + i, "server.0", 443)
            for i in range(3)
        ]
        for c in clients:
            c.connect()
        assert sim.run_until(
            lambda: all(c.conn.is_established for c in clients), timeout=5
        )
        for c in clients:
            sid = c.conn.create_stream()
            c.conn.send_stream_data(sid, b"m" * 10_000, fin=True)
            c.pump()
        assert sim.run_until(
            lambda: len(done) == 3 and all(v == 10_000 for v in done.values()),
            timeout=60,
        )

    def test_retransmitted_fin_reported_once(self):
        """A STREAM FIN that arrives again after the stream ended is not
        passed to the application a second time."""
        from repro.quic import frames as F
        from repro.quic.connection import QuicConnection

        conn = QuicConnection(QuicConfiguration(is_client=True))
        seen = []
        conn.on_stream_data = lambda sid, data, fin: seen.append((data, fin))
        frame = F.StreamFrame(stream_id=1, offset=0, data=b"abc", fin=True)
        process = conn.ops.process_frame["stream"]
        process(conn, frame, {})
        process(conn, frame, {})
        process(conn, F.StreamFrame(stream_id=1, offset=3, data=b"", fin=True), {})
        assert seen == [(b"abc", True)]
        assert conn.streams_recv[1].fin_delivered

    def test_fin_reported_once_under_loss(self):
        # At 15% loss with this seed, three FINs are retransmitted after
        # the server already consumed them.
        sim = Simulator()
        topo = symmetric_topology(sim, d_ms=10, bw_mbps=10, loss_pct=15, seed=1)
        client, server = build_pair(sim, topo)
        fins = []

        def on_conn(conn):
            conn.on_stream_data = lambda sid, data, fin: fin and fins.append(sid)

        server.on_connection = on_conn
        client.connect()
        assert sim.run_until(lambda: client.conn.is_established, timeout=10.0)
        for _ in range(8):
            sid = client.conn.create_stream()
            client.conn.send_stream_data(sid, b"q" * 3000, fin=True)
        client.pump()
        assert sim.run_until(lambda: len(set(fins)) == 8, timeout=60)
        sim.run_until(lambda: False, timeout=5)
        assert sorted(fins) == sorted(set(fins))


class TestFlowControl:
    def test_connection_flow_control_respected_and_extended(self):
        sim = Simulator()
        topo = symmetric_topology(sim, d_ms=5, bw_mbps=50)
        scfg = QuicConfiguration(
            is_client=False,
            transport_parameters=TransportParameters(
                initial_max_data=20_000, initial_max_stream_data=1 << 20
            ),
        )
        client, server = build_pair(sim, topo, server_config=scfg)
        # Transfer much more than the initial connection window: requires
        # MAX_DATA updates to flow.
        data = run_transfer(sim, client, server, 100_000)
        assert len(data) == 100_000

    def test_stream_flow_control_extended(self):
        sim = Simulator()
        topo = symmetric_topology(sim, d_ms=5, bw_mbps=50)
        scfg = QuicConfiguration(
            is_client=False,
            transport_parameters=TransportParameters(
                initial_max_data=1 << 20, initial_max_stream_data=10_000
            ),
        )
        client, server = build_pair(sim, topo, server_config=scfg)
        data = run_transfer(sim, client, server, 80_000)
        assert len(data) == 80_000


class TestSpinBit:
    def test_spin_bit_oscillates(self):
        """§4.1/[96]: the client inverts, the server echoes — the bit spins
        once per RTT while traffic flows."""
        sim = Simulator()
        topo = symmetric_topology(sim, d_ms=10, bw_mbps=10)
        client, server = build_pair(sim, topo)
        flips = []
        client.connect()
        assert sim.run_until(lambda: client.conn.is_established, timeout=5)
        from repro.core.protoop import Anchor

        client.conn.protoops.attach(
            "spin_bit_flipped", Anchor.POST,
            lambda conn, args, res: flips.append(args[0]),
        )
        run = run_transfer.__wrapped__ if hasattr(run_transfer, "__wrapped__") else None
        # Send enough data to span several RTTs.
        done = [False]
        server.on_connection = None
        sconn = server.connections[0]
        sconn.on_stream_data = lambda sid, d, fin: done.__setitem__(0, fin)
        sid = client.conn.create_stream()
        client.conn.send_stream_data(sid, b"q" * 200_000, fin=True)
        client.pump()
        assert sim.run_until(lambda: done[0], timeout=60)
        assert len(flips) >= 2


class TestClose:
    def test_explicit_close_reaches_peer(self):
        sim = Simulator()
        topo = symmetric_topology(sim, d_ms=10, bw_mbps=10)
        client, server = build_pair(sim, topo)
        client.connect()
        assert sim.run_until(lambda: client.conn.is_established, timeout=5)
        sconn = server.connections[0]
        closes = []
        sconn.on_close = lambda code, reason: closes.append((code, reason))
        client.close(error_code=0, reason="done")
        assert sim.run_until(lambda: bool(closes), timeout=5)
        assert closes[0] == (0, "done")
        assert client.conn.closed

    def test_idle_timeout(self):
        sim = Simulator()
        topo = symmetric_topology(sim, d_ms=10, bw_mbps=10)
        cfg = QuicConfiguration(
            is_client=True,
            transport_parameters=TransportParameters(idle_timeout=1.0),
        )
        client, server = build_pair(sim, topo, client_config=cfg)
        client.connect()
        assert sim.run_until(lambda: client.conn.is_established, timeout=5)
        assert sim.run_until(lambda: client.conn.closed, timeout=30)
        assert client.conn.close_error[1] == "idle timeout"

    def test_no_data_after_close(self):
        sim = Simulator()
        topo = symmetric_topology(sim, d_ms=10, bw_mbps=10)
        client, server = build_pair(sim, topo)
        client.connect()
        assert sim.run_until(lambda: client.conn.is_established, timeout=5)
        client.close()
        sim.run(until=sim.now + 1.0)
        assert client.conn.datagrams_to_send(sim.now) == []


class TestStats:
    def test_counters_populated(self):
        sim = Simulator()
        topo = symmetric_topology(sim, d_ms=10, bw_mbps=10)
        client, server = build_pair(sim, topo)
        run_transfer(sim, client, server, 50_000)
        stats = client.conn.stats
        assert stats["packets_sent"] > 40
        assert stats["packets_received"] > 0
        assert stats["bytes_sent"] > 50_000
        assert stats["acks_received"] > 0

    def test_protoop_run_counter(self):
        sim = Simulator()
        topo = symmetric_topology(sim, d_ms=10, bw_mbps=10)
        client, server = build_pair(sim, topo)
        # Bare default slots are not counted; counting binds every slot.
        client.conn.protoops.enable_run_counting()
        run_transfer(sim, client, server, 10_000)
        assert client.conn.protoops.runs > 100


def test_paper_protoop_census():
    """The paper: 'Our PQUIC implementation currently includes 72 protocol
    operations. Four of them take a parameter.'"""
    conn = ClientEndpointStandalone()
    assert conn.protoops.operation_count() == 72
    assert conn.protoops.parameterized_count() == 4


def ClientEndpointStandalone():
    from repro.quic.connection import QuicConnection

    return QuicConnection(QuicConfiguration(is_client=True))


class TestPeerViolations:
    """Frames a hostile or broken peer may send end the connection with
    the RFC 9000 error code."""

    @staticmethod
    def _conn():
        from repro.quic.connection import QuicConnection

        return QuicConnection(QuicConfiguration(is_client=True))

    @pytest.mark.parametrize("epoch_name", ["INITIAL", "ONE_RTT"])
    def test_optimistic_ack_is_protocol_violation(self, epoch_name):
        from repro.errors import TransportError, TransportErrorCode
        from repro.quic import frames as F
        from repro.quic.packet import Epoch
        from repro.quic.wire import RangeSet

        epoch = Epoch[epoch_name]
        conn = self._conn()
        space = (conn.initial_space if epoch is Epoch.INITIAL
                 else conn.paths[0].space)
        for _ in range(3):  # packets 0-2 exist; 3 was never sent
            space.take_packet_number()
        process = conn.ops.process_frame[F.ACK]
        ctx = {"epoch": epoch, "path_index": 0}
        with pytest.raises(TransportError) as exc:
            process(conn, F.AckFrame(ranges=RangeSet([range(0, 4)])), ctx)
        assert exc.value.code == TransportErrorCode.PROTOCOL_VIOLATION
        assert space.largest_acked == -1
        process(conn, F.AckFrame(ranges=RangeSet([range(0, 3)])), ctx)
        assert space.largest_acked == 2

    def test_optimistic_ack_closes_established_connection(self):
        from repro.errors import TransportErrorCode

        sim = Simulator()
        topo = symmetric_topology(sim, d_ms=10, bw_mbps=10)
        client, server = build_pair(sim, topo)
        server_conns = []
        server.on_connection = server_conns.append
        client.connect()
        assert sim.run_until(lambda: client.conn.is_established, timeout=5)
        # The client claims a packet far beyond anything the server sent,
        # so its next ACK acknowledges the unsent packet.
        client.conn.paths[0].space.record_received(10_000, sim.now, True)
        sid = client.conn.create_stream()
        client.conn.send_stream_data(sid, b"x" * 100, fin=True)
        client.pump()
        (conn,) = server_conns
        assert sim.run_until(lambda: conn.close_error is not None, timeout=5)
        assert conn.close_error[0] == TransportErrorCode.PROTOCOL_VIOLATION
        assert conn.paths[0].space.largest_acked < 10_000

    def _reset(self, conn, final_size):
        from repro.quic import frames as F

        frame = F.ResetStreamFrame(stream_id=1, error_code=0,
                                   final_size=final_size)
        conn.ops.process_frame[F.RESET_STREAM](conn, frame, {})

    def _stream(self, conn, offset, data, fin):
        from repro.quic import frames as F

        frame = F.StreamFrame(stream_id=1, offset=offset, data=data, fin=fin)
        conn.ops.process_frame["stream"](conn, frame, {})

    def test_reset_changing_known_final_size_is_error(self):
        from repro.errors import TransportError, TransportErrorCode

        conn = self._conn()
        self._stream(conn, 0, b"abc", fin=True)
        with pytest.raises(TransportError) as exc:
            self._reset(conn, 5)
        assert exc.value.code == TransportErrorCode.FINAL_SIZE_ERROR
        assert conn.streams_recv[1].final_size == 3
        self._reset(conn, 3)  # the same final size is accepted

    def test_reset_below_received_offset_is_error(self):
        from repro.errors import TransportError, TransportErrorCode

        conn = self._conn()
        self._stream(conn, 0, b"abcdef", fin=False)
        with pytest.raises(TransportError) as exc:
            self._reset(conn, 4)
        assert exc.value.code == TransportErrorCode.FINAL_SIZE_ERROR
        assert conn.streams_recv[1].final_size is None
        self._reset(conn, 6)
        assert conn.streams_recv[1].final_size == 6

    def test_second_reset_with_other_final_size_is_error(self):
        from repro.errors import TransportError, TransportErrorCode

        conn = self._conn()
        self._reset(conn, 10)
        with pytest.raises(TransportError) as exc:
            self._reset(conn, 11)
        assert exc.value.code == TransportErrorCode.FINAL_SIZE_ERROR

    def test_reset_charges_exactly_the_final_size(self):
        conn = self._conn()
        self._stream(conn, 0, b"abcd", fin=False)
        self._stream(conn, 10, b"xy", fin=False)  # a gap at 4..10
        assert conn.data_received == 12
        self._reset(conn, 40)
        assert conn.data_received == 40  # the stream's whole charge
        # Retransmitted STREAM data below the final size charges nothing.
        self._stream(conn, 4, b"efghij", fin=False)
        self._stream(conn, 12, b"z" * 28, fin=True)
        self._reset(conn, 40)
        assert conn.data_received == 40

    def test_reset_final_size_beyond_max_stream_data_is_error(self):
        from repro.errors import TransportError, TransportErrorCode

        conn = self._conn()
        self._stream(conn, 0, b"abc", fin=False)
        limit = conn.streams_recv[1].max_stream_data
        with pytest.raises(TransportError) as exc:
            self._reset(conn, limit + 1)
        assert exc.value.code == TransportErrorCode.FLOW_CONTROL_ERROR
        assert conn.streams_recv[1].final_size is None
        assert conn.data_received == 3
        self._reset(conn, limit)  # exactly the limit is allowed

    def test_reset_past_connection_limit_is_error(self):
        from repro.errors import TransportError, TransportErrorCode

        def conn_at_limit():
            conn = self._conn()
            conn.ops.get_receive_stream(conn, 1).max_stream_data = 1000
            self._stream(conn, 0, b"a" * 60, fin=False)
            conn.max_data_local = 100  # no credit granted beyond this
            return conn

        conn = conn_at_limit()
        self._reset(conn, 100)  # exactly the connection limit is allowed
        assert conn.data_received == 100
        conn = conn_at_limit()
        with pytest.raises(TransportError) as exc:
            self._reset(conn, 101)
        assert exc.value.code == TransportErrorCode.FLOW_CONTROL_ERROR
