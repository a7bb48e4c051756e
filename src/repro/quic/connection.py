"""The PQUIC connection: a QUIC state machine decomposed into protocol
operations.

Every step a plugin might want to observe or replace — frame parsing and
processing, RTT updates, loss detection, packet preparation, path
selection, the Spin Bit — is called through a slot of the per-connection
:class:`~repro.core.protoop.ProtoopTable` (``self.ops.<name>(self, ...)``),
exactly as Figure 1b describes: the monolithic call graph becomes a web
of named, anchored operations.

The connection is sans-io: it consumes datagrams via
:meth:`receive_datagram`, emits them via :meth:`datagrams_to_send`, and
reports its next timer via :meth:`next_timer`.  The endpoint adapter in
:mod:`repro.quic.endpoint` glues it to the network simulator.
"""

from __future__ import annotations

import functools
import os
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.core.protoop import ProtoopError, ProtoopTable

from . import frames as F
from .cc import DEFAULT_INITIAL_WINDOW, MAX_DATAGRAM_SIZE, NewRenoController
from .crypto import (
    TAG_LENGTH,
    CryptoPair,
    initial_crypto_pair,
    one_rtt_crypto_pair,
    session_secret,
)
from .errors import (
    CryptoError,
    ProtocolViolation,
    QuicError,
    TransportError,
    TransportErrorCode,
)
from .packet import (
    FORM_LONG,
    Epoch,
    PacketHeader,
    PacketType,
    decode_packet_number,
    encode_long_header,
    encode_short_header,
    parse_header,
    seal_packet,
    seal_packet_into,
)
from .recovery import (
    K_PERSISTENT_CONGESTION_THRESHOLD,
    MAX_PTO_PROBES,
    PacketNumberSpace,
    RttEstimator,
    SentPacket,
)
from .reset import is_stateless_reset, stateless_reset_token
from .stream import ReceiveStream, SendStream
from .transport_params import TransportParameters
from .wire import Buffer

import itertools

_instance_counter = itertools.count(1)


def reset_instance_counter() -> None:
    """Reset the per-process connection counter that perturbs connection
    RNG seeds.  Experiments that must be bit-identical across repeated
    in-process runs (e.g. fault-injection determinism checks) call this
    between runs so the i-th connection of each run draws the same seed."""
    global _instance_counter
    _instance_counter = itertools.count(1)

CID_LENGTH = 8
INITIAL_PADDING_TARGET = 1200
HANDSHAKE_CH = 1
HANDSHAKE_SH = 2
#: §8.1: an unvalidated path may carry at most 3x the bytes received on it.
AMP_FACTOR = 3
#: PATH_CHALLENGE (re)transmissions before a path is declared FAILED.
MAX_PATH_PROBES = 6


class ConnectionState:
    """Connection lifecycle states (RFC 9000 §10).

    ``ACTIVE`` covers handshake and established operation.  ``close()``
    moves to ``CLOSING`` (we sent CONNECTION_CLOSE and retransmit it,
    rate-limited, while peer packets keep arriving); receiving the
    peer's CONNECTION_CLOSE moves to ``DRAINING`` (send nothing).  Both
    hold connection IDs for a drain period of 3×PTO so late packets
    still match a known connection instead of spawning a new one, then
    the drain timer retires the CIDs, releases per-connection buffers
    and lands in ``CLOSED``.  An idle timeout closes silently: straight
    to ``CLOSED``, nothing sent, no drain.
    """

    ACTIVE = "active"
    CLOSING = "closing"
    DRAINING = "draining"
    CLOSED = "closed"


@dataclass
class QuicConfiguration:
    """Per-endpoint configuration."""

    is_client: bool = True
    transport_parameters: TransportParameters = field(default_factory=TransportParameters)
    initial_window: int = DEFAULT_INITIAL_WINDOW
    max_udp_payload_size: int = 1280
    seed: int = 0
    #: Plugins available in the local cache (names).
    supported_plugins: list = field(default_factory=list)
    #: Plugins this endpoint wants the peer to run (names).
    plugins_to_inject: list = field(default_factory=list)
    #: Static key deriving per-CID stateless reset tokens (§10.3); None
    #: disables stateless reset generation and advertisement.
    stateless_reset_key: Optional[bytes] = None
    #: Pre-RFC 9002 PTO response: declare every outstanding packet lost
    #: on PTO expiry instead of sending 1-2 probe packets.  Exists solely
    #: as the baseline the ``lossy-recovery`` benchmark compares probe
    #: recovery against; none of the kill-switch modes sets it.
    declare_all_on_pto: bool = False


class PathState:
    """Path validation states (RFC 9000 §8.2).

    A path starts ``UNVALIDATED``; sending a PATH_CHALLENGE moves it to
    ``PROBING``; the matching PATH_RESPONSE moves it to ``VALIDATED``.
    ``MAX_PATH_PROBES`` unanswered probes (PTO backoff) end in
    ``FAILED``; host code retires a path with ``ABANDONED``."""

    UNVALIDATED = "unvalidated"
    PROBING = "probing"
    VALIDATED = "validated"
    FAILED = "failed"
    ABANDONED = "abandoned"


class Path:
    """One network path: addresses, its own 1-RTT packet-number space,
    RTT estimator, congestion controller and validation state.

    Single-path connections use path 0 only; the multipath plugin creates
    additional paths (§4.3).  Path 0 starts VALIDATED for a client — the
    handshake itself validates the server address (§8.1) — while every
    other path must earn VALIDATED through a PATH_CHALLENGE/PATH_RESPONSE
    exchange."""

    def __init__(self, index: int, initial_window: int):
        self.index = index
        self.local_addr: Optional[str] = None
        self.peer_addr: Optional[str] = None
        self.space = PacketNumberSpace()
        self.rtt = RttEstimator()
        self.cc = NewRenoController(initial_window)
        self.active = index == 0
        self.challenge_data: Optional[bytes] = None
        self.state = PathState.VALIDATED if index == 0 else PathState.UNVALIDATED
        #: PATH_CHALLENGE/PATH_RESPONSE frames that must leave on *this*
        #: path (§8.2.2), unlike ordinary (path-agnostic) control frames.
        self.probe_frames: list = []
        #: PTO probe bundles (RFC 9002 §6.2.4): each inner list is the
        #: retransmittable frame set of one oldest-unacked packet, sent
        #: as one probe packet, exempt from the congestion window (§7.5).
        self.pto_probes: list = []
        self.probe_count = 0
        self.probe_deadline: Optional[float] = None
        #: §8.1 anti-amplification: while True, at most ``AMP_FACTOR``
        #: times ``amp_received`` bytes may leave on this path.
        self.amp_limited = False
        self.amp_received = 0
        self.amp_sent = 0

    @property
    def validated(self) -> bool:
        return self.state == PathState.VALIDATED

    @validated.setter
    def validated(self, value: bool) -> None:
        # Back-compat setter (plugin bytecode writes FLD_PATH_VALIDATED
        # through it); observable state *transitions* should go through
        # Connection._set_path_state instead.
        self.state = PathState.VALIDATED if value else PathState.UNVALIDATED
        if value:
            self.amp_limited = False
            self.probe_deadline = None

    def amp_budget(self) -> int:
        """Bytes still sendable under the 3x anti-amplification limit."""
        if not self.amp_limited:
            return 1 << 62
        return AMP_FACTOR * self.amp_received - self.amp_sent

    def __repr__(self) -> str:
        return f"<Path {self.index} {self.local_addr}->{self.peer_addr}>"


@dataclass
class ReservedFrame:
    """A frame slot booked by a plugin via ``reserve_frames`` (§2.3)."""

    frame: F.Frame
    plugin: str
    retransmittable: bool = True
    congestion_controlled: bool = True


class QuicConnection:
    """A pluginized QUIC connection endpoint."""

    def __init__(self, configuration: QuicConfiguration, now: float = 0.0):
        self.configuration = configuration
        self.is_client = configuration.is_client
        # Unique per instance yet deterministic across identical runs: mix
        # the configured seed with a process-wide connection counter.
        self._rng = random.Random(
            (configuration.seed << 24)
            ^ (next(_instance_counter) << 1)
            ^ (0 if self.is_client else 1)
        )
        self.local_cid = bytes(self._rng.randrange(256) for _ in range(CID_LENGTH))
        self.peer_cid = b""
        self._original_dcid = b""
        self.protoops = ProtoopTable(self._default_protoops())
        #: The protoop slots protocol code calls: ``self.ops.<name>(self, ...)``.
        self.ops = self.protoops.slots
        self.frame_registry = F.FrameRegistry()
        self.now = now

        # Packet-number spaces: Initial is global, 1-RTT is per-path.
        self.initial_space = PacketNumberSpace()
        self.paths: list[Path] = [Path(0, configuration.initial_window)]
        if not self.is_client:
            # §8.1: until the handshake completes, the client address is
            # unvalidated and the server may send at most 3x what it
            # received on the path.
            self.paths[0].amp_limited = True
        self.crypto: dict[Epoch, Optional[CryptoPair]] = {
            Epoch.INITIAL: None,
            Epoch.ONE_RTT: None,
        }

        # Handshake / crypto stream state (Initial epoch only in this model).
        self._crypto_send = SendStream(-1, 1 << 30)
        self._crypto_recv = ReceiveStream(-1, 1 << 30)
        self._key_share = bytes(self._rng.randrange(256) for _ in range(32))
        self._handshake_sent = False
        self.handshake_complete = False
        self.peer_transport_parameters: Optional[TransportParameters] = None

        # Streams and flow control.
        self.streams_send: dict[int, SendStream] = {}
        self.streams_recv: dict[int, ReceiveStream] = {}
        self._next_stream_id = 0 if self.is_client else 1
        self.max_data_local = configuration.transport_parameters.initial_max_data
        self.max_data_remote = 0  # learned from peer params
        self.data_sent = 0
        self.data_received = 0
        self._max_data_frame_pending = False

        # Control frames awaiting transmission (flow control updates, etc.).
        self._control_frames: list[F.Frame] = []
        # Plugin-reserved frames (deficit-round-robin between plugins).
        self.reserved_frames: list[ReservedFrame] = []

        # Spin bit state (§4.1: the only cleartext performance signal).
        self.spin_bit = False

        # Timers and lifecycle.
        self._pto_count = 0
        self._last_activity = now
        #: Extension wakeup hints: callables returning an absolute deadline
        #: (connection time) or None.  Consulted by :meth:`next_timer`
        #: alongside the loss and idle alarms so sans-io extensions (e.g.
        #: the plugin exchanger's retry clock) can wake an otherwise idle
        #: connection.  Plain callables — not protoops — to keep the
        #: paper's 72-operation census intact.
        self.wakeup_hints: list[Callable[[], Optional[float]]] = []
        self.state = ConnectionState.ACTIVE
        self.close_error: Optional[tuple[int, str]] = None
        self._close_frame_pending: Optional[F.ConnectionCloseFrame] = None
        #: Absolute deadline of the drain period (3×PTO) while CLOSING or
        #: DRAINING; None otherwise.
        self.drain_deadline: Optional[float] = None
        #: CIDs this connection retired on termination; endpoints unbind
        #: them from their demux tables.
        self.retired_cids: list[bytes] = []
        # Connection ID rotation (§5.1/§9.5): spare CIDs we issued to the
        # peer, unused CIDs the peer issued to us, and the stateless reset
        # tokens (§10.3) we learned for the peer's CIDs.
        self.issued_cids: list[bytes] = []
        self.peer_cids_available: list[bytes] = []
        self._peer_reset_tokens: set[bytes] = set()
        #: Endpoint callback: a fresh local CID was issued to the peer
        #: (servers bind it into their demux table).
        self.on_cid_issued: Optional[Callable[[bytes], None]] = None
        # CONNECTION_CLOSE retransmit rate limit (RFC 9000 §10.2.1): one
        # close packet per 2^k packets received while closing.
        self._close_rexmit_threshold = 1
        self._close_packets_seen = 0

        # Application callbacks.
        self.on_stream_data: Optional[Callable[[int, bytes, bool], None]] = None
        self.on_established: Optional[Callable[[], None]] = None
        self.on_close: Optional[Callable[[int, str], None]] = None
        #: Fires once at *termination* (CLOSED), after the drain period —
        #: unlike ``on_close``, which fires when closing begins.
        self.on_closed: Optional[Callable[["QuicConnection"], None]] = None
        self.on_plugin_message: Optional[Callable[[str, bytes], None]] = None

        # Plugin machinery attachment points (populated by repro.core).
        self.plugins: dict[str, Any] = {}
        self.plugin_queues: dict[str, list] = {}
        #: Additional local addresses a multipath plugin may open paths on.
        self.extra_local_addresses: list = []

        # Reusable per-packet encode buffer (cleared before each use).
        self._payload_buf = Buffer()
        # Batched datapath (REPRO_BATCH=0 restores one packet per
        # datagram).  Read once at construction so a single process can
        # host batched and unbatched endpoints side by side (the bench
        # A/B does exactly that).
        self._batch = os.environ.get("REPRO_BATCH", "1") != "0"
        # Pooled scatter-gather packet buffer: header ‖ ciphertext ‖ tag
        # are appended into it, never concatenated.
        self._pkt_buf = bytearray()
        # Differential hook: when True every outgoing packet is also
        # produced through the legacy encode/seal path and compared
        # byte-for-byte; mismatches accumulate here.
        self._shadow_encode = False
        self.shadow_mismatches: list = []

        # Statistics (read by the monitoring plugin through get/set API).
        self.stats = {
            "packets_sent": 0,
            "packets_received": 0,
            "bytes_sent": 0,
            "bytes_received": 0,
            "packets_lost": 0,
            "packets_acked": 0,
            "probes_sent": 0,
            "spurious_losses": 0,
            "persistent_congestion": 0,
            "pto_fired": 0,
            "frames_received": 0,
            "acks_received": 0,
            "spurious_received": 0,
            "ecn_ce_received": 0,
            "migrations": 0,
            "cids_rotated": 0,
            "path_challenges_sent": 0,
            "path_responses_sent": 0,
            "amp_blocked": 0,
            "off_path_rejected": 0,
            "stateless_resets_received": 0,
            "undersized_initials_dropped": 0,
        }

        if self.is_client:
            self._start_client_handshake()

    # ------------------------------------------------------------------
    # Protocol operation registration (the gray box of §2.2).
    # ------------------------------------------------------------------

    @classmethod
    @functools.lru_cache(maxsize=None)
    def _default_protoops(cls) -> ProtoopTable:
        """The default table of this class, built on first use: every
        operation's flags, doc and built-in behaviour, shared by all its
        connections (never changed after it is built).  Defaults
        are plain functions called as ``default(conn, *args)``, i.e. the
        class's own unbound methods."""
        t = ProtoopTable()
        # -- Parameterized frame operations (the 4 parameterized protoops).
        for name in ("parse_frame", "process_frame", "write_frame", "notify_frame"):
            t.register(name, None, parameterized=True)
        t.register("parse_frame", cls._default_parse_frame, param="default",
                   parameterized=True)
        t.register("write_frame", cls._default_write_frame, param="default",
                   parameterized=True)
        for ftype, handler in cls._default_frame_processors().items():
            t.register("process_frame", handler, param=ftype, parameterized=True)
        for ftype, handler in cls._default_frame_notifiers().items():
            t.register("notify_frame", handler, param=ftype, parameterized=True)

        for name in (
            # -- Internal processing.
            "update_rtt", "set_loss_alarm", "on_loss_alarm",
            "detect_lost_packets", "on_packet_acked", "on_packet_lost",
            "congestion_on_ack", "congestion_on_loss", "retransmit_packet",
            "stream_to_send", "schedule_frames", "reserve_frame_slot",
            "get_max_data", "update_flow_credit", "should_send_max_data",
            "create_stream", "get_send_stream", "get_receive_stream",
            "stream_data_received", "crypto_data_received",
            "process_handshake_message", "derive_one_rtt_keys",
            "set_idle_timer", "queue_control_frame",
            # -- Packet management.
            "prepare_packet", "finalize_and_protect_packet",
            "parse_packet_header", "decode_packet_number",
            "process_incoming_packet", "set_spin_bit", "get_destination_cid",
            "get_source_cid", "select_sending_path", "get_path", "create_path",
            "path_bytes_allowed", "map_incoming_path",
            "process_recovered_payload",
            # -- Introspection operations (used by monitoring & multipath).
            "get_rtt", "get_cwin", "get_bytes_in_flight",
            "stream_bytes_pending", "is_ack_needed", "get_largest_acked",
            "get_next_packet_number",
        ):
            t.register(name, getattr(cls, "_op_" + name))

        # -- Connection-workflow events (empty anchors, §2.2 category 4).
        for event in (
            "connection_established",
            "before_sending_packet",
            "packet_ready",            # (epoch, path_index, pn, plaintext)
            "packet_sent_event",       # (sent_packet,)
            "packet_received_event",   # (epoch, path_index, pn, plaintext)
            "frames_decoded",          # after decoding all frames of a packet
            "packet_lost_event",       # after a packet loss
            "packet_acked_event",
            "rtt_updated",
            "stream_opened",
            "stream_closed",
            "handshake_message_sent",
            "connection_closing",
            "connection_closed",
            "idle_timeout_event",
            "plugin_injected",
            "path_created",
            "path_validated",
            "ack_frame_built",
            "flow_control_raised",
            "loss_alarm_fired",
            "cc_window_updated",
            "spin_bit_flipped",
        ):
            t.declare(event)
        # Fault containment & recovery events (plugin_fault,
        # plugin_quarantined, plugin_exchange_retry, ...) are declared by
        # the modules that emit them (repro.core.containment/.exchange):
        # they are extensions, not part of the paper's 72-protoop census.
        return t

    # -- Introspection defaults.

    def _op_get_rtt(self, i: int = 0) -> float:
        """Smoothed RTT of a path."""
        return self.paths[i].rtt.smoothed

    def _op_get_cwin(self, i: int = 0) -> int:
        """Congestion window of a path."""
        return self.paths[i].cc.cwnd

    def _op_get_bytes_in_flight(self, i: int = 0) -> int:
        """Bytes currently in flight on a path."""
        return self.paths[i].cc.bytes_in_flight

    def _op_stream_bytes_pending(self) -> int:
        """Application bytes waiting for (re)transmission."""
        return sum(s.bytes_in_flight_or_pending
                   for s in self.streams_send.values())

    def _op_is_ack_needed(self, i: int = 0) -> bool:
        """Whether the path's space owes the peer an ACK."""
        return self.paths[i].space.ack_needed

    def _op_get_largest_acked(self, i: int = 0) -> int:
        """Largest packet number acked by the peer on a path."""
        return self.paths[i].space.largest_acked

    def _op_get_next_packet_number(self, i: int = 0) -> int:
        """Next packet number to be used on a path."""
        return self.paths[i].space.next_packet_number

    # ------------------------------------------------------------------
    # Handshake.
    # ------------------------------------------------------------------

    def _start_client_handshake(self) -> None:
        self.peer_cid = bytes(self._rng.randrange(256) for _ in range(CID_LENGTH))
        self._original_dcid = self.peer_cid
        self.crypto[Epoch.INITIAL] = initial_crypto_pair(self._original_dcid, True)
        # The ClientHello is queued lazily (first send) so extensions set
        # up after construction — e.g. a PluginExchanger advertising the
        # cache via supported_plugins — make it into the handshake.
        self._ch_pending = True

    def _handshake_params(self) -> TransportParameters:
        params = self.configuration.transport_parameters
        params.supported_plugins = list(self.configuration.supported_plugins)
        params.plugins_to_inject = list(self.configuration.plugins_to_inject)
        if not self.is_client and self.configuration.stateless_reset_key is not None:
            # §10.3: only the server advertises a reset token in transport
            # parameters (the client's handshake CID is transient).
            params.stateless_reset_token = stateless_reset_token(
                self.configuration.stateless_reset_key, self.local_cid
            )
        return params

    def _queue_handshake_message(self, msg_type: int) -> None:
        buf = Buffer()
        buf.push_uint8(msg_type)
        buf.push_bytes(self._key_share)
        buf.push_varint_prefixed_bytes(self._handshake_params().serialize())
        self._crypto_send.write(buf.data())
        self._handshake_sent = True
        self.ops.handshake_message_sent(self, msg_type)

    def _op_process_handshake_message(self, data: bytes) -> None:
        """Process one handshake message arriving on the crypto stream."""
        buf = Buffer(data)
        msg_type = buf.pull_uint8()
        peer_share = buf.pull_bytes(32)
        params = TransportParameters.parse(buf.pull_varint_prefixed_bytes())
        self.peer_transport_parameters = params
        self.max_data_remote = params.initial_max_data
        if params.stateless_reset_token:
            self._peer_reset_tokens.add(bytes(params.stateless_reset_token))
        for path in self.paths:
            path.rtt.max_ack_delay = params.max_ack_delay
        if msg_type == HANDSHAKE_CH and not self.is_client:
            self.ops.derive_one_rtt_keys(self, peer_share)
            self._queue_handshake_message(HANDSHAKE_SH)
            self._set_established()
        elif msg_type == HANDSHAKE_SH and self.is_client:
            self.ops.derive_one_rtt_keys(self, peer_share)
            self._set_established()
        else:
            raise ProtocolViolation(f"unexpected handshake message {msg_type}")

    def _op_derive_one_rtt_keys(self, peer_share: bytes) -> None:
        if self.is_client:
            secret = session_secret(self._key_share, peer_share)
        else:
            secret = session_secret(peer_share, self._key_share)
        self.crypto[Epoch.ONE_RTT] = one_rtt_crypto_pair(secret, self.is_client)

    def _set_established(self) -> None:
        if self.handshake_complete:
            return
        self.handshake_complete = True
        # Handshake progress also resets the PTO backoff (RFC 9002 §6.2.1).
        self._pto_count = 0
        if not self.is_client:
            # Completing the handshake validates the client address (§8.1)
            # and is the moment to offer a spare CID the client can rotate
            # to when it migrates (§9.5).
            self.paths[0].amp_limited = False
            self._issue_new_cid()
        self.ops.connection_established(self)
        if self.on_established is not None:
            self.on_established()

    def _issue_new_cid(self) -> None:
        cid = bytes(self._rng.randrange(256) for _ in range(CID_LENGTH))
        token = b""
        if self.configuration.stateless_reset_key is not None:
            token = stateless_reset_token(
                self.configuration.stateless_reset_key, cid)
        self.issued_cids.append(cid)
        self._control_frames.append(F.NewConnectionIdFrame(
            sequence=len(self.issued_cids), connection_id=cid,
            reset_token=token))
        if self.on_cid_issued is not None:
            self.on_cid_issued(cid)

    # ------------------------------------------------------------------
    # Public application API.
    # ------------------------------------------------------------------

    def create_stream(self) -> int:
        return self.protoops.run_external(self, "create_stream", None)

    def send_stream_data(self, stream_id: int, data: bytes, fin: bool = False) -> None:
        stream = self.ops.get_send_stream(self, stream_id)
        stream.write(data)
        if fin:
            stream.finish()

    @property
    def closed(self) -> bool:
        """True once closing has begun (any state past ACTIVE)."""
        return self.state is not ConnectionState.ACTIVE

    def close(self, error_code: int = 0, reason: str = "") -> None:
        if self.state is not ConnectionState.ACTIVE:
            return
        self.ops.connection_closing(self, error_code, reason)
        self._close_frame_pending = F.ConnectionCloseFrame(
            error_code=error_code, reason=reason
        )
        self._finish_close(error_code, reason)

    def _finish_close(
        self, error_code: int, reason: str,
        next_state: str = ConnectionState.CLOSING,
    ) -> None:
        """Leave ACTIVE: record the error, notify, enter ``next_state``.

        ``CLOSING``/``DRAINING`` arm the drain timer; ``CLOSED`` (silent
        close, e.g. idle timeout) terminates immediately.
        """
        self.close_error = (error_code, reason)
        self.ops.connection_closed(self)
        if self.on_close is not None:
            self.on_close(error_code, reason)
        if next_state is ConnectionState.CLOSED:
            self._set_state(next_state)
            self._terminate()
        else:
            self._set_state(next_state)
            self.drain_deadline = self.now + 3 * self.paths[0].rtt.pto()

    def _set_state(self, state: str) -> None:
        if state == self.state:
            return
        self.state = state
        # Declared on first emission, like the containment/exchange
        # events: a lifecycle extension, not part of the paper's
        # 72-protoop census.
        if not self.protoops.exists("connection_state_changed"):
            self.protoops.declare("connection_state_changed")
        self.protoops.run(self, "connection_state_changed", None, state)

    def _terminate(self) -> None:
        """End of the drain period: retire CIDs, release per-connection
        state and fire ``on_closed``.  Idempotent."""
        if self.retired_cids:
            return
        self._set_state(ConnectionState.CLOSED)
        self.drain_deadline = None
        self._close_frame_pending = None
        self._release_state()
        if self.on_closed is not None:
            self.on_closed(self)

    def _release_state(self) -> None:
        """Retire connection IDs and drop the bulky per-connection
        buffers (streams, sent-packet maps, received ranges) so a server
        holding many terminated connections does not accrete memory."""
        self.retired_cids = [
            cid for cid in (self.local_cid, self._original_dcid) if cid
        ]
        self.streams_send.clear()
        self.streams_recv.clear()
        self._control_frames.clear()
        self.reserved_frames.clear()
        self.wakeup_hints.clear()
        for space, _path in self._spaces_and_paths():
            space.release()

    def abort_on_plugin_failure(self, error: TransportError) -> None:
        """Plugin machinery failures terminate the connection (§2.1)."""
        if self.state is ConnectionState.ACTIVE:
            self._close_frame_pending = F.ConnectionCloseFrame(
                error_code=int(error.code), reason=error.reason
            )
            self._finish_close(int(error.code), error.reason)

    def run_external_protoop(self, name: str, param: Any = None, *args: Any) -> Any:
        """Application entry point to external protocol operations (§2.4)."""
        return self.protoops.run_external(self, name, param, *args)

    def push_message_to_app(self, plugin_name: str, message: bytes) -> None:
        """Used by plugins to asynchronously message the application."""
        if self.on_plugin_message is not None:
            self.on_plugin_message(plugin_name, message)
        else:
            self.plugin_queues.setdefault(plugin_name, []).append(message)

    # ------------------------------------------------------------------
    # Stream protoops.
    # ------------------------------------------------------------------

    def _op_create_stream(self) -> int:
        stream_id = self._next_stream_id
        self._next_stream_id += 4
        self._get_or_create_streams(stream_id)
        self.ops.stream_opened(self, stream_id)
        return stream_id

    def _remote_stream_limit(self) -> int:
        params = self.peer_transport_parameters
        if params is None:
            return self.configuration.transport_parameters.initial_max_stream_data
        return params.initial_max_stream_data

    def _get_or_create_streams(self, stream_id: int) -> None:
        if stream_id not in self.streams_send:
            self.streams_send[stream_id] = SendStream(
                stream_id, self._remote_stream_limit()
            )
            self.streams_recv[stream_id] = ReceiveStream(
                stream_id,
                self.configuration.transport_parameters.initial_max_stream_data,
            )

    def _op_get_send_stream(self, stream_id: int) -> SendStream:
        self._get_or_create_streams(stream_id)
        return self.streams_send[stream_id]

    def _op_get_receive_stream(self, stream_id: int) -> ReceiveStream:
        self._get_or_create_streams(stream_id)
        return self.streams_recv[stream_id]

    def _op_stream_data_received(self, stream_id: int, readable: bytes, fin: bool) -> None:
        if self.on_stream_data is not None and (readable or fin):
            self.on_stream_data(stream_id, readable, fin)

    def _op_crypto_data_received(self, data: bytes) -> None:
        """Drain complete handshake messages from the crypto stream."""
        stash = getattr(self, "_crypto_pending", b"") + data
        while True:
            if len(stash) < 33:
                break
            buf = Buffer(stash)
            buf.pull_uint8()
            buf.pull_bytes(32)
            try:
                buf.pull_varint_prefixed_bytes()
            except QuicError:
                break
            msg_len = buf.position
            message, stash = stash[:msg_len], stash[msg_len:]
            self.ops.process_handshake_message(self, message)
        self._crypto_pending = stash

    # ------------------------------------------------------------------
    # Flow control protoops.
    # ------------------------------------------------------------------

    def _op_get_max_data(self) -> int:
        return self.max_data_remote

    def _op_should_send_max_data(self) -> bool:
        window = self.configuration.transport_parameters.initial_max_data
        return self.data_received > self.max_data_local - window // 2

    def _op_update_flow_credit(self) -> None:
        """Raise connection and stream receive windows as data is consumed."""
        window = self.configuration.transport_parameters.initial_max_data
        if self.ops.should_send_max_data(self):
            self.max_data_local = self.data_received + window
            self.ops.queue_control_frame(
                self, F.MaxDataFrame(maximum=self.max_data_local))
            self.ops.flow_control_raised(self, self.max_data_local)
        stream_window = self.configuration.transport_parameters.initial_max_stream_data
        for stream_id, stream in self.streams_recv.items():
            if stream.final_size is not None:
                continue
            if stream.bytes_received > stream.max_stream_data - stream_window // 2:
                new_limit = stream.grant_credit(stream_window)
                if new_limit:
                    self.ops.queue_control_frame(self, F.MaxStreamDataFrame(
                        stream_id=stream_id, maximum=new_limit))

    def _op_queue_control_frame(self, frame: F.Frame) -> None:
        self._control_frames.append(frame)

    # ------------------------------------------------------------------
    # Frame parsing / processing defaults.
    # ------------------------------------------------------------------

    def _default_parse_frame(self, buf: Buffer, frame_type: int) -> F.Frame:
        cls = self.frame_registry.lookup(frame_type)
        return cls.parse(buf, frame_type)

    def _default_write_frame(self, frame: F.Frame, buf: Buffer) -> None:
        frame.serialize(buf)

    @classmethod
    def _default_frame_processors(cls) -> dict:
        return {
            F.PADDING: cls._ignore_frame,
            F.PING: cls._ignore_frame,
            F.ACK: cls._process_ack_frame,
            F.CRYPTO: cls._process_crypto_frame,
            "stream": cls._process_stream_frame,
            F.MAX_DATA: cls._process_max_data_frame,
            F.MAX_STREAM_DATA: cls._process_max_stream_data_frame,
            F.MAX_STREAMS: cls._ignore_frame,
            F.DATA_BLOCKED: cls._ignore_frame,
            F.STREAM_DATA_BLOCKED: cls._ignore_frame,
            F.RESET_STREAM: cls._process_reset_stream_frame,
            F.STOP_SENDING: cls._ignore_frame,
            F.NEW_CONNECTION_ID: cls._process_new_connection_id,
            F.PATH_CHALLENGE: cls._process_path_challenge,
            F.PATH_RESPONSE: cls._process_path_response,
            F.CONNECTION_CLOSE: cls._process_connection_close,
            F.CONNECTION_CLOSE + 1: cls._process_connection_close,
            F.HANDSHAKE_DONE: cls._ignore_frame,
        }

    def _ignore_frame(self, *args: Any) -> None:
        """Default for frames that need no processing or notification."""

    def _frame_param(self, frame_type: int) -> Any:
        if F.STREAM_BASE <= frame_type < F.STREAM_BASE + 8:
            return "stream"
        return frame_type

    def _process_ack_frame(self, frame: F.AckFrame, ctx: dict) -> None:
        epoch: Epoch = ctx["epoch"]
        path = self.paths[ctx["path_index"]]
        space = self.initial_space if epoch is Epoch.INITIAL else path.space
        self.stats["acks_received"] += 1
        result = space.on_ack_received(frame, self.now, path.rtt)
        # Together with packets_lost this closes the send-side ledger:
        # packets_sent == packets_acked + packets_lost + len(space.sent)
        # at any instant — the conservation law the conformance oracles
        # check across execution modes.
        self.stats["packets_acked"] += len(result.newly_acked)
        if result.latest_rtt is not None:
            self.ops.update_rtt(
                self, path.index, result.latest_rtt, frame.ack_delay)
        for pkt in result.newly_acked:
            self.ops.on_packet_acked(self, pkt, path.index)
        for pkt in result.spurious:
            self._run_spurious_loss(pkt, path.index)
        for pkt in result.lost:
            self.ops.on_packet_lost(self, pkt, path.index)
        self._maybe_persistent_congestion(space, path, result.lost)
        if result.newly_acked:
            # Forward progress: the PTO backoff restarts (RFC 9002 §6.2.1).
            self._pto_count = 0

    def _process_crypto_frame(self, frame: F.CryptoFrame, ctx: dict) -> None:
        readable = self._crypto_recv.receive(frame.offset, frame.data, False)
        if readable:
            self.ops.crypto_data_received(self, readable)

    def _process_stream_frame(self, frame: F.StreamFrame, ctx: dict) -> None:
        stream = self.ops.get_receive_stream(self, frame.stream_id)
        before = stream.bytes_received
        readable = stream.receive(frame.offset, frame.data, frame.fin)
        newly = stream.bytes_received - before
        if newly > 0:
            self.data_received += newly
            if self.data_received > self.max_data_local:
                raise TransportError(
                    TransportErrorCode.FLOW_CONTROL_ERROR,
                    "connection flow control exceeded",
                )
        # A retransmitted FIN is reported to the application only once.
        fin = stream.is_finished and not stream.fin_delivered
        if fin:
            stream.fin_delivered = True
        self.ops.stream_data_received(self, frame.stream_id, readable, fin)
        self.ops.update_flow_credit(self)

    def _process_max_data_frame(self, frame: F.MaxDataFrame, ctx: dict) -> None:
        if frame.maximum > self.max_data_remote:
            self.max_data_remote = frame.maximum

    def _process_max_stream_data_frame(self, frame: F.MaxStreamDataFrame, ctx: dict) -> None:
        self._get_or_create_streams(frame.stream_id)
        self.streams_send[frame.stream_id].update_max_stream_data(frame.maximum)

    def _process_reset_stream_frame(self, frame: F.ResetStreamFrame, ctx: dict) -> None:
        self._get_or_create_streams(frame.stream_id)
        stream = self.streams_recv[frame.stream_id]
        stream.final_size = frame.final_size
        self.ops.stream_closed(self, frame.stream_id)

    def _process_new_connection_id(self, frame: F.NewConnectionIdFrame, ctx: dict) -> None:
        """Stash a peer-issued CID (§5.1.1) for rotation on migration
        (§9.5), and its stateless reset token (§10.3) for detection."""
        if frame.connection_id and frame.connection_id not in self.peer_cids_available:
            self.peer_cids_available.append(bytes(frame.connection_id))
        if frame.reset_token:
            self._peer_reset_tokens.add(bytes(frame.reset_token))

    def _process_path_challenge(self, frame: F.PathChallengeFrame, ctx: dict) -> None:
        # §8.2.2: the response must leave on the path the challenge came
        # in on, so it rides the per-path probe queue rather than the
        # path-agnostic control-frame queue.
        path_index = ctx.get("path_index", 0)
        self.paths[path_index].probe_frames.append(
            F.PathResponseFrame(data=frame.data))
        self.stats["path_responses_sent"] += 1

    def _process_path_response(self, frame: F.PathResponseFrame, ctx: dict) -> None:
        for path in self.paths:
            if path.challenge_data == frame.data:
                path.challenge_data = None
                path.probe_deadline = None
                path.probe_count = 0
                path.amp_limited = False
                path.active = True
                self._set_path_state(path, PathState.VALIDATED)
                self.ops.path_validated(self, path.index)

    def _process_connection_close(self, frame: F.ConnectionCloseFrame, ctx: dict) -> None:
        if self.state is ConnectionState.ACTIVE:
            self._finish_close(frame.error_code, frame.reason,
                               next_state=ConnectionState.DRAINING)

    # ------------------------------------------------------------------
    # Path validation, migration and stateless reset (RFC 9000 §8-§10.3).
    # ------------------------------------------------------------------

    def _run_extension_event(self, name: str, *args: Any) -> None:
        """Run a lazily-declared extension event: declared on first
        emission, like the containment/exchange events, so the paper's
        72-protoop census stays intact."""
        if not self.protoops.exists(name):
            self.protoops.declare(name)
        self.protoops.run(self, name, None, *args)

    def _record_path_metric(self, name: str, amount: int = 1) -> None:
        registry = getattr(self, "metrics", None)
        if registry is not None:
            registry.counter("quic.path." + name).inc(amount)

    def _record_recovery_metric(self, name: str, amount: int = 1) -> None:
        """Host-side ``quic.recovery.*`` counters (probes, spurious
        losses, persistent congestion); unprefixed like ``quic.path.*``
        so vantage points aggregate identically."""
        registry = getattr(self, "metrics", None)
        if registry is not None:
            registry.counter("quic.recovery." + name).inc(amount)

    def _emit_cc_state(self, path_index: int, old: str, new: str,
                       trigger: str) -> None:
        if old != new:
            self._run_extension_event(
                "congestion_state_changed", path_index, old, new, trigger)

    def _set_path_state(self, path: Path, state: str) -> None:
        if path.state == state:
            return
        old = path.state
        path.state = state
        self._run_extension_event(
            "path_validation_state_changed", path.index, old, state)
        if state == PathState.VALIDATED:
            self._record_path_metric("validated")
        elif state == PathState.FAILED:
            self._record_path_metric("failed")

    def start_path_validation(self, path_index: int) -> None:
        """Begin (or restart) §8.2 validation of a path: queue a
        PATH_CHALLENGE carrying a fresh random 8-byte token on the path
        itself and arm the PTO-based probe retransmission timer."""
        path = self.paths[path_index]
        path.challenge_data = bytes(
            self._rng.randrange(256) for _ in range(8))
        path.probe_count = 0
        path.probe_frames.append(
            F.PathChallengeFrame(data=path.challenge_data))
        path.probe_deadline = self.now + self._probe_timeout(path)
        self.stats["path_challenges_sent"] += 1
        self._record_path_metric("challenges_sent")
        self._set_path_state(path, PathState.PROBING)

    def _probe_timeout(self, path: Path) -> float:
        # §8.2.1: probe timers back off like PTO.
        return path.rtt.pto() * (1 << min(path.probe_count, 6))

    def _on_probe_timeout(self, path: Path) -> None:
        path.probe_count += 1
        if path.probe_count >= MAX_PATH_PROBES:
            # §8.2.4: give up — the path is unusable.
            path.probe_deadline = None
            path.challenge_data = None
            path.probe_frames = [
                f for f in path.probe_frames if f.type != F.PATH_CHALLENGE
            ]
            path.active = False
            self._set_path_state(path, PathState.FAILED)
            return
        path.probe_frames.append(
            F.PathChallengeFrame(data=path.challenge_data))
        path.probe_deadline = self.now + self._probe_timeout(path)
        self.stats["path_challenges_sent"] += 1
        self._record_path_metric("challenges_sent")

    def on_peer_address_changed(self, path_index: int, new_addr: str,
                                received_bytes: int = 0) -> None:
        """Passive migration (§9): an authenticated packet arrived from a
        new peer address (NAT rebinding).  The path follows the peer,
        loses its congestion and RTT state (§9.4), becomes
        amplification-limited again and must revalidate."""
        path = self.paths[path_index]
        old = path.peer_addr or ""
        path.peer_addr = new_addr
        path.cc = NewRenoController(self.configuration.initial_window)
        max_ack_delay = path.rtt.max_ack_delay
        path.rtt = RttEstimator()
        path.rtt.max_ack_delay = max_ack_delay
        path.amp_limited = not self.is_client
        path.amp_received = received_bytes
        path.amp_sent = 0
        if path.state in (PathState.VALIDATED, PathState.FAILED):
            self._set_path_state(path, PathState.UNVALIDATED)
        self.stats["migrations"] += 1
        self._record_path_metric("migrations")
        self._run_extension_event(
            "connection_migrated", path_index, old, new_addr)
        self.start_path_validation(path_index)

    def migrate(self, new_local_addr: str) -> None:
        """Active client migration (§9.5): move path 0 to a new local
        address, rotate to an unused peer-issued CID so the old and new
        paths cannot be linked, and revalidate."""
        path = self.paths[0]
        old = path.local_addr or ""
        path.local_addr = new_local_addr
        if self.peer_cids_available:
            self.peer_cid = self.peer_cids_available.pop(0)
            self.stats["cids_rotated"] += 1
            self._record_path_metric("cids_rotated")
        self.stats["migrations"] += 1
        self._record_path_metric("migrations")
        self._run_extension_event(
            "connection_migrated", 0, old, new_local_addr)
        if path.state == PathState.VALIDATED:
            self._set_path_state(path, PathState.UNVALIDATED)
        self.start_path_validation(0)

    def note_off_path_packet(self) -> None:
        """An unauthenticated datagram from a foreign address was dropped
        without touching any connection state (§9.3.2)."""
        self.stats["off_path_rejected"] += 1
        self._record_path_metric("off_path_rejected")

    def _handle_stateless_reset(self) -> None:
        """§10.3: the peer lost its state — stop sending immediately."""
        self.stats["stateless_resets_received"] += 1
        self._record_path_metric("stateless_resets")
        self._run_extension_event("stateless_reset")
        self._finish_close(0, "stateless reset",
                           next_state=ConnectionState.DRAINING)

    # ------------------------------------------------------------------
    # ACK / loss protoops.
    # ------------------------------------------------------------------

    def _op_update_rtt(self, path_index: int, latest: float, ack_delay: float) -> float:
        path = self.paths[path_index]
        self.ops.rtt_updated(self, path_index, latest)
        return path.rtt.smoothed

    def _op_on_packet_acked(self, pkt: SentPacket, path_index: int) -> None:
        if pkt.in_flight:
            self.ops.congestion_on_ack(self, pkt, path_index)
        for frame in pkt.frames:
            self._notify_frame(frame, True, pkt)
        self.ops.packet_acked_event(self, pkt)

    def _op_on_packet_lost(self, pkt: SentPacket, path_index: int) -> None:
        self.stats["packets_lost"] += 1
        if pkt.in_flight:
            self.ops.congestion_on_loss(self, pkt, path_index)
        self.ops.retransmit_packet(self, pkt)
        self.ops.packet_lost_event(self, pkt)

    def _op_congestion_on_ack(self, pkt: SentPacket, path_index: int) -> None:
        path = self.paths[path_index]
        old = path.cc.state
        path.cc.on_ack(pkt.size, self.now, pkt.sent_time,
                       app_limited=pkt.app_limited)
        self._emit_cc_state(path_index, old, path.cc.state, "ack")
        self.ops.cc_window_updated(self, path_index, path.cc.cwnd)

    def _op_congestion_on_loss(self, pkt: SentPacket, path_index: int) -> None:
        path = self.paths[path_index]
        old = path.cc.state
        path.cc.on_loss(pkt.size, self.now, pkt.sent_time)
        self._emit_cc_state(path_index, old, path.cc.state, "loss")
        self.ops.cc_window_updated(self, path_index, path.cc.cwnd)

    def _run_spurious_loss(self, pkt: SentPacket, path_index: int) -> None:
        """Dispatch the ``on_spurious_loss`` protoop anchor, registering
        its default lazily (first spurious loss) so the paper's
        72-protoop census stays intact, like the other extension ops."""
        table = self.protoops
        if not table.exists("on_spurious_loss") or \
                not table.get("on_spurious_loss").defaults:
            table.register("on_spurious_loss", type(self)._op_on_spurious_loss)
        table.run(self, "on_spurious_loss", None, pkt, path_index)

    def _op_on_spurious_loss(self, pkt: SentPacket, path_index: int) -> None:
        """A packet declared lost was later acknowledged: the loss was
        spurious.  The send-side mirror of the receive side's
        ``spurious_received`` accounting — and the congestion response
        the false loss triggered is undone."""
        path = self.paths[path_index]
        self.stats["spurious_losses"] += 1
        self._record_recovery_metric("spurious_losses")
        old = path.cc.state
        if pkt.in_flight:
            path.cc.on_spurious_loss(pkt.size, pkt.lost_time, pkt.sent_time)
        self._emit_cc_state(path_index, old, path.cc.state, "spurious_loss")
        self.ops.cc_window_updated(self, path_index, path.cc.cwnd)

    def _maybe_persistent_congestion(self, space: PacketNumberSpace,
                                     path: Path, lost: list) -> None:
        """RFC 9002 §7.6: collapse cwnd to the minimum only when a
        duration-spanning unbroken run of losses proves the path dead —
        and only once an RTT sample exists to size the duration."""
        if not lost or path.rtt.samples == 0:
            return
        duration = path.rtt.pto() * K_PERSISTENT_CONGESTION_THRESHOLD
        if not space.persistent_congestion(lost, duration):
            return
        old = path.cc.state
        path.cc.on_persistent_congestion()
        self.stats["persistent_congestion"] += 1
        self._record_recovery_metric("persistent_congestion")
        self._emit_cc_state(path.index, old, path.cc.state,
                            "persistent_congestion")
        self.ops.cc_window_updated(self, path.index, path.cc.cwnd)

    def _op_retransmit_packet(self, pkt: SentPacket) -> None:
        for frame in pkt.frames:
            self._notify_frame(frame, False, pkt)

    def _notify_frame(self, frame: F.Frame, acked: bool, pkt: SentPacket) -> None:
        param = self._frame_param(frame.type)
        slot = self.ops.notify_frame.get(param)
        if slot is None:  # a no-op, run by name so run counting sees it
            self.protoops.run(self, "notify_frame", param, frame, acked, pkt)
        else:
            slot(self, frame, acked, pkt)

    @classmethod
    def _default_frame_notifiers(cls) -> dict:
        """Default ACK/loss notifications per frame type.

        Signature: (conn, frame, acked: bool, sent_packet).
        """
        return {
            "stream": cls._notify_stream,
            F.CRYPTO: cls._notify_crypto,
            F.MAX_DATA: cls._requeue_on_loss,
            F.MAX_STREAM_DATA: cls._requeue_on_loss,
            F.MAX_STREAMS: cls._requeue_on_loss,
            F.RESET_STREAM: cls._requeue_on_loss,
            F.STOP_SENDING: cls._requeue_on_loss,
            F.PING: cls._ignore_frame,
            F.ACK: cls._ignore_frame,
            F.PADDING: cls._ignore_frame,
            # Probe retransmission is timer-driven (PTO backoff in
            # _on_probe_timeout), so a lost challenge is NOT requeued
            # here: doing both would duplicate probes, and the generic
            # control-frame queue could not honour the per-path routing
            # of §8.2.2 anyway.
            F.PATH_CHALLENGE: cls._ignore_frame,
            # §13.3: a PATH_RESPONSE is sent only once.  If it is lost,
            # the peer's probe-retransmit repeats the PATH_CHALLENGE and
            # a fresh response answers that copy.
            F.PATH_RESPONSE: cls._ignore_frame,
            F.CONNECTION_CLOSE: cls._ignore_frame,
            F.HANDSHAKE_DONE: cls._requeue_on_loss,
            F.NEW_CONNECTION_ID: cls._requeue_on_loss,
            F.DATA_BLOCKED: cls._ignore_frame,
            F.STREAM_DATA_BLOCKED: cls._ignore_frame,
        }

    def _notify_stream(self, frame, acked: bool, pkt) -> None:
        stream = self.streams_send.get(frame.stream_id)
        if stream is None:
            return
        if acked:
            stream.on_ack(frame.offset, len(frame.data), frame.fin)
            if stream.all_acked:
                self.ops.stream_closed(self, frame.stream_id)
        else:
            stream.on_loss(frame.offset, len(frame.data), frame.fin)

    def _notify_crypto(self, frame, acked: bool, pkt) -> None:
        if acked:
            self._crypto_send.on_ack(frame.offset, len(frame.data), False)
        else:
            self._crypto_send.on_loss(frame.offset, len(frame.data), False)

    def _requeue_on_loss(self, frame, acked: bool, pkt) -> None:
        if not acked:
            self._control_frames.append(frame)

    # ------------------------------------------------------------------
    # Timers.
    # ------------------------------------------------------------------

    def _op_set_loss_alarm(self) -> Optional[float]:
        """Earliest loss/PTO deadline across spaces and paths."""
        deadlines = []
        t = self.initial_space.next_timer(self.paths[0].rtt, self._pto_count)
        if t is not None:
            deadlines.append(t)
        for path in self.paths:
            t = path.space.next_timer(path.rtt, self._pto_count)
            if t is not None:
                deadlines.append(t)
        return min(deadlines) if deadlines else None

    def _op_set_idle_timer(self) -> float:
        return self._last_activity + self.configuration.transport_parameters.idle_timeout

    def next_timer(self) -> Optional[float]:
        if self.state is ConnectionState.CLOSED:
            return None
        if self.drain_deadline is not None:
            return self.drain_deadline
        alarm = self.ops.set_loss_alarm(self)
        idle = self.ops.set_idle_timer(self)
        probes = (p.probe_deadline for p in self.paths)
        hints = (hint() for hint in self.wakeup_hints)
        candidates = [t for t in (alarm, idle, *probes, *hints)
                      if t is not None]
        return min(candidates) if candidates else None

    def handle_timer(self, now: float) -> None:
        if self.state is ConnectionState.CLOSED:
            return
        self.now = max(self.now, now)
        if self.drain_deadline is not None:
            if now >= self.drain_deadline - 1e-12:
                self._terminate()
            return
        idle = self.ops.set_idle_timer(self)
        if now >= idle:
            # Silent close (RFC 9000 §10.1): nothing is sent, no drain.
            self.ops.idle_timeout_event(self)
            self._finish_close(0, "idle timeout",
                               next_state=ConnectionState.CLOSED)
            return
        for path in self.paths:
            if (path.probe_deadline is not None
                    and now >= path.probe_deadline - 1e-12):
                self._on_probe_timeout(path)
        alarm = self.ops.set_loss_alarm(self)
        if alarm is not None and now >= alarm - 1e-12:
            self.ops.on_loss_alarm(self)

    def _op_on_loss_alarm(self) -> None:
        self.ops.loss_alarm_fired(self)
        fired = False
        for space, path in self._spaces_and_paths():
            if space.loss_time is not None and self.now >= space.loss_time - 1e-12:
                lost = self.ops.detect_lost_packets(self, space, path.index)
                for pkt in lost:
                    self.ops.on_packet_lost(self, pkt, path.index)
                self._maybe_persistent_congestion(space, path, lost)
                fired = True
        if not fired:
            # PTO (RFC 9002 §6.2.4): a late ACK is not evidence of loss.
            # Send up to two ack-eliciting probe packets carrying the
            # oldest unacked frames — no packet is declared lost, cwnd
            # is untouched, and the backoff doubles until an ACK or
            # handshake progress resets it.
            self._pto_count += 1
            self.stats["pto_fired"] += 1
            self._record_recovery_metric("pto_fired")
            for space, path in self._spaces_and_paths():
                deadline = space.pto_deadline(path.rtt, max(0, self._pto_count - 1))
                if deadline is not None and self.now >= deadline - 1e-12:
                    if self.configuration.declare_all_on_pto:
                        # Legacy declare-all-lost behavior, kept only as
                        # the bench baseline the probe path must beat.
                        for pkt in space.declare_all_lost():
                            self.ops.on_packet_lost(self, pkt, path.index)
                    else:
                        self._send_pto_probes(space, path)

    def _send_pto_probes(self, space: PacketNumberSpace, path: Path) -> None:
        """Queue 1-2 ack-eliciting probe packets for *space* on *path*.

        Probes retransmit the oldest unacked frames without removing the
        original packets from flight (conservation stays exact: the
        originals remain in ``sent`` until acked or declared lost by the
        normal detector).  Probe bundles are cwnd-exempt (§7.5)."""
        candidates = space.probe_candidates(MAX_PTO_PROBES)
        for pkt in candidates:
            if space is self.initial_space:
                # Handshake data re-enters the crypto send queue; the
                # scheduler already treats Initial crypto as cwnd-exempt.
                self.ops.retransmit_packet(self, pkt)
            else:
                # Only retransmittable frames ride in a probe: unreliable
                # extension frames (DATAGRAM, §4.2) must never be
                # repeated, and path probes are timer-driven (§8.2.2).
                bundle = [
                    f for f in pkt.frames
                    if f.retransmittable
                    and f.type not in (F.PATH_CHALLENGE, F.PATH_RESPONSE)
                ]
                if not bundle:
                    bundle = [F.PingFrame()]
                path.pto_probes.append(bundle)
            self.stats["probes_sent"] += 1
            self._record_recovery_metric("probes_sent")
            self._run_extension_event("probe_sent", pkt, path.index)

    def _op_detect_lost_packets(self, space: PacketNumberSpace, path_index: int) -> list:
        return space.detect_lost(self.now, self.paths[path_index].rtt)

    def _spaces_and_paths(self):
        yield self.initial_space, self.paths[0]
        for path in self.paths:
            yield path.space, path

    # ------------------------------------------------------------------
    # Receiving datagrams.
    # ------------------------------------------------------------------

    def receive_datagram(self, data: bytes, now: float, path_index: int = 0,
                         from_peer: bool = True) -> None:
        if self.state is ConnectionState.CLOSING:
            self._receive_while_closing(data, now)
            return
        if self.state is not ConnectionState.ACTIVE:
            return
        self.now = max(self.now, now)
        self._last_activity = self.now
        self.stats["bytes_received"] += len(data)
        if from_peer and path_index < len(self.paths):
            # §8.1: every byte received on a path earns 3x send credit,
            # decryptable or not (the credit is per address, not per
            # authenticated packet).
            self.paths[path_index].amp_received += len(data)
        try:
            self.ops.process_incoming_packet(self, data, path_index)
        except ProtoopError as exc:
            self.abort_on_plugin_failure(exc)
        except CryptoError:
            # Undecryptable datagrams are dropped silently — unless they
            # end in a stateless reset token we were told about (§10.3).
            if is_stateless_reset(data, self._peer_reset_tokens):
                self._handle_stateless_reset()
        except TransportError as exc:
            self.close(int(exc.code), exc.reason)

    def _receive_while_closing(self, data: bytes, now: float) -> None:
        """CLOSING-state receive path (RFC 9000 §10.2.1/§10.2.2): the
        peer's CONNECTION_CLOSE moves us to DRAINING; any other packet
        re-arms our own close packet, rate-limited by doubling the
        number of packets required between retransmissions."""
        self.now = max(self.now, now)
        if self._datagram_contains_close(data):
            self._close_frame_pending = None
            self._set_state(ConnectionState.DRAINING)
            return
        self._close_packets_seen += 1
        if self._close_packets_seen >= self._close_rexmit_threshold:
            self._close_packets_seen = 0
            self._close_rexmit_threshold *= 2
            if self.close_error is not None and self._close_frame_pending is None:
                self._close_frame_pending = F.ConnectionCloseFrame(
                    error_code=self.close_error[0], reason=self.close_error[1]
                )

    def _datagram_contains_close(self, data: bytes) -> bool:
        """Decrypt and scan a datagram for CONNECTION_CLOSE without
        processing it (used while CLOSING, when normal processing has
        stopped).  Scans every coalesced packet in the datagram (§12.2);
        anything undecodable counts as not-a-close."""
        try:
            buf = Buffer(data)
            while not buf.eof():
                start = buf.position
                header, payload_len = parse_header(buf, CID_LENGTH)
                header_bytes = data[start:buf.position]
                ciphertext = buf.pull_bytes(payload_len)
                pair = self.crypto.get(header.epoch)
                if pair is None:
                    return False
                space = (self.initial_space if header.epoch is Epoch.INITIAL
                         else self.paths[0].space)
                pn = decode_packet_number(
                    header.packet_number, space.largest_received)
                plaintext = pair.recv.open(pn, header_bytes, ciphertext)
                fbuf = Buffer(plaintext)
                while not fbuf.eof():
                    ftype = fbuf.pull_varint()
                    self.frame_registry.lookup(ftype).parse(fbuf, ftype)
                    if ftype in (F.CONNECTION_CLOSE, F.CONNECTION_CLOSE + 1):
                        return True
        except (QuicError, ValueError, KeyError):
            return False
        return False

    def _op_parse_packet_header(self, buf: Buffer) -> tuple:
        return parse_header(buf, CID_LENGTH)

    def _op_decode_packet_number(self, truncated: int, largest: int) -> int:
        return decode_packet_number(truncated, largest)

    def _op_process_incoming_packet(self, data: bytes, path_index: int) -> None:
        """Process every QUIC packet coalesced into the datagram (§12.2).

        Everything up to AEAD opening works on unauthenticated bytes: a
        corrupted datagram must be *dropped*, never close the connection
        (which a bare FrameEncodingError — a TransportError — would do).
        Once at least one packet of the datagram has authenticated, an
        undecodable or undecryptable tail is dropped silently (§12.2:
        receivers ignore coalesced packets they cannot process); only a
        datagram with *no* authenticated packet raises, which keeps the
        stateless-reset check in :meth:`receive_datagram` reachable —
        a reset datagram (§10.3) never authenticates.
        """
        buf = Buffer(data)
        mview = memoryview(data)
        datagram_len = len(data)
        authenticated = 0
        while not buf.eof():
            start = buf.position
            try:
                header, payload_len = self.ops.parse_packet_header(self, buf)
                header_bytes = mview[start:buf.position]
                ciphertext = buf.pull_view(payload_len)
            except ProtoopError:
                raise
            except (TransportError, ValueError) as exc:
                if authenticated:
                    return
                raise CryptoError(f"undecodable packet header: {exc}") from exc
            epoch = header.epoch
            if epoch is Epoch.HANDSHAKE:
                if authenticated:
                    return
                raise CryptoError("handshake epoch unused in this model")
            if (epoch is Epoch.INITIAL and not self.is_client
                    and datagram_len < INITIAL_PADDING_TARGET):
                # §14.1: clients must expand Initial datagrams to 1200
                # bytes (the whole datagram counts, §12.2).  Dropping
                # smaller ones before deriving keys denies spoofed
                # mini-Initials both amplification and server-side state.
                self.stats["undersized_initials_dropped"] += 1
                if authenticated:
                    return
                raise CryptoError("client Initial datagram below 1200 bytes")
            if epoch is Epoch.INITIAL and self.crypto[Epoch.INITIAL] is None:
                # Server side: derive initial keys from the client's DCID.
                self._original_dcid = header.destination_cid
                self.crypto[Epoch.INITIAL] = initial_crypto_pair(
                    header.destination_cid, False)
            pair = self.crypto[epoch]
            if pair is None:
                if authenticated:
                    return
                raise CryptoError(f"no keys for epoch {epoch}")
            if path_index >= len(self.paths):
                path_index = 0
            space = (self.initial_space if epoch is Epoch.INITIAL
                     else self.paths[path_index].space)
            full_pn = self.ops.decode_packet_number(
                self, header.packet_number, space.largest_received)
            try:
                plaintext = pair.recv.open(full_pn, header_bytes, ciphertext)
            except CryptoError:
                if authenticated:
                    return
                raise
            authenticated += 1
            if epoch is Epoch.INITIAL and header.source_cid:
                # Both sides learn the peer's chosen source CID from Initials.
                self.peer_cid = header.source_cid
            if epoch is Epoch.ONE_RTT:
                # Spin bit: the server echoes, the client inverts (§4.1 / [96]).
                new_spin = (header.spin_bit if not self.is_client
                            else not header.spin_bit)
                if new_spin != self.spin_bit:
                    self.ops.spin_bit_flipped(self, new_spin)
                self.spin_bit = new_spin
            self._process_payload(epoch, path_index, full_pn, plaintext, space)

    def _process_payload(
        self,
        epoch: Epoch,
        path_index: int,
        pn: int,
        plaintext: bytes,
        space: PacketNumberSpace,
    ) -> None:
        self.stats["packets_received"] += 1
        buf = Buffer(plaintext)
        ctx = {"epoch": epoch, "path_index": path_index, "packet_number": pn}
        ack_eliciting = False
        decoded = []
        parsers = self.ops.parse_frame
        while not buf.eof():
            frame_type = buf.pull_varint()
            parse = (parsers.get(self._frame_param(frame_type))
                     or parsers["default"])
            decoded.append((frame_type, parse(self, buf, frame_type)))
        if not space.record_received(pn, self.now, False):
            self.stats["spurious_received"] += 1
            return  # duplicate (e.g. already FEC-recovered)
        processors = self.ops.process_frame
        for frame_type, frame in decoded:
            self.stats["frames_received"] += 1
            if frame.ack_eliciting:
                ack_eliciting = True
            process = processors.get(self._frame_param(frame_type))
            if process is None:
                raise ProtocolViolation(f"no processor for frame 0x{frame_type:x}")
            process(self, frame, ctx)
        if ack_eliciting:
            space.ack_needed = True
        self.ops.frames_decoded(self, epoch, path_index, pn, decoded)
        self.ops.packet_received_event(self, epoch, path_index, pn, plaintext)

    def _op_process_recovered_payload(self, path_index: int, pn: int, plaintext: bytes) -> None:
        """Inject a FEC-recovered packet payload as if the packet arrived."""
        space = self.paths[path_index].space
        if pn in space.received:
            return
        self._process_payload(Epoch.ONE_RTT, path_index, pn, plaintext, space)

    # ------------------------------------------------------------------
    # Sending datagrams.
    # ------------------------------------------------------------------

    def _op_get_destination_cid(self) -> bytes:
        return self.peer_cid

    def _op_get_source_cid(self) -> bytes:
        return self.local_cid

    def _op_set_spin_bit(self) -> bool:
        return self.spin_bit

    def _op_select_sending_path(self) -> int:
        """Default single-path behaviour; the multipath plugin replaces it."""
        return 0

    def _op_get_path(self, index: int) -> Path:
        return self.paths[index]

    def _op_map_incoming_path(self, local_addr: str, peer_addr: str) -> int:
        """Which path an incoming datagram belongs to. The multipath
        plugin replaces this to create paths for new address pairs."""
        for path in self.paths:
            if path.local_addr == local_addr and path.peer_addr == peer_addr:
                return path.index
        return 0

    def _op_create_path(self, local_addr: str, peer_addr: str) -> int:
        path = Path(len(self.paths), self.configuration.initial_window)
        path.local_addr = local_addr
        path.peer_addr = peer_addr
        path.active = True
        # A server-created path is amplification-limited until validated
        # (§8.1); a client opens paths toward an already-validated server.
        path.amp_limited = not self.is_client
        if self.peer_transport_parameters is not None:
            path.rtt.max_ack_delay = self.peer_transport_parameters.max_ack_delay
        self.paths.append(path)
        self.ops.path_created(self, path.index)
        return path.index

    def _op_path_bytes_allowed(self, path_index: int) -> int:
        return self.paths[path_index].cc.available_window

    def _op_stream_to_send(self) -> Optional[int]:
        """Pick the next stream with sendable data (round-robin-ish)."""
        for stream_id, stream in self.streams_send.items():
            if stream.has_pending and (
                stream.bytes_in_flight_or_pending == 0
                or self.data_sent < self.max_data_remote
                or True
            ):
                return stream_id
        return None

    def _op_reserve_frame_slot(self, reserved: ReservedFrame) -> None:
        self.reserved_frames.append(reserved)

    def reserve_frames(self, reserved: list) -> None:
        """Plugin API (Table 1): book slots for sending frames."""
        for r in reserved:
            self.ops.reserve_frame_slot(self, r)

    def datagrams_to_send(self, now: float) -> list:
        """Build as many packets as credit allows; returns
        [(datagram, path_index), ...].  On the batched path several
        QUIC packets may share one datagram (§12.2 coalescing)."""
        self.now = max(self.now, now)
        out = []
        if self._close_frame_pending is not None:
            pkt = self._build_close_packet()
            if pkt is not None:
                out.append((pkt, 0))
            self._close_frame_pending = None
            return out
        if self.closed:
            return out
        for _ in range(256):  # per-call packet budget
            built = self.ops.prepare_packet(self)
            if built is None:
                break
            out.append(built)
        if self._batch and len(out) > 1:
            out = self._coalesce_datagrams(out)
        return out

    def _coalesce_datagrams(self, packets: list) -> list:
        """Pack consecutive QUIC packets into shared UDP datagrams
        (RFC 9000 §12.2).

        Only a long-header packet carries an explicit Length field, so
        only it may be followed by another packet in the same datagram;
        a short-header packet runs to the datagram end and always closes
        one.  Packets coalesce only onto the same path and never beyond
        the path MTU.  The wire bytes of every packet are unchanged —
        receivers split the train on the Length fields."""
        mtu = self.configuration.max_udp_payload_size
        out = []
        parts: list = []
        parts_len = 0
        parts_path = -1
        prev_open = False  # last appended packet had a long header
        for pkt, path_index in packets:
            if (prev_open and path_index == parts_path
                    and parts_len + len(pkt) <= mtu):
                parts.append(pkt)
                parts_len += len(pkt)
            else:
                if parts:
                    out.append((parts[0] if len(parts) == 1
                                else b"".join(parts), parts_path))
                parts = [pkt]
                parts_len = len(pkt)
                parts_path = path_index
            prev_open = bool(pkt[0] & FORM_LONG)
        if parts:
            out.append((parts[0] if len(parts) == 1
                        else b"".join(parts), parts_path))
        return out

    def _build_close_packet(self) -> Optional[bytes]:
        epoch = Epoch.ONE_RTT if self.crypto[Epoch.ONE_RTT] is not None else Epoch.INITIAL
        if self.crypto[epoch] is None:
            return None
        payload = self._close_frame_pending.to_bytes()
        return self._protect_and_record(epoch, 0, payload, [], False)

    def _op_prepare_packet(self) -> Optional[tuple]:
        """Build one packet if anything needs sending. Returns
        (datagram_bytes, path_index) or None."""
        self.ops.before_sending_packet(self)
        # Initial epoch first (handshake); the call also queues a pending
        # ClientHello.
        if self._initial_needs_sending():
            pkt = self._prepare_epoch_packet(Epoch.INITIAL, 0)
            if pkt is not None:
                return pkt, 0
        if self.crypto[Epoch.ONE_RTT] is None:
            return None
        # Path probes (PATH_CHALLENGE/PATH_RESPONSE) must leave on their
        # specific path (§8.2.2) and PTO probe bundles on the path whose
        # deadline expired, so both bypass path selection.
        for path in self.paths:
            if path.probe_frames or path.pto_probes:
                pkt = self._prepare_epoch_packet(Epoch.ONE_RTT, path.index)
                if pkt is not None:
                    return pkt, path.index
        path_index = self.ops.select_sending_path(self)
        pkt = self._prepare_epoch_packet(Epoch.ONE_RTT, path_index)
        if pkt is not None:
            return pkt, path_index
        return None

    def _initial_needs_sending(self) -> bool:
        if self.crypto[Epoch.INITIAL] is None:
            return False
        if getattr(self, "_ch_pending", False):
            self._ch_pending = False
            self._queue_handshake_message(HANDSHAKE_CH)
        return self._crypto_send.has_pending or self.initial_space.ack_needed

    def _prepare_epoch_packet(self, epoch: Epoch, path_index: int) -> Optional[bytes]:
        path = self.paths[path_index]
        space = self.initial_space if epoch is Epoch.INITIAL else path.space
        budget = self.configuration.max_udp_payload_size - TAG_LENGTH - 32
        if path.amp_limited:
            # §8.1: never put more than 3x the received bytes on an
            # unvalidated path.  Block *before* scheduling so no frame
            # state is consumed for a packet that cannot leave.
            allowed = path.amp_budget() - TAG_LENGTH - 32
            if allowed <= 0:
                self.stats["amp_blocked"] += 1
                self._record_path_metric("amp_blocked")
                return None
            budget = min(budget, allowed)
        frames, ack_only = self.ops.schedule_frames(
            self, epoch, path_index, budget)
        if not frames:
            return None
        payload = self._payload_buf
        payload.clear()
        writers = self.ops.write_frame
        for frame in frames:
            write = (writers.get(self._frame_param(frame.type))
                     or writers["default"])
            write(self, frame, payload)
        plaintext = payload.data()
        if self._shadow_encode:
            # Differential check: the scatter-gather encode must be
            # bit-identical to the legacy one-bytes-per-frame path.
            legacy = b"".join(f.to_bytes() for f in frames)
            if legacy != plaintext:
                self.shadow_mismatches.append(("encode", epoch, plaintext, legacy))
        return self._protect_and_record(
            epoch, path_index, plaintext, frames, not ack_only
        )

    def _protect_and_record(
        self,
        epoch: Epoch,
        path_index: int,
        plaintext: bytes,
        frames: list,
        ack_eliciting: bool,
    ) -> bytes:
        return self.ops.finalize_and_protect_packet(
            self, epoch, path_index, plaintext, frames, ack_eliciting)

    def _op_finalize_and_protect_packet(
        self,
        epoch: Epoch,
        path_index: int,
        plaintext: bytes,
        frames: list,
        ack_eliciting: bool,
    ) -> bytes:
        path = self.paths[path_index]
        space = self.initial_space if epoch is Epoch.INITIAL else path.space
        pn = space.take_packet_number()
        self.ops.packet_ready(self, epoch, path_index, pn, plaintext)
        if epoch is Epoch.INITIAL:
            dcid = self.ops.get_destination_cid(self)
            header = encode_long_header(
                PacketType.INITIAL,
                dcid,
                self.ops.get_source_cid(self),
                pn,
                len(plaintext) + TAG_LENGTH,
            )
        else:
            header = encode_short_header(
                self.ops.get_destination_cid(self),
                pn,
                spin_bit=self.ops.set_spin_bit(self),
            )
        pkt_buf = self._pkt_buf
        del pkt_buf[:]
        seal_packet_into(pkt_buf, header, plaintext, self.crypto[epoch].send, pn)
        packet = bytes(pkt_buf)
        if self._shadow_encode:
            # Differential check: scatter-gather sealing must be
            # bit-identical to the legacy header + seal() concatenation.
            legacy = seal_packet(header, plaintext, self.crypto[epoch].send, pn)
            if legacy != packet:
                self.shadow_mismatches.append(("seal", pn, packet, legacy))
        if epoch is Epoch.INITIAL and self.is_client and len(packet) < INITIAL_PADDING_TARGET:
            # Clients pad Initial datagrams (anti-amplification).
            pad = INITIAL_PADDING_TARGET - len(packet)
            padded_plain = plaintext + b"\x00" * pad
            packet = seal_packet(
                encode_long_header(
                    PacketType.INITIAL, dcid,
                    self.local_cid, pn, len(padded_plain) + TAG_LENGTH,
                ),
                padded_plain, self.crypto[epoch].send, pn,
            )
        # Every ack-eliciting frame is tracked for ACK/loss notification;
        # whether a lost frame is retransmitted is the per-type notifier's
        # decision (e.g. DATAGRAM frames only count their losses, §4.2).
        notified = [
            f for f in frames
            if f.ack_eliciting or isinstance(f, F.CryptoFrame)
        ]
        largest_ack = -1
        for f in frames:
            if isinstance(f, F.AckFrame) and f.ranges:
                top = f.ranges.largest()
                if top > largest_ack:
                    largest_ack = top
        sent = SentPacket(
            packet_number=pn,
            sent_time=self.now,
            size=len(packet),
            ack_eliciting=ack_eliciting,
            in_flight=ack_eliciting,
            frames=notified,
            path_id=path_index,
            largest_ack_reported=largest_ack,
        )
        space.on_packet_sent(sent)
        if sent.in_flight:
            path.cc.on_packet_sent(sent.size)
            # §7.8: if the window is still open and nothing more waits,
            # the application — not cwnd — limited this send; its ACK
            # must not grow the window.
            sent.app_limited = (
                path.cc.available_window >= MAX_DATAGRAM_SIZE
                and not self.data_to_send_pending()
            )
        if path.amp_limited:
            path.amp_sent += len(packet)
        self.stats["packets_sent"] += 1
        self.stats["bytes_sent"] += len(packet)
        self._last_activity = self.now
        self.ops.packet_sent_event(self, sent)
        return packet

    # ------------------------------------------------------------------
    # Frame scheduling (default; repro.core.scheduler provides CBQ+DRR
    # once plugins reserve frames).
    # ------------------------------------------------------------------

    def _op_schedule_frames(self, epoch: Epoch, path_index: int, budget: int) -> tuple:
        """Fill one packet's frame list. Returns (frames, ack_only)."""
        from repro.core.scheduler import schedule_packet_frames

        return schedule_packet_frames(self, epoch, path_index, budget)

    # Helpers used by the scheduler ------------------------------------

    def pop_control_frame(self) -> Optional[F.Frame]:
        if self._control_frames:
            return self._control_frames.pop(0)
        return None

    def peek_control_frames(self) -> list:
        return list(self._control_frames)

    def connection_flow_credit(self) -> int:
        return max(0, self.max_data_remote - self.data_sent)

    @property
    def is_established(self) -> bool:
        return self.handshake_complete

    def data_to_send_pending(self) -> bool:
        """True when application data is waiting (used by the scheduler's
        core-traffic guarantee)."""
        return any(s.has_pending for s in self.streams_send.values())
