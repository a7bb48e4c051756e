"""Protoop slot binding.

Each ``ProtoopTable`` holds one slot per operation (per parameter for
parameterized ones): the bare default while nothing is attached, a
dispatch plan once a pluglet is.  These tests pin the rebinding
protocol: ``register``/``attach``/``detach``, including a
containment-triggered quarantine mid-connection, rebind exactly the slots
they touch; a plan that starts a run re-resolves the anchors that changed
while it was in flight; and the loop and external guards hold on the
slot path.
"""

import pytest

from repro.core import ContainmentPolicy, Plugin, PluginInstance, Pluglet
from repro.core.protoop import Anchor, ProtoopError, ProtoopTable
from repro.experiments.harness import run_quic_transfer
from repro.plugins.monitoring import build_monitoring_plugin
from repro.quic import QuicConfiguration
from repro.quic.connection import QuicConnection, reset_instance_counter
from repro.quic.errors import TransportErrorCode
from repro.trace import PreProfiler
from repro.vm import assemble

LOOP = "top:\nja top\nexit"  # statically verifiable, never terminates


def default_greet(conn, *a):
    return "default"


def make_table():
    table = ProtoopTable()
    table.register("greet", default_greet)
    return table


def make_conn():
    return QuicConnection(QuicConfiguration(is_client=True))


def looping_plugin(name="org.x.spin", fuel=200):
    return Plugin(name, [
        Pluglet("spin", "packet_sent_event", "post", assemble(LOOP),
                fuel=fuel),
    ])


class TestPlanCache:
    def test_plan_built_once_and_reused(self):
        """An unplugged slot is the bare default; running it by name
        rebinds nothing."""
        table = make_table()
        assert table.slots.greet is default_greet
        for _ in range(5):
            assert table.run(None, "greet") == "default"
        assert table.slots.greet is default_greet
        assert table.runs == 5  # run() dispatches are counted
        assert table.slots.greet(None) == "default"
        assert table.runs == 5  # bare slot calls are not

    def test_attach_invalidates_plan(self):
        table = make_table()
        table.run(None, "greet")
        fired = []
        table.attach("greet", Anchor.PRE, lambda conn, args: fired.append(1))
        assert table.slots.greet is not default_greet
        assert table.run(None, "greet") == "default"
        assert table.slots.greet(None) == "default"
        assert fired == [1, 1]

    def test_detach_invalidates_plan(self):
        table = make_table()
        fired = []
        table.attach("greet", Anchor.POST, lambda conn, args, res: fired.append(1))
        table.run(None, "greet")
        assert fired == [1]
        # detach expects the exact callable; re-fetch it from the op.
        post = table.get("greet").post[None][0]
        table.detach("greet", Anchor.POST, post)
        table.run(None, "greet")
        table.slots.greet(None)
        assert fired == [1]  # did not fire again
        assert table.slots.greet is default_greet

    def test_replace_attach_and_detach(self):
        table = make_table()
        assert table.run(None, "greet") == "default"

        def replacement(conn, *a):
            return "plugged"

        table.attach("greet", Anchor.REPLACE, replacement)
        assert table.run(None, "greet") == "plugged"
        assert table.slots.greet(None) == "plugged"
        table.detach("greet", Anchor.REPLACE, replacement)
        assert table.run(None, "greet") == "default"
        assert table.slots.greet is default_greet

    def test_known_params_tracks_attach(self):
        """A parameterized slot dict holds exactly the parameters with a
        default or an anchor."""
        table = ProtoopTable()
        table.register("process_frame", lambda conn, *a: None, param=0x01,
                       parameterized=True)
        assert set(table.slots.process_frame) == {0x01}
        table.attach("process_frame", Anchor.REPLACE,
                     lambda conn, *a: "new", param=0x42)
        assert set(table.slots.process_frame) == {0x01, 0x42}
        assert table.slots.process_frame[0x42](None) == "new"

    def test_has_behavior_follows_replacements(self):
        table = ProtoopTable()
        table.declare("event_hook")
        assert table.slots.event_hook(None) is None
        assert table.run(None, "event_hook") is None
        table.attach("event_hook", Anchor.REPLACE, lambda conn, *a: 1)
        assert table.slots.event_hook(None) == 1
        assert table.run(None, "event_hook") == 1

    def test_midrun_detach_resolves_fresh_behavior(self):
        """A pre anchor that detaches the replacement mid-run must cause
        the default behaviour to run: the behaviour is resolved only after
        the pre chain."""
        table = make_table()

        def replacement(conn, *a):
            return "plugged"

        table.attach("greet", Anchor.REPLACE, replacement)

        def saboteur(conn, args):
            table.detach("greet", Anchor.REPLACE, replacement)

        table.attach("greet", Anchor.PRE, saboteur)
        assert table.slots.greet(None) == "default"

    def test_midrun_attach_of_post_fires(self):
        """Post anchors are resolved after the behaviour ran; a post
        attached by the behaviour itself therefore fires."""
        table = ProtoopTable()
        fired = []

        def behavior(conn, *a):
            table.attach("late", Anchor.POST,
                         lambda conn, args, res: fired.append(res))
            return "r"

        table.register("late", behavior)
        assert table.run(None, "late") == "r"
        assert fired == ["r"]


class TestQuarantineInvalidation:
    def test_quarantined_plugin_anchors_never_fire_again(self):
        """Containment detaches a faulting plugin mid-connection; its slot
        returns to the bare default and the stale post anchor never
        fires again."""
        conn = make_conn()
        ContainmentPolicy().attach(conn)
        inst = PluginInstance(looping_plugin(fuel=200), conn)
        unplugged = conn.ops.packet_sent_event
        inst.attach()
        assert conn.ops.packet_sent_event is not unplugged

        conn.ops.packet_sent_event(conn)
        assert not conn.closed
        assert not inst.attached
        executed_after_fault = inst.vms["spin"].instructions_executed
        assert executed_after_fault == 200  # fuel budget, fully charged

        assert conn.ops.packet_sent_event is unplugged  # slot rebound...
        conn.ops.packet_sent_event(conn)
        conn.protoops.run(conn, "packet_sent_event", None)
        assert inst.vms["spin"].instructions_executed == executed_after_fault
        # ...and stays bound afterwards.
        assert conn.ops.packet_sent_event is unplugged

    def test_attach_mid_connection_visible_immediately(self):
        conn = make_conn()
        table = conn.protoops
        # Run the event with no plugins attached.
        conn.ops.packet_sent_event(conn)
        seen = []
        counter = Plugin("org.x.count", [
            Pluglet("count", "packet_sent_event", "post",
                    assemble("mov r0, 1\nexit")),
        ])
        inst = PluginInstance(counter, conn)
        inst.attach()
        conn.ops.packet_sent_event(conn)
        assert inst.vms["count"].instructions_executed > 0
        inst.detach()
        executed = inst.vms["count"].instructions_executed
        conn.ops.packet_sent_event(conn)
        table.run(conn, "packet_sent_event", None)
        assert inst.vms["count"].instructions_executed == executed
        assert seen == []  # nothing unexpected fired

    def test_pluglet_detaching_its_plugin_midrun(self):
        """A faulting pre pluglet gets its plugin quarantined mid-run: the
        same plugin's post anchor, bound into the running plan, must not
        fire (the plan re-resolves after the table changed)."""
        conn = make_conn()
        ContainmentPolicy().attach(conn)
        inst = PluginInstance(Plugin("org.x.prepost", [
            Pluglet("spin", "packet_sent_event", "pre", assemble(LOOP),
                    fuel=100),
            Pluglet("after", "packet_sent_event", "post",
                    assemble("mov r0, 1\nexit")),
        ]), conn)
        inst.attach()
        conn.ops.packet_sent_event(conn)
        assert not inst.attached and not conn.closed
        assert inst.vms["spin"].instructions_executed == 100
        assert inst.vms["after"].instructions_executed == 0


class TestPlanCorrectness:
    def test_loop_detection_survives_caching(self):
        table = ProtoopTable()

        def recurse(conn, *a):
            return table.run(conn, "selfcall")

        table.register("selfcall", recurse)
        with pytest.raises(Exception, match="loop"):
            table.run(None, "selfcall")

    def test_loop_through_plugged_slot_and_core_default(self):
        """Plugged A calls core default B (by name, as a pluglet does),
        and B's default calls A's slot again: the loop is caught at A."""
        table = ProtoopTable()
        table.register("a", lambda conn: "a default")
        table.register("b", lambda conn: table.slots.a(conn))
        table.attach("a", Anchor.REPLACE,
                     lambda conn: table.run(conn, "b", None))
        with pytest.raises(ProtoopError) as exc:
            table.slots.a(None)
        assert exc.value.code == TransportErrorCode.PLUGIN_LOOP_DETECTED
        assert table._call_stack == []

    def test_external_protoop_still_guarded(self):
        table = ProtoopTable()
        table.register("app_op", lambda conn, *a: "app", external=True)
        with pytest.raises(ProtoopError, match="external") as exc:
            table.run(None, "app_op")
        assert exc.value.code == TransportErrorCode.PROTOCOL_VIOLATION
        assert table.run_external(None, "app_op") == "app"
        # Plugged, the guard still applies to protocol callers.
        table.attach("app_op", Anchor.PRE, lambda conn, args: None)
        with pytest.raises(ProtoopError) as exc:
            table.run(None, "app_op")
        assert exc.value.code == TransportErrorCode.PROTOCOL_VIOLATION
        assert table.run_external(None, "app_op") == "app"

    def test_default_tables_are_shared_until_changed(self):
        """Connections share their class's operation records and copy
        one on first change: an anchor on one connection never shows on
        another."""
        a, b = make_conn(), make_conn()
        assert a.ops is not b.ops
        assert a.ops.process_frame is not b.ops.process_frame
        assert a.ops.update_rtt is b.ops.update_rtt
        a.protoops.attach("update_rtt", Anchor.PRE, lambda conn, args: None)
        assert a.ops.update_rtt is not b.ops.update_rtt
        assert not b.protoops.get("update_rtt").pre
        assert make_conn().ops.update_rtt is b.ops.update_rtt


#: Per-operation run counts of the seeded monitoring transfer below, as
#: the string-keyed dispatcher counted them before slots existed.
MONITORING_RUN_COUNTS = {
    "ack_frame_built": 12, "before_sending_packet": 91,
    "cc_window_updated": 47, "congestion_on_ack": 45,
    "congestion_on_loss": 2, "congestion_state_changed": 1,
    "connection_established": 2, "create_stream": 1,
    "crypto_data_received": 2, "decode_packet_number": 65,
    "derive_one_rtt_keys": 2, "finalize_and_protect_packet": 69,
    "frames_decoded": 65, "get_destination_cid": 69,
    "get_receive_stream": 53, "get_send_stream": 2, "get_source_cid": 3,
    "handshake_message_sent": 2, "map_incoming_path": 63,
    "notify_frame": 47, "on_packet_acked": 47, "on_packet_lost": 2,
    "packet_acked_event": 47, "packet_lost_event": 2, "packet_ready": 69,
    "packet_received_event": 65, "packet_sent_event": 69,
    "parse_frame": 68, "parse_packet_header": 65, "plugin_analyzed": 2,
    "plugin_injected": 2, "prepare_packet": 91, "process_frame": 68,
    "process_handshake_message": 2, "process_incoming_packet": 63,
    "retransmit_packet": 2, "rtt_updated": 10, "schedule_frames": 90,
    "select_sending_path": 87, "set_idle_timer": 22, "set_loss_alarm": 22,
    "set_spin_bit": 66, "should_send_max_data": 53, "spin_bit_flipped": 8,
    "stream_closed": 1, "stream_data_received": 53, "stream_opened": 1,
    "stream_to_send": 83, "update_flow_credit": 53, "update_rtt": 10,
    "write_frame": 70,
}


def test_run_counting_sees_every_slot_call():
    """With run counting on, every slot call is counted exactly as the
    string-keyed dispatcher counted it."""
    reset_instance_counter()
    profiler = PreProfiler()
    result = run_quic_transfer(
        60_000, d_ms=10, bw_mbps=10, loss_pct=1.0, seed=3,
        client_plugins=[build_monitoring_plugin],
        server_plugins=[build_monitoring_plugin], profile=profiler)
    assert result.completed
    assert profiler.protoop_runs() == MONITORING_RUN_COUNTS
    assert sum(c.protoops.runs for c in profiler._conns) == sum(
        MONITORING_RUN_COUNTS.values())
