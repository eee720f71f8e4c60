"""Unit tests: backend capability models and their mechanism executables."""

import pytest

from repro.backends import (
    ControllerMirror,
    FastBackend,
    FastStateMachine,
    FastTransition,
    OpenFlow13Backend,
    OpenStateBackend,
    P4Backend,
    P4Program,
    P4Stage,
    SnapBackend,
    SnapProgram,
    SnapStatement,
    StaticVaranusBackend,
    UnsupportedFeature,
    VaranusBackend,
    XfsmTable,
    XfsmTransition,
    all_backends,
    build_table2,
    compile_firewall_to_rules,
    diff_against_paper,
    fnv1a,
    render_table2,
)
from repro.core.refs import event_fields
from repro.netsim import EventScheduler, TraceRecorder, single_switch_network
from repro.packet import IPv4Address, ethernet, tcp_packet, tcp_syn
from repro.props import load_property
from repro.switch.events import PacketArrival, PacketDrop
from repro.switch.match import MatchSpec
from repro.switch.pipeline import MissPolicy


def arr(packet, t, port=1):
    return PacketArrival(switch_id="s", time=t, packet=packet, in_port=port)


class TestCompileChecks:
    def test_openflow_rejects_stateful_properties(self):
        backend = OpenFlow13Backend()
        with pytest.raises(UnsupportedFeature) as exc:
            backend.compile(load_property("firewall-basic"))
        assert exc.value.feature == "event history"
        assert not exc.value.precluded  # blank, not X

    def test_fixed_parsers_reject_l7(self):
        for backend in (OpenStateBackend(), FastBackend(), VaranusBackend()):
            with pytest.raises(UnsupportedFeature) as exc:
                backend.compile(load_property("ftp-data-port-matches"))
            assert exc.value.feature == "field access"

    def test_dynamic_parsers_accept_l7(self):
        # The FTP property needs only symmetric+negative on a dynamic
        # parser; P4/SNAP compile it.
        for backend in (P4Backend(), SnapBackend()):
            monitor = backend.compile(load_property("ftp-data-port-matches"))
            assert monitor.backend_name == backend.caps.name

    def test_fast_rejects_rule_timeouts(self):
        with pytest.raises(UnsupportedFeature) as exc:
            FastBackend().compile(load_property("firewall-timed"))
        assert exc.value.feature == "rule timeouts"
        assert exc.value.precluded

    def test_only_varanus_family_accepts_timeout_actions(self):
        from repro.backends.conformance import timeout_action_probe

        for backend in (OpenStateBackend(), FastBackend(), P4Backend(),
                        SnapBackend()):
            with pytest.raises(UnsupportedFeature):
                backend.compile(timeout_action_probe())
        for backend in (VaranusBackend(), StaticVaranusBackend()):
            backend.compile(timeout_action_probe())

    def test_only_varanus_accepts_oob(self):
        prop = load_property("link-down-clears-learning")
        VaranusBackend().compile(prop)
        with pytest.raises(UnsupportedFeature):
            StaticVaranusBackend().compile(prop)
        with pytest.raises(UnsupportedFeature):
            P4Backend().compile(prop)

    def test_drop_visibility_gates_firewall(self):
        # The firewall property watches drops: only approaches with drop
        # visibility (P4's egress metadata, Varanus's OVS extensions) can
        # host it; OpenState cannot.
        with pytest.raises(UnsupportedFeature) as exc:
            OpenStateBackend().compile(load_property("firewall-basic"))
        assert exc.value.feature == "drop visibility"
        VaranusBackend().compile(load_property("firewall-basic"))

    def test_nat_needs_identity(self):
        prop = load_property("nat-reverse-translation")
        for backend in (VaranusBackend(),):
            backend.compile(prop)
        with pytest.raises(UnsupportedFeature) as exc:
            OpenStateBackend().compile(prop)
        assert exc.value.feature == "identification of related events"

    def test_compile_needs_a_property(self):
        with pytest.raises(ValueError):
            VaranusBackend().compile()


class TestBackendMonitorRuntime:
    def test_varanus_depth_tracks_instances(self):
        backend = VaranusBackend()
        monitor = backend.compile(load_property("knocking-invalidated"))
        base = monitor.pipeline_depth
        for i in range(5):
            monitor.observe(arr(
                tcp_syn(1, 2, f"10.0.0.{i + 1}", "10.0.0.9", 30000, 7001),
                i * 0.01))
        monitor.advance_to(1.0)  # split mode: let creations apply
        assert monitor.live_instances == 5
        assert monitor.pipeline_depth == base + 5

    def test_static_varanus_depth_constant(self):
        backend = StaticVaranusBackend()
        monitor = backend.compile(load_property("knocking-invalidated"))
        base = monitor.pipeline_depth
        for i in range(5):
            monitor.observe(arr(
                tcp_syn(1, 2, f"10.0.0.{i + 1}", "10.0.0.9", 30000, 7001),
                i * 0.01))
        monitor.advance_to(1.0)
        assert monitor.pipeline_depth == base  # one table per stage, fixed

    def test_drop_events_filtered_without_visibility(self):
        from repro.backends.conformance import history_probe

        backend = OpenStateBackend()
        monitor = backend.compile(history_probe())
        monitor.observe(PacketDrop(switch_id="s", time=0.0,
                                   packet=ethernet(1, 2), in_port=1))
        assert monitor.events_filtered == 1
        assert monitor.events_seen == 0

    def test_slow_path_backends_charge_slow_updates(self):
        from repro.backends.conformance import history_probe

        fast = OpenStateBackend().compile(history_probe())
        slow = StaticVaranusBackend().compile(history_probe())
        event = arr(ethernet(1, 9), 0.0)
        fast.observe(event)
        slow.observe(event)
        slow.advance_to(1.0)
        assert fast.meter.fast_updates >= 1 and fast.meter.slow_updates == 0
        assert slow.meter.slow_updates >= 1 and slow.meter.fast_updates == 0

    def test_controller_mirror_sees_everything_at_slow_cost(self):
        mirror = ControllerMirror([load_property("firewall-basic")])
        out = tcp_packet(1, 2, "10.0.0.1", "198.51.100.1", 1000, 80)
        back = tcp_packet(2, 1, "198.51.100.1", "10.0.0.1", 80, 1000)
        mirror.observe(arr(out, 0.0))
        mirror.observe(PacketDrop(switch_id="s", time=1.0, packet=back,
                                  in_port=2, reason="x"))
        assert len(mirror.violations) == 1
        assert mirror.events_mirrored == 2
        assert mirror.meter.slow_updates == 2  # every event shipped off-switch


class TestTable2:
    def test_reproduces_paper_exactly(self):
        assert diff_against_paper() == []

    def test_all_backends_count(self):
        assert len(all_backends()) == 7

    def test_render_contains_all_backends(self):
        text = render_table2()
        for name in ("OpenFlow 1.3", "OpenState", "FAST", "POF and P4",
                     "SNAP", "Varanus", "Static Varanus"):
            assert name in text


class TestXfsm:
    def _port_knock_table(self):
        table = XfsmTable(lookup_scope=("ipv4.src",))
        table.add_transition(XfsmTransition(
            state=0, predicate=lambda f: f.get("tcp.dst") == 7001,
            next_state=1, label="knock1"))
        table.add_transition(XfsmTransition(
            state=1, predicate=lambda f: f.get("tcp.dst") == 7002,
            next_state=2, label="open"))
        table.add_transition(XfsmTransition(
            state=1, predicate=lambda f: f.get("tcp.dst") != 7002,
            next_state=0, label="reset"))
        return table

    def _knock(self, dport, src="10.0.0.1"):
        return arr(tcp_syn(1, 2, src, "10.0.0.9", 30000, dport), 0.0)

    def test_sequence_advances(self):
        table = self._port_knock_table()
        assert table.process(self._knock(7001)) == 1
        assert table.process(self._knock(7002)) == 2

    def test_wrong_guess_resets(self):
        table = self._port_knock_table()
        table.process(self._knock(7001))
        assert table.process(self._knock(9999)) == 0
        fields = event_fields(self._knock(7002))
        assert table.state_of(fields) == 0

    def test_per_flow_isolation(self):
        table = self._port_knock_table()
        table.process(self._knock(7001, src="10.0.0.1"))
        table.process(self._knock(7001, src="10.0.0.2"))
        assert table.population() == 2

    def test_missing_scope_field_is_default_state(self):
        table = self._port_knock_table()
        assert table.process(arr(ethernet(1, 2), 0.0)) is None

    def test_meter_counts_fast_updates(self):
        table = self._port_knock_table()
        table.process(self._knock(7001))
        assert table.meter.fast_updates == 1
        assert table.meter.lookups == 1

    def test_empty_scope_rejected(self):
        with pytest.raises(ValueError):
            XfsmTable(lookup_scope=())


class TestFastMachine:
    def test_mac_learning_state_machine(self):
        net, sw, hosts = single_switch_network(
            3, switch_kwargs={"num_tables": 2, "miss_policy": MissPolicy.FLOOD}
        )
        from repro.switch.actions import FieldRef, Output

        machine = FastStateMachine(sw)
        machine.install([
            FastTransition(
                from_state=0, trigger=MatchSpec(), to_state=1,
                key_fields=(("eth.dst", "eth.src"),),
                actions=(Output(FieldRef("in_port")),),
            ),
        ])
        rec = TraceRecorder()
        sw.add_tap(rec)
        hosts[0].send(ethernet(1, 2))
        net.run()
        assert machine.state_rule_count() == 1
        rec.clear()
        hosts[1].send(ethernet(2, 1))
        net.run()
        from repro.switch.events import EgressAction

        unicasts = [e for e in rec.egresses if e.action is EgressAction.UNICAST]
        assert [e.out_port for e in unicasts] == [1]

    def test_state_updates_are_slow_path(self):
        net, sw, hosts = single_switch_network(
            2, switch_kwargs={"num_tables": 2, "miss_policy": MissPolicy.FLOOD}
        )
        from repro.switch.actions import FieldRef, Output

        machine = FastStateMachine(sw)
        machine.install([
            FastTransition(
                from_state=0, trigger=MatchSpec(), to_state=1,
                key_fields=(("eth.dst", "eth.src"),),
                actions=(Output(FieldRef("in_port")),),
            ),
        ])
        before = sw.meter.slow_updates
        hosts[0].send(ethernet(1, 2))
        net.run()
        assert sw.meter.slow_updates > before

    def test_empty_machine_rejected(self):
        net, sw, _ = single_switch_network(2)
        with pytest.raises(ValueError):
            FastStateMachine(sw).install([])


class TestP4Program:
    def test_register_stage_updates(self):
        program = P4Program(register_size=64)
        program.add_stage(P4Stage(
            guard=lambda f: "ipv4.src" in f,
            array="seen", key_fields=("ipv4.src",),
            update=lambda old, f: old + 1,
        ))
        p = tcp_packet(1, 2, "10.0.0.1", "10.0.0.2", 1, 2)
        assert program.process(arr(p, 0.0)) == 1
        assert program.process(arr(p.refreshed(), 0.1)) == 1
        index = program.index_for(program.stages[0],
                                  event_fields(arr(p, 0.0)))
        assert program.array("seen").read(index) == 2

    def test_guard_skips(self):
        program = P4Program()
        program.add_stage(P4Stage(
            guard=lambda f: False, array="x", key_fields=("ipv4.src",),
            update=lambda old, f: 1,
        ))
        assert program.process(arr(ethernet(1, 2), 0.0)) == 0

    def test_updates_fast_path(self):
        program = P4Program()
        program.add_stage(P4Stage(
            guard=lambda f: True, array="x", key_fields=("eth.src",),
            update=lambda old, f: 1,
        ))
        program.process(arr(ethernet(1, 2), 0.0))
        assert program.meter.fast_updates == 1
        assert program.meter.slow_updates == 0

    def test_fnv1a_deterministic(self):
        assert fnv1a((1, 2, 3)) == fnv1a((1, 2, 3))
        assert fnv1a((1, 2, 3)) != fnv1a((3, 2, 1))


class TestSnapProgram:
    def test_stateful_test_fires_on_match(self):
        program = SnapProgram()
        seen = []
        program.add(SnapStatement(
            guard=lambda f: "ipv4.src" in f,
            array="contacted", key_fields=("ipv4.src", "ipv4.dst"),
            test=lambda v: v == 1,
            on_match=lambda f: seen.append(f["ipv4.src"]),
            write=lambda old, f: 1,
        ))
        p = tcp_packet(1, 2, "10.0.0.1", "10.0.0.2", 1, 2)
        program.process(arr(p, 0.0))          # writes 1, test saw 0
        assert seen == []
        program.process(arr(p.refreshed(), 0.1))  # test sees 1 now
        assert len(seen) == 1
        assert program.matches == 1

    def test_missing_key_field_skips(self):
        program = SnapProgram()
        program.add(SnapStatement(
            guard=lambda f: True, array="x", key_fields=("ipv4.src",),
            write=lambda old, f: 1,
        ))
        assert program.process(arr(ethernet(1, 2), 0.0)) == 0


class TestVaranusRuleCompilation:
    def test_each_flow_grows_one_table(self):
        net, sw, hosts = single_switch_network(
            2, switch_kwargs={"miss_policy": MissPolicy.FLOOD})
        compile_firewall_to_rules(sw)
        alerts = []
        sw.add_alert_sink(alerts.append)
        depth0 = sw.pipeline.depth
        for i in range(3):
            hosts[0].send(tcp_packet(1, 2, f"10.0.0.{i + 1}",
                                     "198.51.100.1", 1000, 80))
        net.run()
        assert sw.pipeline.depth == depth0 + 3  # one table per instance

    def test_return_traffic_raises_alert(self):
        net, sw, hosts = single_switch_network(
            2, switch_kwargs={"miss_policy": MissPolicy.FLOOD})
        compile_firewall_to_rules(sw)
        alerts = []
        sw.add_alert_sink(alerts.append)
        hosts[0].send(tcp_packet(1, 2, "10.0.0.1", "198.51.100.1", 1000, 80))
        net.run()
        hosts[1].send(tcp_packet(2, 1, "198.51.100.1", "10.0.0.1", 80, 1000))
        net.run()
        assert len(alerts) == 1
        assert "ipv4.src" in alerts[0].carried
