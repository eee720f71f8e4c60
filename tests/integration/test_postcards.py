"""Integration: NetSight-style postcard provenance (the Sec. 3.2
suggestion for full provenance without on-switch retention)."""

import pytest

from repro.core import Monitor, ProvenanceLevel
from repro.core.postcards import Postcard, PostcardCollector, PostcardMonitor
from repro.netsim import single_switch_network
from repro.packet import IPv4Address, tcp_packet
from repro.props import load_property
from repro.apps import NatApp, sometimes
from repro.switch.pipeline import MissPolicy

PUBLIC_IP = IPv4Address("203.0.113.1")


def nat_run(collector=None, corrupt=True, flows=1):
    net, switch, hosts = single_switch_network(
        2, switch_kwargs={"miss_policy": MissPolicy.CONTROLLER})
    faults = sometimes("corrupt_reverse", 1.0) if corrupt else None
    switch.set_app(NatApp(public_ip=PUBLIC_IP, faults=faults))
    collector = collector or PostcardCollector()
    pm = PostcardMonitor(collector, scheduler=net.scheduler)
    pm.add_property(load_property("nat-reverse-translation"))
    pm.attach(switch)
    for i in range(flows):
        hosts[0].send(tcp_packet(1, 2, "10.0.0.1", "198.51.100.1",
                                 5000 + i, 80))
    net.run()
    for i in range(flows):
        hosts[1].send(tcp_packet(2, 1, "198.51.100.1", str(PUBLIC_IP),
                                 80, 40000 + i))
    net.run()
    return pm, collector


class TestPostcardReconstruction:
    def test_violation_reconstructed_with_full_chain(self):
        pm, collector = nat_run()
        assert len(pm.violations) == 1
        assert len(collector.reconstructed) == 1
        rebuilt = collector.reconstructed[0]
        stages = [p.stage_name for p in rebuilt.history]
        # All four NAT observations present, in order.
        assert stages == [
            "outbound_arrival",
            "outbound_translated",
            "return_arrival",
            "return_mistranslated",
        ]
        times = [p.time for p in rebuilt.history]
        assert times == sorted(times)

    def test_on_switch_memory_stays_limited(self):
        """The monitor itself retains no events (LIMITED level)."""
        pm, collector = nat_run()
        violation = pm.violations[0]
        assert all(r.event is None for r in violation.history)
        # ...yet the reconstruction has the full chain.
        assert len(collector.reconstructed[0].history) == 4

    def test_clean_run_keeps_chains_pending(self):
        pm, collector = nat_run(corrupt=False)
        assert pm.violations == []
        assert collector.reconstructed == []
        # The correct NAT still generated partial chains (stages 1-3).
        assert collector.stored_postcards > 0

    def test_multiple_flows_reconstruct_independently(self):
        pm, collector = nat_run(flows=3)
        assert len(collector.reconstructed) == 3
        keys = {r.violation.bindings["P"] for r in collector.reconstructed}
        assert keys == {5000, 5001, 5002}

    def test_violation_chain_removed_from_log(self):
        pm, collector = nat_run()
        # The reconstructed instance's postcards left the pending log.
        assert collector.stored_postcards == 0

    def test_describe_renders_chain(self):
        pm, collector = nat_run()
        text = collector.reconstructed[0].describe()
        assert "reconstructed from postcards" in text
        assert "outbound_arrival" in text


class TestCollectorRetention:
    def _card(self, t, key=("k",), prop="p", stage="s"):
        return Postcard(property_name=prop, instance_key=key,
                        stage_name=stage, time=t, packet_uid=None, digest="x")

    def test_garbage_collection_drops_stale_chains(self):
        collector = PostcardCollector(retention=10.0)
        collector.receive(self._card(0.0, key=("old",)))
        collector.receive(self._card(100.0, key=("new",)))
        dropped = collector.collect_garbage()
        assert dropped == 1
        assert collector.stored_postcards == 1
        assert collector.postcards_dropped == 1

    def test_fresh_chains_survive(self):
        collector = PostcardCollector(retention=10.0)
        collector.receive(self._card(95.0, key=("a",)))
        collector.receive(self._card(100.0, key=("b",)))
        assert collector.collect_garbage() == 0

    def test_retention_validation(self):
        with pytest.raises(ValueError):
            PostcardCollector(retention=0.0)


class TestTimerViolationsShipPostcards:
    def test_absent_violation_reconstructs(self):
        from repro.core import Absent, Bind, EventKind, EventPattern, FieldEq, Observe, PropertySpec, Var
        from repro.packet import ethernet
        from repro.switch.events import PacketArrival

        prop = PropertySpec(
            name="noreply", description="",
            stages=(
                Observe("ask", EventPattern(
                    kind=EventKind.ARRIVAL,
                    binds=(Bind("S", "eth.src"),))),
                Absent("silence", EventPattern(
                    kind=EventKind.ARRIVAL,
                    guards=(FieldEq("eth.dst", Var("S")),)), within=1.0),
            ),
            key_vars=("S",),
        )
        collector = PostcardCollector()
        pm = PostcardMonitor(collector)
        pm.add_property(prop)
        pm.observe(PacketArrival(switch_id="s", time=0.0,
                                 packet=ethernet(1, 2), in_port=1))
        pm.advance_to(5.0)
        assert len(pm.violations) == 1
        rebuilt = collector.reconstructed[0]
        assert [p.stage_name for p in rebuilt.history] == ["ask", "silence"]
        assert rebuilt.history[-1].digest == "timer"
