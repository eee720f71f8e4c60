"""Unit tests for the fabric's key-partitioned routing layer."""

import os
import subprocess
import sys
from collections import Counter

import pytest

import repro
import repro.core.codegen

from repro.core.refs import Bind, Const, EventKind, EventPattern, FieldEq, Var
from repro.core.spec import Observe, PropertySpec
from repro.fabric import (
    Router,
    build_route,
    build_routes,
    build_shard_monitor,
    shard_key_filter,
    stable_hash,
)
from repro.faults.rounds import catalog_trace
from repro.packet import EtherType, IPv4Address, MACAddress, tcp_packet
from repro.props import build_table1
from repro.switch.events import (
    EgressAction,
    OutOfBandEvent,
    OobKind,
    PacketArrival,
    PacketEgress,
    TimerFired,
)
from repro.telemetry import MetricsRegistry

#: catalog properties whose every watcher names the full key — anything
#: else (unless scans, partial-key stages, empty keys) must pin.
EXPECTED_KEYED = {
    "arp-known-not-forwarded",
    "dhcp-no-overlap",
    "dhcp-reply-within",
    "ftp-data-port-matches",
    "knocking-invalidated",
    "knocking-recognized",
}

SRC = os.path.dirname(os.path.dirname(repro.__file__))


def keyed_prop(name="flow", dst_port=99):
    """Two stages, both of which recover (src-ip, src-port) from the event."""
    return PropertySpec(
        name=name,
        description="keyed two-stage test property",
        stages=(
            Observe("seen", EventPattern(
                kind=EventKind.ARRIVAL,
                binds=(Bind("src", "ipv4.src"), Bind("sport", "tcp.src")))),
            Observe("gone", EventPattern(
                kind=EventKind.EGRESS,
                guards=(FieldEq("ipv4.src", Var("src")),
                        FieldEq("tcp.src", Var("sport")),
                        FieldEq("tcp.dst", Const(dst_port))))),
        ),
        key_vars=("src", "sport"),
    )


def partial_key_prop():
    """Stage 1 only constrains one of two key vars — unroutable."""
    return PropertySpec(
        name="partial",
        description="stage forgets a key var",
        stages=(
            Observe("seen", EventPattern(
                kind=EventKind.ARRIVAL,
                binds=(Bind("src", "ipv4.src"), Bind("sport", "tcp.src")))),
            Observe("gone", EventPattern(
                kind=EventKind.EGRESS,
                guards=(FieldEq("ipv4.src", Var("src")),))),
        ),
        key_vars=("src", "sport"),
    )


def unkeyed_prop():
    return PropertySpec(
        name="global",
        description="no key at all",
        stages=(
            Observe("up", EventPattern(kind=EventKind.OOB)),
            Observe("down", EventPattern(kind=EventKind.OOB)),
        ),
        key_vars=(),
    )


def flow_event(src, sport, egress=False, t=1.0):
    packet = tcp_packet(0, 1, src, "198.51.100.9", sport, 99)
    if egress:
        return PacketEgress(switch_id="s", time=t, packet=packet,
                            in_port=1, out_port=2,
                            action=EgressAction.UNICAST)
    return PacketArrival(switch_id="s", time=t, packet=packet, in_port=1)


#: Keys of every value type a property can bind, as source, so a second
#: interpreter can build the very same keys.
HASH_KEYS = """[
    (0,), (4242, -7, 1 << 70), (True, False), ("sw-1", ""), ("caf\\u00e9",),
    (IPv4Address("10.0.0.1"), 4242), (MACAddress(5), MACAddress(6)),
    (EtherType.IPV4,), (EgressAction.UNICAST,), (None,),
    ("ftp", IPv4Address("198.51.100.9"), 21, None, EgressAction.DROP),
]"""
HASH_IMPORTS = ("from repro.packet import EtherType, IPv4Address, MACAddress\n"
                "from repro.switch.events import EgressAction\n")


def hash_keys():
    namespace = {}
    exec(HASH_IMPORTS + "keys = " + HASH_KEYS, namespace)
    return namespace["keys"]


def benchmark_flow_keys(flows=1536):
    """(source address, source port) of the benchmark's flow traffic."""
    return [(IPv4Address(f"10.{(i >> 8) & 255}.{i & 255}.1"),
             1024 + (i % 16384)) for i in range(flows)]


class TestStableHash:
    def test_is_the_same_under_another_hash_seed(self):
        """``hash()`` of a str is salted per interpreter; the partition
        must not be, or two runs (or a router and a process it did not
        fork) would disagree about who owns a key."""
        seed = "1" if os.environ.get("PYTHONHASHSEED") != "1" else "2"
        script = (HASH_IMPORTS + "from repro.fabric import stable_hash\n"
                  "print([stable_hash(k) for k in " + HASH_KEYS + "])")
        out = subprocess.run(
            [sys.executable, "-c", script], check=True, capture_output=True,
            text=True, env=dict(os.environ, PYTHONPATH=SRC,
                                PYTHONHASHSEED=seed)).stdout
        assert out.strip() == str([stable_hash(k) for k in hash_keys()])

    def test_equal_keys_hash_equal(self):
        assert stable_hash((True,)) == stable_hash((1,))
        assert stable_hash((False, 1.0)) == stable_hash((0, 1))
        assert stable_hash((EtherType.IPV4,)) == stable_hash((0x0800,))

    def test_is_a_32_bit_value_sensitive_to_order(self):
        for key in hash_keys():
            assert 0 <= stable_hash(key) < 1 << 32
        assert stable_hash((1, 2)) != stable_hash((2, 1))
        assert stable_hash(("ab",)) != stable_hash(("ba",))

    @pytest.mark.parametrize("shards", [2, 4])
    def test_benchmark_flows_spread_evenly(self, shards):
        keys = benchmark_flow_keys()
        counts = Counter(stable_hash(k) % shards for k in keys)
        mean = len(keys) / shards
        assert sorted(counts) == list(range(shards))
        assert all(abs(n - mean) <= 0.1 * mean for n in counts.values()), \
            counts

    def test_deterministic_across_calls(self):
        key = ("a", 1, None)
        assert stable_hash(key) == stable_hash(key)

    def test_spreads_keys(self):
        shards = {stable_hash((i,)) % 4 for i in range(256)}
        assert shards == {0, 1, 2, 3}


class TestBuildRoute:
    def test_catalog_classification(self):
        routes = build_routes(
            [e.prop for e in build_table1()], num_shards=4)
        keyed = {name for name, r in routes.items() if r.keyed}
        assert keyed == EXPECTED_KEYED

    def test_keyed_prop_has_extractors(self):
        route = build_route(keyed_prop(), num_shards=4)
        assert route.keyed
        assert route.extractors[PacketArrival] == (("ipv4.src", "tcp.src"),)
        assert route.extractors[PacketEgress] == (("ipv4.src", "tcp.src"),)
        assert route.classes == frozenset({PacketArrival, PacketEgress})

    def test_partial_key_stage_pins(self):
        route = build_route(partial_key_prop(), num_shards=4)
        assert not route.keyed
        assert route.extractors == {}

    def test_empty_key_pins(self):
        route = build_route(unkeyed_prop(), num_shards=4)
        assert not route.keyed

    def test_pin_is_deterministic_and_in_range(self):
        for shards in (1, 2, 4, 7):
            route = build_route(unkeyed_prop(), shards)
            assert route.pin == stable_hash(("global",)) % shards


class TestShardKeyFilter:
    def test_exactly_one_shard_owns_each_key(self):
        num_shards = 4
        routes = build_routes([keyed_prop(), unkeyed_prop()], num_shards)
        filters = [shard_key_filter(routes, i, num_shards)
                   for i in range(num_shards)]
        for i in range(32):
            key = (IPv4Address(f"10.0.0.{i}"), 1000 + i)
            owners = [idx for idx, f in enumerate(filters)
                      if f("flow", key)]
            assert owners == [stable_hash(key) % num_shards]


class TestShardMonitor:
    def test_a_pinned_property_is_registered_on_its_pin_alone(self):
        """Each keyed property is registered on every shard, and each
        pinned property on exactly one: its pin."""
        props = [entry.prop for entry in build_table1()]
        for num_shards in (2, 4):
            routes = build_routes(props, num_shards)
            registered = [
                set(build_shard_monitor(props, i, num_shards, routes)._props)
                for i in range(num_shards)]
            for prop in props:
                route = routes[prop.name]
                holders = [i for i, names in enumerate(registered)
                           if prop.name in names]
                assert holders == (list(range(num_shards)) if route.keyed
                                   else [route.pin]), prop.name

    def test_a_built_shard_compiles_nothing_as_it_runs(self, monkeypatch):
        """The build compiles the program and every watched class's
        function: a shard fed the whole catalog trace afterwards, as a
        forked worker is, never compiles again."""
        props = [entry.prop for entry in build_table1()]
        routes = build_routes(props, 2)
        shards = [build_shard_monitor(props, i, 2, routes) for i in (0, 1)]

        def refuse(*args):
            raise AssertionError("a shard compiled after its build")

        monkeypatch.setattr(repro.core.codegen, "_compile_function", refuse)
        events = catalog_trace(seed=7, num_events=2000)
        for shard in shards:
            shard.observe_batch(events)
            shard.advance_to(events[-1].time + 600.0)
            assert shard.violations


class TestRouterSplit:
    def test_keyed_event_goes_to_its_key_shard(self):
        num_shards = 4
        routes = build_routes([keyed_prop()], num_shards)
        router = Router(routes, num_shards)
        event = flow_event("10.0.0.7", 5555)
        batches = router.split([event])
        expected = stable_hash((IPv4Address("10.0.0.7"), 5555)) % num_shards
        assert [len(b) for b in batches] == [
            1 if i == expected else 0 for i in range(num_shards)]

    def test_pinned_event_goes_to_pin(self, monkeypatch):
        num_shards = 4
        routes = build_routes([unkeyed_prop()], num_shards)
        event = OutOfBandEvent(switch_id="s", time=1.0,
                               oob_kind=OobKind.PORT_UP, port=3)

        def no_loader(*args, **kwargs):
            raise AssertionError("a pins-only class has no key to load")

        monkeypatch.setattr("repro.fabric.routing.field_loader", no_loader)
        router = Router(routes, num_shards)
        batches = router.split([event])
        assert [len(b) for b in batches] == [
            1 if i == routes["global"].pin else 0 for i in range(num_shards)]

    def test_unwatched_event_dropped(self):
        routes = build_routes([keyed_prop()], 2)
        router = Router(routes, 2)
        timer = TimerFired(switch_id="s", time=1.0, timer_id="t",
                           instance_key=())
        assert router.split([timer]) == [[], []]
        assert router.events_total == 1
        assert router.shard_events == [0, 0]

    def test_event_can_fan_out_to_multiple_shards(self):
        # Two keyed properties with different keys pull one event two ways.
        other = PropertySpec(
            name="dst-flow",
            description="keys on the destination instead",
            stages=(
                Observe("seen", EventPattern(
                    kind=EventKind.ARRIVAL,
                    binds=(Bind("dst", "ipv4.dst"),))),
                Observe("gone", EventPattern(
                    kind=EventKind.EGRESS,
                    guards=(FieldEq("ipv4.dst", Var("dst")),
                            FieldEq("tcp.dst", Const(7))))),
            ),
            key_vars=("dst",),
        )
        num_shards = 16  # wide enough that the two keys rarely collide
        routes = build_routes([keyed_prop(), other], num_shards)
        router = Router(routes, num_shards)
        event = flow_event("10.0.0.1", 1234)
        src_shard = stable_hash(
            (IPv4Address("10.0.0.1"), 1234)) % num_shards
        dst_shard = stable_hash(
            (IPv4Address("198.51.100.9"),)) % num_shards
        batches = router.split([event])
        targets = {i for i, b in enumerate(batches) if b}
        assert targets == {src_shard, dst_shard}

    def test_metrics_and_imbalance(self):
        registry = MetricsRegistry()
        routes = build_routes([unkeyed_prop()], 2)
        router = Router(routes, 2, registry=registry)
        events = [OutOfBandEvent(switch_id="s", time=float(i),
                                 oob_kind=OobKind.PORT_UP, port=1)
                  for i in range(6)]
        router.split(events)
        pin = routes["global"].pin
        assert router.events_total == 6
        assert router.shard_events[pin] == 6
        assert router.shard_events[1 - pin] == 0
        # all 6 events on one of two shards: max/mean = 6 / 3 = 2.0
        gauge = registry.gauge("repro_fabric_router_imbalance", help="")
        assert gauge.value == pytest.approx(2.0)

    def test_single_shard_takes_everything(self):
        routes = build_routes([keyed_prop(), unkeyed_prop()], 1)
        router = Router(routes, 1)
        events = [flow_event(f"10.0.0.{i}", 1000 + i) for i in range(8)]
        batches = router.split(events)
        assert len(batches) == 1
        assert len(batches[0]) == 8
