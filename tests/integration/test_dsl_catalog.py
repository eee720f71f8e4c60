"""Integration: the catalog is its ``.prop`` files.

Every catalog property is written once, as property-language text shipped
as package data; ``repro.props`` compiles it on demand.  These tests hold
the shipped text to the paper (Table 1 cell for cell), to the structure
the engine relies on (indexable ``unless`` cancels), and to the promise
that nothing in Python stands between a file and the specification the
monitor runs except the hyphenated name.
"""

from dataclasses import replace

import pytest

from repro.core import Monitor, analyze
from repro.lang import Comparison, VarRef, compile_one, parse_one
from repro.packet import IPv4Address
from repro.props import (
    CATALOG_NAMES,
    ArpKnowledge,
    build_table1,
    catalog_predicates,
    load_property,
    property_source,
    worked_examples,
)


@pytest.fixture(scope="module")
def table1():
    return build_table1()


def written_env_guards(pattern_ast):
    """The ``field == $var`` comparisons as written in the source."""
    return sorted(
        (c.field, c.value.name) for c in pattern_ast.conditions
        if isinstance(c, Comparison) and c.op == "=="
        and isinstance(c.value, VarRef))


class TestDslTable1Equivalence:
    """Table 1 as computed from the shipped sources is Table 1 as the
    paper prints it."""

    def test_all_thirteen_present(self, table1):
        assert len(table1) == 13
        assert [e.prop.name for e in table1] == list(CATALOG_NAMES[:13])

    @pytest.mark.parametrize("row", range(13))
    def test_row_reproduces_paper_cells(self, row, table1):
        entry = table1[row]
        assert analyze(entry.prop).table1_row() == entry.expected_row

    @pytest.mark.parametrize("row", range(13))
    def test_row_analyzes_identically(self, row, table1):
        """A row is its file and nothing else: compiling the shipped text
        directly (what ``repro check FILE`` does) gives the specification
        the catalog serves, up to the name the loader sets."""
        name = table1[row].prop.name
        env = catalog_predicates()
        direct = compile_one(property_source(name), env)
        assert direct.name == name.replace("-", "_")
        assert replace(direct, name=name) == load_property(name, env)
        assert analyze(direct) == analyze(table1[row].prop)

    @pytest.mark.parametrize("row", range(13))
    def test_same_stage_structure(self, row, table1):
        """The ``field == $var`` equalities are what the instance store
        hashes on (advances and ``unless`` cancels alike).  Every one the
        source writes must reach the specification, and every ``unless``
        must have at least one — a cancel without one turns a bucket
        probe into a walk of the stage population."""
        prop = table1[row].prop
        ast = parse_one(property_source(prop.name))
        assert prop.num_stages == len(ast.stages)
        assert prop.key_vars == ast.key_vars
        for stage, written in zip(prop.stages, ast.stages):
            assert sorted(stage.pattern.env_guards()) == written_env_guards(
                written.pattern), stage.name
            assert len(stage.unless) == len(written.unless), stage.name
            for cancel, written_cancel in zip(stage.unless, written.unless):
                assert cancel.env_guards(), stage.name
                assert sorted(cancel.env_guards()) == written_env_guards(
                    written_cancel), stage.name


class TestDslWorkedExamples:
    def test_all_compile(self):
        names = [prop.name for prop in worked_examples()]
        assert names == list(CATALOG_NAMES[13:21])
        # ...and Sec. 2.3's ARP example, the one name neither list serves
        assert CATALOG_NAMES[21:] == ("arp-reply-within",)
        assert load_property("arp-reply-within").num_stages == 2

    def test_every_property_carries_its_violation_message(self):
        for name in CATALOG_NAMES:
            assert load_property(name).violation_message, name

    def test_unknown_name_is_a_key_error(self):
        with pytest.raises(KeyError, match="firewall-timed"):
            load_property("firewall_timed")  # the catalog name is hyphenated


class TestFreshKnowledgePerBuild:
    def test_two_builds_share_no_knowledge_state(self, monkeypatch):
        made = []

        class Recorded(ArpKnowledge):
            def __init__(self):
                super().__init__()
                made.append(self)

        monkeypatch.setattr("repro.props.catalog.ArpKnowledge", Recorded)
        first, second = build_table1(), build_table1()
        assert len(made) == 2
        address = IPv4Address("10.0.0.3")
        made[0].known.add(address)  # teach the first build only

        def unknown(entries):
            # arp-unknown-forwarded, stage 0: `@arp_request and @unknown`
            predicate = entries[1].prop.stages[0].pattern.guards[1]
            return predicate.holds({"arp.target_ip": address}, {})

        assert not unknown(first)
        assert unknown(second)


class TestDslCatalogRuns:
    def test_dsl_nat_detects_the_violation(self):
        """The DSL-compiled NAT property works end to end, not just
        statically."""
        from repro.apps import NatApp, sometimes
        from repro.netsim import single_switch_network
        from repro.packet import tcp_packet
        from repro.switch.pipeline import MissPolicy

        net, switch, hosts = single_switch_network(
            2, switch_kwargs={"miss_policy": MissPolicy.CONTROLLER})
        switch.set_app(NatApp(public_ip=IPv4Address("203.0.113.1"),
                              faults=sometimes("corrupt_reverse", 1.0)))
        monitor = Monitor(scheduler=net.scheduler)
        monitor.add_property(load_property("nat-reverse-translation"))
        monitor.attach(switch)
        hosts[0].send(tcp_packet(1, 2, "10.0.0.1", "198.51.100.1", 5555, 80))
        net.run()
        hosts[1].send(tcp_packet(2, 1, "198.51.100.1", "203.0.113.1",
                                 80, 40000))
        net.run()
        assert len(monitor.violations) == 1
        # the file's `message` header reaches the violation report
        assert monitor.violations[0].message.startswith(
            "return packet translated to the wrong internal endpoint")

    def test_full_dsl_catalog_loads_into_one_monitor(self):
        monitor = Monitor()
        for name in CATALOG_NAMES:
            monitor.add_property(load_property(name))
        # survives an arbitrary event
        from repro.packet import ethernet
        from repro.switch.events import PacketArrival

        monitor.observe(PacketArrival(switch_id="s", time=0.0,
                                      packet=ethernet(1, 2), in_port=1))
