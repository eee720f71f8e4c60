"""Integration: the DSL catalog matches the programmatic catalog.

DESIGN.md promises every property "as both DSL text and IR"; these tests
keep the two halves in lock-step — each DSL-compiled property must analyze
to exactly the same feature requirements as its programmatic twin (and
therefore reproduce the same Table 1 row).
"""

import pytest

from repro.core import Monitor, analyze
from repro.props import build_table1
from repro.props.dsl_sources import (
    DSL_SOURCES,
    TABLE1_DSL_KEYS,
    WORKED_EXAMPLE_DSL_KEYS,
    dsl_table1,
    dsl_worked_examples,
)


@pytest.fixture(scope="module")
def programmatic():
    return build_table1()


@pytest.fixture(scope="module")
def dsl_specs():
    return dict(dsl_table1())


class TestDslTable1Equivalence:
    def test_all_thirteen_present(self, dsl_specs):
        assert len(dsl_specs) == 13

    @pytest.mark.parametrize("row", range(13))
    def test_row_analyzes_identically(self, row, programmatic, dsl_specs):
        entry = programmatic[row]
        key = TABLE1_DSL_KEYS[row]
        dsl_prop = dsl_specs[key]
        assert analyze(dsl_prop) == analyze(entry.prop), (
            f"{key}: DSL analysis diverges from the programmatic catalog"
        )

    @pytest.mark.parametrize("row", range(13))
    def test_row_reproduces_paper_cells(self, row, programmatic, dsl_specs):
        entry = programmatic[row]
        dsl_prop = dsl_specs[TABLE1_DSL_KEYS[row]]
        assert analyze(dsl_prop).table1_row() == entry.expected_row

    @pytest.mark.parametrize("row", range(13))
    def test_same_stage_structure(self, row, programmatic, dsl_specs):
        entry = programmatic[row]
        dsl_prop = dsl_specs[TABLE1_DSL_KEYS[row]]
        assert dsl_prop.num_stages == entry.prop.num_stages
        assert len(dsl_prop.key_vars) == len(entry.prop.key_vars)
        # The field == $var equalities are what the instance store hashes
        # on (advances and unless cancels alike): one hidden in a builder
        # lambda turns a bucket probe into a population scan.
        for built, parsed in zip(entry.prop.stages, dsl_prop.stages):
            assert sorted(built.pattern.env_guards()) == sorted(
                parsed.pattern.env_guards()), built.name
            assert [sorted(u.env_guards()) for u in built.unless] == [
                sorted(u.env_guards()) for u in parsed.unless], built.name


class TestDslWorkedExamples:
    def test_all_compile(self):
        specs = dsl_worked_examples()
        assert len(specs) == len(WORKED_EXAMPLE_DSL_KEYS)

    def test_firewall_equivalence(self):
        from repro.props import firewall_basic, firewall_timed, firewall_with_close

        specs = dict(dsl_worked_examples())
        assert analyze(specs["firewall-basic"]) == analyze(firewall_basic())
        assert analyze(specs["firewall-timed"]) == analyze(firewall_timed())
        assert analyze(specs["firewall-with-close"]) == analyze(
            firewall_with_close())

    def test_nat_equivalence(self):
        from repro.props import nat_reverse_translation

        specs = dict(dsl_worked_examples())
        assert analyze(specs["nat-reverse-translation"]) == analyze(
            nat_reverse_translation())

    def test_learning_equivalence(self):
        from repro.props import (
            learned_no_flood,
            learned_unicast_port,
            link_down_clears_learning,
        )

        specs = dict(dsl_worked_examples())
        assert analyze(specs["learned-unicast-port"]) == analyze(
            learned_unicast_port())
        assert analyze(specs["learned-no-flood"]) == analyze(learned_no_flood())
        assert analyze(specs["link-down-clears-learning"]) == analyze(
            link_down_clears_learning())


class TestDslCatalogRuns:
    def test_dsl_nat_detects_the_violation(self):
        """The DSL-compiled NAT property works end to end, not just
        statically."""
        from repro.apps import NatApp, sometimes
        from repro.netsim import single_switch_network
        from repro.packet import IPv4Address, tcp_packet
        from repro.switch.pipeline import MissPolicy

        specs = dict(dsl_worked_examples())
        net, switch, hosts = single_switch_network(
            2, switch_kwargs={"miss_policy": MissPolicy.CONTROLLER})
        switch.set_app(NatApp(public_ip=IPv4Address("203.0.113.1"),
                              faults=sometimes("corrupt_reverse", 1.0)))
        monitor = Monitor(scheduler=net.scheduler)
        monitor.add_property(specs["nat-reverse-translation"])
        monitor.attach(switch)
        hosts[0].send(tcp_packet(1, 2, "10.0.0.1", "198.51.100.1", 5555, 80))
        net.run()
        hosts[1].send(tcp_packet(2, 1, "198.51.100.1", "203.0.113.1",
                                 80, 40000))
        net.run()
        assert len(monitor.violations) == 1

    def test_full_dsl_catalog_loads_into_one_monitor(self):
        monitor = Monitor()
        for _, prop in dsl_table1() + dsl_worked_examples():
            monitor.add_property(prop)
        # survives an arbitrary event
        from repro.packet import ethernet
        from repro.switch.events import PacketArrival

        monitor.observe(PacketArrival(switch_id="s", time=0.0,
                                      packet=ethernet(1, 2), in_port=1))
