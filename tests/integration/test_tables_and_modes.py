"""Integration: Table 1/Table 2 regeneration and side-effect-control modes."""

import pytest

from repro.backends import (
    PAPER_TABLE2,
    build_table2,
    diff_against_paper,
    render_table2,
)
from repro.core import Monitor
from repro.netsim import single_switch_network
from repro.packet import ethernet, tcp_packet
from repro.props import build_table1, load_property, render_table1
from repro.switch.events import PacketArrival
from repro.switch.switch import ProcessingMode


class TestTablesSnapshot:
    def test_repro_tables_output_is_byte_identical(self, capsys):
        """``repro tables`` prints what it printed when the catalog was
        hand-built Python (tests/fixtures/tables/repro_tables.txt was
        captured at commit 05562df, before the .prop files became the
        single source)."""
        import os

        from repro.cli import main

        assert main(["tables"]) == 0
        path = os.path.join(os.path.dirname(__file__), "..", "fixtures",
                            "tables", "repro_tables.txt")
        with open(path, encoding="utf-8") as fp:
            assert capsys.readouterr().out == fp.read()


class TestTable1Reproduction:
    def test_every_row_matches(self):
        for entry in build_table1():
            assert entry.matches_paper(), entry.description

    def test_rows_are_monitorable(self):
        """Every catalog property loads into a monitor without error."""
        monitor = Monitor()
        for entry in build_table1():
            monitor.add_property(entry.prop)
        # And survives an arbitrary event without raising.
        monitor.observe(PacketArrival(switch_id="s", time=0.0,
                                      packet=ethernet(1, 2), in_port=1))

    def test_render_table1_is_stable(self):
        assert render_table1() == render_table1()


class TestTable2Reproduction:
    def test_cell_for_cell(self):
        assert diff_against_paper() == []

    def test_varanus_is_the_only_full_column(self):
        table = build_table2()
        semantic_rows = [
            "Event History", "Identification of related events",
            "Negative match", "Rule timeouts", "Timeout actions",
            "Symmetric match", "Wandering match", "Out-of-band events",
        ]
        for name in ("OpenState", "FAST", "POF and P4", "SNAP",
                     "Static Varanus"):
            cells = [table[row][name] for row in semantic_rows]
            assert "X" in cells or "" in cells, name
        varanus = [table[row]["Varanus"] for row in semantic_rows]
        assert all(c == "Y" for c in varanus)

    def test_nobody_has_full_provenance(self):
        table = build_table2()
        assert all(c in ("X", "") for c in table["Full provenance"].values())

    def test_paper_table_is_complete(self):
        # 13 rows x 7 backends
        assert len(PAPER_TABLE2) == 13
        for row, cells in PAPER_TABLE2.items():
            assert len(cells) == 7, row


class TestSideEffectModes:
    """Feature 9 at the system level: split monitors miss racing responses."""

    def _drive(self, mode, gap):
        from repro.core import Bind, EventKind, EventPattern, FieldEq, Observe, PropertySpec, Var

        prop = PropertySpec(
            name="echo", description="",
            stages=(
                Observe("seen", EventPattern(
                    kind=EventKind.ARRIVAL, binds=(Bind("S", "eth.src"),))),
                Observe("answered", EventPattern(
                    kind=EventKind.ARRIVAL,
                    guards=(FieldEq("eth.dst", Var("S")),))),
            ),
            key_vars=("S",),
        )
        monitor = Monitor(mode=mode, split_lag=500e-6)
        monitor.add_property(prop)
        monitor.observe(PacketArrival(switch_id="s", time=0.0,
                                      packet=ethernet(1, 9), in_port=1))
        monitor.observe(PacketArrival(switch_id="s", time=gap,
                                      packet=ethernet(7, 1), in_port=2))
        monitor.advance_to(1.0)
        return monitor.violations

    def test_inline_catches_immediate_response(self):
        assert len(self._drive(ProcessingMode.INLINE, gap=1e-6)) == 1

    def test_split_misses_immediate_response(self):
        assert self._drive(ProcessingMode.SPLIT, gap=1e-6) == []

    def test_split_catches_slow_response(self):
        assert len(self._drive(ProcessingMode.SPLIT, gap=0.01)) == 1

    def test_error_rate_depends_on_gap_vs_lag(self):
        """Sweep the response gap across the split lag: the miss/catch
        boundary sits exactly at the lag."""
        for gap in (1e-4, 2e-4, 4e-4):
            assert self._drive(ProcessingMode.SPLIT, gap=gap) == []
        for gap in (6e-4, 1e-3, 1e-2):
            assert len(self._drive(ProcessingMode.SPLIT, gap=gap)) == 1


class TestMonitorOnSwitchLatency:
    """Inline on-switch monitoring adds forwarding latency; split does not
    (the latency/accuracy trade of Feature 9)."""

    def test_inline_monitor_charges_switch_meter(self):
        net, sw, hosts = single_switch_network(3)
        monitor = Monitor(meter=sw.meter, slow_path_updates=False)
        monitor.add_property(load_property("learned-unicast-port"))
        monitor.attach(sw)
        before = sw.meter.fast_updates
        hosts[0].send(ethernet(1, 2))
        net.run()
        assert sw.meter.fast_updates > before
