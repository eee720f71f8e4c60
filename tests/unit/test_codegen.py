"""Codegen backend unit tests.

The generated programs for two representative Table-1 properties are
pinned by golden files under ``tests/fixtures/codegen/`` (regenerate
with ``PYTHONPATH=src python -m tests.regen_codegen_goldens``); the rest
of this file covers the program's observable surface — emission stats,
rebuild-on-add invalidation, and the ``repro explain --codegen`` dump —
while the Hypothesis differential suite owns semantic equivalence.
"""

import io
import os
import re
from contextlib import redirect_stdout

import pytest

from repro.cli import main as cli_main
from repro.core import Monitor
from repro.core.compile import dispatch_plan, scan_watchers
from repro.lint.dispatch import HOT_KINDS
from repro.props.catalog import build_table1
from repro.switch.events import PacketArrival, PacketEgress, TimerFired
from repro.switch.switch import ProcessingMode
from tests.regen_codegen_goldens import (
    GOLDEN,
    PINNED,
    fixture_name,
    generated_source,
)

CATALOG = {entry.prop.name: entry.prop for entry in build_table1()}


class TestGoldenSources:
    @pytest.mark.parametrize(
        "prop_name,mode", PINNED,
        ids=[name + ("-split" if mode is ProcessingMode.SPLIT else "")
             for name, mode in PINNED])
    def test_generated_source_matches_golden(self, prop_name, mode):
        with open(os.path.join(GOLDEN, fixture_name(prop_name, mode))) as fp:
            want = fp.read()
        assert generated_source(prop_name, mode) == want, (
            "generated matcher drifted from the golden; if deliberate, "
            "rerun PYTHONPATH=src python -m tests.regen_codegen_goldens")

    def test_performance_doc_listing_is_the_golden(self):
        """docs/PERFORMANCE.md prints the dhcp-reply-within program
        whole; it must be the pinned golden, so it cannot go stale."""
        with open(os.path.join(os.path.dirname(__file__), "..", "..",
                               "docs", "PERFORMANCE.md")) as fp:
            doc = fp.read()
        with open(os.path.join(GOLDEN, "dhcp_reply_within.py.txt")) as fp:
            golden = fp.read()
        start = doc.index("```\n# repro codegen program") + len("```\n")
        assert doc[start:doc.index("```\n", start)] == golden

    def test_source_header_names_all_properties(self):
        monitor = Monitor()
        for entry in build_table1():
            monitor.add_property(entry.prop)
        source = monitor.codegen_source()
        header = source.splitlines()[1]
        for entry in build_table1():
            assert entry.prop.name in header


class TestProgramSurface:
    def test_add_property_invalidates_program(self):
        monitor = Monitor()
        monitor.add_property(CATALOG["knocking-invalidated"])
        first = monitor.codegen_source()
        monitor.add_property(CATALOG["dhcp-reply-within"])
        second = monitor.codegen_source()
        assert first != second
        assert "dhcp-reply-within" in second

    def test_generated_functions_compile_under_marker_filename(self):
        monitor = Monitor()
        monitor.add_property(CATALOG["dhcp-reply-within"])
        monitor.codegen_source()
        program = monitor._codegen_program
        lines = program.source.splitlines()
        assert not program.eval_fns  # nothing compiled before first use
        for cls in (PacketArrival, PacketEgress):
            fn = program.eval_fns[cls]
            assert fn.__code__.co_filename == "<repro-codegen>"
            # each function is compiled on its own, yet a traceback's
            # line number still points into the dumped program
            assert lines[fn.__code__.co_firstlineno - 1].startswith(
                f"def {fn.__name__}(")
        assert program.eval_fns[TimerFired] is None  # unwatched class

    def test_catalog_program_is_one_evaluator_per_watched_class(self):
        monitor = Monitor()
        watched = set()
        for entry in build_table1():
            monitor.add_property(entry.prop)
            watched.update(dispatch_plan(entry.prop))
        defs = re.findall(r"^\s*def (\w+)", monitor.codegen_source(), re.M)
        assert sorted(defs) == sorted(
            f"_eval__{cls.__name__}" for cls in watched)
        assert monitor._codegen_program.eval_fns[TimerFired] is None


class TestCatalogCancelPath:
    """The Sec. 3.3 regression guard, with no clock in it: no Table-1
    property may put a per-packet watcher on a full-population walk."""

    def test_no_catalog_watcher_scans_on_a_packet_kind(self):
        for entry in build_table1():
            hot = [scan for scan in scan_watchers(entry.prop)
                   if scan[0] in HOT_KINDS]
            assert hot == [], entry.prop.name

    def test_catalog_program_walks_no_stage_population_per_packet(self):
        monitor = Monitor()
        for entry in build_table1():
            monitor.add_property(entry.prop)
        source = monitor.codegen_source()
        assert "_ub" in source  # the cancel probes are there instead
        for chunk in source.split("\ndef ")[1:]:
            name = chunk[:chunk.index("(")]
            if name.endswith(("__PacketArrival", "__PacketEgress",
                              "__PacketDrop")):
                assert not re.search(r"_sp\d+_\d+", chunk), name


class TestExplainCommand:
    def test_explain_codegen_dumps_program(self):
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = cli_main(["explain", "knocking-invalidated", "--codegen"])
        assert rc in (0, None)
        out = buf.getvalue()
        assert out.startswith("# repro codegen program")
        assert "_eval__PacketArrival" in out

    def test_every_catalog_name_explains(self, capsys):
        # `explain` used to hand-list Table 1 + three builders, so
        # firewall-basic and friends answered "not in the catalog".
        from repro.props import CATALOG_NAMES

        assert len(CATALOG_NAMES) == 22
        for name in CATALOG_NAMES:
            assert cli_main(["explain", name]) == 0, name
            assert f"property {name}:" in capsys.readouterr().out

    def test_explain_unknown_property_fails(self, capsys):
        rc = cli_main(["explain", "no-such-property"])
        assert rc == 2
        assert "no-such-property" in capsys.readouterr().err
