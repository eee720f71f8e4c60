"""Round-trip: formatting a specification to DSL text and recompiling it
preserves the analysis — over the entire catalog; and formatting a parsed
AST back to text re-parses to a structurally equal AST — over random
properties (Hypothesis)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import analyze
from repro.lang import compile_one, format_property
from repro.lang.ast import (
    AnyDiffers,
    BindAst,
    Comparison,
    Literal,
    NamedPredicate,
    PatternAst,
    PropertyAst,
    StageAst,
    VarRef,
)
from repro.lang.format import format_ast
from repro.lang.parser import parse
from repro.props import build_table1, load_property, worked_examples


def roundtrip(prop):
    source, predicates = format_property(prop)
    return compile_one(source, predicates)


class TestFormatRoundtrip:
    @pytest.mark.parametrize("row", range(13))
    def test_table1_rows_roundtrip(self, row):
        prop = build_table1()[row].prop
        again = roundtrip(prop)
        assert analyze(again) == analyze(prop), prop.name
        assert again.num_stages == prop.num_stages
        assert again.key_vars == prop.key_vars

    @pytest.mark.parametrize("index", range(8))
    def test_worked_examples_roundtrip(self, index):
        prop = worked_examples()[index]
        again = roundtrip(prop)
        assert analyze(again) == analyze(prop), prop.name

    def test_table1_rows_still_match_paper_after_roundtrip(self):
        for entry in build_table1():
            again = roundtrip(entry.prop)
            assert analyze(again).table1_row() == entry.expected_row

    def test_formatted_text_is_readable(self):
        source, predicates = format_property(
            load_property("firewall-with-close"))
        assert "observe outbound : arrival" in source
        assert "drop within 30" in source
        assert "unless arrival where" in source
        assert len(predicates) >= 1  # the @internal predicate got a name

    def test_roundtrip_is_idempotent(self):
        prop = load_property("nat-reverse-translation")
        once = roundtrip(prop)
        twice = roundtrip(once)
        assert analyze(once) == analyze(twice)

    def test_behavioural_equivalence_after_roundtrip(self):
        """The recompiled property detects the same violation, live."""
        from repro.apps import NatApp, sometimes
        from repro.core import Monitor
        from repro.netsim import single_switch_network
        from repro.packet import IPv4Address, tcp_packet
        from repro.switch.pipeline import MissPolicy

        prop = roundtrip(load_property("nat-reverse-translation"))
        net, switch, hosts = single_switch_network(
            2, switch_kwargs={"miss_policy": MissPolicy.CONTROLLER})
        switch.set_app(NatApp(public_ip=IPv4Address("203.0.113.1"),
                              faults=sometimes("corrupt_reverse", 1.0)))
        monitor = Monitor(scheduler=net.scheduler)
        monitor.add_property(prop)
        monitor.attach(switch)
        hosts[0].send(tcp_packet(1, 2, "10.0.0.1", "198.51.100.1", 5555, 80))
        net.run()
        hosts[1].send(tcp_packet(2, 1, "198.51.100.1", "203.0.113.1",
                                 80, 40000))
        net.run()
        assert len(monitor.violations) == 1


# ---------------------------------------------------------------------------
# Syntactic round-trip: parse(format_ast(p))[0] == p for random ASTs
# (AST equality ignores source positions, so this compares structure).
# ---------------------------------------------------------------------------
_KEYWORDS = {
    "property", "key", "message", "annotate", "observe", "absent", "where",
    "bind", "unless", "within", "refresh", "semantic", "no_refresh",
    "samepacket", "action", "not_action", "and", "any_differs", "arrival",
    "egress", "drop", "oob", "packet", "true", "false",
}

IDENTS = st.from_regex(r"[a-z][a-z0-9_]{0,7}", fullmatch=True).filter(
    lambda s: s not in _KEYWORDS)

FIELDS = st.sampled_from(
    ["eth.src", "eth.dst", "ipv4.src", "ipv4.dst", "tcp.src", "tcp.dst",
     "in_port", "out_port", "vlan.id"])

VALUES = st.one_of(
    st.integers(min_value=0, max_value=65535).map(Literal),
    st.sampled_from([0.5, 1.5, 2.25]).map(Literal),
    IDENTS.map(VarRef),
)

COMPARISONS = st.builds(
    Comparison, field=FIELDS, op=st.sampled_from(["==", "!="]), value=VALUES)

CONDITIONS = st.one_of(
    COMPARISONS,
    st.builds(
        AnyDiffers,
        pairs=st.lists(st.tuples(FIELDS, VALUES), min_size=1, max_size=2)
        .map(tuple)),
    st.builds(NamedPredicate, name=IDENTS),
)

BINDS = st.builds(BindAst, var=IDENTS, field=FIELDS)

PATTERNS = st.builds(
    PatternAst,
    kind=st.sampled_from(["arrival", "egress", "drop", "packet"]),
    conditions=st.lists(CONDITIONS, max_size=3).map(tuple),
    binds=st.lists(BINDS, max_size=2).map(tuple),
)

UNLESS = st.builds(
    PatternAst,
    kind=st.sampled_from(["arrival", "egress", "drop", "packet"]),
    conditions=st.lists(CONDITIONS, max_size=2).map(tuple),
)

OBSERVES = st.builds(
    StageAst,
    negative=st.just(False),
    name=IDENTS,
    pattern=PATTERNS,
    within=st.one_of(st.none(), st.integers(1, 60).map(float)),
    no_refresh=st.booleans(),
    unless=st.lists(UNLESS, max_size=1).map(tuple),
)

ABSENTS = st.builds(
    StageAst,
    negative=st.just(True),
    name=IDENTS,
    pattern=PATTERNS,
    within=st.integers(1, 60).map(float),
    refresh=st.sampled_from([None, "on_prior"]),
    semantic=st.booleans(),
    unless=st.lists(UNLESS, max_size=1).map(tuple),
)

PROPERTIES = st.builds(
    PropertyAst,
    name=IDENTS,
    # non-empty: the parser defaults an empty description to the name
    description=st.from_regex(r"[a-zA-Z0-9][a-zA-Z0-9 .,_-]{0,29}",
                              fullmatch=True),
    key_vars=st.lists(IDENTS, max_size=2, unique=True).map(tuple),
    stages=st.lists(st.one_of(OBSERVES, ABSENTS), min_size=1,
                    max_size=3).map(tuple),
    message=st.sampled_from(["", "violated", "bad egress seen"]),
    obligation=st.sampled_from([None, True, False]),
    match_kind=st.sampled_from([None, "exact", "symmetric", "wandering"]),
)


class TestAstRoundtrip:
    """format_ast is the exact syntactic inverse of parse."""

    @given(prop=PROPERTIES)
    @settings(max_examples=150, deadline=None)
    def test_random_ast_roundtrips(self, prop):
        source = format_ast(prop)
        (again,) = parse(source)
        assert again == prop, source

    @given(prop=PROPERTIES)
    @settings(max_examples=50, deadline=None)
    def test_format_is_idempotent(self, prop):
        once = format_ast(prop)
        assert format_ast(parse(once)[0]) == once

    def test_whole_shipped_corpus_roundtrips(self):
        from repro.props import CATALOG_NAMES, property_source

        for name in CATALOG_NAMES:
            for prop in parse(property_source(name)):
                assert parse(format_ast(prop))[0] == prop, name
