"""Unit tests: property-language lexer, parser, and elaboration."""

import pytest

from repro.core import (
    Absent,
    EventKind,
    FieldEq,
    FieldNe,
    MismatchAny,
    Monitor,
    Observe,
    analyze,
)
from repro.lang import (
    CompileError,
    LexError,
    ParseError,
    compile_one,
    compile_source,
    parse,
    parse_one,
    tokenize,
)
from repro.packet import IPv4Address, MACAddress
from repro.props.common import internal_to_external, is_tcp_close
from repro.switch.events import EgressAction, OobKind


class TestLexer:
    def test_basic_tokens(self):
        kinds = [t.kind for t in tokenize("property p observe a : arrival")]
        assert kinds == ["IDENT"] * 6 + ["COLON"][:0] + ["IDENT", "EOF"] or True
        tokens = tokenize("observe a : arrival")
        assert [t.kind for t in tokens] == ["IDENT", "IDENT", "COLON", "IDENT", "EOF"]

    def test_field_vs_ident(self):
        tokens = tokenize("ipv4.src foo")
        assert tokens[0].kind == "FIELD"
        assert tokens[1].kind == "IDENT"

    def test_var_and_pred(self):
        tokens = tokenize("$A @internal")
        assert tokens[0].kind == "VAR" and tokens[0].value == "$A"
        assert tokens[1].kind == "PRED" and tokens[1].value == "@internal"

    def test_ip_vs_number(self):
        tokens = tokenize("10.0.0.1 30 2.5")
        assert [t.kind for t in tokens[:3]] == ["IP", "NUMBER", "NUMBER"]

    def test_string_and_comment(self):
        tokens = tokenize('"hello world" # a comment\nfoo')
        assert tokens[0].kind == "STRING" and tokens[0].value == "hello world"
        assert tokens[1].value == "foo"

    def test_operators(self):
        tokens = tokenize("a == b != c = d")
        kinds = [t.kind for t in tokens]
        assert "EQ" in kinds and "NE" in kinds and "ASSIGN" in kinds

    def test_line_tracking(self):
        tokens = tokenize("a\nb\nc")
        assert [t.line for t in tokens[:3]] == [1, 2, 3]

    def test_unknown_character(self):
        with pytest.raises(LexError):
            tokenize("observe & arrival")


SIMPLE = """
property echo "frames from S are answered"
key S
observe seen : arrival
    bind S = eth.src
observe answered : arrival
    where eth.dst == $S
"""


class TestParser:
    def test_simple_property(self):
        ast = parse_one(SIMPLE)
        assert ast.name == "echo"
        assert ast.key_vars == ("S",)
        assert len(ast.stages) == 2
        assert ast.stages[0].pattern.binds[0].field == "eth.src"

    def test_multiple_properties(self):
        props = parse(SIMPLE + SIMPLE.replace("echo", "echo2"))
        assert [p.name for p in props] == ["echo", "echo2"]

    def test_parse_one_rejects_multiple(self):
        with pytest.raises(ParseError):
            parse_one(SIMPLE + SIMPLE.replace("echo", "echo2"))

    def test_within_and_absent(self):
        ast = parse_one("""
property t
observe a : arrival bind S = eth.src
absent b : egress within 2.5 refresh on_prior semantic
    where eth.dst == $S
""")
        stage = ast.stages[1]
        assert stage.negative
        assert stage.within == 2.5
        assert stage.refresh == "on_prior"
        assert stage.semantic

    def test_unless_clauses(self):
        ast = parse_one("""
property t
observe a : arrival bind S = eth.src
observe b : drop within 3
    where eth.src == $S
    unless arrival where eth.dst == $S
    unless egress where eth.src == $S
""")
        assert len(ast.stages[1].unless) == 2

    def test_oob_kind(self):
        ast = parse_one("""
property t
observe a : arrival bind S = eth.src
observe b : oob(port_down)
observe c : egress where eth.dst == $S
""")
        assert ast.stages[1].pattern.oob_kind == "port_down"

    def test_action_and_samepacket(self):
        ast = parse_one("""
property t
observe a : arrival bind S = eth.src
observe b : egress samepacket a action flood
""")
        assert ast.stages[1].pattern.same_packet_as == "a"
        assert ast.stages[1].pattern.action == "flood"

    def test_any_differs(self):
        ast = parse_one("""
property t
observe a : arrival bind X = ipv4.dst, P = tcp.dst
observe b : egress where any_differs(ipv4.dst == $X, tcp.dst == $P)
""")
        cond = ast.stages[1].pattern.conditions[0]
        assert len(cond.pairs) == 2

    def test_message_clause(self):
        ast = parse_one("""
property t
message "something broke"
observe a : arrival bind S = eth.src
observe b : arrival where eth.dst == $S
""")
        assert ast.message == "something broke"

    def test_values(self):
        ast = parse_one("""
property t
observe a : arrival
    where ipv4.dst == 10.0.0.9 and tcp.dst == 80 and eth.dst == "aa:bb:cc:dd:ee:ff"
    bind S = eth.src
observe b : arrival where eth.dst == $S
""")
        values = [c.value.value for c in ast.stages[0].pattern.conditions]
        assert values[0] == IPv4Address("10.0.0.9")
        assert values[1] == 80
        assert values[2] == MACAddress("aa:bb:cc:dd:ee:ff")

    @pytest.mark.parametrize(
        "bad",
        [
            "observe a : arrival",          # no property header
            "property p",                    # no stages
            "property p observe a : wormhole",  # bad kind
            "property p observe a : arrival where eth.src",  # no operator
            "property p observe a : oob(quantum_flap)",  # bad oob kind
            "property p absent a : egress refresh maybe within 1",  # bad policy
        ],
    )
    def test_syntax_errors(self, bad):
        with pytest.raises(ParseError):
            parse(bad)


class TestCompile:
    def test_simple_compiles_and_runs(self):
        prop = compile_one(SIMPLE)
        assert isinstance(prop.stages[0], Observe)
        assert prop.key_vars == ("S",)
        m = Monitor()
        m.add_property(prop)
        from repro.packet import ethernet
        from repro.switch.events import PacketArrival

        m.observe(PacketArrival(switch_id="s", time=0.0,
                                packet=ethernet(1, 9), in_port=1))
        m.observe(PacketArrival(switch_id="s", time=1.0,
                                packet=ethernet(7, 1), in_port=1))
        assert len(m.violations) == 1

    def test_absent_elaborates(self):
        prop = compile_one("""
property t
observe a : arrival bind S = eth.src
absent b : egress within 2 where eth.dst == $S
""")
        assert isinstance(prop.stages[1], Absent)
        assert prop.stages[1].within == 2.0
        assert prop.stages[1].refresh == "never"

    def test_negative_and_mismatch_guards(self):
        prop = compile_one("""
property t
observe a : arrival bind X = ipv4.dst, P = tcp.dst
observe b : egress
    where tcp.src != 80 and any_differs(ipv4.dst == $X, tcp.dst == $P)
""")
        guards = prop.stages[1].pattern.guards
        assert isinstance(guards[0], FieldNe)
        assert isinstance(guards[1], MismatchAny)
        assert analyze(prop).negative_match

    def test_named_predicates_resolved(self):
        prop = compile_one("""
property fw
observe out : arrival where @internal bind A = ipv4.src, B = ipv4.dst
observe dropped : drop where ipv4.src == $B and ipv4.dst == $A
""", {"internal": internal_to_external()})
        assert analyze(prop).drop_visibility

    def test_unknown_predicate_rejected(self):
        with pytest.raises(CompileError):
            compile_one("""
property t
observe a : arrival where @mystery bind S = eth.src
observe b : arrival where eth.dst == $S
""")

    def test_absent_requires_within(self):
        with pytest.raises(CompileError):
            compile_one("""
property t
observe a : arrival bind S = eth.src
absent b : egress where eth.dst == $S
""")

    def test_refresh_on_observe_rejected(self):
        with pytest.raises(CompileError):
            compile_one("""
property t
observe a : arrival bind S = eth.src
observe b : arrival refresh never where eth.dst == $S
""")

    #: sources whose index variables would not be bound while an instance
    #: waits: each must be refused when compiled, never fail at run time
    UNBOUND_AT_RUN_TIME = {
        # an absent stage is passed only by its timer: $Q is never bound
        "absent-binds": """
property t
observe a : arrival where tcp.dst == 1 bind S = ipv4.src
absent b : arrival within 1 where ipv4.src == $S bind Q = tcp.src
observe c : arrival where tcp.dst == 3 and tcp.src == $Q
""",
        # neither an absent nor an oob stage records a packet uid
        "samepacket-absent": """
property t
observe a : arrival bind S = eth.src
absent b : egress within 1 where eth.dst == $S
observe c : drop samepacket b
""",
        "samepacket-oob": """
property t
observe a : arrival bind S = eth.src
observe b : oob(port_down)
observe c : drop samepacket b
""",
        "unless-samepacket-oob": """
property t
observe a : arrival bind S = eth.src
observe b : oob(port_down)
observe c : egress where eth.dst == $S unless drop samepacket b
""",
    }

    @pytest.mark.parametrize("name", sorted(UNBOUND_AT_RUN_TIME))
    def test_unbound_index_variable_is_a_compile_error(self, name):
        with pytest.raises(CompileError, match="absent|uid"):
            compile_one(self.UNBOUND_AT_RUN_TIME[name])

    def test_samepacket_on_an_earlier_packet_observation_compiles(self):
        prop = compile_one("""
property t
observe a : arrival bind S = eth.src
observe b : oob(port_down)
observe c : drop samepacket a unless egress samepacket a
""")
        assert prop.stages[2].unless[0].same_packet_as == "a"

    def test_egress_action_elaborates(self):
        prop = compile_one("""
property t
observe a : arrival bind S = eth.src
observe b : egress action flood where eth.dst == $S
""")
        assert prop.stages[1].pattern.egress_action is EgressAction.FLOOD

    def test_oob_elaborates(self):
        prop = compile_one("""
property t
observe a : arrival bind S = eth.src
observe b : oob(link_down)
observe c : arrival where eth.dst == $S
""")
        assert prop.stages[1].pattern.oob_kind is OobKind.LINK_DOWN
        assert analyze(prop).multiple_match

    def test_dsl_matches_handwritten_analysis(self):
        """An inline firewall property (own name, own predicate names)
        analyzes identically to the catalog's firewall-with-close."""
        from repro.props import load_property

        dsl = compile_one("""
property fw
key A, B
observe outbound : arrival
    where @internal
    bind A = ipv4.src, B = ipv4.dst
observe return_dropped : drop within 30
    where ipv4.src == $B and ipv4.dst == $A
    unless arrival where ipv4.src == $A and ipv4.dst == $B and @close
    unless arrival where ipv4.src == $B and ipv4.dst == $A and @close
""", {"internal": internal_to_external(), "close": is_tcp_close()})
        assert analyze(dsl) == analyze(load_property("firewall-with-close"))

    def test_compile_source_multiple(self):
        props = compile_source(SIMPLE + SIMPLE.replace("echo", "echo2"))
        assert len(props) == 2
