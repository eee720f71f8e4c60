"""Property-based tests: the linter never crashes, and its contradiction
findings agree with the matcher.

Whatever the input — arbitrary junk text, randomly assembled but
syntactically valid sources, or every specification the catalog can
produce rendered back to DSL text — ``lint_source`` must return a
:class:`~repro.lint.engine.FileReport`; parse failures are diagnostics,
never exceptions.

An L005/L006 finding claims that two guards can never hold together.
The compiled :class:`~repro.core.refs.EventPattern` is the judge: brute
force over a window of values must find no field value and no variable
values that satisfy the pair, and every pair it finds no witness for
must be reported.
"""

import functools
import itertools

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.lang import compile_one, format_property, parse
from repro.lang.ast import VarRef
from repro.lint import RULES, FileReport, LintOptions, Severity, lint_source
from repro.packet import ethernet
from repro.switch.events import PacketArrival

FIELDS = st.sampled_from([
    "eth.src", "eth.dst", "eth.type", "ipv4.src", "ipv4.dst", "ipv4.ttl",
    "tcp.dst", "udp.src", "in_port", "out_port", "dhcp.xid",
    "made.up.field", "nope",
])
KINDS = st.sampled_from(["arrival", "egress", "drop", "packet"])
NAMES = st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True)
VALUES = st.one_of(
    st.integers(min_value=-10, max_value=1 << 40).map(str),
    st.sampled_from(["$D", "$X", "10.0.0.1", "ff:ff:ff:ff:ff:ff", '"s"']),
)


@st.composite
def stage_sources(draw, index):
    negative = index > 0 and draw(st.booleans())
    keyword = "absent" if negative else "observe"
    name = draw(NAMES)
    kind = draw(KINDS)
    lines = [f"{keyword} s{index}_{name} : {kind}"
             + (f" within {draw(st.floats(-1, 5, allow_nan=False)):g}"
                if negative or draw(st.booleans()) else "")]
    if draw(st.booleans()):
        lines.append(f"    bind D = {draw(FIELDS)}")
    for _ in range(draw(st.integers(0, 2))):
        op = draw(st.sampled_from(["==", "!="]))
        lines.append(f"    where {draw(FIELDS)} {op} {draw(VALUES)}")
    if index > 0 and draw(st.booleans()):
        lines.append(f"    unless {draw(KINDS)} where "
                     f"{draw(FIELDS)} == {draw(VALUES)}")
    return "\n".join(lines)


@st.composite
def property_sources(draw):
    count = draw(st.integers(1, 3))
    stages = "\n".join(draw(stage_sources(i)) for i in range(count))
    key = "key D\n" if draw(st.booleans()) else ""
    return f'property p "generated"\n{key}{stages}\n'


class TestLinterNeverCrashes:
    @given(st.text(max_size=300))
    @settings(max_examples=120, deadline=None)
    def test_arbitrary_text(self, text):
        report = lint_source(text)
        assert isinstance(report, FileReport)
        # junk either parses (possibly to zero findings) or produces an
        # L000 diagnostic with a position, never an exception
        for diag in report.diagnostics:
            assert diag.code == "L000"
            assert diag.severity is Severity.ERROR

    @given(property_sources())
    @settings(max_examples=120, deadline=None)
    def test_generated_sources(self, source):
        report = lint_source(source)
        assert isinstance(report, FileReport)
        for diag in report.all_diagnostics():
            assert diag.code in RULES

    def test_every_catalog_spec_rendered_back_to_dsl(self):
        from repro.props import build_table1, worked_examples

        specs = [e.prop for e in build_table1()] + list(worked_examples())
        assert specs
        for spec in specs:
            source, predicates = format_property(spec)
            report = lint_source(source, predicates)
            assert isinstance(report, FileReport)
            assert report.properties, spec.name
            # formatted catalog output must elaborate cleanly
            assert report.properties[0].spec is not None, spec.name


# ---------------------------------------------------------------------------
# Contradiction soundness: L005/L006 against the compiled matcher
# ---------------------------------------------------------------------------
PAIR_FIELDS = ("tcp.dst", "ipv4.ttl")
PAIR_OPS = ("==", "!=", "<", "<=", ">", ">=")
PAIR_LITERALS = range(0, 3)
#: values brute force tries for the field and for each free $var: the
#: literals widened by two each way, which holds a witness for every
#: satisfiable pair of guards over them (at most two unknowns besides
#: the field, each within one step of a literal or of each other)
WITNESSES = range(min(PAIR_LITERALS) - 2, max(PAIR_LITERALS) + 3)
PAIR_GUARDS = st.tuples(
    st.sampled_from(PAIR_FIELDS),
    st.sampled_from(PAIR_OPS),
    st.one_of(st.sampled_from(PAIR_LITERALS).map(str),
              st.sampled_from(["$A", "$B"])),
)
# $A and $B come from an unguarded stage: no fact about either, so every
# contradiction is one as written and L016 cannot fire
PAIR_HEADER = """\
property pairs "generated"
key A
observe a : arrival
    bind A = udp.src, B = udp.dst
observe b : arrival
"""
ARRIVAL = PacketArrival(switch_id="s", time=0.0, packet=ethernet(1, 2),
                        in_port=1)
AST_ONLY = LintOptions(feasibility=False, split=False, dispatch=False,
                       taint=False)


def _where(guards):
    return " and ".join(f"{f} {op} {value}" for f, op, value in guards)


@st.composite
def pair_sources(draw):
    source = PAIR_HEADER + "    where " + _where(
        draw(st.lists(PAIR_GUARDS, min_size=2, max_size=4))) + "\n"
    unless = draw(st.lists(PAIR_GUARDS, max_size=3))
    if len(unless) >= 2:
        source += "    unless arrival where " + _where(unless) + "\n"
    return source


def _text(guard):
    value = guard.value
    if isinstance(value, VarRef):
        return f"${value.name}"
    return repr(value.value)


@functools.lru_cache(maxsize=None)
def _satisfiable(field, first, second):
    """Whether some field value and $A/$B values pass both guards
    (``(op, value text)`` each) through the compiled pattern."""
    pattern = compile_one(PAIR_HEADER + "    where " + _where(
        [(field,) + first, (field,) + second])).stages[1].pattern
    return any(
        pattern.matches(ARRIVAL, {field: value}, {"A": a, "B": b})
        for value, a, b in itertools.product(WITNESSES, repeat=3))


def _disjoint(x, y):
    return not _satisfiable(x.field, (x.op, _text(x)), (y.op, _text(y)))


class TestContradictionSoundness:
    @given(pair_sources())
    # no integer lies strictly between adjacent literals
    @example(PAIR_HEADER + "    where tcp.dst > 1 and tcp.dst < 2\n")
    @settings(max_examples=200, deadline=None)
    def test_findings_are_exactly_the_disjoint_pairs(self, source):
        stage = parse(source)[0].stages[1]
        patterns = [("L005", stage.pattern)] + [
            ("L006", unless) for unless in stage.unless]
        findings = [d for d in lint_source(source, options=AST_ONLY)
                    .all_diagnostics() if d.code in ("L005", "L006", "L016")]
        assert all(d.code != "L016" for d in findings), source
        # every finding names a pair no assignment satisfies
        for diag in findings:
            assert any(
                diag.code == code
                and (guard.line, guard.column) == (diag.line, diag.column)
                and any(other is not guard and other.field == guard.field
                        and _disjoint(guard, other)
                        and _text(other) in diag.message.split(": ", 1)[1]
                        for other in pattern.conditions)
                for code, pattern in patterns
                for guard in pattern.conditions), (source, diag)
        # every pair brute force proves disjoint is reported
        for code, pattern in patterns:
            guards = pattern.conditions
            for i, first in enumerate(guards):
                for second in guards[i + 1:]:
                    if first.field != second.field or not _disjoint(
                            first, second):
                        continue
                    assert any(
                        d.code == code
                        and (anchor.line, anchor.column) == (d.line, d.column)
                        and _text(other) in d.message.split(": ", 1)[1]
                        for d in findings
                        for anchor, other in ((first, second),
                                              (second, first))
                    ), (source, first, second)
