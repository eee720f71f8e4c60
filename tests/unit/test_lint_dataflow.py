"""The cross-stage dataflow analysis behind L016 (repro.lint.dataflow)."""

import pytest

from repro.lang.parser import parse
from repro.lint import lint_source
from repro.lint.dataflow import (
    Alias,
    Pin,
    rule_contradictions,
    stage_environments,
)


def findings(source):
    prop = parse(source)[0]
    return list(rule_contradictions(prop))


PINNED_EQ_NE = """\
property p "pin exposed by eq/ne"
key K
observe knock : arrival
    where tcp.dst == 7001
    bind K = ipv4.src, P = tcp.dst
observe open : arrival
    where ipv4.src == $K and tcp.dst == $P and tcp.dst != 7001
"""


class TestPinnedContradictions:
    def test_eq_var_ne_lit(self):
        (diag,) = findings(PINNED_EQ_NE)
        assert diag.code == "L016"
        assert "pins $P to 7001" in diag.message

    def test_ne_var_eq_lit(self):
        (diag,) = findings("""\
property p "the mirrored direction"
key K
observe knock : arrival
    where tcp.dst == 7001
    bind K = ipv4.src, P = tcp.dst
observe open : arrival
    where ipv4.src == $K and tcp.dst == 7001 and tcp.dst != $P
""")
        assert diag.code == "L016"

    def test_l005_misses_what_l016_catches(self):
        """The acceptance bar: the pinned fixture is invisible to L005."""
        report = lint_source(PINNED_EQ_NE)
        codes = {d.code for d in report.all_diagnostics()}
        assert "L016" in codes
        assert "L005" not in codes

    def test_related_positions_point_at_both_sites(self):
        (diag,) = findings(PINNED_EQ_NE)
        assert len(diag.related) == 2
        # related notes render in source order: the earlier stage's bind
        # precedes the conflicting guard on the later stage
        pin_site, conflicting = diag.related
        assert "conflicts with the guard" in conflicting.message
        assert pin_site.line < diag.line  # the earlier stage's bind
        assert "pinned here" in pin_site.message


class TestPairsThroughFacts:
    def test_pinned_variable_against_a_literal(self):
        (diag,) = findings("""\
property p "P is 22, never 80"
observe a : arrival
    where tcp.dst == 22
    bind p = tcp.dst
observe b : arrival
    where tcp.dst == $p and tcp.dst == 80
""")
        assert (diag.code, diag.line, diag.column) == ("L016", 6, 29)
        assert diag.message == (
            "stage 'b' can never match: tcp.dst cannot equal both $p and "
            "80 — stage 'a' pins $p to 22")
        assert [(r.line, r.column, r.message) for r in diag.related] == [
            (4, 10, "$p is pinned here: bound from a field stage 'a' "
                    "guards == 22"),
            (6, 11, "conflicts with the guard tcp.dst == $p here"),
        ]

    def test_one_variable_on_both_sides_needs_no_pin(self):
        report = lint_source("""\
property p "A against itself"
key A
observe a : arrival
    where tcp.src == 22
    bind A = tcp.src
observe b : arrival
    where tcp.src == $A and tcp.src > $A
""")
        (diag,) = [d for d in report.all_diagnostics()
                   if d.code in ("L005", "L006", "L016")]
        assert diag.code == "L005"
        assert diag.related == ()
        assert "pins" not in diag.message


class TestAliases:
    def test_aliased_vars_contradict(self):
        (diag,) = findings("""\
property p "X and Y are the same value"
key X
observe first : arrival
    bind X = ipv4.src
observe second : arrival
    where ipv4.src == $X
    bind Y = ipv4.src
observe third : arrival
    where eth.src == $X and eth.src != $Y
""")
        assert diag.code == "L016"
        assert "binds $Y equal to $X" in diag.message

    def test_pin_flows_through_alias(self):
        (diag,) = findings("""\
property p "Y inherits X's pin"
key X
observe first : arrival
    where tcp.dst == 22
    bind X = tcp.dst
observe second : arrival
    where tcp.src == $X
    bind Y = tcp.src
observe third : arrival
    where tcp.dst == $Y and tcp.dst != 22
""")
        assert diag.code == "L016"


    def test_a_pin_reached_twice_is_explained_once(self):
        (diag,) = findings("""\
property p "$Q is $P, and $P is 22"
key P
observe first : arrival
    where tcp.dst == 22
    bind P = tcp.dst
observe second : arrival
    where tcp.src == $P
    bind Q = tcp.src
observe third : arrival
    where tcp.dst == $P and tcp.dst != $Q
""")
        assert diag.code == "L016"
        assert diag.message.endswith(
            "— stage 'first' pins $P to 22; stage 'second' binds $Q equal "
            "to $P")
        assert len(diag.related) == 3


class TestInvalidation:
    def test_rebind_drops_the_pin(self):
        assert findings("""\
property p "P is rebound off an unguarded field"
key K
observe knock : arrival
    where tcp.dst == 7001
    bind K = ipv4.src, P = tcp.dst
observe refresh : arrival
    where ipv4.src == $K
    bind P = tcp.src
observe open : arrival
    where ipv4.src == $K and tcp.dst == $P and tcp.dst != 7001
""") == []

    def test_alias_to_rebound_var_is_materialised(self):
        """Y == old-X survives X's rebind as a pin."""
        (diag,) = findings("""\
property p "Y keeps the old pinned value"
key X
observe first : arrival
    where tcp.dst == 22
    bind X = tcp.dst
observe second : arrival
    where tcp.src == $X
    bind Y = tcp.src
observe third : arrival
    bind X = tcp.src
observe fourth : arrival
    where tcp.dst == $Y and tcp.dst != 22
""")
        assert diag.code == "L016"

    def test_alias_to_unpinned_rebound_var_is_severed(self):
        assert findings("""\
property p "no fact survives: old X was never pinned"
key X
observe first : arrival
    bind X = tcp.dst
observe second : arrival
    where tcp.src == $X
    bind Y = tcp.src
observe third : arrival
    bind X = tcp.src
observe fourth : arrival
    where tcp.dst == $X and tcp.dst != $Y
""") == []


class TestNoFalsePositives:
    def test_consistent_pin_is_silent(self):
        assert findings("""\
property p "the guards agree with the pin"
key K
observe knock : arrival
    where tcp.dst == 7001
    bind K = ipv4.src, P = tcp.dst
observe open : arrival
    where ipv4.src == $K and tcp.dst == $P and tcp.dst != 22
""") == []

    def test_unpinned_var_is_silent(self):
        assert findings("""\
property p "P could be anything"
key K
observe knock : arrival
    bind K = ipv4.src, P = tcp.dst
observe open : arrival
    where ipv4.src == $K and tcp.dst == $P and tcp.dst != 7001
""") == []

    def test_token_identical_pair_is_left_to_l005(self):
        report = lint_source("""\
property p "within-pattern contradiction"
key K
observe knock : arrival
    bind K = ipv4.src
observe open : arrival
    where ipv4.src == $K and tcp.dst == 22 and tcp.dst != 22
""")
        codes = [d.code for d in report.all_diagnostics()]
        assert "L005" in codes
        assert "L016" not in codes

    def test_catalog_is_clean(self):
        from repro.props import CATALOG_NAMES, property_source

        for name in CATALOG_NAMES:
            report = lint_source(property_source(name), path=name)
            hits = [d for d in report.all_diagnostics() if d.code == "L016"]
            assert not hits, f"{name}: unexpected L016 {hits}"


class TestStageEnvironments:
    def test_snapshots_expose_pins_and_aliases(self):
        prop = parse("""\
property p "tooling view"
key X
observe first : arrival
    where tcp.dst == 22
    bind X = tcp.dst
observe second : arrival
    where tcp.src == $X
    bind Y = tcp.src
observe third : arrival
    where tcp.dst == 443
""")[0]
        envs = stage_environments(prop)
        assert len(envs) == 3
        assert envs[0] == {}
        assert isinstance(envs[1]["X"], Pin)
        assert envs[1]["X"].value == 22
        assert isinstance(envs[2]["Y"], Alias)
        assert envs[2]["Y"].other == "X"
