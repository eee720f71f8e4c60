"""Integration: the linter against the full catalog and the live engine.

Three consistency bars from the issue:

* the feasibility pass must agree with ``repro survey`` — i.e. with
  ``Backend.check`` — for every catalog property x backend pair;
* the split-mode verdicts must be consistent with the
  ``bench_split_vs_inline`` experiment: its echo property (inline-required
  statically) really does miss violations under split processing with a
  fast response, and a split-safe catalog property really does not;
* the shipped example files lint clean (exit 0) through the CLI.
"""

import glob
import os

import pytest

import repro.props
from repro.backends import UnsupportedFeature, all_backends
from repro.cli import main
from repro.core import (
    Bind,
    EventKind,
    EventPattern,
    FieldEq,
    Monitor,
    Observe,
    PropertySpec,
    Var,
)
from repro.lint import (
    DEFAULT_SPLIT_LAG,
    INLINE_REQUIRED,
    SPLIT_SAFE,
    analyze_split,
    survey_property,
)
from repro.packet import ethernet
from repro.props import build_table1
from repro.switch.events import PacketArrival
from repro.switch.switch import ProcessingMode

EXAMPLES = sorted(glob.glob(os.path.join(
    os.path.dirname(repro.props.__file__), "sources", "*.prop")))


def echo_property():
    """The bench_split_vs_inline experiment's property, verbatim shape."""
    return PropertySpec(
        name="echo", description="response to a request",
        stages=(
            Observe("request", EventPattern(
                kind=EventKind.ARRIVAL, binds=(Bind("S", "eth.src"),))),
            Observe("response", EventPattern(
                kind=EventKind.ARRIVAL,
                guards=(FieldEq("eth.dst", Var("S")),))),
        ),
        key_vars=("S",),
    )


class TestFeasibilityAgreesWithSurvey:
    """survey_property() and Backend.check() can never disagree."""

    @pytest.mark.parametrize(
        "entry", build_table1(), ids=lambda e: e.prop.name)
    def test_catalog_property_against_every_backend(self, entry):
        verdicts = {v.backend: v for v in survey_property(entry.prop)}
        for backend in all_backends():
            try:
                backend.check(entry.prop)
                hosted = True
                feature = None
            except UnsupportedFeature as exc:
                hosted = False
                feature = exc.feature
            verdict = verdicts[backend.caps.name]
            assert verdict.hosted == hosted, (
                f"{entry.prop.name} x {backend.caps.name}")
            if not hosted:
                # check() raises the first blocker; the linter lists it first
                assert verdict.blockers[0].feature == feature

    def test_survey_covers_all_seven_backends(self):
        verdicts = survey_property(build_table1()[0].prop)
        assert len(verdicts) == 7


class TestSplitVerdictsMatchTheBench:
    def test_echo_property_is_inline_required(self):
        report = analyze_split(echo_property())
        assert report.classification == INLINE_REQUIRED
        assert any(h.code == "L200" for h in report.hazards)

    def test_echo_misses_violations_under_split_as_predicted(self):
        """The static verdict, validated against the live engine: a fast
        response (gap < lag) is missed in split mode, caught inline."""
        def drive(mode, gap):
            monitor = Monitor(mode=mode, split_lag=DEFAULT_SPLIT_LAG)
            monitor.add_property(echo_property())
            monitor.observe(PacketArrival(
                switch_id="s", time=0.0,
                packet=ethernet(1, 0xFFFF), in_port=1))
            monitor.observe(PacketArrival(
                switch_id="s", time=gap,
                packet=ethernet(0xEEEE, 1), in_port=2))
            monitor.advance_to(10.0)
            return len(monitor.violations)

        fast_gap = DEFAULT_SPLIT_LAG / 5
        assert drive(ProcessingMode.SPLIT, fast_gap) == 0  # missed
        assert drive(ProcessingMode.INLINE, fast_gap) == 1  # caught

    def test_at_least_one_catalog_property_is_inline_required(self):
        verdicts = {e.prop.name: analyze_split(e.prop).classification
                    for e in build_table1()}
        inline = [n for n, c in verdicts.items() if c == INLINE_REQUIRED]
        assert inline, verdicts

    def test_long_deadline_absent_property_is_split_safe(self):
        """A property whose violation path is a timer with seconds of slack
        tolerates a sub-millisecond update lag."""
        entries = {e.prop.name: e.prop for e in build_table1()}
        prop = entries["dhcp-reply-within"]
        report = analyze_split(prop)
        assert report.classification == SPLIT_SAFE
        # ... but shrink the lag budget past its deadline and it flips
        deadline = max(getattr(s, "within", 0) or 0 for s in prop.stages)
        assert analyze_split(
            prop, lag=deadline * 2).classification == INLINE_REQUIRED

    def test_split_safe_property_catches_violation_under_split(self):
        """The split-safe verdict's stated basis: every hazard on
        dhcp-reply-within carries more guaranteed slack than the lag."""
        entries = {e.prop.name: e.prop for e in build_table1()}
        prop = entries["dhcp-reply-within"]
        report = analyze_split(prop)
        assert report.classification == SPLIT_SAFE
        assert all(h.guaranteed_slack > DEFAULT_SPLIT_LAG
                   for h in report.hazards)


class TestShippedExamplesLintClean:
    def test_cli_lint_examples_exits_zero(self, capsys):
        assert len(EXAMPLES) == len(repro.props.CATALOG_NAMES) == 22
        assert main(["lint"] + EXAMPLES) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_intentional_suppressions_are_counted(self, capsys):
        assert main(["lint"] + EXAMPLES) == 0
        out = capsys.readouterr().out
        # 3 infeasible-everywhere rows + 1 provenance bind = 4 suppressions
        assert "4 suppressed" in out

    def test_catalog_split_costs_are_priced(self):
        for entry in build_table1():
            cost = analyze_split(entry.prop).cost
            assert cost.pipeline_tables >= entry.prop.num_stages
            assert cost.state_bits_per_instance >= 0
            assert cost.model in ("rules", "engine")


class TestSplitLagProfiles:
    def test_table2_profile_covers_every_backend(self):
        from repro.backends import (
            FAST_PATH_SPLIT_LAG,
            all_backends,
            split_lag_profile,
        )

        profile = split_lag_profile()
        names = {b.caps.name for b in all_backends()}
        assert set(profile) == names
        # Fast-path update backends get the fast lag, slow-path the default.
        assert profile["OpenState"] == FAST_PATH_SPLIT_LAG
        assert profile["Varanus"] == DEFAULT_SPLIT_LAG

    def test_resolve_prefers_focus_then_worst_case(self):
        from repro.lint import resolve_split_lag

        profile = {"A": 1e-6, "B": 1e-3}
        assert resolve_split_lag(profile, "A") == 1e-6
        assert resolve_split_lag(profile, "C") == 1e-3  # worst case
        assert resolve_split_lag(profile, None) == 1e-3
        assert resolve_split_lag(2e-4) == 2e-4
        assert resolve_split_lag({}) == DEFAULT_SPLIT_LAG

    def test_parse_split_lag_forms(self):
        import pytest

        from repro.lint import parse_split_lag

        assert parse_split_lag("0.001") == 0.001
        assert parse_split_lag("table2") == parse_split_lag("auto")
        profile = parse_split_lag("varanus=0.01,openstate=1e-6")
        assert profile == {"Varanus": 0.01, "OpenState": 1e-6}
        with pytest.raises(ValueError):
            parse_split_lag("-1")
        with pytest.raises(ValueError):
            parse_split_lag("bogus")
        with pytest.raises(ValueError):
            parse_split_lag("varanus=-0.5")

    def test_cli_lint_accepts_lag_profiles(self, capsys):
        assert main(["lint", "--split-lag", "table2", "--quiet"]
                    + EXAMPLES[:1]) == 0
        capsys.readouterr()
        assert main(["lint", "--split-lag", "nope", "--quiet"]
                    + EXAMPLES[:1]) == 2
        assert "bad --split-lag" in capsys.readouterr().err
