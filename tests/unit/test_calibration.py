"""The compiler-calibrated cost model (repro.lint.calibration).

Three invariants keep the estimate-vs-measured loop closed:

* the analytic estimator (`estimate_cost`, rules model) agrees with the
  plan the Varanus compiler actually emits (`plan_property`) on
  tables/rules/flow-mods per instance, for every corpus property;
* the checked-in CALIBRATION table agrees with live measurements (the
  regen script's --check, exercised here directly);
* a compiled corpus property really *behaves* like its plan says — the
  switch's meter observes the planned flow-mod count on a violating run.
"""

import pytest

from repro.backends.varanus_compiler import (
    check_compilable,
    compile_property,
    plan_property,
)
from repro.lint.calibration import (
    CALIBRATION,
    CALIBRATION_CODEGEN,
    MeasuredCodegenCost,
    MeasuredCost,
    calibration_corpus,
    codegen_corpus,
    measured_codegen_cost,
    measured_cost,
    regenerate,
    regenerate_codegen,
)
from repro.lint.splitmode import estimate_codegen_cost, estimate_cost

CORPUS = {prop.name: prop for prop in calibration_corpus()}
CODEGEN_CORPUS = {prop.name: prop for prop in codegen_corpus()}


def test_corpus_is_rule_compilable():
    for prop in CORPUS.values():
        check_compilable(prop)  # raises VaranusCompileError on regression


def test_corpus_covers_every_plan_shape():
    from repro.core.spec import Absent

    shapes = {
        "two_stage": any(p.num_stages == 2 for p in CORPUS.values()),
        "three_stage": any(p.num_stages >= 3 for p in CORPUS.values()),
        "cancel": any(
            any(getattr(s, "unless", ()) for s in p.stages)
            for p in CORPUS.values()),
        "final_absent": any(
            isinstance(p.stages[-1], Absent) for p in CORPUS.values()),
        "deadline": any(
            any(getattr(s, "within", None) for s in p.stages
                if not isinstance(s, Absent))
            for p in CORPUS.values()),
    }
    missing = [name for name, present in shapes.items() if not present]
    assert not missing, f"corpus lost plan shapes: {missing}"


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_estimate_matches_emitted_plan(name):
    est = estimate_cost(CORPUS[name])
    plan = plan_property(CORPUS[name])
    assert est.model == "rules"
    assert est.instance_tables == plan.instance_tables
    assert est.rules_per_instance == plan.rules_per_instance
    assert est.slow_updates_per_instance == plan.flow_mods_per_instance


def test_checked_in_table_matches_live_measurements():
    assert regenerate() == CALIBRATION, (
        "CALIBRATION drifted from the compiler: rerun "
        "PYTHONPATH=src python -m tests.regen_calibration")


def test_estimator_consults_the_table():
    est = estimate_cost(CORPUS["cal-chain-3"])
    assert est.source == "calibrated"
    assert est.measured == MeasuredCost(*CALIBRATION["cal-chain-3"])


def test_uncalibrated_property_has_no_measurement():
    assert measured_cost("not-in-the-table") is None
    prop = CORPUS["cal-chain-2"]
    renamed = type(prop)(
        name="uncalibrated-echo", description=prop.description,
        stages=prop.stages, key_vars=prop.key_vars)
    est = estimate_cost(renamed)
    assert est.measured is None
    assert est.source == "model"


class TestCodegenCalibration:
    """The codegen side of the estimate-vs-measured loop."""

    def test_corpus_spans_rule_shapes_and_the_catalog(self):
        # Every compiler-calibration shape recurs, plus the full Table-1
        # catalog — codegen hosts everything, so nothing waits on
        # rule-compilability.
        assert set(CORPUS) <= set(CODEGEN_CORPUS)
        assert sum(1 for n in CODEGEN_CORPUS if not n.startswith("cal-")) >= 13

    @pytest.mark.parametrize("name", sorted(CODEGEN_CORPUS))
    def test_estimate_matches_emitted_program(self, name):
        """The analytic dispatch-plan walk predicts exactly what the
        emitter generated: event classes and inline boolean terms."""
        from repro.core import Monitor

        est = estimate_codegen_cost(CODEGEN_CORPUS[name])
        monitor = Monitor()
        monitor.add_property(CODEGEN_CORPUS[name])
        emission = monitor.codegen_emissions()[name]
        assert est.event_classes == emission.event_classes
        assert est.inline_terms == emission.inline_terms
        assert emission.matcher_lines > 0  # measured-only, sanity floor

    def test_checked_in_table_matches_live_emissions(self):
        assert regenerate_codegen() == CALIBRATION_CODEGEN, (
            "CALIBRATION_CODEGEN drifted from the emitter: rerun "
            "PYTHONPATH=src python -m tests.regen_calibration")

    def test_estimator_consults_the_table(self):
        est = estimate_codegen_cost(CODEGEN_CORPUS["knocking-invalidated"])
        assert est.source == "calibrated"
        assert est.measured == MeasuredCodegenCost(
            *CALIBRATION_CODEGEN["knocking-invalidated"])

    def test_cost_estimate_carries_codegen_for_engine_props(self):
        # Catalog rows are engine-model for the rule compiler, but the
        # codegen block still prices them.
        est = estimate_cost(CODEGEN_CORPUS["knocking-invalidated"])
        assert est.model == "engine"
        assert est.codegen is not None
        assert est.codegen.source == "calibrated"

    def test_uncalibrated_property_has_no_measurement(self):
        assert measured_codegen_cost("not-in-the-table") is None


def test_planned_flow_mods_match_metered_run():
    """Drive one instance of the 3-stage chain through its full violating
    lifecycle on a real switch; the meter's slow-update count must equal
    the plan's flow-mods-per-instance."""
    from repro.netsim import EventScheduler
    from repro.packet import tcp_syn
    from repro.switch.pipeline import MissPolicy
    from repro.switch.switch import Switch

    prop = CORPUS["cal-chain-3"]
    plan = plan_property(prop)
    switch = Switch("cal", EventScheduler(), num_ports=2, num_tables=1,
                    miss_policy=MissPolicy.FLOOD)
    compile_property(switch, prop)
    baseline = switch.meter.slow_updates
    for port in (7001, 7002, 22):
        switch.receive(
            tcp_syn(1, 2, "10.0.0.1", "10.0.0.9", 30000, port), 1)
    assert switch.meter.slow_updates - baseline == \
        plan.flow_mods_per_instance
    assert plan.instance_tables == 1
