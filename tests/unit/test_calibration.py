"""The cost model, held live to what the compilers emit.

Three invariants keep the estimate-vs-emitted loop closed:

* the analytic estimator (`estimate_cost`, rules model) agrees with the
  plan the Varanus compiler actually emits (`plan_property`) on
  tables/rules/flow-mods per instance, for every corpus property;
* the codegen estimate (`estimate_codegen_cost`) agrees with the text of
  the program the emitter writes on how many event classes a property
  occupies;
* a compiled corpus property really *behaves* like its plan says — the
  switch's meter observes the planned flow-mod count on a violating run.
"""

import pytest

from repro.backends.varanus_compiler import (
    check_compilable,
    compile_property,
    plan_property,
)
from repro.lint.calibration import calibration_corpus
from repro.lint.splitmode import estimate_codegen_cost, estimate_cost
from repro.props import build_table1

CORPUS = {prop.name: prop for prop in calibration_corpus()}
#: What codegen hosts: every corpus shape plus the whole Table-1 catalog
#: (codegen has no compilability gate).
CODEGEN_CORPUS = {
    **CORPUS, **{entry.prop.name: entry.prop for entry in build_table1()}}


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


class TestCodegenCalibration:
    """The codegen side of the estimate-vs-emitted loop."""

    def test_corpus_spans_rule_shapes_and_the_catalog(self):
        assert set(CORPUS) <= set(CODEGEN_CORPUS)
        assert sum(1 for n in CODEGEN_CORPUS if not n.startswith("cal-")) >= 13

    @pytest.mark.parametrize("name", sorted(CODEGEN_CORPUS))
    def test_estimate_matches_emitted_program(self, name):
        """The dispatch-plan walk predicts how many evaluators carry a
        section for the property — read off the generated text."""
        from repro.core import Monitor

        monitor = Monitor()
        monitor.add_property(CODEGEN_CORPUS[name])
        headers = monitor.codegen_source().count(
            f"# --- property {name!r} ---")
        est = estimate_codegen_cost(CODEGEN_CORPUS[name])
        assert est.event_classes == headers > 0
        assert est.inline_terms > 0

    def test_cost_estimate_carries_codegen_for_engine_props(self):
        # Catalog rows are engine-model for the rule compiler, but the
        # codegen block still prices them.
        est = estimate_cost(CODEGEN_CORPUS["knocking-invalidated"])
        assert est.model == "engine"
        assert est.codegen == estimate_codegen_cost(
            CODEGEN_CORPUS["knocking-invalidated"])


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
