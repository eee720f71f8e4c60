"""Smoke test of the end-to-end benchmark at tiny sizes.

Collected by ``pytest benchmarks`` (not by the tier-1 suite, whose
``testpaths`` is ``tests``).  Sizes are function arguments, so the
command line of ``run.py`` stays the one the driver uses.  Nothing here
asserts a speed.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

TINY = 384
SEED = 3


def tiny(workload):
    return workloads.scaled(workload, TINY)


@pytest.fixture(scope="module")
def spec():
    return run.load_benchmark_json()


def test_benchmark_json_and_harness_name_the_same_things(spec):
    assert spec["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert spec["paths"] == ["benchmarks/e2e"]
    # The driver gates on every workload but the open-loop one, whose CPU
    # per event is too unsteady on a shared box (README, "Workloads").
    assert [w["name"] for w in spec["workloads"]] == [
        w.name for w in workloads.WORKLOADS if not w.rate]
    assert set(run.REPORTED) == {m["name"] for m in spec["end_to_end"]}
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS, ids=lambda w: w.name)
def test_end_to_end_emits_every_metric_and_checks_pass(workload, spec):
    outcome = run.measure_end_to_end(
        tiny(workload), SEED, seconds=0.0, min_runs=1, expected=None)
    assert outcome["correct"], outcome["checks"]
    assert outcome["failed"] == 0 and outcome["attempted"] == TINY
    line = json.loads(run.contract_line(outcome))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in line["metrics"].values())


def test_traced_run_emits_every_layer_and_writes_nested_spans(spec):
    workload = tiny(workloads.BY_NAME["serve_catalog_jsonl"])
    outcome = run.measure_layers(
        workload, SEED, probe_seconds=0.2, expected=None)
    assert outcome["correct"], outcome["checks"]
    assert outcome["degraded"] == {}
    line = json.loads(run.contract_line(outcome))
    assert set(line["metrics"]) == {m["name"] for m in spec["per_layer"]}

    with open(run.ROOT / outcome["trace_file"], encoding="utf-8") as fp:
        spans = json.load(fp)["spans"]
    by_id = {span["id"]: span for span in spans}
    roots = [span for span in spans if span["parent"] is None]
    assert [span["name"] for span in roots] == ["pipeline"]
    for span in spans:
        assert span["start_ns"] <= span["end_ns"]
        assert span["run"] == spans[0]["run"]
        if span["parent"] is not None:
            parent = by_id[span["parent"]]
            assert parent["start_ns"] <= span["start_ns"]
            assert span["end_ns"] <= parent["end_ns"]
    own = layers.self_times(spans)
    assert all(ns >= 0 for ns in own.values())
    assert sum(own.values()) == roots[0]["end_ns"] - roots[0]["start_ns"]
    assert layers.coverage(spans) >= layers.COVERAGE_FLOOR


def test_a_wrong_expected_count_fails_the_run():
    workload = tiny(workloads.BY_NAME["replay_catalog"])
    inputs = workloads.generate(workload, SEED)
    truth = run.reference_run(inputs)["violations"]
    assert truth, "the tiny trace must violate something to be a check"
    prop = next(iter(truth))
    pinned = {"seed": SEED, "workloads": {workload.name: {
        "events": TINY, "digest": inputs.digest,
        "violations": dict(truth, **{prop: truth[prop] + 1})}}}
    outcome = run.measure_end_to_end(
        workload, SEED, seconds=0.0, min_runs=1, expected=pinned)
    assert not outcome["correct"]
    assert [c["check"] for c in outcome["checks"] if not c["ok"]] == [
        "reference.pinned_violations"]
    pinned["workloads"][workload.name]["violations"] = truth
    assert run.measure_end_to_end(
        workload, SEED, seconds=0.0, min_runs=1, expected=pinned)["correct"]


def test_default_seed_inputs_are_the_pinned_ones():
    expected = run.load_expected()
    for workload in workloads.WORKLOADS:
        pinned = expected["workloads"][workload.name]
        assert pinned["events"] == workload.events
        inputs = workloads.generate(workload, expected["seed"])
        assert inputs.digest == pinned["digest"]


def test_a_removed_probe_target_degrades_instead_of_failing(monkeypatch):
    inputs = workloads.generate(tiny(workloads.BY_NAME["replay_catalog"]), SEED)
    truth = run.reference_run(inputs)["violations"]
    import repro.fabric
    from repro.core import monitor as monitor_module
    monkeypatch.setattr(monitor_module, "MATCH_STRATEGIES",
                        ("compiled", "interpreted"))
    monkeypatch.delattr(repro.fabric, "Router")
    result = layers.run(run.layers_job(inputs))
    for gone in ("core.monitor.codegen", "core.codegen.build_ms",
                 "fabric.routing.split", "fabric.routing.build_ms"):
        assert result["metrics"][gone] is None
        assert gone in result["degraded"]
    assert result["metrics"]["core.monitor.compiled"] > 0
    assert result["metrics"]["serve.ingest.queue"] > 0
    assert result["checks"]["staged"] == truth
