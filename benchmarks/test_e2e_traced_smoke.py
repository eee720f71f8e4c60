"""Traced-run smoke test of ``benchmarks/e2e`` with its retired probes.

``e2e/test_e2e_smoke.py::test_traced_run_emits_every_layer_and_writes_nested_spans``
asserts that no probe degrades, and ``benchmarks/e2e`` is frozen to
non-benchmark PRs.  PR 17 deleted the targets of three probes (the
``"codegen"`` strategy spelling and ``CodegenProgram.columnar``), and
the in-process fabric mode that ``fabric.fabric.inprocess2`` timed is
gone too, so CI deselects that test and runs this twin instead: the same
call, the same assertions, with the degraded set pinned to exactly those
four.  Both go when a benchmark PR drops the probes.
"""

import json
import sys
from pathlib import Path

E2E = Path(__file__).resolve().parent / "e2e"
sys.path.insert(0, str(E2E))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

TINY = 384
SEED = 3

RETIRED_PROBES = {"core.codegen.extract", "core.monitor.codegen",
                  "core.codegen.build_ms",
                  # ShardedMonitor(mode="inprocess") now raises ValueError
                  "fabric.fabric.inprocess2"}


def test_traced_run_degrades_only_the_retired_probes():
    spec = run.load_benchmark_json()
    workload = workloads.scaled(
        workloads.BY_NAME["serve_catalog_jsonl"], TINY)
    outcome = run.measure_layers(
        workload, SEED, probe_seconds=0.2, expected=None)
    assert outcome["correct"], outcome["checks"]
    assert set(outcome["degraded"]) == RETIRED_PROBES
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
