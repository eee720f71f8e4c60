"""Regenerate the telemetry exposition golden fixtures.

Run from the repo root after a *deliberate* renderer change:

    PYTHONPATH=src python -m tests.regen_telemetry_goldens

The scenario below is pure construction — fixed counter values, fixed
histogram observations, a fixed virtual clock — so the rendered output is
byte-stable across runs and machines.  It registers one representative
metric per instrumented subsystem (monitor, switch, pipeline, instance
store, postcards) so the goldens pin the full family vocabulary, not just
the renderer mechanics.

``--check`` regenerates into a temp directory and diffs against the
checked-in fixtures instead of overwriting them (exit 1 on drift) — CI
runs this so the goldens cannot go stale silently.
"""

import argparse
import difflib
import os
import sys
import tempfile

from repro.telemetry import (
    COUNT_BUCKETS,
    LATENCY_BUCKETS,
    MetricsRegistry,
    render_json,
    render_prometheus,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "fixtures", "telemetry",
                      "golden")

SNAPSHOT_TIME = 12.5


def build_scenario_registry():
    """A registry populated with fixed values from every metric family."""
    registry = MetricsRegistry(time_fn=lambda: SNAPSHOT_TIME)

    # Monitor family: plain counters, labeled counters, a watermark gauge.
    registry.counter("repro_monitor_events_total",
                     "Events observed by the monitor").inc(86)
    registry.counter("repro_monitor_violations_total",
                     "Violations raised").inc(12)
    advances = registry.counter(
        "repro_monitor_stage_advances_total",
        "Stage advances by property and stage",
        labels={"property": "learned_unicast", "stage": "learn"})
    advances.inc(40)
    registry.counter(
        "repro_monitor_stage_advances_total",
        "Stage advances by property and stage",
        labels={"property": "learned_unicast", "stage": "bad_egress"}).inc(12)
    live = registry.gauge("repro_monitor_live_instances",
                          "Live instances across all properties")
    live.set(9)
    live.set(4)  # the peak (9) must survive the drop

    # Instance-store family: a labeled gauge.
    registry.gauge("repro_instance_store_live_instances",
                   "Live instances per property",
                   labels={"property": "learned_unicast"}).set(4)

    # Switch family: a latency histogram with known observations.
    latency = registry.histogram("repro_switch_forward_latency_seconds",
                                 "Per-packet forwarding latency",
                                 buckets=LATENCY_BUCKETS)
    for value in (2e-6, 5e-6, 3e-4, 3e-4, 0.25):
        latency.observe(value)
    registry.counter("repro_switch_arrivals_total",
                     "Packets received").inc(40)

    # Pipeline family: per-table hit/miss counters.
    registry.counter("repro_pipeline_table_hits_total",
                     "Table lookup hits", labels={"table": "0"}).inc(35)
    registry.counter("repro_pipeline_table_misses_total",
                     "Table lookup misses", labels={"table": "0"}).inc(5)

    # Postcard family.
    registry.counter("repro_postcards_bytes_total",
                     "Postcard bytes shipped to the collector").inc(3520)

    # Fabric family: the router counter, per-shard labeled series, and
    # the imbalance gauge (86 events split 48/38 across two shards).
    registry.counter("repro_fabric_router_events_total",
                     "Events offered to the fabric router").inc(86)
    for shard, count in (("0", 48), ("1", 38)):
        registry.counter("repro_fabric_shard_events_total",
                         "Events forwarded to one shard",
                         labels={"shard": shard}).inc(count)
        registry.histogram("repro_fabric_shard_batch_events",
                           "Sub-batch sizes forwarded to one shard per split",
                           labels={"shard": shard},
                           buckets=COUNT_BUCKETS).observe(count)
        registry.gauge(
            "repro_fabric_shard_queue_depth",
            "Events forwarded to one shard and not yet confirmed "
            "by a snapshot sync",
            labels={"shard": shard}).set(0)
    registry.gauge(
        "repro_fabric_router_imbalance",
        "Max over mean of cumulative per-shard event counts "
        "(1.0 = perfectly balanced, 0 = no events yet)").set(48 / 43)

    # Supervision family: shard 0 crashed once and recovered (journal of
    # 17 events replayed in 80ms); shard 1 never went down.
    for shard, restarts, depth, up in (("0", 1, 17, 1), ("1", 0, 0, 1)):
        registry.counter(
            "repro_fabric_shard_restarts_total",
            "Worker restarts performed by the fabric supervisor",
            labels={"shard": shard}).inc(restarts)
        registry.gauge(
            "repro_fabric_journal_depth",
            "Events in one shard's recovery journal (replayable "
            "since the last checkpoint)",
            labels={"shard": shard}).set(depth)
        registry.gauge(
            "repro_fabric_shard_up",
            "1 when the shard worker is live, 0 while it is "
            "down/recovering or permanently failed",
            labels={"shard": shard}).set(up)
    registry.histogram(
        "repro_fabric_recovery_seconds",
        "Wall seconds from restart attempt to a rehydrated, "
        "replayed, and re-advanced replacement worker",
        unit="seconds", buckets=LATENCY_BUCKETS).observe(0.08)
    registry.counter(
        "repro_fabric_quarantined_batches_total",
        "Poison batches set aside (ledgered, never retried) "
        "after repeatedly killing a shard worker").inc(0)

    return registry


def generate(out_dir):
    """Write both renderings into ``out_dir``; return the file names."""
    registry = build_scenario_registry()
    snapshot = registry.snapshot()
    with open(os.path.join(out_dir, "snapshot.prom"), "w",
              encoding="utf-8") as fp:
        fp.write(render_prometheus(snapshot))
    with open(os.path.join(out_dir, "snapshot.json"), "w",
              encoding="utf-8") as fp:
        fp.write(render_json(snapshot))
        fp.write("\n")
    return ["snapshot.prom", "snapshot.json"]


def check():
    drifted = False
    with tempfile.TemporaryDirectory() as tmp:
        for name in generate(tmp):
            with open(os.path.join(GOLDEN, name), encoding="utf-8") as fp:
                want = fp.readlines()
            with open(os.path.join(tmp, name), encoding="utf-8") as fp:
                got = fp.readlines()
            if want != got:
                drifted = True
                sys.stdout.writelines(difflib.unified_diff(
                    want, got, fromfile=f"golden/{name}",
                    tofile=f"regenerated/{name}"))
    if drifted:
        print("telemetry goldens drifted: rerun "
              "PYTHONPATH=src python -m tests.regen_telemetry_goldens")
        return 1
    print("telemetry goldens up to date")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check", action="store_true",
        help="diff regenerated goldens against fixtures instead of writing")
    args = parser.parse_args()
    if args.check:
        raise SystemExit(check())
    os.makedirs(GOLDEN, exist_ok=True)
    for name in generate(GOLDEN):
        print(f"wrote {os.path.join(GOLDEN, name)}")


if __name__ == "__main__":
    main()
