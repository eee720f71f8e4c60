"""One SIGKILL at large state, recovered exactly under the default policy.

Runs ``--flows`` TCP flows (default 49 152) of four events each, the
benchmark's flows shape (``benchmarks/e2e/workloads.py``: six keyed
properties whose instances park, so live state grows with the flows, to
about 267 000 instances at the default), through a 2-shard forked
:class:`~repro.fabric.ShardedMonitor` in 1 024-event batches under the
default :class:`~repro.fabric.SupervisorPolicy`, and SIGKILLs shard 0's
worker at the midpoint.  Its replacement restores an 11 MB checkpoint
(shard 0's state at its last cut), 2.2-2.6 s of recovery on a 2-vCPU
box with the worker's collector paused through the restore (4.5-5.1 s
with it running) against the 5 s ``heartbeat_timeout``: a wait that
counted size instead of silence would take it for dead on any slower
machine.  The run prints that recovery time
(``repro_fabric_recovery_seconds``) and must end with exactly one
restart, an empty ledger, and the violations of a plain
:class:`Monitor` fed the same events.  It takes about 25 s there, too
long for tier-1 (the name keeps pytest from collecting it); CI's
``crash-smoke`` job runs it::

    PYTHONPATH=src python -m tests.large_state_crash
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import time
from pathlib import Path

from repro.core.monitor import Monitor
from repro.fabric import ShardedMonitor
from repro.faults.rounds import fingerprint
from repro.telemetry import MetricsRegistry

sys.path.insert(0, str(Path(__file__).resolve().parents[1]
                       / "benchmarks" / "e2e"))
import workloads  # noqa: E402  (the benchmark's generators)

BATCH = 1024
#: batches between two memory samples
SAMPLE_EVERY = 4


def recovery_seconds(registry):
    """Each restart's ``repro_fabric_recovery_seconds``, summed."""
    for metric in registry.snapshot()["metrics"]:
        if metric["name"] == "repro_fabric_recovery_seconds":
            return sum(sample["sum"] for sample in metric["samples"])
    return 0.0


def memory_kb(pid):
    """``(Rss, Pss)`` of a live process in kB, from its smaps_rollup."""
    fields = {}
    with open(f"/proc/{pid}/smaps_rollup", encoding="ascii") as rollup:
        for line in rollup:
            name, _, rest = line.partition(":")
            if name in ("Rss", "Pss"):
                fields[name] = int(rest.split()[0])
    return fields["Rss"], fields["Pss"]


class PeakMemory:
    """Peak PSS of each shard's worker plus standby, and of the parent,
    sampled between batches; and the highest ratio of a shard's PSS to
    its standby's RSS, which is the worker's RSS at the cut."""

    def __init__(self):
        self.shards = {}
        self.parent = 0
        self.ratio = 0.0

    def sample(self, supervisor):
        self.parent = max(self.parent, memory_kb(os.getpid())[1])
        pairs = zip(supervisor.worker_pids(), supervisor.standby_pids())
        for shard, (worker, standby) in enumerate(pairs):
            try:
                pss = memory_kb(worker)[1] if worker else 0
                if standby:
                    at_cut, standby_pss = memory_kb(standby)
                    pss += standby_pss
                    self.ratio = max(self.ratio, pss / at_cut)
            except OSError:
                continue  # died since the supervisor looked
            self.shards[shard] = max(self.shards.get(shard, 0), pss)

    def render(self):
        shards = ", ".join(f"shard {shard} {kb / 1024:.0f} MB"
                           for shard, kb in sorted(self.shards.items()))
        return (f"peak PSS, worker + standby: {shards}; parent "
                f"{self.parent / 1024:.0f} MB; worker + standby at most "
                f"{self.ratio:.2f}x the worker's RSS at the cut")


def run_fabric(events, props):
    """(sorted violation fingerprints, restarts, failed shards, ledger
    by kind, recovery seconds, peak memory) of the fabric run with its
    one SIGKILL."""
    registry = MetricsRegistry()
    fabric = ShardedMonitor(props, num_shards=2, mode="mp",
                            registry=registry)
    sup = fabric.supervisor
    memory = PeakMemory()
    try:
        middle = len(events) // 2 // BATCH * BATCH
        for start in range(0, len(events), BATCH):
            if start == middle:
                os.kill(sup.worker_pids()[0], signal.SIGKILL)
            fabric.observe_batch(events[start:start + BATCH])
            if start // BATCH % SAMPLE_EVERY == 0:
                memory.sample(sup)
        fabric.sync()
        memory.sample(sup)
        fabric.stop()
        return (sorted(fingerprint(fabric.violations)), sup.total_restarts(),
                sup.failed(), fabric.ledger.by_kind(),
                recovery_seconds(registry), memory)
    finally:
        fabric.close()


def run_plain(events, props):
    monitor = Monitor()
    for prop in props:
        monitor.add_property(prop)
    for start in range(0, len(events), BATCH):
        monitor.observe_batch(events[start:start + BATCH])
    return sorted(fingerprint(monitor.violations))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--flows", type=int, default=49_152)
    args = parser.parse_args(argv)
    flows = args.flows
    events = workloads.materialise_flows(
        workloads.flow_decisions(1, 4 * flows, flows), flows)
    props = workloads.flow_properties()
    t0 = time.perf_counter()
    violations, restarts, failed, ledger, recovery, memory = run_fabric(
        events, props)
    wall = time.perf_counter() - t0
    print(f"fabric: {len(events)} events, {wall:.1f} s, {restarts} "
          f"restart(s) recovered in {recovery:.2f} s, failed shards "
          f"{failed}, ledger {ledger}, {len(violations)} violations")
    print(memory.render())
    # The reference runs after the workers are gone, so no worker forks
    # from a parent holding its state.
    reference = run_plain(events, props)
    print(f"plain Monitor: {len(reference)} violations")
    problems = [problem for problem, bad in (
        (f"{restarts} restarts, not 1", restarts != 1),
        (f"failed shards {failed}", bool(failed)),
        (f"ledger {ledger}", bool(ledger)),
        ("violations differ from a plain Monitor's",
         violations != reference),
    ) if bad]
    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
