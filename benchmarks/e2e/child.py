"""One measured run of one workload, in a fresh process.

``run.py`` starts this file as ``python child.py <spawn-wall-time>`` and
writes a pickled job to its stdin; the result goes back as one JSON line
on stdout.  A fresh interpreter per run gives each measurement a clean
heap, its own peak RSS and CPU clock, and a set-up time that counts
interpreter start and ``import repro`` the way a user pays for them.

The three end-to-end runners build their system through the default
entry points only — ``Monitor()`` + the property set, ``ServeDaemon(
ServeConfig(...))`` under ``serve_in_thread``, ``ShardedMonitor(props,
num_shards=2, mode="mp")`` — so they follow whatever a later change
makes the production default.  Options a job may carry beyond that
(``trace_buffer``, a monitor for a non-catalog property set) are used by
the traced run's probes only.
"""

from __future__ import annotations

import bisect
import json
import pickle
import resource
import socket
import sys
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(_ROOT / "src"))

from workloads import (  # noqa: E402  (imports repro: part of set-up time)
    build_monitor, by_property, counters_of, properties_for)

POLL_S = 0.010
ACCOUNT_TIMEOUT_S = 90.0


def cpu_seconds() -> float:
    """User + system CPU of this process and of children already reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """This process's own high-water RSS.

    Not ``ru_maxrss``: that survives ``exec``, so a child started by a
    parent holding 70 MB of inputs reports 70 MB whatever it does itself.
    ``VmHWM`` belongs to the address space and starts afresh.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fp:
            for line in fp:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- direct: Monitor.observe_batch ---------------------------------------------
def run_direct(job: dict, ready) -> dict:
    monitor = build_monitor(properties_for(job["properties"]))
    ready()
    events = job["events"]
    cpu0, t0 = cpu_seconds(), time.perf_counter()
    monitor.observe_batch(events)
    wall = time.perf_counter() - t0
    cpu = cpu_seconds() - cpu0
    return {
        "wall_s": wall, "cpu_s": cpu, "sent": len(events),
        "accounted": int(monitor.stats.events), "lost": 0,
        "violations": by_property(monitor.violations),
        "counters": counters_of(monitor.stats),
    }


# -- serve: bytes over TCP into the daemon ----------------------------------------
def run_serve(job: dict, ready) -> dict:
    from repro.serve import ServeConfig, ServeDaemon, serve_in_thread

    chunks = job["chunks"]
    sent = job["sent"]
    rate = job["rate"]
    chunk_events = job["chunk_events"]
    config = {}
    if rate == 0:
        config["max_queue"] = max(1, sent)      # a flood must not shed
    if job.get("trace_buffer") is not None:
        config["trace_buffer"] = job["trace_buffer"]
    monitor = None
    if job["properties"] != "catalog":
        # The daemon builds the catalog itself; any other property set
        # gets the monitor the daemon would have built for it — registry
        # on, which is what forces serve onto the per-event path.
        from repro.telemetry import MetricsRegistry
        monitor = build_monitor(properties_for(job["properties"]),
                                registry=MetricsRegistry())
    daemon = ServeDaemon(ServeConfig(**config), monitor=monitor)
    stamps = []
    daemon.monitor.on_violation(
        lambda v: stamps.append((time.perf_counter(), v.time)))
    handle = serve_in_thread(daemon)
    sock = socket.create_connection(("127.0.0.1", daemon.ingest_ports[0]))
    ready()

    stats, queue = daemon.monitor.stats, daemon.queue
    late = []
    try:
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        if rate > 0:
            for k, chunk in enumerate(chunks):
                due = t0 + k * chunk_events / rate
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                late.append(time.perf_counter() - due)
                sock.sendall(chunk)
        else:
            for chunk in chunks:
                sock.sendall(chunk)
        sock.shutdown(socket.SHUT_WR)
        t_sent = time.perf_counter()
        deadline = t_sent + ACCOUNT_TIMEOUT_S
        while stats.events + queue.shed < sent \
                and time.perf_counter() < deadline:
            time.sleep(POLL_S)
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - cpu0
    finally:
        sock.close()
    depth_hist = daemon.registry.histogram("repro_serve_queue_depth_at_enqueue")
    dwell_hist = daemon.registry.histogram("repro_serve_ingest_latency_seconds")
    report = handle.stop()

    result = {
        "wall_s": wall, "cpu_s": cpu, "sent": sent,
        "accounted": report.events_observed,
        "lost": sent - report.events_observed,
        "shed": report.events_shed, "frame_errors": report.frame_errors,
        "violations": by_property(daemon.monitor.violations),
        "interval": list(report.interval),
        "queue_peak_depth": depth_hist.max,
        "dwell_mean_ms": (1000.0 * dwell_hist.sum / dwell_hist.count
                          if dwell_hist.count else 0.0),
    }
    if rate > 0:
        # Time each violation from when the first event that could have
        # caused it was *due* on the wire, so a stalled generator or a
        # backlog counts against the system, not for it.
        times = job["event_times"]
        detect = []
        for seen_at, violation_time in stamps:
            index = bisect.bisect_left(times, violation_time)
            if index < len(times):      # else: fired by the final drain
                due = t0 + (index // chunk_events) * chunk_events / rate
                detect.append(1000.0 * (seen_at - due))
        result["detect_ms"] = detect
        result["late_ms"] = [1000.0 * max(0.0, x) for x in late]
        result["achieved_rate"] = sent / (t_sent - t0)
    return result


# -- fabric: ShardedMonitor, two forked workers ---------------------------------------
def run_fabric(job: dict, ready) -> dict:
    from repro.fabric import ShardedMonitor

    props = properties_for(job["properties"])
    events = job["events"]
    step = job["chunk_events"]
    t_spawn = time.perf_counter()
    fabric = ShardedMonitor(props, num_shards=2, mode="mp")
    spawn_ms = 1000.0 * (time.perf_counter() - t_spawn)
    ready()
    try:
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        for start in range(0, len(events), step):
            fabric.observe_batch(events[start:start + step])
        fabric.sync()
        wall = time.perf_counter() - t0
        counters = counters_of(fabric.stats)
        violations = by_property(fabric.violations)
        ledgered = len(fabric.ledger)
        fabric.stop()           # reaps the workers: their CPU counts now
        cpu = cpu_seconds() - cpu0
    finally:
        fabric.close()
    # What the fabric knows it lost is in its ledger (a worker that died
    # or hung); a batch dropped silently would instead break the parent's
    # check that these counters equal a plain Monitor's.
    lost = len(events) - counters["events"] + ledgered
    return {
        "wall_s": wall, "cpu_s": cpu, "sent": len(events),
        "accounted": counters["events"], "lost": lost,
        "violations": violations, "counters": counters,
        "spawn_ms": spawn_ms,
    }


def run_layers(job: dict, ready) -> dict:
    import layers
    ready()
    return layers.run(job)


RUNNERS = {"direct": run_direct, "serve": run_serve, "fabric": run_fabric,
           "layers": run_layers}


def main(argv) -> int:
    spawned_at = float(argv[1])
    t_load = time.perf_counter()
    job = pickle.load(sys.stdin.buffer)
    prepare_s = time.perf_counter() - t_load
    marks = {}

    def ready() -> None:
        marks["ready"] = time.time()

    result = RUNNERS[job["entry"]](job, ready)
    # Set-up is everything between the parent starting this process and
    # the system being ready for its first event (interpreter start,
    # imports, building the monitor/daemon/fabric), minus loading inputs.
    result["setup_s"] = marks["ready"] - spawned_at - prepare_s
    result["prepare_s"] = prepare_s
    result["peak_rss_mb"] = peak_rss_mb()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
