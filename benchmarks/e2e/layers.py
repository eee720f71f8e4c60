"""The traced run: per-layer costs, measured from outside.

Nothing under ``src/`` is instrumented.  Each layer is timed by calling
its public functions on the workload's own inputs:

* a **staged pipeline** replays the path an event takes through the
  system as a chain of direct calls — wire bytes → ``decode_frames`` /
  ``parse_frame`` → ``IngestQueue.offer`` / ``take_batch`` →
  ``Router.split`` → ``encode_frames`` + ``decode_frames`` (the worker
  pipe's codec) → ``Monitor.observe_batch`` — with one span per call,
  per chunk.  A layer's cost is its spans' self time; what the real
  end-to-end run costs beyond these stages (sockets, asyncio, worker
  transport) is the residual the parent computes.
* **probes** time the alternatives and the parts the pipeline cannot
  separate: each match strategy, the registry-on monitor, timer service,
  the codecs, the in-process fabric.

Every stage and probe runs on every workload: a layer a workload's own
end-to-end path never reaches is still priced on that workload's
traffic (README, "Per-layer metrics").

A probe or pipeline stage whose target has been removed from ``src/`` or
re-signatured — a match strategy, the columnar extractor, the in-process
fabric mode, the router, the ingest queue, a codec — is reported as
*degraded* with the reason, and the run goes on: later changes are meant
to delete or merge some of these without editing the benchmark.  Only
``Monitor()`` + ``observe_batch``, the default path, has to exist.
"""

from __future__ import annotations

import gc
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import workloads
from workloads import build_monitor, by_property

#: what a removed or re-signatured probe target raises
_GONE = (ImportError, AttributeError, TypeError, ValueError, KeyError)
BATCH_MAX = 256       # ServeConfig.batch_max: events per dispatcher batch
COVERAGE_FLOOR = 0.95     # asserted share of the root span its stages cover
TRACE_ATTEMPTS = 3        # traced passes allowed to reach it
FABRIC_STEP = workloads.FABRIC_STEP


# -- spans ------------------------------------------------------------------------
class SpanRecorder:
    """In-memory spans: name, start, end, parent; one run id for all."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[dict] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = {"id": index, "name": name, "run": self.run_id,
                  "parent": self._stack[-1] if self._stack else None,
                  "start_ns": time.perf_counter_ns(), "end_ns": None}
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record["end_ns"] = time.perf_counter_ns()
            self._stack.pop()


def self_times(spans: Sequence[dict]) -> Dict[str, int]:
    """Self time per span name: duration minus the children's."""
    child_ns = Counter()
    for span in spans:
        if span["parent"] is not None:
            child_ns[span["parent"]] += span["end_ns"] - span["start_ns"]
    out: Dict[str, int] = Counter()
    for span in spans:
        out[span["name"]] += (
            span["end_ns"] - span["start_ns"] - child_ns[span["id"]])
    return dict(out)


def span_cost_ns(samples: int = 2000) -> float:
    """What recording one span costs, from ``samples`` empty ones."""
    rec = SpanRecorder("calibration")
    start = time.perf_counter_ns()
    for _ in range(samples):
        with rec.span("empty"):
            pass
    return (time.perf_counter_ns() - start) / samples


def coverage(spans: Sequence[dict]) -> float:
    """Share of the root span its direct children account for."""
    root = next(s for s in spans if s["parent"] is None)
    covered = sum(s["end_ns"] - s["start_ns"]
                  for s in spans if s["parent"] == root["id"])
    return covered / max(1, root["end_ns"] - root["start_ns"])


# -- the staged pipeline ---------------------------------------------------------------
def _through_queue(queue, events: Sequence) -> List[List]:
    for event in events:
        queue.offer(event)
    batches = []
    while queue.depth:
        batches.append(queue.take_batch(BATCH_MAX))
    return batches


def _decode_lines(parse_frame, chunk: bytes) -> List:
    return [parse_frame(line) for line in chunk.splitlines()]


def staged_pipeline(rec: SpanRecorder, job: dict, degraded: dict) -> dict:
    """Run the job's wire chunks through every stage once.

    Only the last stage, ``Monitor.observe_batch``, has to exist.  A
    stage whose target is gone or re-signatured is marked degraded and
    skipped from then on: the events the generator built for that chunk
    go on to the next stage instead of the ones the stage would have
    produced.
    """
    props = workloads.properties_for(job["properties"])
    monitor = build_monitor(props)
    pipe_bytes = 0

    def guarded(name: str, fn: Callable, *args, fallback=None):
        if name in degraded:
            return fallback
        try:
            with rec.span(name):
                return fn(*args)
        except _GONE as exc:
            degraded[name] = repr(exc)
            return fallback

    def make_decoder():
        if job["fmt"] == "rpf1":
            from repro.netsim.serialize import decode_frames
            return decode_frames
        from repro.serve import parse_frame
        return lambda chunk: _decode_lines(parse_frame, chunk)

    def make_queue():
        from repro.serve import IngestQueue
        queue = IngestQueue(max(1, job["sent"]), ledger=monitor.ledger,
                            clock=time.perf_counter)
        return lambda events: _through_queue(queue, events)

    router = None

    def make_router():
        nonlocal router
        from repro.fabric import Router, build_routes
        router = Router(build_routes(props, 2), 2)
        return router.split

    def make_pipe_codec():
        from repro.netsim.serialize import decode_frames, encode_frames

        def pipe_codec(subs) -> None:
            nonlocal pipe_bytes
            for sub in subs:
                if sub:
                    wire = encode_frames(sub)
                    pipe_bytes += len(wire)
                    decode_frames(wire)
        return pipe_codec

    decode_name = ("netsim.serialize.decode_rpf1" if job["fmt"] == "rpf1"
                   else "serve.ingest.parse_frame")
    built = {}
    for name, make in ((decode_name, make_decoder),
                       ("serve.ingest.queue", make_queue),
                       ("fabric.routing.split", make_router),
                       ("fabric.mp.pipe_codec", make_pipe_codec)):
        try:
            built[name] = make()
        except _GONE as exc:
            built[name] = None
            degraded[name] = repr(exc)

    events, step = job["events"], job["chunk_events"]
    with rec.span("pipeline"):
        for index, chunk in enumerate(job["chunks"]):
            made = events[index * step:(index + 1) * step]
            decoded = guarded(decode_name, built[decode_name], chunk,
                              fallback=made)
            batches = guarded("serve.ingest.queue",
                              built["serve.ingest.queue"], decoded,
                              fallback=[decoded])
            for batch in batches:
                subs = guarded("fabric.routing.split",
                               built["fabric.routing.split"], batch)
                if subs is not None:
                    guarded("fabric.mp.pipe_codec",
                            built["fabric.mp.pipe_codec"], subs)
                with rec.span("core.monitor.default"):
                    monitor.observe_batch(batch)

    stats = monitor.stats
    out = {
        "decode_name": decode_name,
        "violations": by_property(monitor.violations),
        "candidates": int(stats.candidates_examined),
        "ops_applied": int(stats.ops_applied),
        "created": int(stats.instances_created),
        "refreshes": int(stats.refreshes),
        "peak_live": int(stats.peak_live_instances),
        "timers_fired": int(stats.timer_advances + stats.instances_expired),
    }
    if "fabric.mp.pipe_codec" not in degraded:
        out["pipe_bytes"] = pipe_bytes
    if "fabric.routing.split" not in degraded:
        try:
            forwarded = sum(router.shard_events)
            out["fanout"] = forwarded / max(1, router.events_total)
            out["skew"] = (max(router.shard_events) * len(router.shard_events)
                           / forwarded if forwarded else 0.0)
        except _GONE as exc:
            degraded["fabric.routing.fanout"] = repr(exc)
            degraded["fabric.routing.skew"] = repr(exc)
    return out


# -- probes ---------------------------------------------------------------------------
def _timed(fn: Callable[[], object]) -> Tuple[float, object]:
    gc.collect()
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value


def _observe_all(monitor, events: Sequence, step: int):
    for start in range(0, len(events), step):
        monitor.observe_batch(events[start:start + step])
    if hasattr(monitor, "sync"):
        monitor.sync()
    return monitor


def probe_monitor(make: Callable[[], object], events: Sequence,
                  step: int) -> Tuple[float, float, dict]:
    """(build ms, µs/event, per-property violations) for one monitor."""
    build_s, monitor = _timed(make)
    run_s, _ = _timed(lambda: _observe_all(monitor, events, step))
    return (1000.0 * build_s, 1e6 * run_s / len(events),
            by_property(monitor.violations))


def probe_timers(props, events: Sequence) -> Tuple[float, dict]:
    """Timer service alone: ``advance_to(event.time)`` timed ahead of
    each ``observe`` (which then finds nothing due)."""
    monitor = build_monitor(props)
    clock = time.perf_counter_ns
    spent = 0
    for event in events:
        start = clock()
        monitor.advance_to(event.time)
        spent += clock() - start
        monitor.observe(event)
    return spent / 1000.0 / len(events), by_property(monitor.violations)


def probe_extract(props, events: Sequence) -> float:
    """``CodegenProgram.columnar`` over class-partitioned 1024-event
    chunks, the shape the codegen batch driver feeds it."""
    monitor = build_monitor(props, match_strategy="codegen")
    monitor.codegen_source()                 # forces the program build
    columnar = monitor._codegen_program.columnar
    spent = 0.0
    for start in range(0, len(events), 1024):
        by_cls: Dict[type, List] = {}
        for event in events[start:start + 1024]:
            by_cls.setdefault(type(event), []).append(event)
        cache: Dict[int, dict] = {}
        t0 = time.perf_counter()
        for cls, run in by_cls.items():
            columnar(cls, run, cache)
        spent += time.perf_counter() - t0
    return 1e6 * spent / len(events)


def run(job: dict) -> dict:
    """Every in-process layer measurement for one workload's inputs."""
    events = job["events"]
    count = len(events)
    props = workloads.properties_for(job["properties"])
    metrics: Dict[str, Optional[float]] = {}
    degraded: Dict[str, str] = {}
    checks: Dict[str, dict] = {}

    def per_event(seconds: float) -> float:
        return 1e6 * seconds / count

    def optional(names: Sequence[str], fn: Callable[[], Sequence[float]]):
        try:
            values = fn()
        except _GONE as exc:
            values = [None] * len(names)
            for name in names:
                degraded[name] = repr(exc)
        metrics.update(zip(names, values))

    # One chunk goes through first, untimed, so that the traced pass does
    # not pay the stages' imports.
    staged_pipeline(SpanRecorder("warm-up"),
                    dict(job, chunks=job["chunks"][:1]), {})
    # Coverage is a property of the span structure, but a stall of the
    # box that lands between two spans counts against it (seen once: 6 %
    # of a pass that took 3.4 x its usual time).  A pass that disturbed
    # is taken again rather than reported.
    for _ in range(TRACE_ATTEMPTS):
        rec, stage_degraded = SpanRecorder(job["run_id"]), {}
        staged = staged_pipeline(rec, job, stage_degraded)
        if coverage(rec.spans) >= COVERAGE_FLOOR:
            break
    degraded.update(stage_degraded)
    own = self_times(rec.spans)
    decode_name = staged["decode_name"]
    for name in (decode_name, "serve.ingest.queue", "fabric.routing.split",
                 "fabric.mp.pipe_codec", "core.monitor.default"):
        metrics[name] = (per_event(own[name] / 1e9)
                         if name in own and name not in degraded else None)
    # The codec probes below price both decoders on every workload; the
    # pipeline's own decode stage is what the residual is taken against.
    decode_us = metrics.pop(decode_name)
    root = rec.spans[0]
    metrics["bench.trace.overhead_frac"] = (
        len(rec.spans) * span_cost_ns() / (root["end_ns"] - root["start_ns"]))
    metrics["bench.trace.coverage"] = coverage(rec.spans)
    checks["staged"] = staged["violations"]

    candidates = staged["candidates"]
    metrics.update({
        "core.instances.candidates_per_event": candidates / count,
        "core.instances.created": staged["created"],
        "core.instances.refreshes": staged["refreshes"],
        "core.instances.peak_live": staged["peak_live"],
        # Creates and refreshes come from stage-0 matches, not from a
        # candidate; what is left of the ops is what examining yielded.
        "core.instances.useful_ratio": (
            (staged["ops_applied"] - staged["created"] - staged["refreshes"])
            / candidates if candidates else 0.0),
        "core.monitor.timers_fired": staged["timers_fired"],
        "core.monitor.ops_applied": staged["ops_applied"],
        "core.monitor.violations": sum(staged["violations"].values()),
        "fabric.routing.fanout": staged.get("fanout"),
        "fabric.routing.skew": staged.get("skew"),
        "fabric.mp.pipe_bytes_per_event": (
            staged["pipe_bytes"] / count if "pipe_bytes" in staged else None),
    })

    # Codecs, both formats, whatever the workload's own wire format is.
    def rpf1():
        from repro.netsim.serialize import decode_frames, encode_frames
        encode_s, frames = _timed(lambda: [
            encode_frames(events[i:i + 64]) for i in range(0, count, 64)])
        decode_s, _ = _timed(lambda: [decode_frames(f) for f in frames])
        return (per_event(encode_s), sum(map(len, frames)) / count,
                per_event(decode_s))

    optional(("netsim.serialize.encode_rpf1",
              "netsim.serialize.rpf1_bytes_per_event",
              "netsim.serialize.decode_rpf1"), rpf1)

    def jsonl():
        from repro.serve import parse_frame
        lines = workloads.encode_jsonl(events).splitlines()
        seconds, _ = _timed(lambda: [parse_frame(line) for line in lines])
        return ((sum(map(len, lines)) + len(lines)) / count,
                per_event(seconds))

    optional(("netsim.serialize.jsonl_bytes_per_event",
              "serve.ingest.parse_frame"), jsonl)

    def fields():
        from repro.core.refs import event_fields
        seconds, _ = _timed(lambda: [event_fields(e) for e in events])
        return (per_event(seconds),)

    optional(("core.refs.event_fields",), fields)

    def monitor_probe(label: str, step: int, **kwargs):
        """Build (timed) and run a monitor made with ``kwargs``."""
        def make():
            monitor = build_monitor(props, **kwargs)
            if kwargs.get("match_strategy") == "codegen":
                monitor.codegen_source()         # build now, not mid-run
            return monitor
        build_ms, us, checks[label] = probe_monitor(make, events, step)
        return us, build_ms

    optional(("core.monitor.compiled", "core.compile.build_ms"),
             lambda: monitor_probe("compiled", count,
                                   match_strategy="compiled"))
    optional(("core.monitor.codegen", "core.codegen.build_ms"),
             lambda: monitor_probe("codegen", count,
                                   match_strategy="codegen"))
    optional(("core.codegen.extract",),
             lambda: (probe_extract(props, events),))

    def timers():
        us, checks["timers"] = probe_timers(props, events)
        return (us,)

    optional(("core.monitor.timers",), timers)

    single_us, _ = monitor_probe("single", FABRIC_STEP)
    metrics["fabric.fabric.single"] = single_us

    def registry():
        from repro.telemetry import MetricsRegistry
        us, _ = monitor_probe("registry", FABRIC_STEP,
                              registry=MetricsRegistry())
        return (us - single_us,)

    optional(("telemetry.registry",), registry)

    def routing_build():
        from repro.fabric import Router, build_routes
        seconds, _ = _timed(lambda: Router(build_routes(props, 2), 2))
        return (1000.0 * seconds,)

    optional(("fabric.routing.build_ms",), routing_build)

    def inprocess():
        from repro.fabric import ShardedMonitor
        _, us, checks["inprocess2"] = probe_monitor(
            lambda: ShardedMonitor(props, num_shards=2, mode="inprocess"),
            events, FABRIC_STEP)
        return (us,)

    optional(("fabric.fabric.inprocess2",), inprocess)

    return {"metrics": metrics, "degraded": degraded, "checks": checks,
            "spans": rec.spans, "sent": count, "decode_us": decode_us}
