"""The live controller daemon behind ``repro serve``.

One asyncio event loop owns everything: every ingest source — a TCP
connection, a FIFO, a file — is the same coroutine (``_read_stream``)
driving the wire-protocol generator
(:func:`~repro.serve.ingest.stream_reader`) into the bounded
:class:`~repro.serve.ingest.IngestQueue`; a dispatcher coroutine drains
it in batches and hands each one, whole, to ``monitor.observe_batch`` —
the one door into the monitor, the same for a plain
:class:`~repro.core.monitor.Monitor` and a sharded fabric, tracing on or
off (the observer opens each event's root span, not the daemon); a
poll coroutine keeps the uptime gauge current and heartbeats a fabric's
workers while ingest is idle; and the HTTP plane answers ``/metrics``,
``/stats``, ``/healthz``, ``/readyz`` and ``/trace`` between batches.
The ``/trace`` ring is a sampling :class:`~repro.telemetry.Tracer`: it
holds the spans of one packet uid in
:data:`~repro.telemetry.TRACE_SAMPLE_EVERY` and of every violation, not
a record of every packet.  The daemon keeps no gauge rows — ``/metrics``
is the time series, and whoever scrapes it keeps the history.
Single-loop concurrency is the point —
the monitor is single-threaded by design (it models one switch-local
monitor) and no thread reads ingest either, so nothing here needs a
lock, and every source meets the same back-pressure.

Shutdown is a drain, not a kill: SIGTERM (or :meth:`ServeDaemon.request_stop`)
closes the ingest listeners, gives open streams ``drain_grace`` to end
(a TCP connection is open from the moment asyncio hands it over,
whether or not its handler has run yet), observes whatever they
queued, runs
``Monitor.stop()`` (which drains deferred split-mode ops and closes
spans), and emits a
:class:`~repro.serve.report.ServeDegradationReport` with the
detection-uncertainty interval for everything that was shed along the
way.

Tests and benchmarks run the daemon with :func:`serve_in_thread`, which
boots the loop in a background thread and hands back a
:class:`DaemonHandle` whose ``stop()`` returns the final report.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..core.monitor import Monitor
from ..fabric import SupervisorPolicy
from ..faults.profiles import PROFILES
from ..faults.rounds import build_monitor
from ..netsim.clock import WallClock
from ..telemetry import (
    MetricsRegistry,
    NullTracer,
    SpanWriter,
    Tracer,
    render_prometheus,
)
from .http import HttpPlane, json_response, start_http
from .ingest import IngestQueue, stream_reader
from .report import ServeDegradationReport
from .send import check_port


class _FileReader:
    """``read(n)`` for a regular file, which asyncio refuses to poll (it
    is always readable): read in place, after giving the rest of the
    loop the turn a file's reader would otherwise never yield."""

    def __init__(self, fp) -> None:
        self._fp = fp

    async def read(self, size: int) -> bytes:
        await asyncio.sleep(0)
        return self._fp.read(size)


def parse_ingest_spec(spec: str) -> Tuple[str, object]:
    """``"tcp:PORT"`` → ``("tcp", port)``; ``"pipe:PATH"`` → ``("pipe", path)``."""
    kind, sep, rest = spec.partition(":")
    if not sep or not rest:
        raise ValueError(f"ingest spec {spec!r} must be tcp:PORT or pipe:PATH")
    if kind == "tcp":
        try:
            port = int(rest)
        except ValueError as exc:
            raise ValueError(f"ingest spec {spec!r}: bad port {rest!r}") from exc
        return ("tcp", check_port(port, f"ingest spec {spec!r}: port"))
    if kind == "pipe":
        return ("pipe", rest)
    raise ValueError(f"ingest spec {spec!r}: unknown kind {kind!r}")


@dataclass
class ServeConfig:
    """Everything ``repro serve`` takes on the command line."""

    host: str = "127.0.0.1"
    port: int = 0                      # HTTP plane; 0 = ephemeral
    ingest: Tuple[str, ...] = ("tcp:0",)
    max_queue: int = 4096
    batch_max: int = 256
    chaos_profile: str = "clean"
    trace_buffer: int = 512
    spans_path: Optional[str] = None
    report_path: Optional[str] = None
    high_mark: float = 0.9
    low_mark: float = 0.5
    shed_window: float = 1.0
    #: Seconds shutdown waits for in-flight ingest connections to finish
    #: sending before they are forcibly closed.  Already-received frames
    #: are always dispatched; this bounds how long a slow sender can
    #: hold the drain open.
    drain_grace: float = 1.0
    #: 0 = one monitor; N > 0 = drain the queue into a ShardedMonitor
    #: fabric of N forked worker processes (``--shards``).
    shards: int = 0
    #: how the fabric supervises its workers (``--restart-budget``);
    #: unused without ``shards``.  A shard's cut falls due at
    #: ``max(live, CHECKPOINT_FLOOR)`` journal events, its journal is
    #: bounded at ``JOURNAL_INTERVALS`` times that, and a wait on a
    #: worker ends only after ``heartbeat_timeout`` of silence.
    supervision: SupervisorPolicy = field(default_factory=SupervisorPolicy)

    def __post_init__(self) -> None:
        if self.chaos_profile not in PROFILES:
            raise ValueError(
                f"unknown chaos profile {self.chaos_profile!r}; "
                f"choose from {sorted(PROFILES)}")
        # The daemon's tap is its ingest, and only the world kills its
        # workers: it applies a profile's monitor settings and nothing else.
        servable = sorted(
            name for name, profile in PROFILES.items()
            if profile.link.is_null and profile.worker_crash.is_null)
        if self.chaos_profile not in servable:
            raise ValueError(
                f"chaos profile {self.chaos_profile!r} has link faults or "
                f"a worker-crash plan, which serve does not apply; "
                f"choose from {servable}")
        check_port(self.port)
        if self.shards < 0:
            raise ValueError(f"shards must be >= 0, got {self.shards}")
        if self.max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {self.max_queue}")
        if self.batch_max < 1:
            raise ValueError(f"batch_max must be >= 1, got {self.batch_max}")
        if self.trace_buffer < 0:
            raise ValueError(
                f"trace_buffer must be >= 0, got {self.trace_buffer}")
        for spec in self.ingest:
            parse_ingest_spec(spec)  # validate early, fail before boot


class ServeDaemon:
    """A monitor wrapped in an event loop, a queue, and a health plane."""

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        clock: Optional[WallClock] = None,
        monitor: Optional[Monitor] = None,
    ) -> None:
        self.config = config if config is not None else ServeConfig()
        self.clock = clock if clock is not None else WallClock()
        self.registry = MetricsRegistry(time_fn=self.clock.now)
        if monitor is not None:
            self.monitor = monitor
        else:
            self.monitor = build_monitor(
                PROFILES[self.config.chaos_profile], self.registry,
                num_shards=self.config.shards,
                supervision=self.config.supervision)
        # Duck-typed: a ShardedMonitor (supervised fabric) answers the
        # liveness methods; a plain Monitor has no shards to report on.
        self._fabric = (
            self.monitor if hasattr(self.monitor, "shard_liveness")
            else None)
        # trace_buffer 0 disables span emission entirely: /trace serves
        # nothing and the observer opens no root spans.
        self.tracer: Tracer = (
            Tracer(max_spans=self.config.trace_buffer, sampled=True)
            if self.config.trace_buffer > 0 else NullTracer())
        self.monitor.tracer = self.tracer
        self._span_writer: Optional[SpanWriter] = None
        if self.config.spans_path:
            self._span_writer = SpanWriter(
                self.config.spans_path, tracer=self.tracer)
        self.queue = IngestQueue(
            self.config.max_queue,
            ledger=self.monitor.ledger,
            clock=self.clock.now,
            registry=self.registry,
            high_mark=self.config.high_mark,
            low_mark=self.config.low_mark,
            shed_window=self.config.shed_window,
        )
        self._frame_errors = self.registry.counter(
            "repro_serve_frame_errors_total",
            help="Ingest lines that failed to parse as event frames.")
        self._uptime_gauge = self.registry.gauge(
            "repro_serve_uptime_seconds",
            help="Seconds since the daemon started.", unit="seconds")

        self.plane = HttpPlane({
            "/metrics": self._ep_metrics,
            "/stats": self._ep_stats,
            "/healthz": self._ep_healthz,
            "/readyz": self._ep_readyz,
            "/trace": self._ep_trace,
        })

        #: Bound ports, filled once :meth:`run` has opened its listeners.
        self.http_port: Optional[int] = None
        self.ingest_ports: List[int] = []
        #: Set once the loop is up and listeners are bound (cross-thread).
        self.started = threading.Event()
        #: Optional callback fired (in-loop) once listeners are bound —
        #: the CLI uses it to print the actual ports under ``--port 0``.
        self.on_started: Optional[Callable[["ServeDaemon"], None]] = None
        self.report: Optional[ServeDegradationReport] = None

        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stopping: Optional[asyncio.Event] = None
        self._wake: Optional[asyncio.Event] = None
        self._servers: List[asyncio.base_events.Server] = []
        self._conn_tasks: set = set()

    # -- lifecycle ---------------------------------------------------------
    async def run(self) -> ServeDegradationReport:
        """Boot, serve until stopped, drain, and return the final report."""
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._stopping = asyncio.Event()
        self._wake = asyncio.Event()
        self.monitor.start(0.0)

        http_server, self.http_port = await start_http(
            self.plane, self.config.host, self.config.port)
        self._servers.append(http_server)
        for spec in self.config.ingest:
            kind, arg = parse_ingest_spec(spec)
            if kind == "tcp":
                # A plain callback, which asyncio calls in connection_made:
                # a connection is tracked from its hand-over, not from its
                # handler's first step.
                server = await asyncio.start_server(
                    lambda r, w: self._track(self._handle_ingest_conn(r, w)),
                    host=self.config.host, port=arg)
                self._servers.append(server)
                self.ingest_ports.append(server.sockets[0].getsockname()[1])
            else:
                self._track(self._ingest_pipe(str(arg)))

        installed_signals: List[int] = []
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.request_stop)
                installed_signals.append(signum)
            except (NotImplementedError, ValueError, RuntimeError):
                break  # not the main thread (tests) or unsupported platform

        dispatcher = asyncio.ensure_future(self._dispatch_loop())
        poller = asyncio.ensure_future(self._poll_loop())
        self.started.set()
        if self.on_started is not None:
            self.on_started(self)
        try:
            await self._stopping.wait()
            # Stop accepting: new connections get refused.  In-flight
            # connections get a bounded grace to finish sending (their
            # frames still count), then are forcibly closed.
            for server in self._servers:
                server.close()
            for server in self._servers:
                await server.wait_closed()
            if self._conn_tasks:
                _, lingering = await asyncio.wait(
                    set(self._conn_tasks),
                    timeout=self.config.drain_grace)
                for task in lingering:
                    task.cancel()
                if lingering:
                    await asyncio.gather(*lingering, return_exceptions=True)
            # Ingest is over; _finalize observes what is still queued.
            dispatcher.cancel()  # it waits between batches, never inside
            await asyncio.wait([dispatcher])
            if not dispatcher.cancelled():
                dispatcher.result()  # raise what a dispatch raised
            await poller
        finally:
            for signum in installed_signals:
                loop.remove_signal_handler(signum)
        return self._finalize()

    def request_stop(self) -> None:
        """Begin graceful shutdown; safe to call from any thread, and a
        no-op before ``run()`` starts or once its loop has closed."""
        loop = self._loop
        if loop is None or self._stopping is None:
            return
        try:
            loop.call_soon_threadsafe(self._stopping.set)
        except RuntimeError:
            if not loop.is_closed():
                raise
            # run() has returned: there is nothing left to stop

    def _finalize(self) -> ServeDegradationReport:
        self._observe_queued()  # what came after the dispatcher's last look
        now = self.clock.now()
        self._uptime_gauge.set(now)
        summary = self.monitor.stop(now=now)
        fabric: Dict[str, object] = {}
        if self._fabric is not None:
            # Read after stop(), so restarts during the final drain count.
            recovery = self._fabric.recovery()
            fabric = dict(shards=recovery["shards"],
                          shard_restarts=recovery["restarts"],
                          quarantined_batches=recovery["quarantined_batches"],
                          failed_shards=recovery["failed_shards"])
        if self._span_writer is not None:
            self._span_writer.close()
        observed = int(summary["events"])
        lo, hi = summary["violations_interval"]  # type: ignore[misc]
        self.report = ServeDegradationReport(
            profile=self.config.chaos_profile,
            uptime=now,
            events_ingested=self.queue.accepted,
            events_shed=self.queue.shed,
            events_observed=observed,
            violations=int(summary["violations"]),
            interval=(int(lo), int(hi)),
            live_instances=int(summary["live_instances"]),
            pending_ops=int(summary["pending_ops"]),
            frame_errors=int(self._frame_errors.value),
            queue=self.queue.stats(),
            ledger=dict(summary["ledger"]),  # type: ignore[arg-type]
            http_requests=self.plane.requests_served,
            **fabric,  # type: ignore[arg-type]
        )
        if self.config.report_path:
            with open(self.config.report_path, "w", encoding="utf-8") as fp:
                json.dump(self.report.to_dict(), fp, indent=2, sort_keys=True)
                fp.write("\n")
        return self.report

    # -- ingest ------------------------------------------------------------
    def _track(self, stream) -> None:
        """Run one ingest stream as a task the stop waits for."""
        task = asyncio.ensure_future(stream)
        self._conn_tasks.add(task)
        task.add_done_callback(self._conn_tasks.discard)

    async def _handle_ingest_conn(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            await self._read_stream(reader)
        except ConnectionError:
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:  # pragma: no cover - platform dependent
                pass

    async def _ingest_pipe(self, path: str) -> None:
        """``pipe:PATH``: read a FIFO, character device or file once, to
        EOF.  The open is non-blocking — a FIFO's blocking open waits
        for its writer and would stall the loop — and the loop polls a
        FIFO like a socket, so a writer that outruns the dispatcher
        blocks in its own ``write()`` on a full kernel pipe.
        """
        loop = asyncio.get_running_loop()
        try:
            with open(path, "rb", buffering=0, opener=lambda name, flags:
                      os.open(name, flags | os.O_NONBLOCK)) as fp:
                reader = asyncio.StreamReader()
                try:
                    transport, _ = await loop.connect_read_pipe(
                        lambda: asyncio.StreamReaderProtocol(reader), fp)
                except ValueError:  # a regular file: asyncio will not poll it
                    await self._read_stream(_FileReader(fp))
                    return
                try:
                    await self._read_stream(reader)
                finally:
                    transport.close()
        except OSError:
            pass  # no such pipe, or it vanished; the daemon keeps serving

    async def _read_stream(self, reader) -> None:
        """Drive one ingest stream to its end: the only reader there is.

        ``reader`` needs one method, ``async read(n)`` — at most ``n``
        bytes, ``b""`` at EOF.  The protocol, and what each fault costs,
        is :func:`~repro.serve.ingest.stream_reader`; when it returns,
        the stream ended or lost its framing and the caller closes it.
        """
        steps = stream_reader(self._offer_batch)
        try:
            want = next(steps)
            while True:
                want = steps.send(await reader.read(want))
                await self._bound_run_ahead()
        except StopIteration:
            pass

    async def _bound_run_ahead(self) -> None:
        """Let the dispatcher drain before this reader takes more.

        A reader whose bytes are already buffered never suspends in
        ``await reader.read()``, so without this it runs the queue up
        to whatever the socket buffers hold — events that sit parsed in
        memory instead of as bytes in the kernel.  The dispatcher takes
        a few turns of the loop to wake and, once awake, empties the
        queue before it awaits; so a reader adds at most one read's
        worth of events to a queue that already holds a dispatch batch.
        """
        while len(self.queue) >= self.config.batch_max:
            await asyncio.sleep(0)

    def _offer_batch(self, events: List, frame_errors: int) -> None:
        """Queue what one read decoded, whole — the only way into the
        queue: one ``offer_batch``, which sheds what does not fit; wake
        the dispatcher once."""
        if frame_errors:
            self._frame_errors.inc(frame_errors)
        self.queue.offer_batch(events)
        if events and self._wake is not None:
            self._wake.set()

    # -- loop bodies -------------------------------------------------------
    def _observe_queued(self) -> None:
        # The one door in, the one replay uses: a batch, whole.  Its
        # observer opens each event's root span (``/trace?uid=N``).
        batch = self.queue.take_batch(self.config.batch_max)
        while batch:
            self.monitor.observe_batch(batch)
            batch = self.queue.take_batch(self.config.batch_max)

    async def _dispatch_loop(self) -> None:
        assert self._wake is not None
        while True:
            self._observe_queued()
            self._wake.clear()
            await self._wake.wait()

    async def _poll_loop(self) -> None:
        assert self._stopping is not None
        while not self._stopping.is_set():
            self._uptime_gauge.set(self.clock.now())
            if self._fabric is not None:
                # Heartbeat the shard workers even while ingest is idle,
                # so a crashed worker is noticed and restarted before the
                # next batch arrives.
                self._fabric.tick()
            try:
                await asyncio.wait_for(self._stopping.wait(), timeout=0.25)
            except asyncio.TimeoutError:
                pass

    # -- endpoints ---------------------------------------------------------
    def _ep_metrics(self, query: Mapping[str, str]) -> Tuple[int, str, str]:
        self._uptime_gauge.set(self.clock.now())
        return (200, "text/plain; version=0.0.4",
                render_prometheus(self.registry.snapshot()))

    def _ep_stats(self, query: Mapping[str, str]) -> Tuple[int, str, str]:
        return json_response(200, self.stats_payload())

    def _shard_health(self) -> Tuple[List[int], List[int]]:
        """(recovering shard indices, failed shard indices) — both empty
        for a plain monitor or an all-healthy fabric."""
        if self._fabric is None:
            return [], []
        return (self._fabric.recovering_shards(),
                self._fabric.recovery()["failed_shards"])

    def _ep_healthz(self, query: Mapping[str, str]) -> Tuple[int, str, str]:
        recovering, failed = self._shard_health()
        payload: Dict[str, object] = {
            "status": "degraded" if (recovering or failed) else "ok",
            "uptime": self.clock.now(),
            "profile": self.config.chaos_profile,
        }
        if self._fabric is not None:
            payload["shards"] = self._fabric.shard_liveness()
        return json_response(200, payload)

    def _ep_readyz(self, query: Mapping[str, str]) -> Tuple[int, str, str]:
        reasons = self.queue.unready_reasons()
        recovering, failed = self._shard_health()
        if recovering:
            reasons = [f"shard_recovering:{idx}" for idx in recovering] \
                + reasons
        if failed:
            reasons = [f"shard_failed:{idx}" for idx in failed] + reasons
        if self._stopping is not None and self._stopping.is_set():
            reasons = ["shutting down"] + reasons
        ready = not reasons
        return json_response(200 if ready else 503, {
            "ready": ready,
            "reasons": reasons,
            "queue": self.queue.stats(),
        })

    def _ep_trace(self, query: Mapping[str, str]) -> Tuple[int, str, str]:
        try:
            limit = int(query.get("limit", "100"))
            uid = int(query["uid"]) if "uid" in query else None
        except ValueError:
            return json_response(400, {"error": "limit/uid must be integers"})
        if limit < 0:
            return json_response(400, {"error": "limit must be >= 0"})
        spans = self.tracer.recent(limit=limit, uid=uid)
        return json_response(200, {
            "count": len(spans),
            "spans": [span.to_dict() for span in spans],
        })

    def stats_payload(self) -> Dict[str, object]:
        """The ``/stats`` body: a live JSON digest of daemon state."""
        observed_violations = len(self.monitor.violations)
        payload: Dict[str, object] = {
            "time": self.clock.now(),
            "profile": self.config.chaos_profile,
            "queue": self.queue.stats(),
            "frame_errors": int(self._frame_errors.value),
            "monitor": {
                "events": int(self.monitor.stats.events),
                "violations": observed_violations,
                "interval": list(
                    self.monitor.ledger.interval(observed_violations)),
                "live_instances": self.monitor.live_instances(),
                "pending_ops": self.monitor.pending_op_count(),
            },
            "http_requests": self.plane.requests_served,
        }
        if self._fabric is not None:
            recovery = self._fabric.recovery()
            payload["shards"] = {
                "count": len(recovery["shards"]),
                "recovering": self._fabric.recovering_shards(),
                "failed": recovery["failed_shards"],
                "restarts": recovery["restarts"],
                "quarantined_batches": recovery["quarantined_batches"],
                "liveness": recovery["shards"],
            }
        return payload


@dataclass
class DaemonHandle:
    """A daemon running in a background thread (tests, benchmarks)."""

    daemon: ServeDaemon
    thread: threading.Thread
    error: List[BaseException] = field(default_factory=list)

    def stop(self, timeout: float = 30.0) -> ServeDegradationReport:
        """Request a graceful drain and return the final report."""
        self.daemon.request_stop()
        self.thread.join(timeout)
        if self.thread.is_alive():
            raise RuntimeError("serve daemon did not drain within timeout")
        if self.error:
            raise self.error[0]
        assert self.daemon.report is not None
        return self.daemon.report


def serve_in_thread(
    daemon: ServeDaemon, start_timeout: float = 10.0
) -> DaemonHandle:
    """Boot ``daemon`` in a background thread and wait until it is bound."""
    errors: List[BaseException] = []

    def target() -> None:
        try:
            asyncio.run(daemon.run())
        except BaseException as exc:  # surfaced by DaemonHandle.stop
            errors.append(exc)

    thread = threading.Thread(
        target=target, name="repro-serve", daemon=True)
    thread.start()
    if not daemon.started.wait(start_timeout):
        if errors:
            raise errors[0]
        raise RuntimeError("serve daemon failed to start within timeout")
    return DaemonHandle(daemon=daemon, thread=thread, error=errors)
