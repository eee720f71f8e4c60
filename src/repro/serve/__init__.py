"""The live controller daemon — ``repro serve`` and friends.

Everything else in the reproduction replays recorded traces on the
virtual clock; this package is the long-running counterpart.  A
:class:`ServeDaemon` ingests serialized event frames (the
``netsim/serialize.py`` JSONL format, or its RPF2 binary batches — each
ingest connection is sniffed for the four-byte magic) from TCP
sockets and pipes into a bounded :class:`IngestQueue` with explicit
backpressure —
accept/shed decisions land in the monitor's
:class:`~repro.core.degradation.OverflowLedger`, so overload degrades
into a detection-uncertainty interval instead of silent loss — and
dispatches them, event by event, through the monitor's generated
evaluator.  An
HTTP observability plane (stdlib only) exposes ``/metrics`` (Prometheus
text), ``/stats`` (JSON), ``/healthz`` + ``/readyz`` (liveness vs.
queue-pressure readiness), and ``/trace`` (recent spans from the
tracer's ring buffer: a uid-sampled share of packets, every violation).
SIGTERM drains the queue and emits a final
:class:`ServeDegradationReport`.

Every ingest stream — socket, FIFO or file — is read by one coroutine
driving one sans-IO protocol generator
(:func:`~repro.serve.ingest.stream_reader`); there is no reader thread.
A framed stream is decoded a batch at a time (header, cap check, body,
the codec's one record iterator), a JSONL stream a read at a time, and
nothing in either is fatal: a record or line that does not decode is one
frame error and its neighbours are kept; a fault that loses the framing
(a cut inside a batch, a wrong magic, a body length or a line over
``MAX_BATCH_BYTES``) is one frame error and ends that stream.  A reader
that finds a dispatch batch already queued waits for the dispatcher
before taking more, so parsed events do not pile up in memory while
their bytes could have waited in the kernel — and a local writer that
outruns the monitor blocks in its own ``write()`` instead of being shed.

``stream_trace`` is the client half (``repro send``): pace a recorded
trace at a target event rate into a running daemon, for demos,
benchmarks, and the CI smoke job.
"""

from .daemon import DaemonHandle, ServeConfig, ServeDaemon, serve_in_thread
from .ingest import FrameError, IngestQueue, parse_frame
from .report import ServeDegradationReport, render_serve_report
from .send import SendResult, stream_trace

__all__ = [
    "DaemonHandle",
    "FrameError",
    "IngestQueue",
    "SendResult",
    "ServeConfig",
    "ServeDaemon",
    "ServeDegradationReport",
    "parse_frame",
    "render_serve_report",
    "serve_in_thread",
    "stream_trace",
]
