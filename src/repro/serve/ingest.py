"""Bounded ingest with explicit backpressure.

The queue between the network and the monitor is where overload becomes
*visible* instead of silent.  :class:`IngestQueue` is deliberately dumb:
a bounded deque of decoded batches whose
:meth:`~IngestQueue.offer_batch` accepts what fits and sheds the rest
— and every shed is recorded in the monitor's
:class:`~repro.core.degradation.OverflowLedger` with both impact kinds,
because a missing event can suppress a real violation (a dropped kill
packet) or fabricate one (a dropped refresh lets a timeout fire).  The
daemon's ``/readyz`` endpoint and the final degradation report both read
this queue's accounting; nothing is lost without a ledger entry.

Readiness has hysteresis: the queue goes not-ready when depth crosses
``high_mark`` (or on any shed) and only returns once depth has fallen
back under ``low_mark`` *and* no shed has happened for
``shed_window`` seconds.  That keeps a scraping load balancer from
flapping a daemon that is oscillating at the edge of its capacity.

Frame parsing (:func:`parse_frame`) wraps ``event_from_dict`` from the
trace serializer so the wire format of the live daemon is byte-identical
to the recorded-trace format: anything ``repro record`` wrote can be
piped straight into a socket.

The wire protocol — the codec sniff, binary batches, newline-JSON, and
what each kind of fault costs — is one generator that does no I/O
(:func:`stream_reader`); the daemon drives it from the one coroutine
that reads any ingest source.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Callable, Deque, Generator, List, Optional, Tuple

from ..core.degradation import IMPACT_MISSED, INGEST_ROW, OverflowLedger
from ..netsim.serialize import (
    BATCH_HEADER_SIZE,
    FRAME_MAGIC,
    MAX_BATCH_BYTES,
    TraceFormatError,
    batch_header,
    event_from_dict,
    iter_records,
)
from ..switch.events import DataplaneEvent
from ..telemetry import LATENCY_BUCKETS, MetricsRegistry, NullRegistry

#: Ledger kind for frames shed at the ingest boundary (before the
#: monitor ever saw them) — distinct from the monitor's own op-shed
#: kinds so reports can separate "network overload" from "state
#: overload".
SHED_KIND = "ingest-shed"

#: What the reader asks a transport for when any amount will do (a line
#: stream has no length prefix to say how much is coming).
READ_SIZE = 1 << 16


class FrameError(TraceFormatError):
    """Raised on a line that is neither a frame nor a trace header."""


def parse_frame(line: bytes) -> Optional[DataplaneEvent]:
    """Decode one newline-JSON frame into a dataplane event.

    Returns ``None`` for blank lines and ``TraceHeader`` lines (senders
    may stream a recorded trace file verbatim, header included); raises
    :class:`FrameError` for anything else that does not parse.
    """
    text = line.strip()
    if not text:
        return None
    try:
        data = json.loads(text.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(f"invalid frame: {exc}") from exc
    if not isinstance(data, dict):
        raise FrameError(f"frame must be a JSON object, got {type(data).__name__}")
    if data.get("kind") == "TraceHeader":
        return None
    try:
        return event_from_dict(data)
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise FrameError(f"invalid frame: {exc}") from exc


def decode_batch(body: bytes, count: int,
                 size: int) -> Tuple[List[DataplaneEvent], int, bool]:
    """The counting form of ``decode_frames``, for bytes a stranger sent:
    ``(events, frame errors, intact)`` for one framed batch body.

    ``body`` is what was read of the ``size`` bytes the batch header
    declared.  A record that is delimited but does not decode costs one
    frame error and the rest of the batch survives; a structural fault
    (see :func:`~repro.netsim.serialize.iter_records`) or a short
    ``body`` costs one frame error, keeps the events decoded before it
    and returns ``intact=False`` — the stream's framing is lost and the
    caller must close it.
    """
    events: List[DataplaneEvent] = []
    faults: List[TraceFormatError] = []
    try:
        for event in iter_records(body, count, faults.append):
            events.append(event)
        if len(body) != size:
            raise TraceFormatError(
                f"{size} body bytes declared, {len(body)} read")
    except TraceFormatError:
        return events, len(faults) + 1, False
    return events, len(faults), True


def _take(size: int) -> Generator[int, bytes, bytes]:
    """Exactly ``size`` bytes of the stream — fewer only if it ended."""
    parts: List[bytes] = []
    while size:
        data = yield size
        if not data:
            break
        parts.append(data)
        size -= len(data)
    return parts[0] if len(parts) == 1 else b"".join(parts)


def stream_reader(
    deliver: Callable[[List[DataplaneEvent], int], None],
) -> Generator[int, bytes, None]:
    """The daemon's side of an ingest stream, without the I/O: the whole
    wire protocol, for a socket, a FIFO and a file alike.

    A generator its transport drives: it yields "at most *n* bytes,
    please" and is sent whatever one read returned — ``b""`` once the
    stream has ended.  Short reads are accumulated here, so a transport
    needs only ``read(n)`` and a short read does not mean EOF.  The
    first four bytes choose the codec: the frame magic starts binary
    batches, anything else (a shorter stream included) is newline-JSON.
    Decoded events go to ``deliver(events, frame_errors)``, once per
    batch or once per read's worth of complete lines.

    Batches: the 12-byte header, the cap check, then the body.  A record
    that is delimited but does not decode is one frame error and the
    rest of its batch is kept (:func:`decode_batch`).  The generator
    returns when the stream ends or its framing is lost — a cut inside a
    batch, a wrong magic, a body length over ``MAX_BATCH_BYTES``
    (refused before the body is asked for), a body that is not the
    records it declares — each of which is one frame error; the
    transport then closes the stream.

    Lines: each read is split on ``\n`` and the unterminated tail
    carried into the next; a last line needs no newline.  A line that is
    not a frame (:func:`parse_frame`) is one frame error and the stream
    continues; a line longer than ``MAX_BATCH_BYTES`` is one frame error
    and ends it, so no sender can make the daemon buffer more than that.
    """
    header = yield from _take(len(FRAME_MAGIC))
    if header != FRAME_MAGIC:
        yield from _read_lines(header, deliver)
        return
    header += yield from _take(BATCH_HEADER_SIZE - len(FRAME_MAGIC))
    while header:  # b"" is a clean EOF between batches
        try:
            count, size = batch_header(header, MAX_BATCH_BYTES)
        except TraceFormatError:
            deliver([], 1)
            return
        body = yield from _take(size)
        events, errors, intact = decode_batch(body, count, size)
        deliver(events, errors)
        if not intact:
            return
        header = yield from _take(BATCH_HEADER_SIZE)


def _read_lines(
    tail: bytes,
    deliver: Callable[[List[DataplaneEvent], int], None],
) -> Generator[int, bytes, None]:
    """The newline-JSON half of :func:`stream_reader`; ``tail`` is what
    the codec sniff consumed."""
    while True:
        data = yield READ_SIZE
        lines = (tail + data).split(b"\n")
        # At EOF the unterminated tail is the last line.
        tail = lines.pop() if data else b""
        events: List[DataplaneEvent] = []
        errors = 0
        for line in lines:
            try:
                event = parse_frame(line)
            except FrameError:
                errors += 1
                continue
            if event is not None:  # else a blank line or a trace header
                events.append(event)
        overlong = len(tail) > MAX_BATCH_BYTES
        deliver(events, errors + overlong)
        if overlong or not data:
            return


class IngestQueue:
    """A bounded accept-or-shed queue feeding ``observe_batch``.

    The queue moves whole batches: it holds ``(events, enqueued_at)``
    chunks, one per :meth:`offer_batch`, so a decoded batch costs one
    clock read and one update of each instrument rather than one per
    event.  ``max_depth`` and every count are in events.

    ``clock`` supplies enqueue timestamps (daemon seconds); dwell time
    between the offer and :meth:`take_batch` is observed into the
    ``repro_serve_ingest_latency_seconds`` histogram, and queue depth at
    enqueue into ``repro_serve_queue_depth_at_enqueue`` — once per
    accepted event in count, sum, min and max; a batch's middle depths
    share one bucket, at their mean.
    """

    def __init__(
        self,
        max_depth: int,
        ledger: Optional[OverflowLedger] = None,
        clock: Optional[Callable[[], float]] = None,
        registry: Optional[MetricsRegistry] = None,
        high_mark: float = 0.9,
        low_mark: float = 0.5,
        shed_window: float = 1.0,
    ) -> None:
        if max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth!r}")
        if not 0.0 < low_mark <= high_mark <= 1.0:
            raise ValueError(
                f"need 0 < low_mark <= high_mark <= 1, "
                f"got {low_mark!r}/{high_mark!r}"
            )
        self.max_depth = max_depth
        self.ledger = ledger if ledger is not None else OverflowLedger()
        self.clock = clock if clock is not None else (lambda: 0.0)
        registry = registry if registry is not None else NullRegistry()
        self.high_mark = high_mark
        self.low_mark = low_mark
        self.shed_window = shed_window

        self._chunks: Deque[Tuple[List[DataplaneEvent], float]] = deque()
        self._depth = 0
        self.accepted = 0
        self.shed = 0
        self.last_shed_at: Optional[float] = None
        self._saturated = False  # hysteresis latch

        self._ingested_total = registry.counter(
            "repro_serve_events_ingested_total",
            help="Frames accepted into the ingest queue.")
        self._shed_total = registry.counter(
            "repro_serve_events_shed_total",
            help="Frames shed at the ingest boundary (queue full).")
        self._depth_gauge = registry.gauge(
            "repro_serve_queue_depth",
            help="Current ingest queue depth.", unit="frames")
        self._depth_hist = registry.histogram(
            "repro_serve_queue_depth_at_enqueue",
            help="Queue depth observed at each accepted enqueue.",
            unit="frames")
        self._latency_hist = registry.histogram(
            "repro_serve_ingest_latency_seconds",
            help="Dwell time between frame enqueue and monitor dispatch.",
            unit="seconds",
            buckets=LATENCY_BUCKETS)

    # -- producer side ----------------------------------------------------
    def offer(self, event: DataplaneEvent) -> bool:
        """Accept ``event`` into the queue, or shed it (ledgered)."""
        return self.offer_batch([event]) == 1

    def offer_batch(self, events: List[DataplaneEvent]) -> int:
        """Accept the prefix of ``events`` that fits; shed the rest.

        Returns how many were accepted.  The sheds are one counted
        ledger row; the queue keeps ``events`` itself when it takes all
        of them, so the caller hands the list over.
        """
        count = len(events)
        if not count:
            return 0
        now = self.clock()
        depth = self._depth
        taken = min(count, self.max_depth - depth)
        if taken:
            self._chunks.append(
                (events if taken == count else events[:taken], now))
            self._depth = depth + taken
            self.accepted += taken
            self._ingested_total.inc(taken)
            # The depths seen at each accepted enqueue: depth ... last.
            last = depth + taken - 1
            observe = self._depth_hist.observe
            observe(float(depth))
            if taken > 1:
                observe(float(last))
            if taken > 2:
                observe((depth + last) / 2, taken - 2)
            self._depth_gauge.set(float(self._depth))
            if self._depth >= self.high_mark * self.max_depth:
                self._saturated = True
        shed = count - taken
        if shed:
            self.shed += shed
            self.last_shed_at = now
            self._saturated = True
            self._shed_total.inc(shed)
            self.ledger.record(SHED_KIND, INGEST_ROW, IMPACT_MISSED, shed)
        return taken

    # -- consumer side ----------------------------------------------------
    def take_batch(self, max_events: int = 256) -> List[DataplaneEvent]:
        """Pop up to ``max_events`` events, oldest first, splitting the
        last chunk taken if it does not fit whole."""
        now = self.clock()
        batch: List[DataplaneEvent] = []
        chunks = self._chunks
        room = max_events
        while chunks and room > 0:
            events, enqueued_at = chunks[0]
            if len(events) > room:
                chunks[0] = (events[room:], enqueued_at)
                events = events[:room]
            else:
                chunks.popleft()
            self._latency_hist.observe(max(0.0, now - enqueued_at),
                                       len(events))
            batch += events
            room -= len(events)
        self._depth -= len(batch)
        self._depth_gauge.set(float(self._depth))
        return batch

    # -- introspection ----------------------------------------------------
    def __len__(self) -> int:
        return self._depth

    @property
    def depth(self) -> int:
        return self._depth

    def ready(self) -> bool:
        """Backpressure-aware readiness (with hysteresis): see
        :meth:`unready_reasons`."""
        return not self.unready_reasons()

    def unready_reasons(self) -> List[str]:
        """Human-readable reasons the queue is not ready (empty if ready).

        Not-ready while saturated; ready again only once depth is back
        under ``low_mark * max_depth`` and the last shed is older than
        ``shed_window`` seconds, which clears the latch.
        """
        reasons: List[str] = []
        if self._saturated:
            if self._depth > self.low_mark * self.max_depth:
                reasons.append(
                    f"queue depth {self._depth} above low mark "
                    f"{self.low_mark * self.max_depth:g}")
            if self.last_shed_at is not None:
                since = self.clock() - self.last_shed_at
                if since < self.shed_window:
                    reasons.append(
                        f"shed {since:.3f}s ago (window {self.shed_window:g}s)")
            self._saturated = bool(reasons)
        return reasons

    def stats(self) -> dict:
        """A JSON-able accounting of this queue's lifetime."""
        return {
            "depth": self._depth,
            "max_depth": self.max_depth,
            "accepted": self.accepted,
            "shed": self.shed,
            "last_shed_at": self.last_shed_at,
            "ready": self.ready(),
        }
