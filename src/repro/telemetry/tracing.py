"""Packet/instance trace spans — one packet's story across the layers.

A :class:`Tracer` records **nested spans** on the virtual clock: a root
span per packet arrival (keyed by the packet uid), child spans for its
pipeline traversal and per-table matches, and zero-duration event spans
wherever the monitor advances, kills, or violates an instance because of
that packet.  The result is the observability counterpart of Feature 10
provenance: provenance explains a *violation* after the fact; a trace
explains every *packet*, including the ones that matched nothing.

Spans serialize as JSON lines (``dump_spans`` / ``load_spans``), one span
per line, ordered by span id — which, because ids are allocated at span
*start*, guarantees a parent's line precedes every child's.  The
well-formedness contract (checked by :func:`validate_spans`, pinned by a
Hypothesis property in the test suite):

* every span is closed: ``end`` is present and ``end >= start``;
* every non-root span's parent exists and was started no later than the
  child (``parent.start <= child.start`` and ``parent.span_id <
  child.span_id``);
* span ids strictly increase in emission order.

Correlation across decoupled layers works through the packet uid, and a
root span is opened by whoever first holds the event.  Live, that is the
switch: it opens ``switch.receive`` *before* emitting ``PacketArrival``
to its taps, so when the monitor (a tap, synchronous, ``observe``) emits
its own spans for the same uid they attach under that root.  For a batch
— replay, ``repro stats``, the serve dispatcher — it is the observer:
``Monitor.observe_batch`` opens :func:`open_event_root` around each
event, and a sharded monitor records the same root as it routes (its
shards' spans stay in their processes).  :class:`NullTracer` is the
default and costs one attribute check per call site.

A tracer keeps every event unless it is built with ``sampled=True`` —
``repro serve``'s ring is.  A sampling tracer keeps the events whose
packet uid passes :func:`uid_sampled`, one uid in
:data:`TRACE_SAMPLE_EVERY`; the observer runs every other event as if
tracing were off, except that a violation always records its
``monitor.violation`` span, tagged with its trigger's uid.  The ring
then holds a sample of whole packet stories plus every violation.
"""

from __future__ import annotations

import atexit
import json
from collections import deque
from typing import (
    IO,
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Union,
)

#: A sampling tracer keeps one packet uid in this many.
TRACE_SAMPLE_EVERY = 64

#: Fibonacci hashing's multiplier, 2**64 / golden ratio rounded to odd;
#: :func:`repro.fabric.routing.stable_hash` mixes shard keys with it too.
FIB64 = 0x9E3779B97F4A7C15
MASK64 = (1 << 64) - 1
_SAMPLE_BELOW = (1 << 64) // TRACE_SAMPLE_EVERY


def uid_sampled(uid: int) -> bool:
    """Whether a sampling tracer keeps packet ``uid`` — the one decision.

    Fibonacci hashing: the uid times 2**64/φ, modulo 2**64, must land
    in the lowest 1/:data:`TRACE_SAMPLE_EVERY` of the range.  Integer
    arithmetic only, so every process agrees (``hash()`` is salted per
    interpreter) and no event is formatted; and consecutive uids — how
    packets are numbered — spread evenly, so any run of them keeps close
    to one in :data:`TRACE_SAMPLE_EVERY`.
    """
    return (uid * FIB64) & MASK64 < _SAMPLE_BELOW


class Span:
    """One timed operation; zero-duration spans model point events."""

    __slots__ = ("span_id", "parent_id", "name", "start", "end", "uid", "attrs")

    def __init__(
        self,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        start: float,
        uid: Optional[int] = None,
        attrs: Optional[dict] = None,
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.uid = uid
        self.attrs = attrs or {}

    @property
    def duration(self) -> Optional[float]:
        return None if self.end is None else self.end - self.start

    def to_dict(self) -> dict:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "uid": self.uid,
            "attrs": self.attrs,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.span_id}, {self.name!r}, parent={self.parent_id}, "
            f"[{self.start}, {self.end}])"
        )


class Tracer:
    """Records spans in memory; see module docstring for the contract.

    ``max_spans`` turns the in-memory record into a ring buffer: only the
    most recent spans are retained (what ``repro serve`` exposes over
    ``GET /trace``).  Ring eviction drops *retention*, not lifecycle —
    the :class:`Span` object outlives the ring, so ``end()`` on an
    already-evicted span still fires ``on_close`` and a
    :class:`SpanWriter` persisting the stream loses nothing.
    ``on_close`` fires once per span, at the moment it closes
    (``end``/``event``/``close_all``).

    ``sampled`` asks the observers to trace only the events
    :meth:`keeps` (see the module docstring); the default traces all.

    A tracer is also a context manager: leaving the ``with`` block closes
    any span still open at the latest time the tracer has seen, so a
    scope that raises cannot leave dangling spans behind.
    """

    enabled = True

    def __init__(
        self,
        max_spans: Optional[int] = None,
        on_close: Optional[Callable[[Span], None]] = None,
        sampled: bool = False,
    ) -> None:
        self.spans: Union[List[Span], Deque[Span]] = (
            [] if max_spans is None else deque(maxlen=max_spans)
        )
        self.on_close = on_close
        self.sampled = sampled
        self._next_id = 1
        self._root_by_uid: Dict[int, Span] = {}
        self._latest = 0.0

    def keeps(self, event) -> bool:
        """Whether an observer traces ``event``: always, unless this
        tracer samples — then when its packet uid passes
        :func:`uid_sampled`.  An event with no packet (a link-down, a
        timer) has no uid to sample by, so a sampling tracer passes it
        over."""
        if not self.sampled:
            return True
        packet = getattr(event, "packet", None)
        return packet is not None and uid_sampled(packet.uid)

    # -- span lifecycle ----------------------------------------------------
    def start(
        self,
        name: str,
        time: float,
        uid: Optional[int] = None,
        parent: Optional[Span] = None,
        root: bool = False,
        **attrs: object,
    ) -> Span:
        """Open a span.

        With no explicit ``parent``, a span carrying a ``uid`` attaches
        under the current root span for that uid (if one is open and
        began no later: a deferred op of the packet's earlier event may
        apply while a later event of the same packet is being observed).
        ``root`` registers this span as that root.
        """
        if parent is None and uid is not None and not root:
            current = self._root_by_uid.get(uid)
            if (current is not None and current.end is None
                    and current.start <= time):
                parent = current
        span = Span(
            self._next_id,
            parent.span_id if parent is not None else None,
            name,
            time,
            uid=uid,
            attrs=dict(attrs) if attrs else None,
        )
        self._next_id += 1
        self.spans.append(span)
        if time > self._latest:
            self._latest = time
        if root and uid is not None:
            self._root_by_uid[uid] = span
        return span

    def end(self, span: Span, time: float, **attrs: object) -> None:
        span.end = max(time, span.start)
        if span.end > self._latest:
            self._latest = span.end
        if attrs:
            span.attrs.update(attrs)
        if span.uid is not None and self._root_by_uid.get(span.uid) is span:
            del self._root_by_uid[span.uid]
        if self.on_close is not None:
            self.on_close(span)

    def event(
        self,
        name: str,
        time: float,
        uid: Optional[int] = None,
        parent: Optional[Span] = None,
        **attrs: object,
    ) -> Span:
        """A zero-duration span (instantaneous point event)."""
        span = self.start(name, time, uid=uid, parent=parent, **attrs)
        span.end = time
        if self.on_close is not None:
            self.on_close(span)
        return span

    def close_all(self, time: Optional[float] = None) -> int:
        """Close any span still open (defensive; returns how many).

        With no explicit ``time``, spans close at the latest timestamp
        the tracer has seen — the right default for context-manager and
        shutdown paths that have no clock of their own.
        """
        when = self._latest if time is None else time
        closed = 0
        for span in self.spans:
            if span.end is None:
                span.end = max(when, span.start)
                closed += 1
                if self.on_close is not None:
                    self.on_close(span)
        self._root_by_uid.clear()
        return closed

    def recent(self, limit: int = 100, uid: Optional[int] = None) -> List[Span]:
        """The most recent ``limit`` spans in span-id order, optionally
        filtered to one packet uid (the ``GET /trace`` query); a limit
        of 0 or less is none."""
        if limit <= 0:
            return []
        spans: Iterable[Span] = self.spans
        if uid is not None:
            spans = [s for s in spans if s.uid == uid]
        tail = list(spans)[-limit:]
        return sorted(tail, key=lambda s: s.span_id)

    def reset(self) -> None:
        self.spans.clear()
        self._root_by_uid.clear()
        self._next_id = 1
        self._latest = 0.0

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close_all()


class NullTracer(Tracer):
    """The default: every operation is a no-op returning no span."""

    enabled = False

    def __init__(self) -> None:  # pragma: no cover - trivial
        pass

    def start(self, name, time, uid=None, parent=None, root=False, **attrs):  # type: ignore[override]
        return None

    def end(self, span, time, **attrs):  # type: ignore[override]
        pass

    def event(self, name, time, uid=None, parent=None, **attrs):  # type: ignore[override]
        return None

    def close_all(self, time=None):  # type: ignore[override]
        return 0

    def recent(self, limit=100, uid=None):  # type: ignore[override]
        return []

    def reset(self):  # type: ignore[override]
        pass


NULL_TRACER = NullTracer()


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------
def dump_spans(spans: Iterable[Span], fp: IO[str]) -> int:
    """Write spans as JSON lines in span-id order; returns the count."""
    count = 0
    for span in sorted(spans, key=lambda s: s.span_id):
        fp.write(json.dumps(span.to_dict(), sort_keys=True))
        fp.write("\n")
        count += 1
    return count


def load_spans(fp: IO[str]) -> List[Span]:
    """Read a span JSONL stream back into :class:`Span` objects."""
    spans: List[Span] = []
    for line in fp:
        line = line.strip()
        if not line:
            continue
        data = json.loads(line)
        span = Span(
            span_id=int(data["span_id"]),
            parent_id=data.get("parent_id"),
            name=data["name"],
            start=float(data["start"]),
            uid=data.get("uid"),
            attrs=data.get("attrs") or {},
        )
        if data.get("end") is not None:
            span.end = float(data["end"])
        spans.append(span)
    return spans


def save_spans(spans: Iterable[Span], path: str) -> int:
    with open(path, "w", encoding="utf-8") as fp:
        return dump_spans(spans, fp)


class SpanWriter:
    """Crash-safe incremental JSONL span sink for long-running processes.

    ``save_spans`` writes everything at the end of a run — fine for
    replay, fatal for a daemon: a ``repro serve`` process killed mid-run
    would lose every span, and a buffered writer killed mid-``write``
    would leave a truncated final record.  A ``SpanWriter`` instead:

    * persists each span the moment it **closes** (via the tracer's
      ``on_close`` hook), writing the full line in one call and flushing
      before returning — a ``SIGKILL`` at any instant leaves a valid
      JSONL prefix of complete records, never half a line;
    * registers an ``atexit`` hook so a normal-but-unclean interpreter
      exit (an uncaught exception in ``repro serve``/``replay``) still
      closes open spans and the file;
    * is a context manager, and ``close()`` is idempotent.

    Lines appear in span *completion* order (children usually precede
    parents), not span-id order; sort after :func:`load_spans` before
    :func:`validate_spans`.
    """

    def __init__(self, path: str, tracer: Optional[Tracer] = None) -> None:
        self.path = path
        self.written = 0
        self._fp: Optional[IO[str]] = open(path, "w", encoding="utf-8")
        self._tracer = tracer
        if tracer is not None:
            tracer.on_close = self.write
        atexit.register(self.close)

    def write(self, span: Span) -> None:
        """Persist one closed span: a single write of a full line, then
        an explicit flush so the record is durable before we return."""
        if self._fp is None:
            return
        self._fp.write(json.dumps(span.to_dict(), sort_keys=True) + "\n")
        self._fp.flush()
        self.written += 1

    def close(self) -> None:
        if self._fp is None:
            return
        if self._tracer is not None:
            self._tracer.close_all()  # flushes stragglers through write()
            self._tracer.on_close = None
        fp, self._fp = self._fp, None
        fp.close()
        atexit.unregister(self.close)

    def __enter__(self) -> "SpanWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Well-formedness
# ---------------------------------------------------------------------------
def validate_spans(spans: Sequence[Span]) -> List[str]:
    """Check the span-tree contract; returns a list of violations (empty
    when well-formed).  Used by tests and by ``repro stats --trace-out``
    before writing the file."""
    problems: List[str] = []
    by_id: Dict[int, Span] = {}
    last_id = 0
    for span in spans:
        if span.span_id <= last_id:
            problems.append(
                f"span {span.span_id} out of order (after {last_id})"
            )
        last_id = span.span_id
        by_id[span.span_id] = span
        if span.end is None:
            problems.append(f"span {span.span_id} ({span.name}) never closed")
        elif span.end < span.start:
            problems.append(
                f"span {span.span_id} ({span.name}) ends before it starts"
            )
        if span.parent_id is not None:
            parent = by_id.get(span.parent_id)
            if parent is None:
                problems.append(
                    f"span {span.span_id} ({span.name}) parent "
                    f"{span.parent_id} missing or later"
                )
            elif parent.start > span.start:
                problems.append(
                    f"span {span.span_id} ({span.name}) starts before its "
                    f"parent {parent.span_id}"
                )
    return problems


def open_event_root(tracer: Tracer, event) -> Span:
    """Open the observer-side root span of one event.

    The root of a batch-fed event: named after the event type, keyed by
    the packet uid when it has one, carrying the switch id; whatever the
    observer emits for that uid until it closes the span nests under it.
    ``Monitor.observe_batch`` and ``ShardedMonitor.observe_batch`` are
    the callers — the offline and daemon analogue of the ``switch.receive``
    root a traced :class:`~repro.switch.switch.Switch` opens before its
    taps run.
    """
    packet = getattr(event, "packet", None)
    return tracer.start(
        type(event).__name__, event.time,
        uid=packet.uid if packet is not None else None,
        root=True, switch=event.switch_id)
