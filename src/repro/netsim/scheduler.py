"""Discrete-event scheduler driving the network simulation.

The scheduler owns a :class:`~repro.netsim.clock.VirtualClock` and a priority
queue of timestamped callbacks.  Components (links, hosts, the monitor's
agenda, workload generators) schedule work at absolute or relative
times; :meth:`EventScheduler.run` drains the queue in timestamp order,
advancing the clock to each event as it fires.

Ties are broken by insertion order (FIFO), which keeps traces deterministic
— important because property-violation witnesses are *sequences* of
observations and the tests assert exact orderings.
"""

from __future__ import annotations

import heapq
import itertools
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Tuple

from .clock import VirtualClock


class SchedulerTruncationError(RuntimeError):
    """``run()`` hit ``max_events`` with runnable events still queued.

    A livelocked or runaway event loop (something endlessly rescheduling
    itself) surfaces here instead of looking like a clean finish.  The
    exception carries the loop state for post-mortems; the scheduler's
    ``truncations`` counter and a ``RuntimeWarning`` fire too, for
    callers that catch and continue (chaos soak runs assert it is zero).
    """

    def __init__(self, fired: int, pending: int, now: float) -> None:
        super().__init__(
            f"scheduler truncated at max_events={fired} with {pending} "
            f"event(s) still runnable at t={now!r}")
        self.fired = fired
        self.pending = pending
        self.now = now


@dataclass(frozen=True)
class ScheduledEvent:
    """Handle for a scheduled callback, usable for cancellation."""

    when: float
    seq: int
    label: str

    def __lt__(self, other: "ScheduledEvent") -> bool:
        return (self.when, self.seq) < (other.when, other.seq)


@dataclass
class _QueueEntry:
    key: Tuple[float, int]
    handle: ScheduledEvent
    callback: Optional[Callable[[], Any]]

    def __lt__(self, other: "_QueueEntry") -> bool:
        return self.key < other.key


class EventScheduler:
    """A deterministic discrete-event loop on virtual time.

    >>> sched = EventScheduler()
    >>> fired = []
    >>> _ = sched.call_at(2.0, lambda: fired.append("b"), label="b")
    >>> _ = sched.call_at(1.0, lambda: fired.append("a"), label="a")
    >>> sched.run()
    2
    >>> fired
    ['a', 'b']
    """

    def __init__(self, clock: Optional[VirtualClock] = None) -> None:
        self.clock = clock if clock is not None else VirtualClock()
        self._queue: List[_QueueEntry] = []
        self._seq = itertools.count()
        self._cancelled: set = set()
        #: times ``run()`` was truncated by ``max_events`` (see
        #: :class:`SchedulerTruncationError`)
        self.truncations = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def call_at(
        self, when: float, callback: Callable[[], Any], label: str = ""
    ) -> ScheduledEvent:
        """Schedule ``callback`` at absolute time ``when``.

        Scheduling in the past raises ``ValueError`` — simulated causality
        must flow forward.
        """
        if when < self.clock.now():
            raise ValueError(
                f"cannot schedule event at {when!r}, now is {self.clock.now()!r}"
            )
        handle = ScheduledEvent(when=when, seq=next(self._seq), label=label)
        entry = _QueueEntry(key=(when, handle.seq), handle=handle, callback=callback)
        heapq.heappush(self._queue, entry)
        return handle

    def call_after(
        self, delay: float, callback: Callable[[], Any], label: str = ""
    ) -> ScheduledEvent:
        """Schedule ``callback`` ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        return self.call_at(self.clock.now() + delay, callback, label=label)

    def cancel(self, handle: ScheduledEvent) -> bool:
        """Cancel a scheduled event.  Returns False if it already fired."""
        key = (handle.when, handle.seq)
        if key in self._cancelled:
            return False
        for entry in self._queue:
            if entry.handle is handle and entry.callback is not None:
                self._cancelled.add(key)
                entry.callback = None
                return True
        return False

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def pending(self) -> int:
        """Number of not-yet-fired, not-cancelled events."""
        return sum(1 for e in self._queue if e.callback is not None)

    def next_event_time(self) -> Optional[float]:
        """Timestamp of the earliest pending event, or None if idle."""
        for entry in sorted(self._queue):
            if entry.callback is not None:
                return entry.key[0]
        return None

    def step(self) -> bool:
        """Fire the single earliest pending event.  Returns False if idle."""
        while self._queue:
            entry = heapq.heappop(self._queue)
            if entry.callback is None:
                continue
            self.clock.advance_to(entry.key[0])
            callback, entry.callback = entry.callback, None
            callback()
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: int = 1_000_000) -> int:
        """Drain the queue in order; returns the number of events fired.

        ``until`` bounds the clock: events stamped strictly later are left
        queued and the clock is advanced exactly to ``until``.  ``max_events``
        is a runaway guard for event loops that reschedule themselves:
        hitting it with runnable events still queued raises
        :class:`SchedulerTruncationError` (a ``RuntimeError``), increments
        :attr:`truncations`, and emits a ``RuntimeWarning``.  Draining the
        queue in *exactly* ``max_events`` steps is a clean finish, not a
        truncation.
        """
        fired = 0
        while fired < max_events:
            upcoming = self.next_event_time()
            if upcoming is None:
                break
            if until is not None and upcoming > until:
                break
            if not self.step():
                break
            fired += 1
        else:
            upcoming = self.next_event_time()
            if upcoming is not None and (until is None or upcoming <= until):
                self.truncations += 1
                warnings.warn(
                    f"scheduler truncated at max_events={max_events} with "
                    f"{self.pending()} event(s) still runnable",
                    RuntimeWarning,
                    stacklevel=2,
                )
                raise SchedulerTruncationError(
                    fired, self.pending(), self.clock.now())
        if until is not None and until > self.clock.now():
            self.clock.advance_to(until)
        return fired

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EventScheduler(now={self.clock.now()!r}, pending={self.pending()})"
        )
