"""Virtual time for deterministic simulation — and its wall-clock twin.

Every component in the reproduction — the switch pipeline, the monitor's
agenda, workload generators — reads time from a :class:`VirtualClock`
rather than the wall clock.  This makes timeout semantics (Features 3 and 7
of the paper) exactly testable: a test can advance time to one tick before a
deadline and assert nothing fired, then cross the deadline and assert the
timeout action ran.

Time is a float number of seconds since simulation start.  The clock is
monotonic by construction: it can only be advanced.

:class:`WallClock` is the live-daemon counterpart: the same ``now()``
shape, but backed by a monotonic real-time source and re-zeroed at
construction, so ``repro serve`` timestamps ("seconds since the daemon
started") read exactly like replay timestamps ("seconds since the
simulation started").  The source is injectable, which is how the test
suite drives "wall" time deterministically.
"""

from __future__ import annotations

import time
from typing import Callable, Optional


class ClockError(Exception):
    """Raised on attempts to move a :class:`VirtualClock` backwards."""


class VirtualClock:
    """A monotonic, manually-advanced simulation clock.

    >>> clock = VirtualClock()
    >>> clock.now()
    0.0
    >>> clock.advance(1.5)
    1.5
    >>> clock.advance_to(10.0)
    10.0
    """

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise ClockError(f"clock cannot start at negative time {start!r}")
        self._now = float(start)

    def now(self) -> float:
        """Return the current simulation time in seconds."""
        return self._now

    def advance(self, delta: float) -> float:
        """Move time forward by ``delta`` seconds and return the new time."""
        if delta < 0:
            raise ClockError(f"cannot advance clock by negative delta {delta!r}")
        self._now += delta
        return self._now

    def advance_to(self, when: float) -> float:
        """Move time forward to the absolute instant ``when``.

        Advancing to the current time is a no-op; moving backwards raises
        :class:`ClockError`.
        """
        if when < self._now:
            raise ClockError(
                f"cannot move clock backwards from {self._now!r} to {when!r}"
            )
        self._now = float(when)
        return self._now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VirtualClock(now={self._now!r})"


class WallClock:
    """Monotonic wall time, zeroed at construction.

    Shares :class:`VirtualClock`'s read interface (``now()`` in float
    seconds, never decreasing) but advances on its own: real time passes
    whether or not anything calls it.  ``source`` defaults to
    :func:`time.monotonic`; tests inject a fake to script the passage of
    wall time.

    >>> ticks = iter([100.0, 100.25, 107.5])
    >>> clock = WallClock(source=lambda: next(ticks))
    >>> clock.now()
    0.25
    >>> clock.now()
    7.5
    """

    __slots__ = ("_source", "_epoch", "_last")

    def __init__(self, source: Optional[Callable[[], float]] = None) -> None:
        self._source = source if source is not None else time.monotonic
        self._epoch = self._source()
        self._last = 0.0

    def now(self) -> float:
        """Seconds since this clock was created (monotonic, >= 0)."""
        elapsed = self._source() - self._epoch
        if elapsed > self._last:
            self._last = elapsed
        return self._last

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WallClock(now={self.now()!r})"
