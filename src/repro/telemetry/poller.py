"""Periodic gauge sampling on virtual time — the Ryu polling idiom.

Ryu's ``bandwidth_monitor`` app runs a green thread that wakes every N
seconds and polls each datapath for its stats.  The simulator equivalent
needs no threads: a :class:`StatsPoller` either (a) rides the discrete-
event :class:`~repro.netsim.scheduler.EventScheduler` with pre-scheduled
ticks up to a horizon, or (b) is driven directly from a replay loop via
:meth:`StatsPoller.advance_to` — the same virtual-time-driven style as
``Monitor.advance_to`` (``repro stats --poll-interval`` does this and
returns the rows under ``"samples"``).

Each tick invokes the configured ``sources`` (callables that refresh
gauges whose producers do not update them continuously — e.g. collector
memory) and then samples **every gauge** in the registry, appending one
``{"time": t, "values": {rendered_name: value}}`` row.  The time series
is what turns point-in-time gauges (live instances, pending split-mode
ops, stored postcards) into the growth curves Sec. 3.3 talks about.

There is no wall-clock mode: ``samples`` grows by a row per tick, which
a bounded replay can afford and a daemon cannot — ``repro serve`` exposes
``/metrics`` and the scraper keeps the history.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

from .metrics import MetricsRegistry, _jsonable


def _sample_name(family_name: str, labels) -> str:
    if not labels:
        return family_name
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return f"{family_name}{{{inner}}}"


class StatsPoller:
    """Samples registry gauges every ``interval`` virtual seconds."""

    def __init__(
        self,
        registry: MetricsRegistry,
        interval: float,
        sources: Sequence[Callable[[], None]] = (),
        start_time: float = 0.0,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"poll interval must be positive, got {interval!r}")
        self.registry = registry
        self.interval = interval
        self.sources = list(sources)
        self.samples: List[dict] = []
        self._next_tick = start_time + interval

    # -- virtual-time driven (replay loops) --------------------------------
    def advance_to(self, when: float) -> int:
        """Fire every tick with deadline <= ``when``; returns ticks fired."""
        fired = 0
        while self._next_tick <= when:
            self.sample(self._next_tick)
            self._next_tick += self.interval
            fired += 1
        return fired

    # -- scheduler driven (live simulations) -------------------------------
    def attach(self, scheduler, until: float) -> int:
        """Pre-schedule ticks on ``scheduler`` up to the ``until`` horizon.

        Pre-scheduling (rather than self-rescheduling) keeps ``run()``
        terminating: a tick that re-arms itself forever would never let
        the event queue drain.
        """
        scheduled = 0
        t = self._next_tick
        while t <= until:
            scheduler.call_at(t, lambda t=t: self.sample(t), label="stats-poll")
            t += self.interval
            scheduled += 1
        self._next_tick = t
        return scheduled

    # -- the tick ----------------------------------------------------------
    def sample(self, t: float) -> dict:
        """Refresh sources, then record one row of every gauge's value."""
        for source in self.sources:
            source()
        values: Dict[str, object] = {}
        for family in self.registry.families():
            if family.kind != "gauge":
                continue
            for labels in sorted(family.cells):
                gauge = family.cells[labels]
                values[_sample_name(family.name, labels)] = _jsonable(
                    gauge.value  # type: ignore[union-attr]
                )
        row = {"time": _jsonable(t), "values": values}
        self.samples.append(row)
        return row
