"""Provenance recording (Feature 10).

Once a violation fires, what can the monitor say about *how it got there*?
The paper identifies the spectrum:

* ``NONE``    — only the final trigger event is reported;
* ``LIMITED`` — "recovered without added cost": the values already retained
  for matching (the instance's bound variables) ride along with the final
  event, plus per-stage timestamps — cheap, because the match state already
  holds them.  Each stage also keeps a reference to its (immutable) packet
  and formats the one-line summary only when a violation is rendered; the
  price is that a live instance pins those packets' wire bytes;
* ``FULL``    — every event that advanced the instance is recorded
  verbatim.  Maximal debuggability, linear memory per instance — the cost
  the paper deems infeasible on switches, measurable here via
  ``benchmarks/bench_provenance.py``.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Optional

from ..switch.events import DataplaneEvent


class ProvenanceLevel(Enum):
    NONE = "none"
    LIMITED = "limited"
    FULL = "full"


class StageRecord(NamedTuple):
    """One stage's contribution to an instance's history.

    A named tuple, not a frozen dataclass: one is built on every create
    and every advance, and a frozen dataclass pays an
    ``object.__setattr__`` per field to build.
    """

    stage_name: str
    time: float
    event: Optional[DataplaneEvent] = None  # populated only at FULL
    #: LIMITED: the stage's packet, else what to say instead of one
    subject: object = ""

    @property
    def summary(self) -> str:
        """One line about the stage's event, formatted when read."""
        subject = self.subject
        return subject if isinstance(subject, str) else subject.describe()

    def describe(self) -> str:
        if self.event is not None:
            return f"[{self.time:.6f}] {self.stage_name}: {self.event!r}"
        return f"[{self.time:.6f}] {self.stage_name}: {self.summary}"


def record_stage(
    level: ProvenanceLevel,
    stage_name: str,
    time: float,
    event: Optional[DataplaneEvent],
) -> Optional[StageRecord]:
    """Build the provenance record one advancement contributes (or None)."""
    if level is ProvenanceLevel.NONE:
        return None
    if level is ProvenanceLevel.FULL:
        return StageRecord(stage_name=stage_name, time=time, event=event)
    if event is None:
        subject = "timer"
    else:
        subject = getattr(event, "packet", None)
        if subject is None:
            subject = event.kind
    return StageRecord(stage_name=stage_name, time=time, subject=subject)
