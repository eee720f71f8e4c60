"""Event traces: recording and inspection.

A :class:`TraceRecorder` is a tap that appends every dataplane event to a
list; tests and benchmarks assert over the recorded sequences.  A recorded
(or synthesized) stream goes into a monitor through its one door,
``observe_batch``.
"""

from __future__ import annotations

from typing import Iterator, List, Type

from ..switch.events import (
    DataplaneEvent,
    OutOfBandEvent,
    PacketArrival,
    PacketDrop,
    PacketEgress,
)


class TraceRecorder:
    """Tap that records the dataplane event stream in arrival order."""

    def __init__(self) -> None:
        self.events: List[DataplaneEvent] = []

    def __call__(self, event: DataplaneEvent) -> None:
        self.events.append(event)

    def of_kind(self, event_type: Type[DataplaneEvent]) -> List[DataplaneEvent]:
        return [e for e in self.events if isinstance(e, event_type)]

    @property
    def arrivals(self) -> List[PacketArrival]:
        return self.of_kind(PacketArrival)  # type: ignore[return-value]

    @property
    def egresses(self) -> List[PacketEgress]:
        return self.of_kind(PacketEgress)  # type: ignore[return-value]

    @property
    def drops(self) -> List[PacketDrop]:
        return self.of_kind(PacketDrop)  # type: ignore[return-value]

    @property
    def oob(self) -> List[OutOfBandEvent]:
        return self.of_kind(OutOfBandEvent)  # type: ignore[return-value]

    def clear(self) -> None:
        self.events.clear()

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[DataplaneEvent]:
        return iter(self.events)

