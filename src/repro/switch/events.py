"""Dataplane event taxonomy.

These events are what a monitor *observes* (the paper's notion of
"observation", Sec. 2).  The switch emits them at well-defined points:

* :class:`PacketArrival` — a packet entered an ingress port;
* :class:`PacketEgress` — a (possibly rewritten) packet left an output port;
* :class:`PacketDrop`   — the pipeline decided to drop.  The paper stresses
  (Feature 5 discussion, Sec. 3.2) that drop visibility is "almost
  universally unsupported": in OpenFlow 1.5, dropped packets never enter
  the egress pipeline.  Our ideal switch reports drops; backend models can
  turn that tap off to reproduce the gap.
* :class:`OutOfBandEvent` — non-packet events such as link-down (the
  multiple-match example of Feature 8);
* :class:`TimerFired` — a monitor-owned timer elapsed (Feature 7's timeout
  actions observe these).

Every event carries the emitting switch's id and a virtual timestamp, and
packet events carry the packet ``uid`` so identity (Feature 5) survives.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Tuple, Type, TypeVar

from ..packet.packet import Packet

_event_seq = itertools.count(1)

E = TypeVar("E", bound="DataplaneEvent")


def _next_event_seq() -> int:
    return next(_event_seq)


class EgressAction(Enum):
    """What the pipeline decided to do with a packet."""

    UNICAST = "unicast"
    FLOOD = "flood"
    DROP = "drop"
    CONTROLLER = "controller"


@dataclass(frozen=True)
class DataplaneEvent:
    """Base class: common identity/ordering fields for all events."""

    switch_id: str
    time: float
    seq: int = field(default_factory=_next_event_seq)

    @property
    def kind(self) -> str:
        return type(self).__name__

    @classmethod
    def decoded(cls: Type[E], switch_id: str, time: float,
                **fields: object) -> E:
        """An event from a decoder that has already checked its values.

        The trace and frame decoders build every event here rather than
        through the frozen dataclass ``__init__``, which costs about twice
        as much: the instance's ``__dict__`` is filled directly, as
        :meth:`Packet.from_wire <repro.packet.packet.Packet.from_wire>`
        fills a packet's.  ``seq`` is drawn as ``__init__`` draws it;
        ``fields`` must name every other field of ``cls`` in declaration
        order (the order ``__init__`` sets them, so the instance dict
        keeps sharing its keys), and ``__post_init__`` is not run.
        """
        event = object.__new__(cls)
        state = event.__dict__
        state["switch_id"] = switch_id
        state["time"] = time
        state["seq"] = next(_event_seq)
        state.update(fields)
        return event


@dataclass(frozen=True)
class PacketArrival(DataplaneEvent):
    """A packet arrived on ``in_port``, before any pipeline processing."""

    packet: Packet = None  # type: ignore[assignment]
    in_port: int = 0

    def __post_init__(self) -> None:
        if self.packet is None:
            raise ValueError("PacketArrival requires a packet")


@dataclass(frozen=True)
class PacketEgress(DataplaneEvent):
    """A packet left the switch.

    ``packet`` is the egress copy (post-rewrite, e.g. after NAT); it shares
    its ``uid`` with the arrival it came from.  ``action`` distinguishes
    unicast from flood — matching on the *switch's own output decision* is
    the metadata-match capability the paper calls out as a critical gap.
    """

    packet: Packet = None  # type: ignore[assignment]
    out_port: int = 0
    in_port: int = 0
    action: EgressAction = EgressAction.UNICAST

    def __post_init__(self) -> None:
        if self.packet is None:
            raise ValueError("PacketEgress requires a packet")


@dataclass(frozen=True)
class PacketDrop(DataplaneEvent):
    """The pipeline dropped a packet (explicit drop action or table miss)."""

    packet: Packet = None  # type: ignore[assignment]
    in_port: int = 0
    reason: str = "drop-action"

    def __post_init__(self) -> None:
        if self.packet is None:
            raise ValueError("PacketDrop requires a packet")


class OobKind(Enum):
    """Out-of-band event kinds (control-plane-ish, not packets)."""

    LINK_DOWN = "link-down"
    LINK_UP = "link-up"
    PORT_DOWN = "port-down"
    PORT_UP = "port-up"


@dataclass(frozen=True)
class OutOfBandEvent(DataplaneEvent):
    """A non-packet event, e.g. a link going down.

    The learning-switch multiple-match property ("link-down messages delete
    the set of learned destinations") observes these; handling them requires
    advancing *many* monitor instances from one event (Feature 8, multiple
    match).
    """

    oob_kind: OobKind = OobKind.LINK_DOWN
    port: Optional[int] = None


@dataclass(frozen=True)
class TimerFired(DataplaneEvent):
    """A monitor timer elapsed.

    ``instance_key`` scopes the timer to one monitor instance; ``timer_id``
    names which stage's clock it was.  These events drive timeout *actions*
    (Feature 7) — they advance state rather than merely expiring it.
    """

    instance_key: Tuple = ()
    timer_id: str = ""


PacketEvent = (PacketArrival, PacketEgress, PacketDrop)
