"""Value references, guards, and event patterns — the property IR's atoms.

A property (Sec. 2 of the paper) is a sequence of *observations*.  Each
observation matches a dataplane event via an :class:`EventPattern`:

* a ``kind`` (arrival / egress / drop / out-of-band / any packet event);
* ``guards`` — conditions over the event's flat field map, referencing
  constants or variables bound by *earlier* observations (this cross-stage
  data flow is what makes instance identification — Feature 8 — exact,
  symmetric, or wandering);
* ``binds`` — new variables captured from this event's fields;
* ``same_packet_as`` — packet-identity linkage (Feature 5): this event must
  carry the same packet uid as the named earlier observation;
* optional refinements on the egress action (unicast vs flood — matching
  the switch's own output decision) and the out-of-band kind.

Negative match (Feature 6) appears as :class:`FieldNe` and
:class:`MismatchAny` (the NAT property's "destination not equal to A, P",
which is a disjunction of inequalities).

The field map a guard reads is :func:`event_fields`: the packet's own
fields, which its headers declare (:data:`repro.packet.HEADERS`), plus the
event metadata declared here, in :data:`METADATA_FIELDS`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, Mapping, Optional, Tuple, Union

from ..packet.headers import Field
from ..switch.events import (
    DataplaneEvent,
    EgressAction,
    OobKind,
    OutOfBandEvent,
    PacketArrival,
    PacketDrop,
    PacketEgress,
    TimerFired,
)


class EventKind(Enum):
    """Which dataplane event class an observation watches."""

    ARRIVAL = "arrival"
    EGRESS = "egress"
    DROP = "drop"
    OOB = "oob"
    ANY_PACKET = "any-packet"


_KIND_TYPES = {
    EventKind.ARRIVAL: (PacketArrival,),
    EventKind.EGRESS: (PacketEgress,),
    EventKind.DROP: (PacketDrop,),
    EventKind.OOB: (OutOfBandEvent,),
    EventKind.ANY_PACKET: (PacketArrival, PacketEgress, PacketDrop),
}


def kind_matches(kind: EventKind, event: DataplaneEvent) -> bool:
    """Cheap pre-filter: could this event class ever match this kind?"""
    return isinstance(event, _KIND_TYPES[kind])


def kind_event_classes(kind: EventKind) -> Tuple[type, ...]:
    """The concrete event classes an :class:`EventKind` covers.

    The dispatch planner (:mod:`repro.core.compile`) registers each
    stage's watchers under exactly these classes, so an event reaches
    only the stages that could ever match it.
    """
    return _KIND_TYPES[kind]


#: The event metadata :func:`event_fields` adds to a packet's own fields —
#: every value supplied by the switch, none by the sender.  ``attr`` is the
#: event attribute it is read from (the packet's, for ``uid``).
METADATA_FIELDS: Tuple[Field, ...] = (
    Field("in_port", "in_port", "int", 32),
    Field("out_port", "out_port", "int", 32),
    Field("oob.port", "port", "int", 32),
    Field("uid", "uid", "int", 64),
    Field("time", "time", "float", 0),
    Field("switch", "switch_id", "str", 0),
    Field("egress.action", "action", "enum", 0),
    Field("drop.reason", "reason", "str", 0),
    Field("oob.kind", "oob_kind", "enum", 0),
    Field("timer.id", "timer_id", "str", 0),
)


def event_fields(event: DataplaneEvent, max_layer: int = 7) -> Dict[str, object]:
    """Flatten a dataplane event into the field map guards evaluate over.

    Packet events expose the packet's dotted fields (to ``max_layer`` — the
    parse-depth limit of Feature 1); every event adds its rows of
    :data:`METADATA_FIELDS`.
    """
    fields: Dict[str, object] = {"time": event.time, "switch": event.switch_id}
    if isinstance(event, PacketArrival):
        event.packet.fields(max_layer, fields)
        fields["in_port"] = event.in_port
        fields["uid"] = event.packet.uid
    elif isinstance(event, PacketEgress):
        event.packet.fields(max_layer, fields)
        fields["in_port"] = event.in_port
        fields["out_port"] = event.out_port
        fields["egress.action"] = event.action
        fields["uid"] = event.packet.uid
    elif isinstance(event, PacketDrop):
        event.packet.fields(max_layer, fields)
        fields["in_port"] = event.in_port
        fields["drop.reason"] = event.reason
        fields["uid"] = event.packet.uid
    elif isinstance(event, OutOfBandEvent):
        fields["oob.kind"] = event.oob_kind
        if event.port is not None:
            fields["oob.port"] = event.port
    elif isinstance(event, TimerFired):
        fields["timer.id"] = event.timer_id
    return fields


# ---------------------------------------------------------------------------
# Value references
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Var:
    """Reference to a variable bound by an earlier observation."""

    name: str


@dataclass(frozen=True)
class Const:
    """A literal value."""

    value: object


ValueRef = Union[Var, Const]


def resolve(ref: ValueRef, env: Mapping[str, object]) -> object:
    if isinstance(ref, Var):
        if ref.name not in env:
            raise KeyError(f"unbound variable ${ref.name}")
        return env[ref.name]
    return ref.value


# ---------------------------------------------------------------------------
# Guards
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class FieldEq:
    """``field == value`` (value may be a Var from an earlier stage)."""

    field: str
    value: ValueRef

    def holds(self, fields: Mapping[str, object], env: Mapping[str, object]) -> bool:
        if self.field not in fields:
            return False
        return fields[self.field] == resolve(self.value, env)


@dataclass(frozen=True)
class FieldNe:
    """``field != value`` — negative match (Feature 6)."""

    field: str
    value: ValueRef

    def holds(self, fields: Mapping[str, object], env: Mapping[str, object]) -> bool:
        if self.field not in fields:
            return True  # an absent field cannot equal the forbidden value
        return fields[self.field] != resolve(self.value, env)


#: ordered comparison operators, op text -> binary predicate
CMP_FNS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


@dataclass(frozen=True)
class FieldCmp:
    """``field < value`` (or ``<=`` / ``>`` / ``>=``) — ordered match.

    An absent field, or one whose value does not order against the
    reference (a string against an integer), never satisfies the guard.
    """

    field: str
    op: str  # "<" | "<=" | ">" | ">="
    value: ValueRef

    def __post_init__(self) -> None:
        if self.op not in CMP_FNS:
            raise ValueError(f"unknown ordered operator {self.op!r}")

    def holds(self, fields: Mapping[str, object], env: Mapping[str, object]) -> bool:
        if self.field not in fields:
            return False
        try:
            return bool(CMP_FNS[self.op](
                fields[self.field], resolve(self.value, env)))
        except TypeError:
            return False


@dataclass(frozen=True)
class MismatchAny:
    """At least one of the (field, ref) pairs differs.

    This is the NAT property's final guard: "destination not equal to A, P"
    — i.e. ``A'' != A  OR  P'' != P``.  All fields must be present for the
    comparison to be meaningful; a packet lacking them does not witness a
    mismatch.
    """

    pairs: Tuple[Tuple[str, ValueRef], ...]

    def holds(self, fields: Mapping[str, object], env: Mapping[str, object]) -> bool:
        if any(name not in fields for name, _ in self.pairs):
            return False
        return any(
            fields[name] != resolve(ref, env) for name, ref in self.pairs
        )


@dataclass(frozen=True)
class Predicate:
    """An arbitrary boolean over (event fields, environment).

    The escape hatch for conditions the structured guards cannot express
    (e.g. "requested address within the DHCP pool").  ``fields_used`` feeds
    the static analyzer so parse-depth requirements stay derivable.
    """

    fn: Callable[[Mapping[str, object], Mapping[str, object]], bool]
    description: str
    fields_used: Tuple[str, ...] = ()
    #: fields of *other* packets whose values the predicate's auxiliary
    #: state was built from (e.g. a knowledge base of DHCP leases consulted
    #: while matching ARP events).  They count toward the property's parse
    #: depth and drive the wandering-match classification.
    history_fields: Tuple[str, ...] = ()

    def holds(self, fields: Mapping[str, object], env: Mapping[str, object]) -> bool:
        return bool(self.fn(fields, env))


Guard = Union[FieldEq, FieldNe, FieldCmp, MismatchAny, Predicate]


@dataclass(frozen=True)
class Bind:
    """Capture ``field``'s value from the matched event into ``var``."""

    var: str
    field: str


# ---------------------------------------------------------------------------
# Event patterns
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class EventPattern:
    """What one observation stage matches."""

    kind: EventKind
    guards: Tuple[Guard, ...] = ()
    binds: Tuple[Bind, ...] = ()
    same_packet_as: Optional[str] = None
    egress_action: Optional[EgressAction] = None
    not_egress_action: Optional[EgressAction] = None
    oob_kind: Optional[OobKind] = None

    def matches(
        self,
        event: DataplaneEvent,
        fields: Mapping[str, object],
        env: Mapping[str, object],
    ) -> bool:
        """Full guard evaluation (``same_packet_as`` checked by the engine,
        which knows the uid bound at the earlier stage)."""
        if not isinstance(event, _KIND_TYPES[self.kind]):
            return False
        if self.oob_kind is not None and fields.get("oob.kind") != self.oob_kind:
            return False
        if self.egress_action is not None and fields.get("egress.action") != self.egress_action:
            return False
        if (
            self.not_egress_action is not None
            and fields.get("egress.action") == self.not_egress_action
        ):
            return False
        return all(g.holds(fields, env) for g in self.guards)

    def capture(self, fields: Mapping[str, object]) -> Dict[str, object]:
        """Extract this pattern's bindings from a matched event's fields."""
        out: Dict[str, object] = {}
        for bind in self.binds:
            if bind.field not in fields:
                raise KeyError(
                    f"bind {bind.var}<-{bind.field}: field absent from event"
                )
            out[bind.var] = fields[bind.field]
        return out

    def bindable(self, fields: Mapping[str, object]) -> bool:
        """True if every bound field is present (a match can complete)."""
        return all(b.field in fields for b in self.binds)

    # -- introspection for the static analyzer ------------------------------
    def referenced_fields(self) -> Tuple[str, ...]:
        """Every field this pattern reads (guards + binds + predicates)."""
        names = []
        for guard in self.guards:
            if isinstance(guard, (FieldEq, FieldNe, FieldCmp)):
                names.append(guard.field)
            elif isinstance(guard, MismatchAny):
                names.extend(name for name, _ in guard.pairs)
            elif isinstance(guard, Predicate):
                names.extend(guard.fields_used)
                names.extend(guard.history_fields)
        names.extend(b.field for b in self.binds)
        return tuple(names)

    def env_guards(self) -> Tuple[Tuple[str, str], ...]:
        """(field, var) pairs where a guard equates a field with a Var —
        the data-flow edges instance identification is classified from."""
        out = []
        for guard in self.guards:
            if isinstance(guard, FieldEq) and isinstance(guard.value, Var):
                out.append((guard.field, guard.value.name))
        return tuple(out)

    def negative_env_refs(self) -> Tuple[Tuple[str, str], ...]:
        """(field, var) pairs referenced under negation (Feature 6)."""
        out = []
        for guard in self.guards:
            if isinstance(guard, FieldNe) and isinstance(guard.value, Var):
                out.append((guard.field, guard.value.name))
            elif isinstance(guard, MismatchAny):
                out.extend(
                    (name, ref.name)
                    for name, ref in guard.pairs
                    if isinstance(ref, Var)
                )
        return tuple(out)

    @property
    def has_negation(self) -> bool:
        return any(isinstance(g, (FieldNe, MismatchAny)) for g in self.guards)
