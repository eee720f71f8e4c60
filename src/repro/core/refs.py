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
event metadata declared here, in :data:`METADATA_FIELDS`.  The monitor's
generated program and the fabric router read no map: each reads an
event through a :func:`field_loader`, which returns just the fields it
was asked for, as the map would hold them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..packet.headers import WIRE_NAMES, Field, WireHeader
from ..packet.wire import HEADERS, walk
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


#: The missing-field sentinel: what a loader yields for a name the
#: event's field map would not hold.
MISSING = object()

#: dotted packet field -> (the header declaring it, its row)
_PACKET_ROWS = {row.name: (header, row)
                for header in HEADERS for row in header.FIELDS}
_METADATA_ROWS = {row.name: row for row in METADATA_FIELDS}


def field_loader(cls: type, names: Sequence[str], max_layer: int = 7
                 ) -> Callable[[DataplaneEvent], tuple]:
    """The reader of ``names`` off events of class ``cls``.

    It returns one tuple, in ``names`` order: each field's value as
    ``event_fields(event, max_layer)`` holds it, or :data:`MISSING` where
    that map would not hold the name.  It builds no map.  A frame still
    held as bytes is walked once (:func:`repro.packet.wire.walk`), only
    to the deepest layer a demanded name needs, and only the demanded
    values are built from it (each by its row's ``wire`` expression);
    nothing is walked when only metadata is demanded.  A packet built
    from headers is read attribute by attribute, as ``Packet.fields``
    reads it: a None attribute is absent, and a later header wins.
    Loaders are compiled once per ``(cls, names, max_layer)``.
    """
    return _compile_loader(cls, tuple(names), max_layer)


@functools.lru_cache(maxsize=256)
def _compile_loader(cls: type, names: Tuple[str, ...], max_layer: int):
    attrs = getattr(cls, "__dataclass_fields__", {})
    has_packet = "packet" in attrs
    values = ["_M"] * len(names)
    reads: Dict[type, List[Tuple[str, Field]]] = {}
    for i, name in enumerate(names):
        meta = _METADATA_ROWS.get(name)
        header, row = _PACKET_ROWS.get(name, (None, None))
        if meta is not None and meta.attr == "uid":
            if has_packet:
                values[i] = "_ev.packet.uid"
        elif meta is not None and meta.attr in attrs:
            # an optional attribute that is None is not in the map
            values[i] = (f"(_M if (_x := _ev.{meta.attr}) is None else _x)"
                         if attrs[meta.attr].default is None
                         else f"_ev.{meta.attr}")
        elif header is not None and has_packet and header.LAYER <= max_layer:
            values[i] = f"_v{i}"
            reads.setdefault(header, []).append((values[i], row))
    namespace = {"_M": MISSING, "_walk": walk, **WIRE_NAMES}
    namespace.update((f"_{header.__name__}", header) for header in reads)
    lines = ["def _load(_ev):"]
    if reads:
        wire = [h for h in reads if issubclass(h, WireHeader)]
        whole = [h for h in reads if h not in wire]
        lines += [
            "    " + " = ".join(slot for rows in reads.values()
                                for slot, _ in rows) + " = _M",
            "    _p = _ev.packet",
            "    _h = _p.__dict__.get('headers')",
            "    if _h is None:",
            f"        _s, _l7, _ = _walk(_p._wire, "
            f"{max(h.LAYER for h in reads)})",
        ]
        if wire:
            lines.append("        for _c, v in _s:")
            for n, header in enumerate(wire):
                lines.append(f"            {'el' * bool(n)}if "
                             f"_c is _{header.__name__}:")
                lines += [f"                {slot} = {row.wire}"
                          for slot, row in reads[header]]
        for header in whole:
            lines.append(f"        if _l7.__class__ is _{header.__name__}:")
            for slot, row in reads[header]:
                lines += [f"            if (_x := _l7.{row.attr}) is not None:",
                          f"                {slot} = _x"]
        lines += ["    else:", "        for _x in _h:",
                  "            _c = _x.__class__"]
        for n, header in enumerate(reads):
            lines.append(f"            {'el' * bool(n)}if "
                         f"_c is _{header.__name__}:")
            for slot, row in reads[header]:
                lines += [f"                if (_y := _x.{row.attr}) is not None:",
                          f"                    {slot} = _y"]
    lines.append(f"    return ({''.join(v + ', ' for v in values)})")
    exec("\n".join(lines), namespace)  # noqa: S102
    return namespace["_load"]


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
    (e.g. "requested address within the DHCP pool").  ``fields_used`` is
    the contract: the monitor's generated program hands a predicate the
    map of the declared fields that are present (the declarations of
    every predicate watching the same event class), so a predicate sees
    exactly its declared ``fields_used``.  The static analyzer reads the
    same declaration, so parse-depth requirements stay derivable.
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
