"""Declarative flow-table actions, interpreted by the pipeline.

The action set covers what the surveyed architectures provide:

* classic OpenFlow forwarding: :class:`Output`, :class:`Flood`,
  :class:`Drop`, :class:`ToController`, :class:`SetField`, :class:`GotoTable`;
* the Open vSwitch ``learn`` action (FAST's substrate): :class:`Learn`
  installs a new rule whose match/actions are built from the triggering
  packet's fields — this is a **slow-path** state update in the paper's
  Table 2 taxonomy;
* register writes (P4/POF-style **fast-path** state): :class:`RegisterWrite`.

:class:`Learn` templates may carry ``on_timeout`` actions and may
recursively contain further :class:`Learn` actions — the Varanus extensions
("recursive learn", "timeout actions") that standard OVS lacks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union


@dataclass(frozen=True)
class Action:
    """Marker base class for all actions."""


@dataclass(frozen=True)
class Output(Action):
    """Unicast out one port.

    Inside a :class:`Learn` template, ``port`` may be a :class:`FieldRef`
    (e.g. ``FieldRef("in_port")`` — MAC learning's "send future packets to
    the port this source arrived on"), resolved when the learn fires.
    """

    port: object  # int, or FieldRef/Deferred inside a Learn template


@dataclass(frozen=True)
class Flood(Action):
    """Send out every port except the ingress port."""


@dataclass(frozen=True)
class Drop(Action):
    """Explicitly discard the packet."""

    reason: str = "drop-action"


@dataclass(frozen=True)
class ToController(Action):
    """Punt to the controller (packet-in)."""

    reason: str = "packet-in"


@dataclass(frozen=True)
class SetField(Action):
    """Rewrite one dotted header field before output."""

    name: str
    value: object


@dataclass(frozen=True)
class GotoTable(Action):
    """Continue matching at a later pipeline table (ids must increase)."""

    table_id: int


@dataclass(frozen=True)
class FieldRef:
    """A deferred reference to a field of the *triggering* packet.

    Learn templates use these where the installed rule should carry a value
    copied from the packet that fired the learn — e.g.
    ``MatchTemplate(("eth.dst", FieldRef("eth.src")))`` implements MAC
    learning's "future packets TO this source".
    """

    name: str

    def resolve(self, fields: Mapping[str, object]) -> object:
        if self.name not in fields:
            raise KeyError(f"learn template references absent field {self.name!r}")
        return fields[self.name]


@dataclass(frozen=True)
class Deferred:
    """Delay resolution of a template value by one learn level.

    Recursive learn (Varanus) installs rules that themselves learn: a field
    the *inner* rule should copy from *its own* triggering packet must not
    be resolved when the outer learn fires.  ``Deferred(FieldRef(n))``
    unwraps to ``FieldRef(n)`` at the outer resolution, which then resolves
    normally when the inner rule fires.  Deferred nests arbitrarily deep.
    """

    inner: "TemplateValue"


TemplateValue = Union[object, FieldRef, Deferred]


def resolve_value(value: TemplateValue, fields: Mapping[str, object]) -> object:
    if isinstance(value, Deferred):
        return value.inner
    return value.resolve(fields) if isinstance(value, FieldRef) else value


@dataclass(frozen=True)
class Learn(Action):
    """Install a rule derived from the triggering packet (OVS ``learn``).

    * ``table_id``/``priority`` place the new rule;
    * ``match`` maps dotted field names to constants or :class:`FieldRef`;
    * ``negate`` lists match fields to install as *negative* predicates;
    * ``actions`` are the installed rule's actions (values inside
      ``SetField`` may be :class:`FieldRef`, resolved at learn time);
    * ``idle_timeout``/``hard_timeout`` expire the installed rule;
    * ``on_timeout`` — Varanus extension — actions executed when the
      installed rule's timer fires (Feature 7), instead of silent expiry;
    * nested :class:`Learn` inside ``actions`` is the Varanus "recursive
      learn" used to unroll monitor instances into new tables.
    """

    table_id: int
    match: Tuple[Tuple[str, TemplateValue], ...]
    actions: Tuple[Action, ...]
    priority: int = 100
    negate: Tuple[str, ...] = ()
    idle_timeout: Optional[float] = None
    hard_timeout: Optional[float] = None
    on_timeout: Tuple[Action, ...] = ()
    cookie: str = ""
    #: fields of the triggering packet whose values are appended to the
    #: cookie at learn time ("per-key cookies") — how Varanus names the
    #: rules belonging to one instance so they can be deleted together.
    cookie_fields: Tuple[str, ...] = ()
    #: companion rules installed into the SAME resolved target table (their
    #: own table_id is ignored) — how Varanus lands a timer rule and its
    #: discharge watcher in one freshly-unrolled instance table together.
    extra: Tuple["Learn", ...] = ()

    def build_actions(self, fields: Mapping[str, object]) -> Tuple[Action, ...]:
        """Resolve FieldRefs inside the installed rule's actions."""
        return tuple(_resolve_action(a, fields) for a in self.actions)

    def build_timeout_actions(self, fields: Mapping[str, object]) -> Tuple[Action, ...]:
        return tuple(_resolve_action(a, fields) for a in self.on_timeout)


@dataclass(frozen=True)
class RegisterWrite(Action):
    """Write a value into a named register array (fast-path state).

    ``index`` and ``value`` may be :class:`FieldRef`, resolved against the
    triggering packet; integer-convertible values are stored as ints.
    """

    array: str
    index: TemplateValue
    value: TemplateValue


@dataclass(frozen=True)
class DeleteRules(Action):
    """Remove all rules carrying ``cookie`` (Varanus extension).

    ``table_id`` limits the deletion to one table; ``-2`` means the table
    of the rule executing this action; ``None`` means every table.  Stock
    OpenFlow can only delete rules from the controller — on-switch
    deletion triggered by a packet match is one of the custom extensions
    the Varanus prototype added, used here to discharge negative
    observations and cancel unrolled monitor instances.
    """

    cookie: str
    table_id: Optional[int] = None
    #: fields of the triggering packet appended to the cookie at fire time,
    #: mirroring Learn.cookie_fields — deletes exactly one key's rules.
    cookie_fields: Tuple[str, ...] = ()


@dataclass(frozen=True)
class Notify(Action):
    """Emit a monitor alert (violation notification) from the dataplane.

    ``carry`` names fields of the triggering packet to include in the
    alert — the paper's "limited provenance recovered without added cost"
    (Feature 10): values already held for matching ride along for free.
    ``baked`` holds values resolved at learn time: a Notify installed by a
    learn action (notably as an ``on_timeout`` action, where no packet
    exists when it fires) captures the triggering packet's fields then.
    """

    message: str
    carry: Tuple[str, ...] = ()
    baked: Tuple[Tuple[str, object], ...] = ()


def keyed_cookie(
    cookie: str, cookie_fields: Tuple[str, ...], fields: Mapping[str, object]
) -> str:
    """Append the values of ``cookie_fields`` to ``cookie`` (per-key naming)."""
    if not cookie_fields:
        return cookie
    suffix = "|".join(str(fields.get(name, "?")) for name in cookie_fields)
    return f"{cookie}|{suffix}"


def _resolve_action(action: Action, fields: Mapping[str, object]) -> Action:
    """Resolve one learn level of FieldRefs inside an installed action."""
    if isinstance(action, Output) and isinstance(action.port, (FieldRef, Deferred)):
        return Output(port=resolve_value(action.port, fields))
    if isinstance(action, Notify) and action.carry:
        # Bake the carried values now: the installed rule (or its timeout)
        # may fire with no packet context to read them from.
        return Notify(
            message=action.message,
            carry=action.carry,
            baked=action.baked + tuple(
                (name, fields[name]) for name in action.carry
                if name in fields
            ),
        )
    if isinstance(action, SetField) and isinstance(action.value, (FieldRef, Deferred)):
        return SetField(name=action.name, value=resolve_value(action.value, fields))
    if isinstance(action, RegisterWrite):
        return RegisterWrite(
            array=action.array,
            index=resolve_value(action.index, fields),
            value=resolve_value(action.value, fields),
        )
    if isinstance(action, Learn):
        # Recursive learn (Varanus): resolve this level's references now;
        # Deferred values unwrap by one level and bind when the installed
        # rule's own learn fires.
        resolved_match = tuple(
            (name, resolve_value(value, fields)) for name, value in action.match
        )
        return Learn(
            table_id=action.table_id,
            match=resolved_match,
            actions=tuple(_resolve_action(a, fields) for a in action.actions),
            priority=action.priority,
            negate=action.negate,
            idle_timeout=action.idle_timeout,
            hard_timeout=action.hard_timeout,
            on_timeout=tuple(_resolve_action(a, fields) for a in action.on_timeout),
            cookie=action.cookie,
            extra=tuple(_resolve_action(e, fields) for e in action.extra),
        )
    return action
