"""Dispatch planning and guard emission — the front half of the lowering.

Sec. 3.3 of the paper argues that *matching* cost, not state size, is
what makes on-switch property monitoring expensive; FAST and OpenState
make the same bet by pre-compiling match logic into tables instead of
interpreting it per packet.  This module is the engine-side analogue,
in two parts that :mod:`repro.core.codegen` assembles into the program
the monitor runs:

* :func:`dispatch_plan` maps each *concrete* dataplane event class to the
  exact ``(stage, role)`` watchers of a property that could ever match
  it, so an event touches only the stages that can react to it instead
  of the full property × stage cross-product.  The linter reads the same
  plan (:func:`dispatch_summary`) to price how many watchers a property
  puts on each event kind — and to flag stages that force
  full-population scans on hot packet kinds.

* :func:`guard_source`, :func:`refinement_sources` and
  :func:`bindable_source` turn an :class:`~repro.core.refs.EventPattern`'s
  guard dataclasses into inline boolean source text: constants folded
  into the compare (the ``Const`` wrapper disappears), environment
  lookups as direct dict accesses on pre-extracted variable names.

Guard semantics are therefore written twice in the repo, not more: here
(the emitter) and in ``EventPattern.matches`` as walked by the reference
evaluator (:mod:`repro.core.reference`, ``match_strategy="interpreted"``).
The differential lattice (``tests/property/test_lattice.py``) holds the
two to identical verdicts and counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple, Type

from ..switch.events import DataplaneEvent
from .instances import stage_index_plan
from .refs import (
    EventPattern,
    FieldCmp,
    FieldEq,
    FieldNe,
    MismatchAny,
    Predicate,
    Var,
    kind_event_classes,
)
from .spec import Absent, PropertySpec


# ---------------------------------------------------------------------------
# Dispatch planning
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Watcher:
    """One (stage, role) pair that an event class could ever trigger.

    ``indexed`` records whether the watcher's instance lookup is a hash
    probe (the stage's index plan — for an ``unless``, the pattern's own
    ``field == $var`` guards — is non-empty) or a full scan of the stage
    population — the distinction the hot-scan lint warns about.
    """

    stage_idx: int
    role: str  # "create" | "advance" | "discharge" | "unless"
    pattern: EventPattern
    indexed: bool


def dispatch_plan(
    prop: PropertySpec,
) -> Dict[Type[DataplaneEvent], Tuple[Watcher, ...]]:
    """Concrete event class -> the property's watchers for that class.

    Roles follow the engine's evaluation phases: ``unless``/``discharge``
    cancellations, ``advance`` for positive stages, ``create`` for stage
    0.  A class absent from the mapping can never affect the property —
    the monitor skips it entirely.
    """
    plan: Dict[Type[DataplaneEvent], List[Watcher]] = {}

    def register(watcher: Watcher) -> None:
        for cls in kind_event_classes(watcher.pattern.kind):
            plan.setdefault(cls, []).append(watcher)

    for stage_idx, stage in enumerate(prop.stages):
        if stage_idx == 0:
            register(Watcher(0, "create", stage.pattern, True))
            continue
        indexed = bool(stage_index_plan(stage))
        for unless in getattr(stage, "unless", ()):
            register(Watcher(
                stage_idx, "unless", unless, bool(unless.env_guards())))
        if isinstance(stage, Absent):
            register(Watcher(stage_idx, "discharge", stage.pattern, indexed))
        else:
            register(Watcher(stage_idx, "advance", stage.pattern, indexed))
    return {cls: tuple(ws) for cls, ws in plan.items()}


# ---------------------------------------------------------------------------
# Source emission (the codegen backend — repro.core.codegen assembles these)
# ---------------------------------------------------------------------------
#: FieldCmp operator -> the safe-compare helper the generated source calls
#: (bound into the exec globals by repro.core.codegen).
CMP_HELPERS = {"<": "_lt", "<=": "_le", ">": "_gt", ">=": "_ge"}


def guard_source(guard, fx, const, env_expr: str, fields_expr: str) -> str:
    """One guard dataclass -> one inline boolean expression.

    Same verdicts as the guard's interpreted ``holds``: the same absence
    semantics (``_M`` is :data:`~repro.core.refs.MISSING`), constants folded
    (literals inline, other values bound as exec globals via ``const``),
    ordered compares that swallow TypeError (via the :data:`CMP_HELPERS`
    functions).

    ``fx`` maps a field name to its access expression — a local the
    evaluator hoists once per event — which is what makes the emitted
    compare straight-line: no per-guard dict lookups survive into the
    hot expression.
    """
    if isinstance(guard, FieldEq):
        got = fx(guard.field)
        val = (f"{env_expr}[{guard.value.name!r}]"
               if isinstance(guard.value, Var) else const(guard.value.value))
        return f"({got} is not _M and {got} == {val})"
    if isinstance(guard, FieldNe):
        got = fx(guard.field)
        val = (f"{env_expr}[{guard.value.name!r}]"
               if isinstance(guard.value, Var) else const(guard.value.value))
        # an absent field cannot equal the forbidden value
        return f"({got} is _M or {got} != {val})"
    if isinstance(guard, FieldCmp):
        got = fx(guard.field)
        val = (f"{env_expr}[{guard.value.name!r}]"
               if isinstance(guard.value, Var) else const(guard.value.value))
        helper = CMP_HELPERS[guard.op]
        return f"({got} is not _M and {helper}({got}, {val}))"
    if isinstance(guard, MismatchAny):
        present = [f"{fx(name)} is not _M" for name, _ in guard.pairs]
        differs = []
        for name, ref in guard.pairs:
            val = (f"{env_expr}[{ref.name!r}]" if isinstance(ref, Var)
                   else const(ref.value))
            differs.append(f"{fx(name)} != {val}")
        return f"({' and '.join(present)} and ({' or '.join(differs)}))"
    if isinstance(guard, Predicate):
        return f"{const(guard.fn)}({fields_expr}, {env_expr})"
    raise TypeError(f"cannot emit guard {guard!r}")  # pragma: no cover


def refinement_sources(pattern: EventPattern, fx, const) -> List[str]:
    """The oob-kind / egress-action refinements as inline expressions
    (absent fields never equal an enum member, so the ``is not _M``
    presence check is equivalent to ``fields.get(...) == member``)."""
    out: List[str] = []
    if pattern.oob_kind is not None:
        got = fx("oob.kind")
        out.append(f"({got} is not _M and {got} == {const(pattern.oob_kind)})")
    if pattern.egress_action is not None:
        got = fx("egress.action")
        out.append(
            f"({got} is not _M and {got} == {const(pattern.egress_action)})")
    if pattern.not_egress_action is not None:
        got = fx("egress.action")
        out.append(
            f"({got} is _M or {got} != {const(pattern.not_egress_action)})")
    return out


def bindable_source(pattern: EventPattern, fx) -> str:
    """``bindable`` as one expression (``"True"`` when nothing binds)."""
    if not pattern.binds:
        return "True"
    return " and ".join(f"{fx(b.field)} is not _M" for b in pattern.binds)


#: short names for the concrete event classes, for summaries and JSON.
def event_class_label(cls: Type[DataplaneEvent]) -> str:
    return {
        "PacketArrival": "arrival",
        "PacketEgress": "egress",
        "PacketDrop": "drop",
        "OutOfBandEvent": "oob",
    }.get(cls.__name__, cls.__name__)


def dispatch_summary(prop: PropertySpec) -> Dict[str, int]:
    """Watchers per concrete event kind — the dispatch plan's size.

    This is the number of stages the engine touches when one event of
    that kind arrives; kinds not listed cost the property nothing.
    """
    return {
        event_class_label(cls): len(watchers)
        for cls, watchers in sorted(
            dispatch_plan(prop).items(), key=lambda kv: kv[0].__name__
        )
    }


def scan_watchers(
    prop: PropertySpec,
) -> List[Tuple[str, str, str]]:
    """(event kind, stage name, role) for full-population scan watchers.

    These are advance/discharge watchers with an empty index plan and
    ``unless`` watchers with no ``field == $var`` guard: every event of
    that kind examines *every* instance waiting at the stage (Table 1's
    multiple match).  On hot packet kinds that is the per-packet price
    the hot-scan lint (L015) warns about.
    """
    out: List[Tuple[str, str, str]] = []
    seen = set()
    for cls, watchers in sorted(
        dispatch_plan(prop).items(), key=lambda kv: kv[0].__name__
    ):
        for watcher in watchers:
            if watcher.indexed:
                continue
            key = (cls, watcher.stage_idx, watcher.role)
            if key in seen:
                continue
            seen.add(key)
            stage = prop.stages[watcher.stage_idx]
            out.append((event_class_label(cls), stage.name, watcher.role))
    return out
