"""Property specifications: sequences of observation stages.

A :class:`PropertySpec` is the monitor-facing form of a correctness
property: an ordered tuple of stages whose completion *witnesses a
violation* (the paper defines a property by the event trace that violates
it).  Two stage flavours:

* :class:`Observe` — a positive observation: an event matching the pattern
  advances the instance.  ``within`` attaches an ordinary timeout (Feature
  3): if the stage is not matched within T seconds of reaching it, the
  instance silently expires.  ``unless`` patterns (Feature 4, persistent
  obligation) cancel the instance while it waits here — e.g. "until the
  connection is closed".

* :class:`Absent` — a negative observation (Feature 7, timeout actions):
  the stage is satisfied when ``within`` seconds elapse *without* an event
  matching the pattern; the timer firing advances the instance (a violation,
  if final).  An event matching the pattern instead discharges the
  obligation and kills the instance.  ``refresh`` controls the subtlety the
  paper calls out: with ``"on_prior"`` the timer resets whenever the prior
  observation re-fires — which misses a never-answered request storm sent
  every T−1 seconds — while the sound default ``"never"`` lets the original
  deadline stand.

Instances are keyed by ``key_vars`` (defaulting to everything stage 0
binds); re-matching stage 0 with an existing key *refreshes* that instance
(re-binding variables and resetting its stage-1 timer) rather than
duplicating it — the "separate timers for each A, B pair, reset whenever a
new A→B packet is seen" semantics of Feature 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple, Union

from .refs import Bind, EventKind, EventPattern, Var


class SpecError(ValueError):
    """Raised for malformed property specifications."""


@dataclass(frozen=True)
class Observe:
    """A positive observation stage."""

    name: str
    pattern: EventPattern
    within: Optional[float] = None
    unless: Tuple[EventPattern, ...] = ()
    refresh_on_repeat: bool = True

    @property
    def is_negative(self) -> bool:
        return False


@dataclass(frozen=True)
class Absent:
    """A negative observation stage (timeout action, Feature 7).

    ``semantic_deadline`` records whether the duration is part of the
    property's *statement* (DHCP's "reply within T seconds") or merely a
    practicality the monitor imposes to make checking finite (the ARP
    proxy's maximum wait).  The static analyzer uses it to decide whether
    the property requires ordinary Timeouts (Feature 3) in addition to
    Timeout Actions (Feature 7), matching Table 1's columns.
    """

    name: str
    pattern: EventPattern
    within: float = 1.0
    refresh: str = "never"  # "never" (sound) or "on_prior" (the buggy reset)
    semantic_deadline: bool = False
    unless: Tuple[EventPattern, ...] = ()

    def __post_init__(self) -> None:
        if self.within <= 0:
            raise SpecError(f"Absent stage {self.name!r} needs within > 0")
        if self.refresh not in ("never", "on_prior"):
            raise SpecError(f"bad refresh policy {self.refresh!r}")

    @property
    def is_negative(self) -> bool:
        return True


Stage = Union[Observe, Absent]


@dataclass(frozen=True)
class PropertySpec:
    """A complete monitorable property.

    ``obligation_override`` exists because the paper's Feature 4
    ("persistent obligation") is a semantic judgement about the property's
    *statement* — whether the monitor holds a pending response that may
    never arrive — which is not always decidable from structure alone.
    When None, the analyzer derives it from the presence of ``unless``
    cancellation patterns; Table-1 catalog entries set it explicitly where
    the paper's hand classification differs, each with a comment saying
    why.  ``match_kind_override`` plays the same role for the one Table-1
    row whose paper classification differs from the structural rule (see
    ``repro/props/sources/dhcp_no_overlap.prop``).
    """

    name: str
    description: str
    stages: Tuple[Stage, ...]
    key_vars: Tuple[str, ...] = ()
    violation_message: str = ""
    obligation_override: Optional[bool] = None
    match_kind_override: Optional[str] = None  # a MatchKind value string

    def __post_init__(self) -> None:
        if not self.stages:
            raise SpecError(f"property {self.name!r} has no stages")
        first = self.stages[0]
        if isinstance(first, Absent):
            raise SpecError(
                f"property {self.name!r}: first stage must be a positive "
                "observation (something has to create the instance)"
            )
        if first.within is not None:
            raise SpecError(
                f"property {self.name!r}: stage 0 cannot carry a timeout "
                "(there is no prior stage to time from)"
            )
        self._check_bindings()
        if not self.key_vars:
            object.__setattr__(
                self, "key_vars", tuple(b.var for b in first.pattern.binds)
            )
        bound0 = {b.var for b in first.pattern.binds}
        missing = [v for v in self.key_vars if v not in bound0]
        if missing:
            raise SpecError(
                f"property {self.name!r}: key vars {missing} not bound by stage 0"
            )
        names = [s.name for s in self.stages]
        if len(set(names)) != len(names):
            raise SpecError(f"property {self.name!r}: duplicate stage names")

    def _check_bindings(self) -> None:
        """Every Var a stage references must be bound by an earlier stage,
        and every ``same_packet_as`` must name an earlier observation that
        records a packet uid — so every variable an instance index reads
        is bound by the time an instance waits at its stage.

        An ``Absent`` stage is passed only by its timer, so it binds
        nothing and records no uid; neither does an out-of-band event.
        """
        bound: Set[str] = set()
        records_uid: Dict[str, bool] = {}  # earlier stage -> records a uid?
        for index, stage in enumerate(self.stages):
            where = f"property {self.name!r} stage {stage.name!r}"
            for pattern in (stage.pattern, *getattr(stage, "unless", ())):
                self._check_pattern_vars(pattern, bound, index)
                target = pattern.same_packet_as
                if target is not None and not records_uid.get(target):
                    what = (f"unknown stage {target!r}"
                            if target not in records_uid else
                            f"{target!r}, an absent or oob stage, which "
                            "records no packet uid")
                    raise SpecError(
                        f"{where}: same_packet_as references {what}")
            negative = isinstance(stage, Absent)
            if negative and stage.pattern.binds:
                raise SpecError(
                    f"{where}: an absent stage cannot bind (it is passed "
                    "only by its timer, so its binds never apply)")
            bound.update(b.var for b in stage.pattern.binds)
            records_uid[stage.name] = not negative and (
                stage.pattern.kind is not EventKind.OOB)

    def _check_pattern_vars(
        self, pattern: EventPattern, bound: Set[str], stage_index: int
    ) -> None:
        from .refs import FieldCmp, FieldEq, FieldNe, MismatchAny

        for guard in pattern.guards:
            refs = []
            if isinstance(guard, (FieldEq, FieldNe, FieldCmp)) \
                    and isinstance(guard.value, Var):
                refs.append(guard.value.name)
            elif isinstance(guard, MismatchAny):
                refs.extend(
                    ref.name for _, ref in guard.pairs if isinstance(ref, Var)
                )
            for name in refs:
                if name not in bound:
                    raise SpecError(
                        f"property {self.name!r} stage {stage_index}: "
                        f"guard references unbound variable ${name}"
                    )

    # -- introspection -------------------------------------------------------
    @property
    def num_stages(self) -> int:
        return len(self.stages)

    def stage_index(self, name: str) -> int:
        for i, stage in enumerate(self.stages):
            if stage.name == name:
                return i
        raise KeyError(name)

    def var_origin(self) -> Dict[str, str]:
        """Map each variable to the field it was bound from (first binding).

        The static analyzer classifies instance identification (Feature 8)
        from these data-flow edges.
        """
        origin: Dict[str, str] = {}
        for stage in self.stages:
            for bind in stage.pattern.binds:
                origin.setdefault(bind.var, bind.field)
        return origin


def refresh_applies(prop: PropertySpec) -> bool:
    """Whether re-matching stage 0 refreshes an existing keyed instance.

    A repeat observation restarts the clock only when the property opted
    in (``refresh_on_repeat``) *and* refreshing is sound for the next
    stage: for an ``Absent`` stage the paper's Sec. 3.2 bug is exactly an
    unconditional reset, so only the explicit ``refresh="on_prior"``
    policy re-arms the timer.  Shared by the generated program and the
    reference evaluator so both fold the same policy.
    """
    stage0 = prop.stages[0]
    if not stage0.refresh_on_repeat or prop.num_stages < 2:
        return False
    stage1 = prop.stages[1]
    if isinstance(stage1, Absent):
        return stage1.refresh == "on_prior"
    return True
