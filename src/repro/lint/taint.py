"""Taint and resource-bound analysis (rules L017–L019).

The monitor holds per-instance state keyed by values copied out of
events.  When every one of those values comes from fields an end host
controls outright — packet headers, which the switch parses from
whatever bytes arrive — the *monitor itself* becomes the attack surface:
a sender minting fresh key values mints fresh instances, and the
property that was supposed to watch the network instead exhausts the
switch's state budget (the paper's Sec. 4 resource concern, turned
adversarial).

This pass assigns each bound variable a provenance label and propagates
labels through the same pin/alias/range machinery the contradiction
rules (L005/L006/L016, :mod:`repro.lint.dataflow`) use:

* ``constant`` — the bind's field is guarded equal to a literal, so the
  variable holds one value in every instance; nobody controls it.
* ``trusted`` — the field's value is supplied by the switch, not the
  sender (``in_port``, ``egress.action``, …: the event-metadata rows,
  :data:`repro.core.refs.METADATA_FIELDS`, that
  :data:`repro.core.features.TRUSTED_FIELDS` is read from).
* ``attacker-controlled`` — everything else, packet headers above all.

Labels are ranked ``constant < trusted < attacker-controlled`` and only
ever *fall* when guards are added (a stronger guard pins more, never
less) — the monotonicity the property-based tests lean on.

Three findings come out, each with a derivation chain in ``related``:

* **L017 attacker-keyed instance creation** — every instance-key
  variable is attacker-controlled and stage 0 matches a plain packet
  event: one sender can flood the instance table.  The finding carries a
  worst-case instance bound (key cardinality × stage-0 event fan-out)
  and a suggested :class:`~repro.core.degradation.DegradationPolicy`
  cap.
* **L018 timeout-evasion window** — a ``within`` deadline whose opening
  stages are all attacker-matchable: the sender decides when the clock
  starts, so pacing just inside (or outside) the deadline sidesteps it.
* **L019 tainted violation predicate** — every stage on the violating
  path is attacker-matchable: the violation itself can be fabricated
  end to end, so alerts from this property are spoofable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from ..core.features import (
    ATTACKER_CONTROLLED,
    TRUSTED,
    field_provenance,
)
from ..lang.ast import (
    AnyDiffers,
    Comparison,
    NamedPredicate,
    PatternAst,
    PropertyAst,
    StageAst,
    VarRef,
)
from .dataflow import Interval, Pin, Range, StageEnv
from .diagnostics import Diagnostic, make, related_to
from .schema import field_bits

#: label for a variable pinned to a single literal value
CONSTANT = "constant"

#: labels in increasing attacker power; index = rank
LABEL_ORDER = (CONSTANT, TRUSTED, ATTACKER_CONTROLLED)

#: event kinds an end host can trigger just by sending a packet
_ATTACKER_KINDS = ("arrival", "packet")

#: worst-case instance bounds saturate here (2^63 - 1)
MAX_BOUND = (1 << 63) - 1


def label_rank(label: str) -> int:
    return LABEL_ORDER.index(label)


def _max_label(labels: Iterator[str]) -> str:
    return max(labels, key=label_rank, default=CONSTANT)


@dataclass(frozen=True)
class VarTaint:
    """Provenance of one bound variable."""

    var: str
    label: str
    field: str  # the field the variable was bound from
    stage: str
    reason: str  # one-line derivation, rendered in notes and --json
    bind: object = None  # the BindAst node, for positions
    #: static interval when the binding pattern bounds the field (used to
    #: shrink the worst-case key cardinality)
    interval: Optional[Interval] = None

    def cardinality(self) -> int:
        """Worst-case number of distinct values this variable can take."""
        if self.label == CONSTANT:
            return 1
        if self.interval is not None:
            lo, lo_strict, hi, hi_strict = self.interval
            if isinstance(lo, int) and isinstance(hi, int):
                count = hi - lo + 1 - int(lo_strict) - int(hi_strict)
                return max(1, min(count, MAX_BOUND))
        return min(1 << field_bits(self.field), MAX_BOUND)


@dataclass
class TaintReport:
    """Everything the taint pass derived about one property."""

    prop: str
    labels: Dict[str, VarTaint] = field(default_factory=dict)
    key_vars: Tuple[str, ...] = ()
    #: highest label across the key variables
    key_label: str = CONSTANT
    #: worst-case live instances (key cardinality × stage-0 fan-out)
    instance_bound: int = 1
    #: True when the bound saturated at MAX_BOUND
    capped: bool = False
    #: per-stage: can an end host alone make this stage's pattern match?
    attacker_matchable: Tuple[bool, ...] = ()
    #: cap a DegradationPolicy should impose (None when the key is safe)
    suggested_max_instances: Optional[int] = None


def _is_attacker_matchable(
    pattern: PatternAst, labels: Dict[str, VarTaint]
) -> bool:
    """Can a sender alone produce an event this pattern matches?

    Conservative in the claiming direction: a named predicate is opaque,
    and a guard on a trusted field (``in_port == 3``) needs the network
    to cooperate — either one withholds the "attacker-matchable" claim.
    A guard comparing an attacker field against a *trusted* variable also
    withholds it: the sender would have to guess the switch-supplied
    value.
    """
    if pattern.kind not in _ATTACKER_KINDS:
        return False
    for condition in pattern.conditions:
        if isinstance(condition, NamedPredicate):
            return False
        if isinstance(condition, Comparison):
            if field_provenance(condition.field) != ATTACKER_CONTROLLED:
                return False
            if isinstance(condition.value, VarRef):
                taint = labels.get(condition.value.name)
                if taint is not None and taint.label == TRUSTED:
                    return False
        elif isinstance(condition, AnyDiffers):
            for name, _ in condition.pairs:
                if field_provenance(name) != ATTACKER_CONTROLLED:
                    return False
    return True


def _bind_taints(
    stage: StageAst, env: StageEnv, labels: Dict[str, VarTaint]
) -> List[VarTaint]:
    """Labels for the variables one stage binds.

    ``env`` must already have absorbed the stage, so its own pins,
    aliases, and ranges are visible.
    """
    out: List[VarTaint] = []
    for bind in stage.pattern.binds:
        pin = env.pins.get(bind.var)
        alias = env.aliases.get(bind.var)
        rng = env.ranges.get(bind.var)
        if isinstance(pin, Pin) and pin.stage == stage.name:
            out.append(VarTaint(
                var=bind.var, label=CONSTANT, field=bind.field,
                stage=stage.name, bind=bind,
                reason=f"pinned to {pin.rendered} by a guard on "
                       f"{bind.field}"))
            continue
        if alias is not None and alias.stage == stage.name:
            source = labels.get(alias.other)
            label = source.label if source else ATTACKER_CONTROLLED
            out.append(VarTaint(
                var=bind.var, label=label, field=bind.field,
                stage=stage.name, bind=bind,
                interval=source.interval if source else None,
                reason=f"aliases ${alias.other} ({label})"))
            continue
        provenance = field_provenance(bind.field)
        interval = None
        if isinstance(rng, Range) and rng.stage == stage.name:
            interval = rng.interval
        out.append(VarTaint(
            var=bind.var, label=provenance, field=bind.field,
            stage=stage.name, bind=bind, interval=interval,
            reason=f"bound from {provenance} field {bind.field}"
                   + ("" if interval is None else " (interval-bounded)")))
    return out


def analyze_taint(prop: PropertyAst) -> TaintReport:
    """Label every bound variable and bound the instance table."""
    report = TaintReport(prop=prop.name)
    env = StageEnv()
    matchable: List[bool] = []
    for stage in prop.stages:
        env.absorb(stage)
        for taint in _bind_taints(stage, env, report.labels):
            report.labels[taint.var] = taint
        # matchability may depend on labels of earlier-stage variables,
        # which are all recorded by now
        matchable.append(_is_attacker_matchable(stage.pattern, report.labels))
    report.attacker_matchable = tuple(matchable)

    first = prop.stages[0]
    report.key_vars = prop.key_vars or tuple(
        b.var for b in first.pattern.binds)
    key_taints = [
        report.labels.get(v) for v in report.key_vars
        if report.labels.get(v) is not None
    ]
    report.key_label = _max_label(t.label for t in key_taints)

    fan_out = 3 if first.pattern.kind == "packet" else 1
    bound = fan_out
    for taint in key_taints:
        bound *= taint.cardinality()
        if bound >= MAX_BOUND:
            bound = MAX_BOUND
            report.capped = True
            break
    report.instance_bound = bound
    if report.key_label == ATTACKER_CONTROLLED:
        from ..core.degradation import suggested_policy
        report.suggested_max_instances = suggested_policy(
            report.instance_bound, attacker_keyed=True).max_instances
    return report


def taint_diagnostics(
    prop: PropertyAst, report: TaintReport
) -> List[Diagnostic]:
    """The L017/L018/L019 findings for one analyzed property."""
    out: List[Diagnostic] = []
    out.extend(_attacker_keyed(prop, report))
    out.extend(_timeout_evasion(prop, report))
    out.extend(_tainted_violation(prop, report))
    return out


def _key_chain(report: TaintReport):
    return tuple(
        related_to(
            f"key ${taint.var} is {taint.label} here: {taint.reason}",
            taint.bind)
        for v in report.key_vars
        for taint in [report.labels.get(v)]
        if taint is not None
    )


def _attacker_keyed(
    prop: PropertyAst, report: TaintReport
) -> Iterator[Diagnostic]:
    """L017 — the whole instance key is attacker-controlled.

    A key with even one pinned or trusted component is spared: the flood
    argument needs *every* coordinate freely mintable, and the catalog's
    load-balancer properties (vip pinned to the service address) are the
    counterexample this condition is calibrated against.
    """
    if not report.key_vars:
        return
    key_taints = [report.labels.get(v) for v in report.key_vars]
    if not all(t is not None and t.label == ATTACKER_CONTROLLED
               for t in key_taints):
        return
    if prop.stages[0].pattern.kind not in _ATTACKER_KINDS:
        return
    key_text = ", ".join(f"${v}" for v in report.key_vars)
    bound_text = ("≥2^63" if report.capped
                  else f"{report.instance_bound:,}")
    yield make(
        "L017",
        f"instance key ({key_text}) is entirely attacker-controlled: one "
        f"sender can mint up to {bound_text} instances; suggest a "
        f"DegradationPolicy cap (max_instances="
        f"{report.suggested_max_instances})",
        prop.stages[0], prop=prop.name, related=_key_chain(report),
    )


def _timeout_evasion(
    prop: PropertyAst, report: TaintReport
) -> Iterator[Diagnostic]:
    """L018 — a deadline whose clock the attacker starts (and restarts)."""
    for index, stage in enumerate(prop.stages):
        if index == 0 or stage.within is None:
            continue
        if not all(report.attacker_matchable[:index]):
            continue
        related = tuple(
            related_to(
                f"stage {prior.name!r} is attacker-matchable here",
                prior)
            for prior in prop.stages[:index]
        )
        refresh_note = ""
        if stage.negative and stage.refresh == "on_prior":
            refresh_note = (
                "; refresh on_prior lets the sender reset the deadline "
                "indefinitely by re-matching the prior stage"
            )
        yield make(
            "L018",
            f"stage {stage.name!r} deadline (within {stage.within:g}) is "
            f"opened purely by attacker-controlled events: a sender pacing "
            f"its traffic around the {stage.within:g}s window controls "
            f"whether the deadline ever fires{refresh_note}",
            stage, prop=prop.name, related=related,
        )


def _tainted_violation(
    prop: PropertyAst, report: TaintReport
) -> Iterator[Diagnostic]:
    """L019 — the violating trace can be fabricated end to end."""
    last = prop.stages[-1]
    if last.negative:
        return  # the violation is an absence; nobody "sends" a timeout
    if not all(report.attacker_matchable):
        return
    related = tuple(
        related_to(f"stage {stage.name!r} is attacker-matchable here", stage)
        for stage in prop.stages
    )
    yield make(
        "L019",
        f"every observation on the violating path is attacker-matchable: "
        f"a single sender can fabricate a violation of {prop.name!r} from "
        f"whole cloth, so its alerts are spoofable",
        last, prop=prop.name, related=related,
    )
