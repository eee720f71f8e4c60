"""Split-mode hazard detection — the Sec. 3.3 monitor-error scenario.

The paper: "If the switch splits processing, the monitor has minimal
impact on throughput, but its state might lag behind any packets issued
in response, leading to monitor errors."  Concretely, under split
processing the rules/registers recording that stage *k−1* fired are
installed a state-update lag after the triggering event; any event that
advances stage *k* within that lag reads state still in flight and is
missed.

This pass walks the property the way the Varanus compiler lays it out —
stage k−1's firing *learns* stage k's watcher rules into the instance's
table via a (deferred, in split mode) flow-mod — and asks, per
transition, whether the property's own statement guarantees the reading
event arrives **after** the deferred write lands:

* a packet-triggered ``observe`` gives no guarantee (back-to-back packets
  race the update; ``samepacket`` makes the race *certain* — the packet's
  own egress is processed before any deferred update applies) — the
  advance can be missed outright, so the property is **inline-required**;
* an ``absent`` stage's violation path is the timer: it fires ``within``
  seconds after arming, so a deadline longer than the lag is safe (the
  property stays **split-safe**), though the *discharging* event can
  still race the timer install and cause a spurious violation (L201);
* an ``oob``-triggered stage reads state on control-plane timescales,
  orders of magnitude above any realistic update lag — safe.

``benchmarks/bench_split_vs_inline.py`` measures exactly this: its echo
property (two packet-triggered observes) misses 100% of violations in
split mode when responses beat the lag, and 0% when they trail it.  The
classification here is that experiment made static.

The pass also prices the property: pipeline depth in tables, rules and
slow-path flow-mods per instance (the Varanus rule plan where the
property is rule-compilable, the engine model otherwise), and the
register bits an instance occupies (key + carried variables at their
header-schema widths).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Set, Tuple, Union

from ..backends.varanus_compiler import VaranusCompileError, check_compilable
from ..core.compile import dispatch_plan
from ..core.refs import EventKind, EventPattern, MismatchAny
from ..core.spec import Absent, Observe, PropertySpec
from ..switch.switch import DEFAULT_SPLIT_LAG
from .diagnostics import Diagnostic, make
from .schema import field_bits

SPLIT_SAFE = "split-safe"
INLINE_REQUIRED = "inline-required"

#: A split-lag specification: one scalar lag for every backend, or a
#: per-backend profile keyed by canonical backend name.
SplitLagSpec = Union[float, Mapping[str, float]]


def resolve_split_lag(
    spec: SplitLagSpec, focus_backend: Optional[str] = None
) -> float:
    """Collapse a split-lag spec to the one lag to classify against.

    A scalar passes through.  For a profile: the focused backend's entry
    when a deployment target is set and present, otherwise the *worst*
    (largest) lag in the profile — a hazard classification that must hold
    for every candidate backend has to assume the slowest update path.
    """
    if isinstance(spec, Mapping):
        if not spec:
            return DEFAULT_SPLIT_LAG
        if focus_backend is not None and focus_backend in spec:
            return float(spec[focus_backend])
        return float(max(spec.values()))
    return float(spec)


def parse_split_lag(text: str) -> SplitLagSpec:
    """Parse a ``--split-lag`` argument.

    Accepts a float (seconds), ``"table2"``/``"auto"`` for the
    per-backend defaults derived from Table 2's update-datapath column,
    or comma-separated ``NAME=SECONDS`` overrides (backend names resolve
    like ``--backend``, so unique prefixes work).
    """
    try:
        value = float(text)
    except ValueError:
        pass
    else:
        if value < 0.0:
            raise ValueError(f"--split-lag {value!r} must be non-negative")
        return value
    if text.strip().lower() in ("table2", "auto"):
        from ..backends import split_lag_profile  # deferred: heavy

        return split_lag_profile()
    from .feasibility import resolve_backend_name

    profile: Dict[str, float] = {}
    for part in text.split(","):
        name, sep, raw = part.partition("=")
        if not sep:
            raise ValueError(
                f"bad --split-lag entry {part!r}: expected SECONDS, "
                "'table2', or NAME=SECONDS[,NAME=SECONDS...]")
        lag = float(raw)
        if lag < 0.0:
            raise ValueError(f"--split-lag {part!r}: lag must be non-negative")
        profile[resolve_backend_name(name.strip())] = lag
    return profile

_PACKET_KINDS = (
    EventKind.ARRIVAL,
    EventKind.EGRESS,
    EventKind.DROP,
    EventKind.ANY_PACKET,
)


@dataclass(frozen=True)
class Hazard:
    """One read-after-deferred-write race in a property's stage plan."""

    code: str  # L200 | L201 | L202 | L203
    stage: str  # name of the reading stage
    message: str
    #: True when the race always happens (samepacket linkage), False when
    #: it needs adversarial/fast timing.
    certain: bool = False
    #: slack the property's statement guarantees between write and read,
    #: in seconds (0.0 = none; timers guarantee their deadline).
    guaranteed_slack: float = 0.0


@dataclass(frozen=True)
class CodegenCostEstimate:
    """Predicted shape of the codegen backend's generated program.

    Derived analytically from the dispatch plan — one generated evaluator
    per concrete event class the property watches, and one inline boolean
    term per emitted refinement/guard — without running the emitter.
    ``tests/unit/test_calibration.py`` holds ``event_classes`` to the
    section headers of the program text the emitter writes.
    """

    #: concrete event classes the generated program handles for this
    #: property (one ``_eval__Cls`` body section each).
    event_classes: int
    #: inline boolean terms across every emitted matcher: refinements and
    #: ``same_packet_as`` one each, ``MismatchAny`` one per pair, every
    #: other guard one.
    inline_terms: int


@dataclass(frozen=True)
class CostEstimate:
    """Static per-property resource estimate."""

    #: tables a packet traverses for this property (entry + unrolled
    #: instance tables), matching the backends' static depth model.
    pipeline_tables: int
    #: rules alive per instance at peak (watchers, timer/discharge pairs,
    #: cancels, the entry-table suppression rule).
    rules_per_instance: int
    #: slow-path flow-mods one instance's full lifecycle issues.
    slow_updates_per_instance: int
    #: register bits an instance occupies (key + carried variables).
    state_bits_per_instance: int
    #: "rules" when the Varanus compiler can lay the property out as
    #: dataplane rules, "engine" when it needs the reference engine.
    model: str
    #: why the rule model does not apply ("" under the rules model).
    engine_reason: str = ""
    #: switch tables one *instance* occupies (the recursive Learn unrolls
    #: one fresh table per instance regardless of stage count; 0 under
    #: the engine model, which keeps instances off the switch).
    instance_tables: int = 0
    #: the software fast path's price: what the codegen backend would
    #: generate for this property (always present — codegen hosts every
    #: property, rule-compilable or not).
    codegen: Optional[CodegenCostEstimate] = None


@dataclass(frozen=True)
class SplitReport:
    """The split-mode verdict for one property."""

    prop: str
    classification: str  # SPLIT_SAFE | INLINE_REQUIRED
    hazards: Tuple[Hazard, ...]
    cost: CostEstimate
    lag: float


def analyze_split(
    prop: PropertySpec, lag: float = DEFAULT_SPLIT_LAG
) -> SplitReport:
    """Classify ``prop`` as split-safe or inline-required under ``lag``."""
    hazards = tuple(_find_hazards(prop, lag))
    inline = any(h.code in ("L200", "L202") for h in hazards)
    return SplitReport(
        prop=prop.name,
        classification=INLINE_REQUIRED if inline else SPLIT_SAFE,
        hazards=hazards,
        cost=estimate_cost(prop),
        lag=lag,
    )


def _find_hazards(prop: PropertySpec, lag: float) -> List[Hazard]:
    hazards: List[Hazard] = []
    for index in range(1, prop.num_stages):
        stage = prop.stages[index]
        prior = prop.stages[index - 1]
        # The state stage `index` reads (its watcher rule / instance
        # record) is written by stage `index - 1`'s firing, deferred by
        # the split lag.
        if isinstance(stage, Observe):
            if stage.pattern.kind in _PACKET_KINDS:
                certain = stage.pattern.same_packet_as is not None
                detail = (
                    "the same packet's own pipeline traversal — it is "
                    "processed before any deferred update applies"
                    if certain else
                    f"a packet arriving within the update lag of stage "
                    f"{prior.name!r}'s trigger"
                )
                hazards.append(Hazard(
                    code="L200",
                    stage=stage.name,
                    message=(
                        f"stage {stage.name!r} reads state written by stage "
                        f"{prior.name!r}'s deferred update; {detail} would "
                        "be evaluated against stale state and the advance "
                        "missed (violations go undetected)"
                    ),
                    certain=certain,
                ))
        else:  # Absent
            assert isinstance(stage, Absent)
            if stage.within <= lag:
                hazards.append(Hazard(
                    code="L202",
                    stage=stage.name,
                    message=(
                        f"absent stage {stage.name!r}'s deadline "
                        f"({stage.within:g}s) is within the split update "
                        f"lag ({lag:g}s); the timer could fire before its "
                        "own install settles"
                    ),
                    guaranteed_slack=stage.within,
                ))
            elif stage.pattern.kind in _PACKET_KINDS:
                certain = stage.pattern.same_packet_as is not None
                hazards.append(Hazard(
                    code="L201",
                    stage=stage.name,
                    message=(
                        f"absent stage {stage.name!r}'s discharging event "
                        "can arrive before the deferred timer install; the "
                        "discharge would be missed and the timer would "
                        "raise a spurious violation (the violation path "
                        f"itself is timer-driven with {stage.within:g}s "
                        "slack, so the property stays split-safe)"
                    ),
                    certain=certain,
                    guaranteed_slack=stage.within,
                ))
        for unless in getattr(stage, "unless", ()):
            if unless.kind in _PACKET_KINDS:
                hazards.append(Hazard(
                    code="L203",
                    stage=stage.name,
                    message=(
                        f"an unless cancellation on stage {stage.name!r} "
                        "can race the deferred state update; a missed "
                        "cancel leaves the obligation live and may raise a "
                        "violation the property's statement excuses"
                    ),
                ))
    return hazards


# ---------------------------------------------------------------------------
# Cost estimation
# ---------------------------------------------------------------------------
def estimate_cost(prop: PropertySpec) -> CostEstimate:
    """Static pipeline-depth / rule / register-bit price of one property."""
    try:
        check_compilable(prop)
        model, reason = "rules", ""
    except VaranusCompileError as exc:
        model, reason = "engine", str(exc)
    state_bits = _state_bits(prop)
    codegen = estimate_codegen_cost(prop)
    if model == "engine":
        # The reference engine holds one instance record and applies one
        # (split-deferrable) update per advancement; depth follows the
        # backends' one-table-per-stage static model.
        return CostEstimate(
            pipeline_tables=prop.num_stages,
            rules_per_instance=0,
            slow_updates_per_instance=prop.num_stages - 1,
            state_bits_per_instance=state_bits,
            model=model,
            engine_reason=reason,
            codegen=codegen,
        )
    # Calibrated against the compiler's emitted plans (see
    # repro.lint.calibration; the walker is plan_property).  Rules alive
    # per instance: the entry-table suppression rule, plus per later
    # stage its watcher (an Absent adds a discharge companion) and one
    # cancel rule per unless clause.  Flow-mods: stage 0's firing issues
    # the unroll + suppression learns (2); each positive stage's firing
    # issues its cleanup DeleteRules sweep and deeper Learn (5 metered
    # updates); an Absent stage arms a single timer Learn (discharge and
    # cancels ride inside it as unmetered companions).
    rules = 1
    slow_updates = 2
    for index in range(1, prop.num_stages):
        stage = prop.stages[index]
        if isinstance(stage, Absent):
            rules += 2
            slow_updates += 1
        else:
            rules += 1
            slow_updates += 5
        rules += len(getattr(stage, "unless", ()))
    return CostEstimate(
        pipeline_tables=prop.num_stages,
        rules_per_instance=rules,
        slow_updates_per_instance=slow_updates,
        state_bits_per_instance=state_bits,
        model=model,
        instance_tables=1,
        codegen=codegen,
    )


def estimate_codegen_cost(prop: PropertySpec) -> CodegenCostEstimate:
    """Predict the codegen backend's program shape from the dispatch plan.

    Independent of the emitter: this walks
    :func:`repro.core.compile.dispatch_plan` (the shared planning layer)
    and applies the counting rule analytically.
    """
    plan = dispatch_plan(prop)
    terms = sum(
        _inline_terms(watcher.pattern)
        for watchers in plan.values()
        for watcher in watchers
    )
    return CodegenCostEstimate(
        event_classes=len(plan),
        inline_terms=terms,
    )


def _inline_terms(pattern: EventPattern) -> int:
    """Boolean terms one matcher inlines: refinements (oob kind, egress
    action, negated egress action) and the packet-uid linkage one each,
    ``MismatchAny`` one per field pair, every other guard one."""
    terms = sum(
        1 for refinement in (
            pattern.oob_kind,
            pattern.egress_action,
            pattern.not_egress_action,
            pattern.same_packet_as,
        ) if refinement is not None
    )
    for guard in pattern.guards:
        terms += len(guard.pairs) if isinstance(guard, MismatchAny) else 1
    return terms


def _state_bits(prop: PropertySpec) -> int:
    """Bits of register state one instance pins down: every variable the
    property carries across stages, at its origin field's schema width."""
    origin = prop.var_origin()
    carried: Set[str] = set(prop.key_vars)
    for index, stage in enumerate(prop.stages):
        patterns = [stage.pattern] + list(getattr(stage, "unless", ()))
        for pattern in patterns:
            if index >= 1:
                carried.update(v for _, v in pattern.env_guards())
                carried.update(v for _, v in pattern.negative_env_refs())
    return sum(
        field_bits(origin[var]) for var in sorted(carried) if var in origin
    )


def split_diagnostics(report: SplitReport, anchor: object = None) -> List[Diagnostic]:
    """Hazards rendered as diagnostics (all warnings: they describe what a
    *split* deployment would get wrong, not a defect in the property)."""
    return [
        make(hazard.code, hazard.message, anchor, prop=report.prop)
        for hazard in report.hazards
    ]
