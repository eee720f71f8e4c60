"""Compiler-calibrated cost model: measured rule-plan counts.

``repro.lint.splitmode.estimate_cost`` prices a rule-compilable property
analytically.  This module closes the estimate-vs-measured loop the same
way SNAP- and P4-style compilers validate their static resource models:
:func:`repro.backends.varanus_compiler.plan_property` walks the rule plan
the Varanus compiler actually emits and counts tables, rules, and
slow-path flow-mods per instance; the counts for a fixed calibration
corpus are checked in here (:data:`CALIBRATION`) and the estimator
consults them, surfacing measured numbers next to its own.

The corpus (:func:`calibration_corpus`) spans every structural shape the
compiler can emit — plain observe chains, deadline'd observes, ``unless``
cancels, and final ``Absent`` timer/discharge pairs — plus every Table-1
catalog property that is rule-compilable (none today: the catalog rows
all need egress taps, predicates, or out-of-band events; the corpus keeps
the loop closed until one lands).

The same loop closes over the software fast path: the monitor's
generated program (:mod:`repro.core.codegen`) reports what it emitted
per property (event classes emitted, inline boolean terms, matcher
source lines — :class:`repro.core.codegen.PropEmission`), a second
checked-in table (:data:`CALIBRATION_CODEGEN`) pins those counts for the
codegen corpus, and ``repro.lint.splitmode.estimate_codegen_cost``
predicts the first two analytically from the dispatch plan.

``tests/unit/test_calibration.py`` asserts three ways that none of this
can drift: the analytic estimate equals the emitted plan for every corpus
property, the checked-in tables equal the live measurements, and the
tables are regenerable byte-for-byte (``python -m tests.regen_calibration
--check`` runs in CI).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..core.refs import Bind, Const, EventKind, EventPattern, FieldEq, FieldNe, Var
from ..core.spec import Absent, Observe, PropertySpec


@dataclass(frozen=True)
class MeasuredCost:
    """One calibration row: counts taken off the emitted rule plan."""

    instance_tables: int
    rules_per_instance: int
    flow_mods_per_instance: int


@dataclass(frozen=True)
class MeasuredCodegenCost:
    """One codegen calibration row: counts taken off the program
    :mod:`repro.core.codegen` actually generated.

    ``event_classes`` and ``inline_terms`` have analytic twins in
    :func:`repro.lint.splitmode.estimate_codegen_cost` (a test holds them
    equal); ``matcher_lines`` is measured-only — the emitted source lines
    attributable to the property across every generated function.
    """

    event_classes: int
    inline_terms: int
    matcher_lines: int


#: Measured rule-plan counts per property, keyed by property name:
#: ``(instance_tables, rules_per_instance, flow_mods_per_instance)``.
#: Regenerate with ``python -m tests.regen_calibration`` after a compiler
#: change; ``--check`` verifies this table against the live compiler.
CALIBRATION: Dict[str, Tuple[int, int, int]] = {
    'cal-absent-cancel': (1, 4, 3),
    'cal-absent-final': (1, 3, 3),
    'cal-chain-2': (1, 2, 7),
    'cal-chain-3': (1, 3, 12),
    'cal-chain-cancel': (1, 4, 12),
    'cal-observe-within': (1, 3, 12),
}


def measured_cost(name: str) -> Optional[MeasuredCost]:
    """The checked-in measurement for ``name``, if it was calibrated."""
    row = CALIBRATION.get(name)
    if row is None:
        return None
    return MeasuredCost(*row)


#: Measured codegen-program counts per property, keyed by property name:
#: ``(event_classes, inline_terms, matcher_lines)``.  Regenerate with
#: ``python -m tests.regen_calibration`` after a codegen emission change;
#: ``--check`` verifies this table against the live emitter.
CALIBRATION_CODEGEN: Dict[str, Tuple[int, int, int]] = {
    'arp-cache-preloaded': (2, 8, 74),
    'arp-known-not-forwarded': (1, 4, 42),
    'arp-unknown-forwarded': (2, 5, 48),
    'cal-absent-cancel': (1, 4, 46),
    'cal-absent-final': (1, 2, 35),
    'cal-chain-2': (1, 1, 42),
    'cal-chain-3': (1, 5, 72),
    'cal-chain-cancel': (1, 7, 83),
    'cal-observe-within': (1, 5, 72),
    'dhcp-no-overlap': (1, 4, 42),
    'dhcp-no-reuse': (2, 8, 66),
    'dhcp-reply-within': (2, 3, 37),
    'ftp-data-port-matches': (1, 5, 42),
    'knocking-invalidated': (2, 9, 104),
    'knocking-recognized': (2, 11, 96),
    'lb-hashed-port': (2, 12, 58),
    'lb-round-robin-port': (2, 12, 58),
    'lb-sticky-port': (2, 26, 113),
    'no-unfounded-reply': (2, 10, 66),
}


def measured_codegen_cost(name: str) -> Optional[MeasuredCodegenCost]:
    """The checked-in codegen measurement for ``name``, if calibrated."""
    row = CALIBRATION_CODEGEN.get(name)
    if row is None:
        return None
    return MeasuredCodegenCost(*row)


# ---------------------------------------------------------------------------
# The calibration corpus: one property per compilable plan shape
# ---------------------------------------------------------------------------
def _arrival(guards=(), binds=()):
    return EventPattern(kind=EventKind.ARRIVAL, guards=tuple(guards),
                       binds=tuple(binds))


def _chain_2() -> PropertySpec:
    """The echo shape: bind at stage 0, variable guard at stage 1."""
    return PropertySpec(
        name="cal-chain-2", description="two-stage observe chain",
        stages=(
            Observe("request", _arrival(binds=(Bind("S", "ipv4.src"),))),
            Observe("response", _arrival(
                guards=(FieldEq("ipv4.dst", Var("S")),))),
        ),
        key_vars=("S",),
    )


def _chain_3() -> PropertySpec:
    """The port-knocking shape: constants at stage 0, value flow after."""
    return PropertySpec(
        name="cal-chain-3", description="three-stage knock chain",
        stages=(
            Observe("k1", _arrival(
                guards=(FieldEq("tcp.dst", Const(7001)),),
                binds=(Bind("K", "ipv4.src"),))),
            Observe("k2", _arrival(
                guards=(FieldEq("ipv4.src", Var("K")),
                        FieldEq("tcp.dst", Const(7002))))),
            Observe("open", _arrival(
                guards=(FieldEq("ipv4.src", Var("K")),
                        FieldEq("tcp.dst", Const(22))))),
        ),
        key_vars=("K",),
    )


def _chain_cancel() -> PropertySpec:
    """A knock chain whose final stage carries an ``unless`` cancel."""
    return PropertySpec(
        name="cal-chain-cancel", description="chain with a cancel rule",
        stages=(
            Observe("k1", _arrival(
                guards=(FieldEq("tcp.dst", Const(7001)),),
                binds=(Bind("K", "ipv4.src"),))),
            Observe("k2", _arrival(
                guards=(FieldEq("ipv4.src", Var("K")),
                        FieldEq("tcp.dst", Const(7002))))),
            Observe("open", _arrival(
                guards=(FieldEq("ipv4.src", Var("K")),
                        FieldEq("tcp.dst", Const(22)))),
                unless=(_arrival(
                    guards=(FieldEq("ipv4.src", Var("K")),
                            FieldEq("tcp.dst", Const(9))),),)),
        ),
        key_vars=("K",),
    )


def _observe_within() -> PropertySpec:
    """A chain whose middle stage expires (hard-timeout watcher)."""
    return PropertySpec(
        name="cal-observe-within", description="deadline'd observe chain",
        stages=(
            Observe("k1", _arrival(
                guards=(FieldEq("tcp.dst", Const(7001)),),
                binds=(Bind("K", "ipv4.src"),))),
            Observe("k2", _arrival(
                guards=(FieldEq("ipv4.src", Var("K")),
                        FieldEq("tcp.dst", Const(7002)))), within=1.0),
            Observe("open", _arrival(
                guards=(FieldEq("ipv4.src", Var("K")),
                        FieldEq("tcp.dst", Const(22)))), within=1.0),
        ),
        key_vars=("K",),
    )


def _absent_final() -> PropertySpec:
    """The unanswered-request shape: final Absent timer/discharge pair."""
    return PropertySpec(
        name="cal-absent-final", description="request needs a reply",
        stages=(
            Observe("request", _arrival(
                guards=(FieldEq("tcp.dst", Const(80)),),
                binds=(Bind("S", "ipv4.src"),))),
            Absent("reply", _arrival(
                guards=(FieldEq("ipv4.dst", Var("S")),)), within=2.0),
        ),
        key_vars=("S",),
    )


def _absent_cancel() -> PropertySpec:
    """A final Absent with an ``unless`` excusing the obligation."""
    return PropertySpec(
        name="cal-absent-cancel", description="reply obligation with excuse",
        stages=(
            Observe("request", _arrival(
                guards=(FieldEq("tcp.dst", Const(80)),),
                binds=(Bind("S", "ipv4.src"),))),
            Absent("reply", _arrival(
                guards=(FieldEq("ipv4.dst", Var("S")),)), within=2.0,
                unless=(_arrival(
                    guards=(FieldEq("ipv4.dst", Var("S")),
                            FieldNe("tcp.src", Const(80))),),)),
        ),
        key_vars=("S",),
    )


def calibration_corpus() -> Tuple[PropertySpec, ...]:
    """Fresh rule-compilable properties covering every plan shape, plus
    any Table-1 catalog property the compiler accepts."""
    from ..backends.varanus_compiler import (  # deferred: pulls in switch
        VaranusCompileError,
        check_compilable,
    )
    from ..props import build_table1  # deferred: heavy catalog imports

    corpus = [
        _chain_2(), _chain_3(), _chain_cancel(), _observe_within(),
        _absent_final(), _absent_cancel(),
    ]
    for entry in build_table1():
        try:
            check_compilable(entry.prop)
        except VaranusCompileError:
            continue
        corpus.append(entry.prop)
    return tuple(corpus)


def regenerate() -> Dict[str, Tuple[int, int, int]]:
    """Live measurements for the corpus — what :data:`CALIBRATION` pins."""
    from ..backends.varanus_compiler import plan_property

    table: Dict[str, Tuple[int, int, int]] = {}
    for prop in calibration_corpus():
        plan = plan_property(prop)
        table[prop.name] = (
            plan.instance_tables,
            plan.rules_per_instance,
            plan.flow_mods_per_instance,
        )
    return table


def codegen_corpus() -> Tuple[PropertySpec, ...]:
    """Properties the codegen calibration pins: the rule-plan shapes plus
    the full Table-1 catalog — codegen hosts every property (it has no
    compilability gate), so the catalog rows calibrate for real instead
    of waiting on a rule-compilable one."""
    from ..props import build_table1  # deferred: heavy catalog imports

    corpus = [
        _chain_2(), _chain_3(), _chain_cancel(), _observe_within(),
        _absent_final(), _absent_cancel(),
    ]
    corpus.extend(entry.prop for entry in build_table1())
    return tuple(corpus)


def regenerate_codegen() -> Dict[str, Tuple[int, int, int]]:
    """Live emission counts — what :data:`CALIBRATION_CODEGEN` pins.

    Each property is generated in isolation (one single-property monitor
    per row) so the measurements are independent of catalog composition.
    """
    from ..core.monitor import Monitor  # deferred: core is heavy

    table: Dict[str, Tuple[int, int, int]] = {}
    for prop in codegen_corpus():
        monitor = Monitor()
        monitor.add_property(prop)
        emission = monitor.codegen_emissions()[prop.name]
        table[prop.name] = (
            emission.event_classes,
            emission.inline_terms,
            emission.matcher_lines,
        )
    return table
