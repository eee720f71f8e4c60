"""The calibration corpus: what the rules cost model is held to.

``repro.lint.splitmode.estimate_cost`` prices a rule-compilable property
analytically.  The estimate-vs-emitted loop is closed live, the way
SNAP- and P4-style compilers validate their static resource models:
:func:`repro.backends.varanus_compiler.plan_property` walks the rule plan
the Varanus compiler actually emits and counts tables, rules, and
slow-path flow-mods per instance, and ``tests/unit/test_calibration.py``
requires the estimate to equal those counts for every property of the
corpus below — no checked-in table stands between the two.

The corpus (:func:`calibration_corpus`) spans every structural shape the
compiler can emit — plain observe chains, deadline'd observes, ``unless``
cancels, and final ``Absent`` timer/discharge pairs — plus every Table-1
catalog property that is rule-compilable (none today: the catalog rows
all need egress taps, predicates, or out-of-band events; the corpus keeps
the loop closed until one lands).
"""

from __future__ import annotations

from typing import Tuple

from ..core.refs import Bind, Const, EventKind, EventPattern, FieldEq, FieldNe, Var
from ..core.spec import Absent, Observe, PropertySpec


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
