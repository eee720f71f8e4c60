"""Contradictory guard pairs (rules L005, L006, L016) and the cross-stage
dataflow facts behind them.

One pass finds every pair of guards on one field that can never hold
together (``==``/``==``, ``==``/``!=``, ``==``/ordered, ordered/ordered)
and classifies it once: **L005** (**L006** in an ``unless``) when the
guards contradict *as written* — two literals, or one variable on both
sides (``ipv4.ttl == $B and ipv4.ttl > $B``) — and **L016** when only
what *earlier* stages guarantee makes them contradict::

    observe knock : arrival
        where tcp.dst == 7001
        bind P = tcp.dst            # P is pinned: P == 7001, always
    observe open : arrival
        where tcp.dst == $P and tcp.dst != 7001   # can never both hold

A variable no earlier stage says anything about is an unknown, and never
makes an ``==`` pair contradictory: ``tcp.dst == $p and tcp.dst == 80``
holds whenever ``$p`` is 80.

The facts come from an abstract interpretation over the stage sequence,
propagating three kinds into each later stage's guard environment:

* **pins** — ``bind V = f`` in a pattern that also guards ``f == lit``
  makes ``V == lit`` in every reachable instance;
* **aliases** — ``bind V = f`` alongside ``f == $X`` makes ``V == X``
  (and transitively inherits X's pin, if any);
* **ranges** — ``bind V = f`` alongside ordered guards (``f >= 7000 and
  f < 8000``) confines ``V`` to an interval.

Rebinding a variable (L003's shadowing) conservatively invalidates its
facts; aliases pointing at the rebound variable are materialised into
pins first when possible, severed otherwise — the analysis only ever
*loses* facts at merge points, so every finding it reports is a genuine
contradiction, never a may-alias guess.  Each L016 finding carries
:class:`~repro.lint.diagnostics.Related` positions at the other guard and
at the earlier-stage binds and guards its facts trace back to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..core.refs import CMP_FNS
from ..lang.ast import (
    ORDERED_OPS,
    Comparison,
    PatternAst,
    PropertyAst,
    StageAst,
    VarRef,
)
from .diagnostics import Diagnostic, Related, make, related_to
from .schema import FIELD_SCHEMA


# ---------------------------------------------------------------------------
# Interval arithmetic (shared with the taint pass's resource bounds)
# ---------------------------------------------------------------------------
#: (lo, lo_strict, hi, hi_strict); None bounds are unbounded.
Interval = Tuple[object, bool, object, bool]

UNBOUNDED: Interval = (None, False, None, False)


def interval_of(op: str, bound: object) -> Interval:
    """The interval a single ordered guard ``field <op> bound`` admits."""
    if op == ">":
        return (bound, True, None, False)
    if op == ">=":
        return (bound, False, None, False)
    if op == "<":
        return (None, False, bound, True)
    if op == "<=":
        return (None, False, bound, False)
    raise ValueError(f"not an ordered operator: {op!r}")


def intersect(a: Interval, b: Interval) -> Optional[Interval]:
    """Meet of two intervals; ``None`` when empty.

    Raises :class:`TypeError` when the bounds do not order against each
    other — callers treat that as "nothing provable" and skip.
    """
    lo, lo_strict = a[0], a[1]
    if b[0] is not None and (
        lo is None or b[0] > lo or (b[0] == lo and b[1])
    ):
        lo, lo_strict = b[0], b[1]
    hi, hi_strict = a[2], a[3]
    if b[2] is not None and (
        hi is None or b[2] < hi or (b[2] == hi and b[3])
    ):
        hi, hi_strict = b[2], b[3]
    if lo is not None and hi is not None:
        if lo > hi or (lo == hi and (lo_strict or hi_strict)):
            return None
    return (lo, lo_strict, hi, hi_strict)


def render_interval(interval: Interval) -> str:
    lo, lo_strict, hi, hi_strict = interval
    left = "(" if lo_strict or lo is None else "["
    right = ")" if hi_strict or hi is None else "]"
    lo_text = "-inf" if lo is None else str(lo)
    hi_text = "+inf" if hi is None else str(hi)
    return f"{left}{lo_text}, {hi_text}{right}"


@dataclass(frozen=True)
class Pin:
    """``var == value`` holds in every instance reaching later stages."""

    var: str
    value: object  # the pinning literal's python value
    rendered: str  # how to print it in messages
    stage: str  # stage whose pattern established the fact
    bind: object  # the BindAst node
    guard: object  # the Comparison node that pinned the bound field


@dataclass(frozen=True)
class Alias:
    """``var == other`` holds (bound off a field guarded equal to $other)."""

    var: str
    other: str
    stage: str
    bind: object
    guard: object


@dataclass(frozen=True)
class Range:
    """``var`` lies inside ``interval`` in every reachable instance."""

    var: str
    interval: Interval
    stage: str
    bind: object
    guards: Tuple[object, ...]  # the ordered Comparison nodes that bound it


class StageEnv:
    """Facts earlier stages guarantee about variable values."""

    def __init__(self) -> None:
        self.pins: Dict[str, Pin] = {}
        self.aliases: Dict[str, Alias] = {}
        self.ranges: Dict[str, Range] = {}

    # -- resolution ---------------------------------------------------------
    def resolve(self, value: object) -> Tuple[Tuple[str, object], List[object]]:
        """Normalise a guard value to ``("lit", v)`` or ``("var", root)``.

        Returns the normalised token and the trail of facts (Pins/Aliases,
        in derivation order) the normalisation walked through — the trail
        is what the diagnostic's related positions are built from.
        """
        if not isinstance(value, VarRef):
            return ("lit", value.value), []
        name = value.name
        trail: List[object] = []
        seen = set()
        while name not in seen:
            seen.add(name)
            pin = self.pins.get(name)
            if pin is not None:
                trail.append(pin)
                return ("lit", pin.value), trail
            alias = self.aliases.get(name)
            if alias is None:
                break
            trail.append(alias)
            name = alias.other
        return ("var", name), trail

    # -- fact propagation ---------------------------------------------------
    def absorb(self, stage: StageAst) -> None:
        """Fold one stage's main pattern into the environment."""
        pattern = stage.pattern
        field_lit: Dict[str, Comparison] = {}
        field_var: Dict[str, Comparison] = {}
        field_ord: Dict[str, List[Tuple[Comparison, object]]] = {}
        for condition in pattern.conditions:
            if not isinstance(condition, Comparison):
                continue
            if condition.op == "==":
                if isinstance(condition.value, VarRef):
                    field_var.setdefault(condition.field, condition)
                else:
                    field_lit.setdefault(condition.field, condition)
            elif condition.op in ORDERED_OPS:
                # a Var bound still yields an interval when the Var is
                # itself pinned to a literal by an earlier stage
                norm, _ = self.resolve(condition.value)
                if norm[0] == "lit":
                    field_ord.setdefault(condition.field, []).append(
                        (condition, norm[1]))
        for bind in pattern.binds:
            self._invalidate(bind.var)
            pinning = field_lit.get(bind.field)
            aliasing = field_var.get(bind.field)
            if pinning is not None:
                self.pins[bind.var] = Pin(
                    var=bind.var, value=pinning.value.value,
                    rendered=repr(pinning.value.value), stage=stage.name,
                    bind=bind, guard=pinning)
            elif aliasing is not None:
                other = aliasing.value.name
                if other != bind.var:
                    self.aliases[bind.var] = Alias(
                        var=bind.var, other=other, stage=stage.name,
                        bind=bind, guard=aliasing)
            elif bind.field in field_ord:
                interval: Optional[Interval] = UNBOUNDED
                guards: List[object] = []
                for cond, bound in field_ord[bind.field]:
                    try:
                        met = intersect(interval, interval_of(cond.op, bound))
                    except TypeError:
                        continue  # unorderable bound: no fact
                    if met is None:
                        # statically-empty pattern — L005/L016 report it;
                        # an unreachable stage pins nothing here
                        guards = []
                        break
                    interval = met
                    guards.append(cond)
                if guards:
                    self.ranges[bind.var] = Range(
                        var=bind.var, interval=interval, stage=stage.name,
                        bind=bind, guards=tuple(guards))

    def _invalidate(self, var: str) -> None:
        """A rebind of ``var``: earlier facts about it no longer hold.

        Aliases *to* ``var`` recorded the old value — materialise them as
        pins (or ranges) when the old value is known, sever them otherwise.
        """
        old_pin = self.pins.get(var)
        old_range = self.ranges.get(var)
        for name, alias in list(self.aliases.items()):
            if alias.other != var:
                continue
            del self.aliases[name]
            if old_pin is not None:
                self.pins[name] = Pin(
                    var=name, value=old_pin.value, rendered=old_pin.rendered,
                    stage=alias.stage, bind=alias.bind, guard=alias.guard)
            elif old_range is not None:
                self.ranges[name] = Range(
                    var=name, interval=old_range.interval, stage=alias.stage,
                    bind=alias.bind, guards=old_range.guards)
        self.pins.pop(var, None)
        self.aliases.pop(var, None)
        self.ranges.pop(var, None)


def _render_value(value) -> str:
    if isinstance(value, VarRef):
        return f"${value.name}"
    return repr(value.value)


def _trail_related(trail: List[object]) -> List[Related]:
    out: List[Related] = []
    for fact in trail:
        if isinstance(fact, Pin):
            out.append(related_to(
                f"${fact.var} is pinned here: bound from a field stage "
                f"{fact.stage!r} guards == {fact.rendered}", fact.bind))
        else:
            out.append(related_to(
                f"${fact.var} aliases ${fact.other} here: bound from a "
                f"field stage {fact.stage!r} guards == ${fact.other}",
                fact.bind))
    return out


def _explain(trail: List[object]) -> str:
    parts = []
    for fact in trail:
        if isinstance(fact, Pin):
            parts.append(
                f"stage {fact.stage!r} pins ${fact.var} to {fact.rendered}")
        else:
            parts.append(
                f"stage {fact.stage!r} binds ${fact.var} equal to "
                f"${fact.other}")
    return "; ".join(parts)


def _range_related(rng: Range) -> List[Related]:
    out = [related_to(
        f"${rng.var} is confined here: bound from a field stage "
        f"{rng.stage!r} constrains to {render_interval(rng.interval)}",
        rng.bind)]
    out.extend(
        related_to(
            f"stage {rng.stage!r} bounding guard here", guard)
        for guard in rng.guards
    )
    return out


# ---------------------------------------------------------------------------
# Contradictory guard pairs (L005, L006, L016)
# ---------------------------------------------------------------------------
#: What proves a pair contradictory: the facts both guards' values were
#: resolved through, and the range of an ``==`` variable, when one was used.
Conflict = Tuple[List[object], Optional[Range]]


def _closed(field_name: str, interval: Interval) -> Interval:
    """``interval`` with strict integer bounds made inclusive when the field
    holds integers, so ``> 5 and < 6`` reads as the empty ``[6, 5]``."""
    ftype = FIELD_SCHEMA.get(field_name)
    if ftype is None or ftype.kind != "int":
        return interval
    lo, lo_strict, hi, hi_strict = interval
    if lo_strict and type(lo) is int:
        lo, lo_strict = lo + 1, False
    if hi_strict and type(hi) is int:
        hi, hi_strict = hi - 1, False
    return (lo, lo_strict, hi, hi_strict)


def _conflict(
    a: Comparison, b: Comparison, env: StageEnv,
) -> Optional[Conflict]:
    """Why guards ``a`` and ``b`` on one field cannot both hold under
    ``env``, or ``None`` when ``env`` proves nothing.  ``a`` is the ``==``
    guard when exactly one of the two is."""
    (a_kind, a_val), a_trail = env.resolve(a.value)
    (b_kind, b_val), b_trail = env.resolve(b.value)
    if a_kind == b_kind == "var" and a_val == b_val:
        # one unknown on both sides: the operators alone decide the pair,
        # so any single value stands in for it
        a_kind = b_kind = "lit"
        a_val = b_val = 0
    rng: Optional[Range] = None
    try:
        if a_kind == b_kind == "lit":
            if a.op == "==" and b.op == "==":
                disjoint = a_val != b_val
            elif a.op == "==" and b.op == "!=":
                disjoint = a_val == b_val
            elif a.op == "==":
                disjoint = not CMP_FNS[b.op](a_val, b_val)
            elif "!=" in (a.op, b.op):
                disjoint = False
            else:
                disjoint = intersect(
                    _closed(a.field, interval_of(a.op, a_val)),
                    _closed(b.field, interval_of(b.op, b_val))) is None
        elif (a.op == "==" and a_kind == "var" and b_kind == "lit"
              and b.op in ORDERED_OPS):
            # an unknown == value still has the interval an earlier
            # stage confined it to
            rng = env.ranges.get(a_val)
            disjoint = rng is not None and intersect(
                _closed(a.field, rng.interval),
                _closed(b.field, interval_of(b.op, b_val))) is None
        else:
            disjoint = False
    except TypeError:
        return None  # unorderable values: nothing provable
    if not disjoint:
        return None
    return list(dict.fromkeys(a_trail + b_trail)), rng  # a shared fact once


def contradictions(
    pattern: PatternAst, env: StageEnv,
) -> Iterator[Tuple[Comparison, Comparison, Optional[Conflict]]]:
    """Every pair of guards on one field of ``pattern`` that cannot hold
    together given ``env``, as ``(a, b, conflict)``.

    ``conflict`` is ``None`` when the pair contradicts as written, else
    the earlier stages' facts it takes.  ``a`` is the ``==`` guard when
    exactly one of the two is, otherwise the earlier one; findings anchor
    at ``b``.
    """
    as_written = StageEnv()  # no fact about any $var
    guards = [c for c in pattern.conditions if isinstance(c, Comparison)]
    for index, second in enumerate(guards):
        for first in guards[:index]:
            if first.field != second.field:
                continue
            a, b = first, second
            if second.op == "==" and first.op != "==":
                a, b = second, first
            if _conflict(a, b, as_written) is not None:
                yield a, b, None
                continue
            conflict = _conflict(a, b, env)
            if conflict is not None:
                yield a, b, conflict


def rule_contradictions(prop: PropertyAst) -> Iterator[Diagnostic]:
    """L005/L006/L016 — two guards on one field that can never both hold:
    as written (L005; L006 in an ``unless``), or only given what earlier
    stages guarantee (L016)."""
    env = StageEnv()
    seen: Set[Diagnostic] = set()
    for stage in prop.stages:
        # A stage's guards see facts from strictly earlier stages (its
        # own binds take effect only once the pattern matches).
        for index, pattern in enumerate((stage.pattern,) + stage.unless):
            for a, b, conflict in contradictions(pattern, env):
                diag = _contradiction_diagnostic(
                    prop.name, stage, index > 0, a, b, conflict)
                if diag not in seen:  # a repeated guard repeats its pairs
                    seen.add(diag)
                    yield diag
        env.absorb(stage)


def _contradiction_diagnostic(
    prop_name: str, stage: StageAst, in_unless: bool,
    a: Comparison, b: Comparison, conflict: Optional[Conflict],
) -> Diagnostic:
    where = (f"unless pattern on stage {stage.name!r} is unreachable"
             if in_unless else f"stage {stage.name!r} can never match")
    field_name = a.field
    if a.op == b.op == "==":
        why = (f"{field_name} cannot equal both {_render_value(a.value)} "
               f"and {_render_value(b.value)}")
    else:
        why = (f"{field_name} {a.op} {_render_value(a.value)} and "
               f"{field_name} {b.op} {_render_value(b.value)} can never "
               "both hold")
    if conflict is None:
        return make("L006" if in_unless else "L005", f"{where}: {why}", b,
                    prop=prop_name)
    trail, rng = conflict
    explanation = "; ".join(filter(None, [
        _explain(trail),
        rng and (f"stage {rng.stage!r} confines ${rng.var} to "
                 f"{render_interval(rng.interval)}"),
    ]))
    related = [related_to(
        f"conflicts with the guard {field_name} {a.op} "
        f"{_render_value(a.value)} here", a)] + _trail_related(trail)
    if rng is not None:
        related += _range_related(rng)
    return make("L016", f"{where}: {why} — {explanation}", b,
                prop=prop_name, related=tuple(related))


def stage_environments(prop: PropertyAst) -> List[Dict[str, object]]:
    """The environment visible to each stage's guards, for tooling: a
    list (one entry per stage, same order) of ``var -> fact`` snapshots
    taken *before* that stage's own pattern is absorbed."""
    env = StageEnv()
    snapshots: List[Dict[str, object]] = []
    for stage in prop.stages:
        snapshot: Dict[str, object] = {}
        snapshot.update(env.aliases)
        snapshot.update(env.ranges)
        snapshot.update(env.pins)  # pins win when several facts exist
        snapshots.append(snapshot)
        env.absorb(stage)
    return snapshots
