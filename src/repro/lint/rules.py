"""Correctness lints over parsed property ASTs (rules L001–L014 and L016).

Each rule is a generator over one :class:`~repro.lang.ast.PropertyAst`,
yielding :class:`~repro.lint.diagnostics.Diagnostic` objects anchored at
the offending node's source position.  Contradictory guards — L005, an
unsatisfiable ``unless`` under L006, and L016 — come from one pass over
each guard pair, :func:`~repro.lint.dataflow.rule_contradictions`, which
runs here with the rest.  The rules deliberately mirror —
and fire *before* — the hard errors the elaborator and
:class:`~repro.core.spec.PropertySpec` raise, so a malformed property
fails with positions and explanations instead of a bare exception deep in
compilation; on top of that they catch the silent-footgun cases nothing
downstream would reject (unused binds, contradictory guards, literal
overflow).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Set, Tuple

from ..lang.ast import (
    AnyDiffers,
    Comparison,
    Literal,
    NamedPredicate,
    PatternAst,
    PropertyAst,
    StageAst,
    VarRef,
)
from .dataflow import _render_value, rule_contradictions
from .diagnostics import Diagnostic, make
from .schema import (
    FIELD_SCHEMA,
    kinds_compatible,
    literal_mismatch,
    literal_overflow,
)


def run_ast_rules(prop: PropertyAst) -> List[Diagnostic]:
    """All correctness findings for one property, in rule-code order."""
    out: List[Diagnostic] = []
    for rule in _AST_RULES:
        out.extend(rule(prop))
    return out


# ---------------------------------------------------------------------------
# Variable flow (L001, L002, L003)
# ---------------------------------------------------------------------------
def _var_refs(pattern: PatternAst) -> Iterator[VarRef]:
    for condition in pattern.conditions:
        if isinstance(condition, Comparison):
            if isinstance(condition.value, VarRef):
                yield condition.value
        elif isinstance(condition, AnyDiffers):
            for _, value in condition.pairs:
                if isinstance(value, VarRef):
                    yield value


def _stage_patterns(stage: StageAst) -> Iterator[PatternAst]:
    yield stage.pattern
    yield from stage.unless


def _has_named_predicates(prop: PropertyAst) -> bool:
    return any(
        isinstance(condition, NamedPredicate)
        for stage in prop.stages
        for pattern in _stage_patterns(stage)
        for condition in pattern.conditions
    )


def rule_undefined_variable(prop: PropertyAst) -> Iterator[Diagnostic]:
    """L001 — a guard reads a variable no *earlier* stage bound.

    Matches the engine's scoping: a stage's own binds are not visible to
    its guards (binding happens when the pattern matches, guards decide
    whether it matches), and an ``absent`` stage binds nothing — it is
    passed only by its timer — so each of its binds is flagged itself.
    """
    bound: Set[str] = set()
    absent_binds: Dict[str, str] = {}
    for index, stage in enumerate(prop.stages):
        for pattern in _stage_patterns(stage):
            for ref in _var_refs(pattern):
                if ref.name not in bound:
                    hint = ""
                    if any(b.var == ref.name for b in stage.pattern.binds):
                        hint = (" (bound by this same stage — binds only "
                                "become visible to later stages)")
                    elif ref.name in absent_binds:
                        hint = (f" (absent stage "
                                f"{absent_binds[ref.name]!r} binds it, but "
                                "an absent stage's binds never apply)")
                    yield make(
                        "L001",
                        f"stage {stage.name!r} references ${ref.name}, which "
                        f"no earlier stage binds{hint}",
                        ref, prop=prop.name,
                    )
        if stage.negative:
            for bind in stage.pattern.binds:
                absent_binds.setdefault(bind.var, stage.name)
                yield make(
                    "L001",
                    f"absent stage {stage.name!r} binds ${bind.var}, which "
                    "never happens: an absent stage is passed only by its "
                    "timer",
                    bind, prop=prop.name,
                )
            continue
        bound.update(b.var for b in stage.pattern.binds)


def rule_unused_variable(prop: PropertyAst) -> Iterator[Diagnostic]:
    """L002 — a bound variable is never consumed.

    A variable counts as used when a later guard references it or it is
    part of the instance key (explicitly, or implicitly when ``key`` is
    omitted and stage-0 binds become the key).  Properties using named
    predicates are skipped: a ``@predicate`` may read any bound variable
    through the environment, invisibly to structural analysis.
    """
    if _has_named_predicates(prop):
        return
    used: Set[str] = set()
    for stage in prop.stages:
        for pattern in _stage_patterns(stage):
            used.update(ref.name for ref in _var_refs(pattern))
    key_vars = set(prop.key_vars)
    if not key_vars and prop.stages:
        key_vars = {b.var for b in prop.stages[0].pattern.binds}
    for stage in prop.stages:
        for bind in stage.pattern.binds:
            if bind.var not in used and bind.var not in key_vars:
                yield make(
                    "L002",
                    f"${bind.var} is bound from {bind.field} but never read "
                    "by a guard or the instance key",
                    bind, prop=prop.name,
                )


def rule_shadowed_bind(prop: PropertyAst) -> Iterator[Diagnostic]:
    """L003 — rebinding a name discards the earlier stage's value."""
    first_bound: Dict[str, str] = {}
    for stage in prop.stages:
        seen_here: Set[str] = set()
        for bind in stage.pattern.binds:
            if bind.var in seen_here:
                yield make(
                    "L003",
                    f"${bind.var} is bound twice within stage {stage.name!r}",
                    bind, prop=prop.name,
                )
            elif bind.var in first_bound:
                yield make(
                    "L003",
                    f"stage {stage.name!r} rebinds ${bind.var} (first bound "
                    f"in stage {first_bound[bind.var]!r}); the earlier value "
                    "is shadowed for all later stages",
                    bind, prop=prop.name,
                )
            seen_here.add(bind.var)
            first_bound.setdefault(bind.var, stage.name)


# ---------------------------------------------------------------------------
# Guard consistency (L004, L006; L005/L006/L016 contradictions are
# :func:`~repro.lint.dataflow.rule_contradictions`)
# ---------------------------------------------------------------------------
def _comparison_key(condition: Comparison) -> Tuple[str, str, object]:
    # value nodes compare by content, not by source position
    return (condition.field, condition.op, condition.value)


def _duplicate_guards(pattern: PatternAst) -> Iterator[Comparison]:
    seen: Set[Tuple] = set()
    for condition in pattern.conditions:
        if not isinstance(condition, Comparison):
            continue
        key = _comparison_key(condition)
        if key in seen:
            yield condition
        seen.add(key)


def rule_duplicate_guard(prop: PropertyAst) -> Iterator[Diagnostic]:
    """L004 — a guard repeated verbatim is dead weight (or a typo)."""
    for stage in prop.stages:
        for condition in _duplicate_guards(stage.pattern):
            yield make(
                "L004",
                f"stage {stage.name!r} repeats the guard "
                f"{condition.field} {condition.op} "
                f"{_render_value(condition.value)}",
                condition, prop=prop.name,
            )


def rule_duplicate_unless(prop: PropertyAst) -> Iterator[Diagnostic]:
    """L006 — an unless pattern that repeats an earlier one on its stage
    (an unless whose guards contradict is :func:`rule_contradictions`')."""
    for stage in prop.stages:
        seen: List[PatternAst] = []
        for unless in stage.unless:
            if any(unless == prior for prior in seen):
                yield make(
                    "L006",
                    f"unless pattern on stage {stage.name!r} duplicates an "
                    "earlier unless on the same stage",
                    unless, prop=prop.name,
                )
            seen.append(unless)


# ---------------------------------------------------------------------------
# Deadlines and stage structure (L007, L012, L013, L014)
# ---------------------------------------------------------------------------
def rule_bad_within(prop: PropertyAst) -> Iterator[Diagnostic]:
    """L007 — missing / non-positive / misplaced ``within`` deadlines."""
    for index, stage in enumerate(prop.stages):
        if stage.negative and stage.within is None:
            yield make(
                "L007",
                f"absent stage {stage.name!r} needs a `within` deadline "
                "(a negative observation is only checkable over a finite "
                "window)",
                stage, prop=prop.name,
            )
        if stage.within is not None and stage.within <= 0:
            yield make(
                "L007",
                f"stage {stage.name!r} has a non-positive deadline "
                f"`within {stage.within:g}`",
                stage, prop=prop.name,
            )
        if index == 0 and not stage.negative and stage.within is not None:
            yield make(
                "L007",
                f"stage 0 ({stage.name!r}) cannot carry `within`: there is "
                "no prior stage to time from",
                stage, prop=prop.name,
            )


def rule_bad_first_stage(prop: PropertyAst) -> Iterator[Diagnostic]:
    """L012 — the first stage must be a positive observation."""
    if prop.stages and prop.stages[0].negative:
        yield make(
            "L012",
            f"first stage {prop.stages[0].name!r} is `absent`; something "
            "positive has to create the instance",
            prop.stages[0], prop=prop.name,
        )


def rule_duplicate_stage(prop: PropertyAst) -> Iterator[Diagnostic]:
    """L013 — stage names must be unique (watchers are named by them)."""
    seen: Dict[str, StageAst] = {}
    for stage in prop.stages:
        if stage.name in seen:
            yield make(
                "L013",
                f"stage name {stage.name!r} is already used",
                stage, prop=prop.name,
            )
        seen.setdefault(stage.name, stage)


def rule_unknown_samepacket(prop: PropertyAst) -> Iterator[Diagnostic]:
    """L014 — ``samepacket`` must name a *preceding* ``observe`` stage on
    a packet event: an ``absent`` or ``oob`` stage records no packet uid."""
    preceding: Set[str] = set()
    no_uid: Dict[str, str] = {}  # preceding stage -> "absent" | "oob"
    for stage in prop.stages:
        for pattern in _stage_patterns(stage):
            target = pattern.same_packet_as
            if target is None:
                continue
            if target in no_uid:
                where = (f"{no_uid[target]} stage {target!r}, which records "
                         "no packet uid")
            elif target in preceding:
                continue
            elif target == stage.name:
                where = "itself"
            else:
                where = f"{target!r}, which does not precede it"
            yield make(
                "L014",
                f"stage {stage.name!r}: samepacket references {where}",
                pattern, prop=prop.name,
            )
        preceding.add(stage.name)
        if stage.negative or stage.pattern.kind == "oob":
            no_uid[stage.name] = "absent" if stage.negative else "oob"


def rule_key_not_bound(prop: PropertyAst) -> Iterator[Diagnostic]:
    """L011 — every declared key variable must come from stage 0."""
    if not prop.stages or not prop.key_vars:
        return
    bound0 = {b.var for b in prop.stages[0].pattern.binds}
    for var in prop.key_vars:
        if var not in bound0:
            yield make(
                "L011",
                f"key variable {var!r} is not bound by stage 0 "
                f"({prop.stages[0].name!r}); instances could never be keyed "
                "on it",
                prop, prop=prop.name,
            )


# ---------------------------------------------------------------------------
# Types and widths (L008, L009, L010)
# ---------------------------------------------------------------------------
def _comparison_pairs(pattern: PatternAst) -> Iterator[Tuple[str, object, object]]:
    """(field, value-node, anchor-node) for every field/value comparison."""
    for condition in pattern.conditions:
        if isinstance(condition, Comparison):
            yield condition.field, condition.value, condition
        elif isinstance(condition, AnyDiffers):
            for field_name, value in condition.pairs:
                yield field_name, value, condition


def rule_type_mismatch(prop: PropertyAst) -> Iterator[Diagnostic]:
    """L008 — literal kinds and variable origins must fit their fields."""
    origin: Dict[str, str] = {}
    for stage in prop.stages:
        for pattern in _stage_patterns(stage):
            for field_name, value, anchor in _comparison_pairs(pattern):
                if isinstance(value, Literal):
                    why = literal_mismatch(field_name, value.value)
                    if why:
                        yield make("L008", why, value, prop=prop.name)
                elif isinstance(value, VarRef):
                    bound_from = origin.get(value.name)
                    if bound_from is None:
                        continue
                    ftype = FIELD_SCHEMA.get(field_name)
                    btype = FIELD_SCHEMA.get(bound_from)
                    if ftype and btype and not kinds_compatible(
                            ftype.kind, btype.kind):
                        yield make(
                            "L008",
                            f"${value.name} was bound from {bound_from} "
                            f"({btype.kind}) but is matched against "
                            f"{field_name} ({ftype.kind}); the two kinds "
                            "never compare equal",
                            value, prop=prop.name,
                        )
        for bind in stage.pattern.binds:
            origin.setdefault(bind.var, bind.field)


def rule_literal_overflow(prop: PropertyAst) -> Iterator[Diagnostic]:
    """L009 — integer literals must fit the field's register width."""
    for stage in prop.stages:
        for pattern in _stage_patterns(stage):
            for field_name, value, _anchor in _comparison_pairs(pattern):
                if isinstance(value, Literal):
                    why = literal_overflow(field_name, value.value)
                    if why:
                        yield make("L009", why, value, prop=prop.name)


def rule_unknown_field(prop: PropertyAst) -> Iterator[Diagnostic]:
    """L010 — fields outside the header schema are typos until proven
    otherwise (the monitor would silently never match them)."""
    for stage in prop.stages:
        for pattern in _stage_patterns(stage):
            for field_name, _value, anchor in _comparison_pairs(pattern):
                if field_name not in FIELD_SCHEMA:
                    yield make(
                        "L010",
                        f"unknown field {field_name!r} (not produced by any "
                        "parsed header or event metadata)",
                        anchor, prop=prop.name,
                    )
            for bind in pattern.binds:
                if bind.field not in FIELD_SCHEMA:
                    yield make(
                        "L010",
                        f"bind {bind.var} = {bind.field}: unknown field "
                        f"{bind.field!r}",
                        bind, prop=prop.name,
                    )


_AST_RULES = (
    rule_undefined_variable,
    rule_unused_variable,
    rule_shadowed_bind,
    rule_duplicate_guard,
    rule_contradictions,
    rule_duplicate_unless,
    rule_bad_within,
    rule_type_mismatch,
    rule_literal_overflow,
    rule_unknown_field,
    rule_key_not_bound,
    rule_bad_first_stage,
    rule_duplicate_stage,
    rule_unknown_samepacket,
)
