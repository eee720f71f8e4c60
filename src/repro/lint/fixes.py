"""Mechanical autofixes for lint findings (``repro lint --fix``).

Three rules are mechanically fixable — their fixes delete dead syntax
and provably cannot change what the property matches:

* **L004 duplicate guards** — a guard repeated verbatim in one pattern
  is idempotent; drop every repeat after the first.
* **L002 unused binds** — a bind never read by any guard or the
  instance key writes a value nothing observes; drop it.  Skipped when
  the property uses named ``@predicates`` (a predicate may read any
  bound variable through the environment) and for stage-0 binds of a
  property with no explicit ``key`` (those binds *are* the implicit
  key).
* **L003 shadowed rebinds** — an exact within-stage duplicate bind
  (same variable, same field) is dropped always; a cross-stage rebind
  is dropped only when it is *dead* — the variable is a non-key
  variable no later stage (or the rebinding stage's own ``unless``)
  reads — so the overwritten value could never be observed.

Fixes apply at the AST level and iterate to a fixpoint, then the file is
rewritten by splicing each changed property's reformatted text
(:func:`repro.lang.format.format_ast`) over its original line span.
``#`` comments in the span (including lint suppressions) survive the
splice: standalone comment blocks re-anchor to the code line that
followed them, trailing comments re-join their line, and a comment whose
line the fix deleted sinks to the end of the property instead of
vanishing.  Text outside rewritten spans is preserved byte-for-byte, and
a second ``--fix`` pass is a no-op (idempotence is locked by tests).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterator, List, Optional, Sequence, Set, Tuple

from ..lang.ast import BindAst, Comparison, PatternAst, PropertyAst, StageAst
from ..lang.format import format_ast
from ..lang.parser import ParseError, parse
from .rules import _comparison_key, _has_named_predicates, _var_refs

#: The rule codes ``--fix`` knows how to repair.
FIXABLE = ("L002", "L003", "L004")

#: veto hook: may this (code, source line) actually be repaired?  The
#: file-level driver wires this to the lint suppressions so ``--fix``
#: never deletes syntax whose diagnostic the author silenced.
FixFilter = Callable[[str, int], bool]


def _allow_all(code: str, line: int) -> bool:
    return True


@dataclass(frozen=True)
class AppliedFix:
    """One mechanical repair made to one property."""

    code: str
    prop: str
    line: int  # source line of the removed syntax (0 if unknown)
    description: str


@dataclass(frozen=True)
class SkippedProperty:
    """A property --fix left alone, and why."""

    prop: str
    line: int
    reason: str


@dataclass(frozen=True)
class FixResult:
    """The outcome of fixing one source file."""

    source: str  # the rewritten text (== input when nothing changed)
    fixes: Tuple[AppliedFix, ...]
    skipped: Tuple[SkippedProperty, ...]

    @property
    def changed(self) -> bool:
        return bool(self.fixes)


# ---------------------------------------------------------------------------
# AST-level transformations
# ---------------------------------------------------------------------------
def _all_patterns(prop: PropertyAst) -> Iterator[PatternAst]:
    for stage in prop.stages:
        yield stage.pattern
        yield from stage.unless


def _refs(pattern: PatternAst) -> Set[str]:
    return {ref.name for ref in _var_refs(pattern)}


def _fix_duplicate_guards(
    prop: PropertyAst, allowed: FixFilter = _allow_all
) -> Tuple[PropertyAst, List[AppliedFix]]:
    """L004: drop verbatim guard repeats (main patterns, matching the rule)."""
    fixes: List[AppliedFix] = []
    stages: List[StageAst] = []
    for stage in prop.stages:
        seen = set()
        kept = []
        for condition in stage.pattern.conditions:
            if isinstance(condition, Comparison):
                key = _comparison_key(condition)
                if key in seen and allowed("L004", condition.line):
                    fixes.append(AppliedFix(
                        "L004", prop.name, condition.line,
                        f"dropped repeated guard {condition.field} "
                        f"{condition.op} … in stage {stage.name!r}"))
                    continue
                seen.add(key)
            kept.append(condition)
        if len(kept) != len(stage.pattern.conditions):
            stage = replace(
                stage, pattern=replace(stage.pattern, conditions=tuple(kept)))
        stages.append(stage)
    return replace(prop, stages=tuple(stages)), fixes


def _fix_unused_binds(
    prop: PropertyAst, allowed: FixFilter = _allow_all
) -> Tuple[PropertyAst, List[AppliedFix]]:
    """L002: drop binds nothing reads (mirrors the rule's skip conditions)."""
    if _has_named_predicates(prop):
        return prop, []
    used: Set[str] = set()
    for pattern in _all_patterns(prop):
        used |= _refs(pattern)
    key_vars = set(prop.key_vars)
    implicit_key = not key_vars  # stage-0 binds *are* the key: keep them
    fixes: List[AppliedFix] = []
    stages: List[StageAst] = []
    for index, stage in enumerate(prop.stages):
        kept = []
        for bind in stage.pattern.binds:
            removable = (
                bind.var not in used
                and bind.var not in key_vars
                and not (implicit_key and index == 0)
                and allowed("L002", bind.line)
            )
            if removable:
                fixes.append(AppliedFix(
                    "L002", prop.name, bind.line,
                    f"dropped unused bind {bind.var} = {bind.field} in "
                    f"stage {stage.name!r}"))
            else:
                kept.append(bind)
        if len(kept) != len(stage.pattern.binds):
            stage = replace(
                stage, pattern=replace(stage.pattern, binds=tuple(kept)))
        stages.append(stage)
    return replace(prop, stages=tuple(stages)), fixes


def _fix_shadowed_binds(
    prop: PropertyAst, allowed: FixFilter = _allow_all
) -> Tuple[PropertyAst, List[AppliedFix]]:
    """L003: drop exact within-stage duplicates and *dead* cross-stage
    rebinds (non-key variable, unread at or after the rebinding stage)."""
    predicates = _has_named_predicates(prop)
    key_vars = set(prop.key_vars)
    if not key_vars and prop.stages:
        key_vars = {b.var for b in prop.stages[0].pattern.binds}
    fixes: List[AppliedFix] = []
    stages: List[StageAst] = []
    bound_earlier: Set[str] = set()
    for index, stage in enumerate(prop.stages):
        read_later: Set[str] = set()
        for later in prop.stages[index + 1:]:
            read_later |= _refs(later.pattern)
            for unless in later.unless:
                read_later |= _refs(unless)
        for unless in stage.unless:
            read_later |= _refs(unless)
        seen_here: List[BindAst] = []
        kept = []
        for bind in stage.pattern.binds:
            exact_dup = allowed("L003", bind.line) and any(
                b.var == bind.var and b.field == bind.field
                for b in seen_here)
            dead_rebind = (
                not predicates
                and bind.var in bound_earlier
                and bind.var not in key_vars
                and bind.var not in read_later
                and allowed("L003", bind.line)
            )
            if exact_dup:
                fixes.append(AppliedFix(
                    "L003", prop.name, bind.line,
                    f"dropped duplicate bind {bind.var} = {bind.field} in "
                    f"stage {stage.name!r}"))
                continue
            if dead_rebind:
                fixes.append(AppliedFix(
                    "L003", prop.name, bind.line,
                    f"dropped dead rebind of {bind.var} in stage "
                    f"{stage.name!r} (the rebound value is never read)"))
                continue
            seen_here.append(bind)
            kept.append(bind)
        if len(kept) != len(stage.pattern.binds):
            stage = replace(
                stage, pattern=replace(stage.pattern, binds=tuple(kept)))
        stages.append(stage)
        bound_earlier |= {b.var for b in stage.pattern.binds}
    return replace(prop, stages=tuple(stages)), fixes


_PASSES = (_fix_duplicate_guards, _fix_shadowed_binds, _fix_unused_binds)


def fix_ast(
    prop: PropertyAst, allowed: FixFilter = _allow_all
) -> Tuple[PropertyAst, Tuple[AppliedFix, ...]]:
    """Apply every fixable rule to one property, iterated to a fixpoint
    (dropping a rebind can orphan a bind, which the next round drops)."""
    applied: List[AppliedFix] = []
    for _ in range(16):  # fixpoint bound: each round deletes >= 1 node
        round_fixes: List[AppliedFix] = []
        for fix_pass in _PASSES:
            prop, fixes = fix_pass(prop, allowed)
            round_fixes.extend(fixes)
        if not round_fixes:
            break
        applied.extend(round_fixes)
    return prop, tuple(applied)


# ---------------------------------------------------------------------------
# Comment preservation across the reformat
# ---------------------------------------------------------------------------
def _split_comment(line: str) -> Tuple[str, str]:
    """(code, comment) — the first ``#`` outside double quotes starts the
    comment ('' when there is none)."""
    in_quote = False
    for index, char in enumerate(line):
        if char == '"':
            in_quote = not in_quote
        elif char == "#" and not in_quote:
            return line[:index], line[index:].rstrip()
    return line, ""


def _find_anchor(
    out: List[str], cursor: int, anchor: Optional[str]
) -> Optional[int]:
    """Where ``anchor`` landed in the reformatted lines (or None).

    Exact stripped-text match first; failing that, the first later line
    opening with the same keyword (``where``, ``bind``, ``observe`` …) —
    the fix usually *rewrote* the anchor line rather than deleting it,
    and the keyword identifies its successor.
    """
    if anchor is None:
        return None
    for j in range(cursor, len(out)):
        if out[j].strip() == anchor:
            return j
    tokens = anchor.split(None, 1)
    if not tokens:
        return None
    for j in range(cursor, len(out)):
        if out[j].split(None, 1)[:1] == tokens[:1]:
            return j
    return None


def _reattach_comments(
    span_lines: Sequence[str], new_lines: List[str]
) -> List[str]:
    """Carry a property span's comments into its reformatted lines.

    Each standalone comment block re-anchors to the next code line
    (matched by stripped text, scanning forward so repeated lines pair up
    in order); a trailing comment re-joins its own line.  When a fix
    deleted or reworded the anchoring line, the comment sinks to the end
    of the property rather than being dropped.
    """
    ops: List[Tuple[str, object, Optional[str]]] = []
    pending: List[str] = []
    for line in span_lines:
        stripped = line.strip()
        if stripped.startswith("#"):
            pending.append(line.rstrip())
            continue
        if not stripped:
            continue
        code, comment = _split_comment(line)
        anchor = code.strip()
        if pending:
            ops.append(("block", tuple(pending), anchor))
            pending = []
        if comment:
            ops.append(("trail", comment, anchor))
    if pending:
        ops.append(("block", tuple(pending), None))

    out = list(new_lines)
    cursor = 0
    leftovers: List[str] = []
    for kind, payload, anchor in ops:
        position = _find_anchor(out, cursor, anchor)
        if position is None:
            if kind == "block":
                leftovers.extend(payload)
            else:
                leftovers.append(payload)
            continue
        if kind == "block":
            out[position:position] = list(payload)
            cursor = position + len(payload)
        else:
            out[position] = f"{out[position]}  {payload}"
            cursor = position + 1
    if leftovers:
        out.extend(leftovers)
    return out


# ---------------------------------------------------------------------------
# File rewriting: per-property span splicing
# ---------------------------------------------------------------------------
def _property_spans(
    props: Sequence[PropertyAst], num_lines: int
) -> List[Tuple[int, int]]:
    """1-based inclusive (start, end) line spans, one per property — each
    runs to the line before the next ``property`` keyword (or EOF)."""
    spans = []
    for index, prop in enumerate(props):
        start = prop.line
        end = (props[index + 1].line - 1 if index + 1 < len(props)
               else num_lines)
        spans.append((start, end))
    return spans


def _suppression_filter(source: str) -> FixFilter:
    """A FixFilter honouring the file's ``# lint: disable`` annotations —
    a silenced diagnostic is the author saying the syntax is intentional,
    so ``--fix`` must not delete it."""
    from .engine import _Suppressions

    suppressions = _Suppressions(source)

    def allowed(code: str, line: int) -> bool:
        if code in suppressions.file_wide:
            return False
        return code not in suppressions.by_line.get(line, set())

    return allowed


def fix_source(source: str) -> FixResult:
    """Fix one property file's text; returns the (possibly) rewritten
    source plus what was fixed and what was skipped."""
    try:
        props = parse(source)
    except ParseError:
        return FixResult(source=source, fixes=(), skipped=())
    allowed = _suppression_filter(source)
    lines = source.splitlines()
    spans = _property_spans(props, len(lines))
    all_fixes: List[AppliedFix] = []
    skipped: List[SkippedProperty] = []
    replacements: List[Tuple[Tuple[int, int], List[str]]] = []
    for prop, span in zip(props, spans):
        fixed, fixes = fix_ast(prop, allowed)
        if not fixes:
            continue
        span_lines = lines[span[0] - 1:span[1]]
        all_fixes.extend(fixes)
        new_lines = format_ast(fixed).splitlines()
        if any(_split_comment(line)[1] or line.lstrip().startswith("#")
               for line in span_lines):
            new_lines = _reattach_comments(span_lines, new_lines)
        # The formatter leads each stage with a blank line; keep the
        # original span's trailing blank lines so inter-property spacing
        # survives the splice.
        while span_lines and not span_lines[-1].strip():
            new_lines.append(span_lines.pop())
        replacements.append((span, new_lines))
    if not replacements:
        return FixResult(source=source, fixes=(), skipped=tuple(skipped))
    out: List[str] = []
    cursor = 1
    for (start, end), new_lines in replacements:
        out.extend(lines[cursor - 1:start - 1])
        out.extend(new_lines)
        cursor = end + 1
    out.extend(lines[cursor - 1:])
    text = "\n".join(out)
    if source.endswith("\n") and not text.endswith("\n"):
        text += "\n"
    return FixResult(
        source=text, fixes=tuple(all_fixes), skipped=tuple(skipped))
