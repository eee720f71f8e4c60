"""Structured lint diagnostics: stable codes, severities, source spans.

Every finding the linter produces is a :class:`Diagnostic` carrying a
stable rule code (``L001``, ``L101``, …), a severity, a message, and the
1-based source position of the AST node it anchors to (0 when the node was
built programmatically and has no position).  The code space is
partitioned by pass family:

* ``L000``        — parse / compile errors surfaced as diagnostics;
* ``L001``–``L099`` — correctness lints over the AST/IR;
* ``L100``–``L199`` — backend feasibility (the static ``repro survey``);
* ``L200``–``L299`` — split-mode read-after-deferred-write hazards.

:data:`RULES` is the canonical registry; ``docs/LINTING.md`` catalogs the
same codes with bad/good examples, and a test keeps the two in sync.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple


class Severity(enum.Enum):
    """Diagnostic severities, ordered by gravity."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        return {"error": 0, "warning": 1, "info": 2}[self.value]


@dataclass(frozen=True)
class Rule:
    """One registered lint rule."""

    code: str
    slug: str  # short kebab-case name, e.g. "contradictory-guards"
    severity: Severity  # default severity
    summary: str  # one-line description for docs / --help


#: The canonical rule registry.  Codes are append-only: once shipped, a
#: code keeps its meaning forever (suppression annotations reference them).
RULES: Dict[str, Rule] = {
    rule.code: rule
    for rule in (
        Rule("L000", "syntax-error", Severity.ERROR,
             "the file does not parse or a property does not elaborate"),
        Rule("L001", "undefined-variable", Severity.ERROR,
             "a guard references a $variable no earlier stage binds, or an "
             "absent stage binds one"),
        Rule("L002", "unused-variable", Severity.WARNING,
             "a bound $variable is never read by a guard or the instance key"),
        Rule("L003", "shadowed-bind", Severity.WARNING,
             "a later stage rebinds a $variable, shadowing the earlier value"),
        Rule("L004", "duplicate-guard", Severity.WARNING,
             "the same guard appears twice in one pattern"),
        Rule("L005", "contradictory-guards", Severity.ERROR,
             "two guards on one field can never hold together"),
        Rule("L006", "unreachable-unless", Severity.WARNING,
             "an unless pattern can never match (contradictory or duplicate)"),
        Rule("L007", "bad-within", Severity.ERROR,
             "a within deadline is missing, non-positive, or on stage 0"),
        Rule("L008", "type-mismatch", Severity.ERROR,
             "a literal or variable's type disagrees with the field's type"),
        Rule("L009", "literal-overflow", Severity.ERROR,
             "an integer literal exceeds the field's register width"),
        Rule("L010", "unknown-field", Severity.WARNING,
             "a field name is not in the header schema"),
        Rule("L011", "key-not-bound", Severity.ERROR,
             "a declared key variable is not bound by stage 0"),
        Rule("L012", "bad-first-stage", Severity.ERROR,
             "the first stage is negative (nothing would create instances)"),
        Rule("L013", "duplicate-stage", Severity.ERROR,
             "two stages share a name"),
        Rule("L014", "unknown-samepacket", Severity.ERROR,
             "samepacket references a stage that does not precede this one "
             "or records no packet uid (absent, oob)"),
        Rule("L015", "hot-event-scan", Severity.WARNING,
             "a stage with no indexable guard scans every live instance "
             "on a per-packet event kind"),
        Rule("L016", "cross-stage-contradiction", Severity.ERROR,
             "a stage's guards can never hold given what earlier stages' "
             "binds and guards guarantee"),
        Rule("L017", "attacker-keyed-instances", Severity.WARNING,
             "every instance-key variable is attacker-controlled: a sender "
             "can mint unbounded monitor instances (state exhaustion)"),
        Rule("L018", "timeout-evasion-window", Severity.WARNING,
             "a within deadline is reachable (and refreshable) purely via "
             "attacker-controlled events, so a paced sender evades it"),
        Rule("L019", "tainted-violation-predicate", Severity.INFO,
             "every guard on the violating path reads attacker-controlled "
             "fields only, so the violation itself is spoofable"),
        Rule("L100", "infeasible-everywhere", Severity.ERROR,
             "no surveyed backend can host the property"),
        Rule("L101", "backend-infeasible", Severity.INFO,
             "a backend cannot host the property (names the missing feature)"),
        Rule("L102", "target-infeasible", Severity.ERROR,
             "the backend selected with --backend cannot host the property"),
        Rule("L200", "split-advance-race", Severity.WARNING,
             "a stage's advancing event can outrun the deferred state update"),
        Rule("L201", "split-discharge-race", Severity.WARNING,
             "an absent stage's discharging event can race the deferred "
             "timer install (spurious violation)"),
        Rule("L202", "deadline-within-lag", Severity.WARNING,
             "an absent deadline is shorter than the split-mode update lag"),
        Rule("L203", "split-cancel-race", Severity.WARNING,
             "an unless cancellation can race the deferred state update"),
    )
}


@dataclass(frozen=True)
class Related:
    """A secondary source position a finding points at (e.g. the earlier
    stage's bind a cross-stage contradiction traces back to)."""

    message: str
    line: int = 0
    column: int = 0


@dataclass(frozen=True)
class Diagnostic:
    """One lint finding, anchored to a source position."""

    code: str
    severity: Severity
    message: str
    line: int = 0
    column: int = 0
    #: name of the property the finding belongs to ("" for file-level)
    prop: str = ""
    path: str = ""
    #: further positions involved in the finding, in presentation order
    related: Tuple[Related, ...] = ()

    def __post_init__(self) -> None:
        if self.code not in RULES:
            raise ValueError(f"unregistered rule code {self.code!r}")
        # Related positions render in source order regardless of the
        # order a rule discovered them — diagnostics stay byte-stable
        # across refactors of the rules' internal iteration.
        object.__setattr__(
            self, "related",
            tuple(sorted(self.related,
                         key=lambda r: (r.line, r.column, r.message))),
        )

    @property
    def rule(self) -> Rule:
        return RULES[self.code]

    def sort_key(self) -> Tuple[int, int, int, str]:
        return (self.line, self.column, self.severity.rank, self.code)


def related_to(message: str, node: object = None) -> Related:
    """Build a :class:`Related` position, lifting line/column off ``node``."""
    return Related(
        message=message,
        line=getattr(node, "line", 0) or 0,
        column=getattr(node, "column", 0) or 0,
    )


def make(code: str, message: str, node: object = None, *,
         prop: str = "", severity: Optional[Severity] = None,
         related: Tuple[Related, ...] = ()) -> Diagnostic:
    """Build a diagnostic, lifting the position off any AST ``node``."""
    return Diagnostic(
        code=code,
        severity=severity if severity is not None else RULES[code].severity,
        message=message,
        line=getattr(node, "line", 0) or 0,
        column=getattr(node, "column", 0) or 0,
        prop=prop,
        related=related,
    )
