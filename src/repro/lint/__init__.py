"""Static analysis for property specifications (``repro lint``).

Three pass families over parsed ASTs and compiled
:class:`~repro.core.spec.PropertySpec` IR:

* correctness lints (L0xx) — undefined/unused variables, shadowed binds,
  duplicate or contradictory guards, unreachable ``unless`` clauses,
  bad ``within`` deadlines, type/width mismatches against the header
  schema (:mod:`repro.lint.rules`);
* backend feasibility (L1xx) — the property's derived feature
  requirements checked against every Table-2 capability column, via the
  same code path ``Backend.compile`` rejects through
  (:mod:`repro.lint.feasibility`);
* split-mode hazards (L2xx) — read-after-deferred-write races in the
  stage/register plan, the Sec. 3.3 monitor-error scenario, plus static
  pipeline/rule/register cost estimates (:mod:`repro.lint.splitmode`).
"""

from .dataflow import rule_contradictions, stage_environments
from .diagnostics import Diagnostic, Related, Rule, RULES, Severity
from .dispatch import (
    DispatchReport,
    analyze_dispatch,
    dispatch_diagnostics,
)
from .engine import (
    FileReport,
    LintOptions,
    PropertyReport,
    lint_file,
    lint_paths,
    lint_source,
)
from .fixes import (
    FIXABLE,
    AppliedFix,
    FixResult,
    SkippedProperty,
    fix_ast,
    fix_source,
)
from .feasibility import (
    BackendVerdict,
    Blocker,
    feasibility_diagnostics,
    resolve_backend_name,
    survey_property,
)
from .render import render_json, render_text
from .rules import run_ast_rules
from .taint import (
    CONSTANT,
    LABEL_ORDER,
    MAX_BOUND,
    TaintReport,
    VarTaint,
    analyze_taint,
    label_rank,
    taint_diagnostics,
)
from .splitmode import (
    DEFAULT_SPLIT_LAG,
    INLINE_REQUIRED,
    SPLIT_SAFE,
    CodegenCostEstimate,
    CostEstimate,
    Hazard,
    SplitLagSpec,
    SplitReport,
    analyze_split,
    estimate_codegen_cost,
    estimate_cost,
    parse_split_lag,
    resolve_split_lag,
    split_diagnostics,
)

__all__ = [
    "rule_contradictions",
    "stage_environments",
    "Diagnostic",
    "Related",
    "Rule",
    "RULES",
    "Severity",
    "DispatchReport",
    "analyze_dispatch",
    "dispatch_diagnostics",
    "FileReport",
    "LintOptions",
    "PropertyReport",
    "lint_file",
    "lint_paths",
    "lint_source",
    "FIXABLE",
    "AppliedFix",
    "FixResult",
    "SkippedProperty",
    "fix_ast",
    "fix_source",
    "BackendVerdict",
    "Blocker",
    "feasibility_diagnostics",
    "resolve_backend_name",
    "survey_property",
    "render_json",
    "render_text",
    "run_ast_rules",
    "CONSTANT",
    "LABEL_ORDER",
    "MAX_BOUND",
    "TaintReport",
    "VarTaint",
    "analyze_taint",
    "label_rank",
    "taint_diagnostics",
    "DEFAULT_SPLIT_LAG",
    "INLINE_REQUIRED",
    "SPLIT_SAFE",
    "CodegenCostEstimate",
    "CostEstimate",
    "estimate_codegen_cost",
    "Hazard",
    "SplitLagSpec",
    "SplitReport",
    "analyze_split",
    "estimate_cost",
    "parse_split_lag",
    "resolve_split_lag",
    "split_diagnostics",
]
