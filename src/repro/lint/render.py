"""Render lint reports as human-readable text or machine-readable JSON.

Text format, one diagnostic per line::

    path:line:col: severity CODE slug: message

followed (per property) by a feasibility one-liner, the split-mode
verdict, and the static cost estimate, then a footer totalling errors and
warnings across all files.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Sequence

from .diagnostics import Diagnostic, RULES
from .engine import FileReport, PropertyReport
from .splitmode import INLINE_REQUIRED


def render_text(reports: Sequence[FileReport], verbose: bool = True) -> str:
    """The default terminal rendering of one lint run."""
    lines: List[str] = []
    for report in reports:
        for diag in report.all_diagnostics():
            lines.append(_diag_line(report.path, diag))
            for rel in diag.related:
                where = f"{diag.path or report.path}:{rel.line}:{rel.column}"
                lines.append(f"{where}: note: {rel.message}")
        if verbose:
            for prop in report.properties:
                lines.extend(_prop_summary(prop))
    errors = sum(r.errors for r in reports)
    warnings = sum(r.warnings for r in reports)
    suppressed = sum(r.suppressed for r in reports)
    footer = f"{errors} error(s), {warnings} warning(s)"
    if suppressed:
        footer += f", {suppressed} suppressed"
    footer += f" across {len(reports)} file(s)"
    lines.append(footer)
    return "\n".join(lines)


def _diag_line(path: str, diag: Diagnostic) -> str:
    where = f"{diag.path or path}:{diag.line}:{diag.column}"
    slug = RULES[diag.code].slug
    return (
        f"{where}: {diag.severity.value} {diag.code} {slug}: {diag.message}"
    )


def _prop_summary(prop: PropertyReport) -> List[str]:
    if prop.spec is None:
        return [f"  {prop.name}: not elaborated (errors above)"]
    lines: List[str] = []
    if prop.feasibility:
        hosts = [v.backend for v in prop.feasibility if v.hosted]
        blocked = len(prop.feasibility) - len(hosts)
        hosted_by = ", ".join(hosts) if hosts else "none"
        lines.append(
            f"  {prop.name}: feasible on {len(hosts)}/{len(prop.feasibility)}"
            f" backend(s) [{hosted_by}]"
            + (f"; {blocked} blocked" if blocked else "")
        )
    if prop.split is not None:
        split = prop.split
        verdict = split.classification
        if verdict == INLINE_REQUIRED:
            verdict += " (split processing would miss violations)"
        lines.append(
            f"  {prop.name}: {verdict} at lag {split.lag:g}s; "
            f"{len(split.hazards)} hazard(s)"
        )
        cost = split.cost
        detail = (
            f"{cost.rules_per_instance} rule(s)/instance"
            if cost.model == "rules"
            else "reference engine"
        )
        lines.append(
            f"  {prop.name}: cost ~{cost.pipeline_tables} pipeline table(s), "
            f"{detail}, {cost.slow_updates_per_instance} slow update(s), "
            f"{cost.state_bits_per_instance} state bit(s) per instance"
        )
        if cost.codegen is not None:
            cg = cost.codegen
            lines.append(
                f"  {prop.name}: codegen ~{cg.event_classes} event "
                f"class(es), {cg.inline_terms} inline term(s)"
            )
    if prop.dispatch is not None:
        watchers = ", ".join(
            f"{kind}={count}" for kind, count in prop.dispatch.watchers
        ) or "none"
        line = f"  {prop.name}: dispatch watchers {watchers}"
        scans = len(prop.dispatch.hot_scans)
        if scans:
            line += f"; {scans} hot scan(s)"
        lines.append(line)
    if prop.taint is not None:
        taint = prop.taint
        bound = ("≥2^63" if taint.capped
                 else f"≤{taint.instance_bound:,}")
        line = (
            f"  {prop.name}: key taint {taint.key_label}, "
            f"{bound} instance(s)"
        )
        if taint.suggested_max_instances is not None:
            line += (
                f"; suggest max_instances={taint.suggested_max_instances}"
            )
        lines.append(line)
    return lines


def render_json(reports: Sequence[FileReport]) -> str:
    """A stable JSON document for tooling (``repro lint --json``)."""
    payload = {
        "files": [_file_json(r) for r in reports],
        "summary": {
            "files": len(reports),
            "errors": sum(r.errors for r in reports),
            "warnings": sum(r.warnings for r in reports),
            "suppressed": sum(r.suppressed for r in reports),
            "dispatch": _dispatch_totals(reports),
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _dispatch_totals(reports: Sequence[FileReport]) -> Dict[str, int]:
    """Aggregate dispatch-plan size: watchers per event kind, summed over
    every linted property — what each event class would wake if the whole
    lint run were loaded into one monitor."""
    totals: Dict[str, int] = {}
    for report in reports:
        for prop in report.properties:
            if prop.dispatch is None:
                continue
            for kind, count in prop.dispatch.watchers:
                totals[kind] = totals.get(kind, 0) + count
    return totals


def _file_json(report: FileReport) -> Dict[str, Any]:
    return {
        "path": report.path,
        "errors": report.errors,
        "warnings": report.warnings,
        "suppressed": report.suppressed,
        "diagnostics": [_diag_json(d, report.path) for d in report.diagnostics],
        "properties": [_prop_json(p, report.path) for p in report.properties],
    }


def _diag_json(diag: Diagnostic, path: str) -> Dict[str, Any]:
    return {
        "code": diag.code,
        "slug": RULES[diag.code].slug,
        "severity": diag.severity.value,
        "message": diag.message,
        "path": diag.path or path,
        "line": diag.line,
        "column": diag.column,
        "property": diag.prop,
        "related": [
            {"message": rel.message, "line": rel.line, "column": rel.column}
            for rel in diag.related
        ],
    }


def _prop_json(prop: PropertyReport, path: str) -> Dict[str, Any]:
    out: Dict[str, Any] = {
        "name": prop.name,
        "line": prop.line,
        "column": prop.column,
        "elaborated": prop.spec is not None,
        "diagnostics": [_diag_json(d, path) for d in prop.diagnostics],
    }
    if prop.feasibility:
        out["feasibility"] = [
            {
                "backend": v.backend,
                "hosted": v.hosted,
                "blockers": [
                    {
                        "feature": b.feature,
                        "reason": b.reason,
                        "precluded": b.precluded,
                    }
                    for b in v.blockers
                ],
            }
            for v in prop.feasibility
        ]
    if prop.split is not None:
        split = prop.split
        out["split"] = {
            "classification": split.classification,
            "lag": split.lag,
            "hazards": [
                {
                    "code": h.code,
                    "stage": h.stage,
                    "message": h.message,
                    "certain": h.certain,
                    "guaranteed_slack": h.guaranteed_slack,
                }
                for h in split.hazards
            ],
            "cost": {
                "pipeline_tables": split.cost.pipeline_tables,
                "instance_tables": split.cost.instance_tables,
                "rules_per_instance": split.cost.rules_per_instance,
                "slow_updates_per_instance":
                    split.cost.slow_updates_per_instance,
                "state_bits_per_instance":
                    split.cost.state_bits_per_instance,
                "model": split.cost.model,
                "engine_reason": split.cost.engine_reason,
                "codegen": None if split.cost.codegen is None else {
                    "event_classes": split.cost.codegen.event_classes,
                    "inline_terms": split.cost.codegen.inline_terms,
                },
            },
        }
    if prop.dispatch is not None:
        out["dispatch"] = {
            "watchers": dict(prop.dispatch.watchers),
            "scans": [
                {"kind": kind, "stage": stage, "role": role}
                for kind, stage, role in prop.dispatch.scans
            ],
        }
    if prop.taint is not None:
        taint = prop.taint
        out["taint"] = {
            "key_vars": list(taint.key_vars),
            "key_label": taint.key_label,
            "instance_bound": taint.instance_bound,
            "capped": taint.capped,
            "attacker_matchable": list(taint.attacker_matchable),
            "suggested_max_instances": taint.suggested_max_instances,
            "labels": {
                name: {
                    "label": t.label,
                    "field": t.field,
                    "stage": t.stage,
                    "reason": t.reason,
                }
                for name, t in sorted(taint.labels.items())
            },
        }
    return out
