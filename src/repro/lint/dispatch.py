"""Dispatch-plan lint pass: the property's hot-path cost surface.

The monitor engine builds a per-event-class dispatch plan for every
registered property (:mod:`repro.core.compile`): each concrete dataplane
event class maps to the exact (stage, role) watchers that could match
it.  This pass surfaces that plan statically — how many watchers each
event kind wakes — and warns (``L015``) when a stage forces the *worst*
dispatch shape: a full-population scan on a hot packet kind.

A stage scans when its index plan is empty — no equality guard against
an earlier binding and no ``same_packet_as`` linkage — so every live
instance must be examined on every matching event; an ``unless`` scans
on the same terms, when none of its own guards equates a field with an
earlier binding.  That is intrinsic for multiple-match properties like
the paper's link-down example, but there the scanned kind is a rare
out-of-band event; the warning fires only for per-packet kinds (arrival
/ egress / drop), where the scan turns per-event cost from O(1) into
O(live instances).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..core.compile import dispatch_summary, scan_watchers
from ..core.spec import PropertySpec
from .diagnostics import Diagnostic, make

#: event-kind labels that fire per packet — a scan here is on the hot path.
HOT_KINDS = ("arrival", "egress", "drop")


@dataclass(frozen=True)
class DispatchReport:
    """The static dispatch shape of one property."""

    prop: str
    #: watchers per event-kind label, e.g. ``{"arrival": 2, "egress": 1}``
    watchers: Tuple[Tuple[str, int], ...]
    #: (kind label, stage name, role) of every full-population scan
    scans: Tuple[Tuple[str, str, str], ...]

    @property
    def hot_scans(self) -> Tuple[Tuple[str, str, str], ...]:
        return tuple(s for s in self.scans if s[0] in HOT_KINDS)


def analyze_dispatch(spec: PropertySpec) -> DispatchReport:
    """Derive the dispatch shape the engine would build for ``spec``."""
    summary = dispatch_summary(spec)
    return DispatchReport(
        prop=spec.name,
        watchers=tuple(sorted(summary.items())),
        scans=tuple(scan_watchers(spec)),
    )


def dispatch_diagnostics(
    report: DispatchReport, anchor: object = None
) -> List[Diagnostic]:
    """``L015`` for each stage scanning the population on a packet kind."""
    out: List[Diagnostic] = []
    for kind, stage, role in report.hot_scans:
        what = (f"an unless of stage {stage!r}" if role == "unless"
                else f"stage {stage!r}")
        out.append(make(
            "L015",
            f"{what} has no indexable guard, so every live "
            f"instance is scanned on every {kind} event — bind a "
            f"correlating field at an earlier stage or guard on one "
            f"(role: {role})",
            anchor,
            prop=report.prop,
        ))
    return out
