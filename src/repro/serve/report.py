"""The daemon's exit receipt: what was seen, what was shed, what it means.

A live monitor that sheds under load is only honest if it says so on the
way out.  :class:`ServeDegradationReport` is the serve-mode analogue of
``faults.rounds.DegradationReport``: it folds the monitor's own shutdown
summary (``Monitor.stop()``) together with the ingest queue's
accept/shed accounting and reports the **detection-uncertainty
interval** — the range the true violation count could occupy given
everything that was dropped.  The CI smoke job parses this JSON; humans
get :func:`render_serve_report`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple


@dataclass
class ServeDegradationReport:
    """Final accounting emitted when a daemon drains and stops."""

    profile: str
    uptime: float
    events_ingested: int
    events_shed: int
    events_observed: int
    violations: int
    interval: Tuple[int, int]
    live_instances: int
    pending_ops: int
    frame_errors: int = 0
    queue: Dict[str, object] = field(default_factory=dict)
    ledger: Dict[str, object] = field(default_factory=dict)
    http_requests: int = 0
    #: Per-shard liveness rows captured just before the fabric quiesced
    #: ([] when serving a plain single monitor).
    shards: List[Dict[str, object]] = field(default_factory=list)
    shard_restarts: int = 0
    quarantined_batches: int = 0
    failed_shards: List[int] = field(default_factory=list)

    @property
    def exact(self) -> bool:
        """True when nothing was shed: the observed count is the truth."""
        lo, hi = self.interval
        return lo == self.violations == hi

    def to_dict(self) -> Dict[str, object]:
        return {
            "profile": self.profile,
            "uptime": self.uptime,
            "events": {
                "ingested": self.events_ingested,
                "shed": self.events_shed,
                "observed": self.events_observed,
                "frame_errors": self.frame_errors,
            },
            "violations": {
                "observed": self.violations,
                "interval": list(self.interval),
                "exact": self.exact,
            },
            "monitor": {
                "live_instances": self.live_instances,
                "pending_ops": self.pending_ops,
            },
            "queue": dict(self.queue),
            "ledger": dict(self.ledger),
            "http_requests": self.http_requests,
            "fabric": {
                "shards": [dict(row) for row in self.shards],
                "restarts": self.shard_restarts,
                "quarantined_batches": self.quarantined_batches,
                "failed_shards": list(self.failed_shards),
            },
        }


def render_serve_report(report: ServeDegradationReport) -> str:
    """A terminal-friendly rendering of the final report."""
    lo, hi = report.interval
    lines: List[str] = []
    lines.append(f"serve report — profile={report.profile} "
                 f"uptime={report.uptime:.3f}s")
    lines.append(f"  events    ingested={report.events_ingested} "
                 f"shed={report.events_shed} "
                 f"observed={report.events_observed} "
                 f"frame_errors={report.frame_errors}")
    verdict = "exact" if report.exact else "uncertain"
    lines.append(f"  violations observed={report.violations} "
                 f"interval=[{lo}, {hi}] ({verdict})")
    lines.append(f"  monitor   live_instances={report.live_instances} "
                 f"pending_ops={report.pending_ops}")
    by_kind = report.ledger.get("by_kind") or {}
    if by_kind:
        sheds = " ".join(f"{kind}={count}"
                         for kind, count in sorted(by_kind.items()))
        lines.append(f"  ledger    {sheds}")
    else:
        lines.append("  ledger    (empty — nothing shed)")
    if report.shards:
        failed = (",".join(str(i) for i in report.failed_shards)
                  if report.failed_shards else "none")
        lines.append(f"  fabric    shards={len(report.shards)} "
                     f"restarts={report.shard_restarts} "
                     f"quarantined={report.quarantined_batches} "
                     f"failed={failed}")
    lines.append(f"  http      requests={report.http_requests}")
    return "\n".join(lines)
