"""Graceful monitor degradation: bounded state, shed work, honest errors.

The paper's static-Varanus column trades match generality for *bounded*
instance tables; Sec. 3.3 worries that split-mode updates lag behind line
rate.  This module makes both pressures explicit monitor policy instead of
silent failure:

* :class:`DegradationPolicy` bounds each property's instance store
  (``max_instances`` + an eviction policy) and the split-mode pending
  queue (``max_pending_ops`` + retry/backoff before shedding);
* :class:`OverflowLedger` records every shed instance and op with a
  *primary* classification — the likeliest error direction — plus the
  conservative both-sided impact set, so a degraded run can report its
  violation count as ``degraded - potential_false <= true <= degraded +
  potential_missed`` instead of a confidently wrong number.

One lost state transition can cascade (a never-killed instance shadows
future creations at its key), so each record counts toward both bounds;
``tests/property/test_fault_machine.py`` checks that a fault-free run's
count lies in the interval under any schedule of the faults ``repro
chaos`` injects.  The per-kind primary classification is what you read
to diagnose *which* failure mode a profile produces;
``docs/ROBUSTNESS.md`` walks through the semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: Eviction policies for bounded instance stores.
EVICT_REJECT = "reject-new"    # static tables: a full store refuses creations
EVICT_OLDEST = "evict-oldest"  # FIFO: shed the longest-lived instance
EVICT_LRU = "evict-lru"        # shed the least-recently-advanced instance

EVICTION_POLICIES = (EVICT_REJECT, EVICT_OLDEST, EVICT_LRU)

#: Impact classifications for shed work.
IMPACT_MISSED = "missed-detection"   # a real violation may go unreported
IMPACT_FALSE = "false-positive"      # a reported violation may be spurious


@dataclass(frozen=True)
class DegradationPolicy:
    """Bounds and shed behaviour for one monitor under overload."""

    #: per-property instance-store capacity (None = unbounded)
    max_instances: Optional[int] = None
    #: what a full store does with the next creation
    eviction: str = EVICT_REJECT
    #: split-mode pending-queue bound (None = unbounded)
    max_pending_ops: Optional[int] = None
    #: base backoff before re-attempting a backpressured op (doubles
    #: per attempt)
    retry_backoff: float = 1e-3
    #: re-attempts before an op is shed outright
    max_retries: int = 3

    def __post_init__(self) -> None:
        if self.max_instances is not None and self.max_instances < 1:
            raise ValueError(f"max_instances={self.max_instances!r} must be >= 1")
        if self.eviction not in EVICTION_POLICIES:
            raise ValueError(
                f"unknown eviction policy {self.eviction!r} "
                f"(expected one of {EVICTION_POLICIES})")
        if self.max_pending_ops is not None and self.max_pending_ops < 1:
            raise ValueError(
                f"max_pending_ops={self.max_pending_ops!r} must be >= 1")
        if not 0.0 <= self.retry_backoff < float("inf"):
            raise ValueError(
                f"retry_backoff={self.retry_backoff!r} must be finite, >= 0")
        if self.max_retries < 0:
            raise ValueError(f"max_retries={self.max_retries!r} must be >= 0")


#: Primary impact per (op kind, disposition): the direction the error
#: *usually* takes.  A lost create/advance usually hides a violation; a
#: lost kill usually lets a discharged instance complete anyway.
_PRIMARY = {
    "create": IMPACT_MISSED,
    "advance": IMPACT_MISSED,
    "refresh": IMPACT_MISSED,
    "kill": IMPACT_FALSE,
}


def classify_op(kind: str, disposition: str) -> Tuple[str, ...]:
    """Impact set for a shed or delayed op, primary impact first.

    Every record carries both impacts — a diverged instance population
    can flip the error either way (e.g. a dropped create suppresses a
    refresh, so a *later* re-creation completes where the clean run's
    instance had already expired) — but the primary (first) element
    encodes the dominant direction for the ledger breakdown.
    """
    primary = _PRIMARY.get(kind, IMPACT_MISSED)
    other = IMPACT_FALSE if primary == IMPACT_MISSED else IMPACT_MISSED
    return (primary, other)


#: default ceiling :func:`suggested_policy` clamps instance caps to —
#: roughly a hardware match table's worth of per-property state
DEFAULT_INSTANCE_CAP = 4096


def suggested_policy(
    instance_bound: int,
    attacker_keyed: bool = False,
    cap: int = DEFAULT_INSTANCE_CAP,
) -> DegradationPolicy:
    """A policy sized for a property's worst-case instance bound.

    ``instance_bound`` is the taint pass's static worst case (key
    cardinality × stage fan-out).  When it fits under ``cap`` the bound
    itself is the limit — the property genuinely cannot need more.  An
    attacker-keyed property gets LRU eviction rather than reject-new:
    under a flood the recently-active instances are the ones tracking
    real traffic, while reject-new would let the first wave of bogus
    keys permanently lock legitimate ones out.
    """
    if instance_bound < 1:
        raise ValueError(f"instance_bound={instance_bound!r} must be >= 1")
    return DegradationPolicy(
        max_instances=min(instance_bound, cap),
        eviction=EVICT_LRU if attacker_keyed else EVICT_REJECT,
    )


@dataclass(frozen=True)
class ShedRecord:
    """One unit of work the degraded monitor did not perform faithfully."""

    #: "instance-rejected" | "instance-evicted" | "op-dropped" |
    #: "op-delayed" | "op-retried" | "op-shed"
    kind: str
    prop: str
    detail: str
    time: float
    impacts: Tuple[str, ...]

    @property
    def primary(self) -> str:
        return self.impacts[0]


class OverflowLedger:
    """Append-only record of everything shed, with impact accounting."""

    def __init__(self) -> None:
        self.records: List[ShedRecord] = []

    def record(
        self,
        kind: str,
        prop: str,
        detail: str,
        time: float,
        impacts: Tuple[str, ...],
    ) -> None:
        self.records.append(ShedRecord(kind, prop, detail, time, impacts))

    def __len__(self) -> int:
        return len(self.records)

    # -- impact accounting ------------------------------------------------
    def potential_missed(self, prop: Optional[str] = None) -> int:
        """Records that could each hide one (or more) real violations."""
        return sum(
            1 for r in self.records
            if IMPACT_MISSED in r.impacts and (prop is None or r.prop == prop)
        )

    def potential_false(self, prop: Optional[str] = None) -> int:
        """Records that could each make one reported violation spurious."""
        return sum(
            1 for r in self.records
            if IMPACT_FALSE in r.impacts and (prop is None or r.prop == prop)
        )

    def interval(
        self, observed: int, prop: Optional[str] = None
    ) -> Tuple[int, int]:
        """The uncertainty interval around an observed violation count."""
        lo = observed - self.potential_false(prop)
        hi = observed + self.potential_missed(prop)
        return (max(0, lo), hi)

    # -- breakdowns -------------------------------------------------------
    def by_kind(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for r in self.records:
            out[r.kind] = out.get(r.kind, 0) + 1
        return dict(sorted(out.items()))

    def by_primary(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for r in self.records:
            out[r.primary] = out.get(r.primary, 0) + 1
        return dict(sorted(out.items()))

    def properties(self) -> Tuple[str, ...]:
        return tuple(sorted({r.prop for r in self.records}))

    def summary(self) -> Dict[str, object]:
        """A JSON-able digest for degradation reports."""
        return {
            "records": len(self.records),
            "by_kind": self.by_kind(),
            "by_primary": self.by_primary(),
            "per_property": {
                prop: {
                    "potential_missed": self.potential_missed(prop),
                    "potential_false": self.potential_false(prop),
                }
                for prop in self.properties()
            },
        }
