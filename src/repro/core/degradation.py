"""Graceful monitor degradation: bounded state, shed work, honest errors.

The paper's static-Varanus column trades match generality for *bounded*
instance tables; Sec. 3.3 worries that split-mode updates lag behind line
rate.  This module makes both pressures explicit monitor policy instead of
silent failure:

* :class:`DegradationPolicy` bounds each property's instance store
  (``max_instances`` + an eviction policy) and the split-mode pending
  queue (``max_pending_ops`` + retry/backoff before shedding);
* :class:`OverflowLedger` counts every shed instance and op under its
  *primary* impact — the likeliest error direction — so a degraded run
  can report its violation count as ``degraded - n <= true <= degraded
  + n`` instead of a confidently wrong number.

One lost state transition can cascade (a never-killed instance shadows
future creations at its key), so each shed counts toward both bounds;
``tests/property/test_fault_machine.py`` checks that a fault-free run's
count lies in the interval under any schedule of the faults ``repro
chaos`` injects.  The per-kind primary classification is what you read
to diagnose *which* failure mode a profile produces;
``docs/ROBUSTNESS.md`` walks through the semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

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


#: Primary impact of a lost op, by op kind: the direction the error
#: *usually* takes.  A lost create/advance usually hides a violation; a
#: lost kill usually lets a discharged instance complete anyway.  Either
#: can flip (a dropped create suppresses a refresh, so a *later*
#: re-creation completes where the clean run's instance had expired),
#: which is why every shed counts toward both sides of the interval.
_PRIMARY = {
    "create": IMPACT_MISSED,
    "advance": IMPACT_MISSED,
    "refresh": IMPACT_MISSED,
    "kill": IMPACT_FALSE,
}


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


#: A ledger row: (kind, property, primary impact).  Kinds are
#: "instance-rejected" | "instance-evicted" | "op-dropped" |
#: "op-delayed" | "op-retried" | "op-shed", plus the ingest and fabric
#: supervisor kinds.
ShedKey = Tuple[str, str, str]

#: The property column of rows that belong to no one property: what the
#: fabric supervisor loses (events, a shard) and what the daemon's ingest
#: queue sheds.  A lost event can hide a violation of any property, so
#: these rows count toward every property's interval.
FABRIC_ROW = "(fabric)"
INGEST_ROW = "(ingest)"
UNATTRIBUTED = (FABRIC_ROW, INGEST_ROW)


class OverflowLedger:
    """Counts of everything shed, one per (kind, property, primary).

    A count is all the interval needs: every shed can hide one real
    violation or make one reported violation spurious, so ``n`` sheds
    bound both sides by ``n``.  Memory and ``interval()`` cost grow
    with the number of distinct rows, never with the number of sheds.
    """

    def __init__(self) -> None:
        self.counts: Dict[ShedKey, int] = {}

    def record(self, kind: str, prop: str, primary: str,
               count: int = 1) -> None:
        key = (kind, prop, primary)
        self.counts[key] = self.counts.get(key, 0) + count

    def __len__(self) -> int:
        return self.count()

    def count(self, prop: Optional[str] = None) -> int:
        """Sheds that bear on ``prop`` — its own plus the
        :data:`UNATTRIBUTED` rows — or all sheds: each could hide one
        real violation or make one reported violation spurious."""
        return sum(n for (_, p, _), n in self.counts.items()
                   if prop is None or p == prop or p in UNATTRIBUTED)

    def interval(
        self, observed: int, prop: Optional[str] = None
    ) -> Tuple[int, int]:
        """The uncertainty interval around an observed violation count."""
        n = self.count(prop)
        return (max(0, observed - n), observed + n)

    # -- breakdowns -------------------------------------------------------
    def _by(self, column: int) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for key, n in self.counts.items():
            out[key[column]] = out.get(key[column], 0) + n
        return dict(sorted(out.items()))

    def by_kind(self) -> Dict[str, int]:
        return self._by(0)

    def by_primary(self) -> Dict[str, int]:
        return self._by(2)

    def properties(self) -> Tuple[str, ...]:
        """The properties with rows of their own (not the
        :data:`UNATTRIBUTED` ones)."""
        return tuple(p for p in self._by(1) if p not in UNATTRIBUTED)

    def summary(self) -> Dict[str, object]:
        """A JSON-able digest for degradation reports."""
        per_property = self._by(1)
        return {
            "records": sum(per_property.values()),
            "by_kind": self.by_kind(),
            "by_primary": self.by_primary(),
            "per_property": {
                prop: {"potential_missed": n, "potential_false": n}
                for prop, n in per_property.items()
            },
        }
