"""The monitoring core: property IR, monitor engine, static analysis.

This package is the paper's primary contribution made executable: property
specifications (sequences of observations with timeouts, obligations,
negative observations, identity links), the monitor engine implementing all
ten semantic features of Sec. 2, and the static analyzer that regenerates
Table 1 from the specifications alone.
"""

from .compile import (
    Watcher,
    dispatch_plan,
    dispatch_summary,
    scan_watchers,
)
from .analysis import (
    analyze,
    classify_match_kind,
    field_family,
    field_layer,
    required_layer,
    requires_drop_visibility,
    requires_multiple_match,
    requires_negative_match,
    requires_obligation,
    requires_out_of_band,
    requires_timeout_actions,
    requires_timeouts,
)
from .degradation import (
    EVICT_LRU,
    EVICT_OLDEST,
    EVICT_REJECT,
    EVICTION_POLICIES,
    IMPACT_FALSE,
    IMPACT_MISSED,
    DEFAULT_INSTANCE_CAP,
    DegradationPolicy,
    OverflowLedger,
    suggested_policy,
)
from .features import (
    ATTACKER_CONTROLLED,
    TRUSTED,
    TRUSTED_FIELDS,
    Feature,
    FeatureRequirements,
    MatchKind,
    field_provenance,
)
from .instances import (
    Instance,
    InstanceStore,
    stage_index_plan,
    uid_var,
)
from .monitor import Monitor, MonitorStats
from .provenance import ProvenanceLevel, StageRecord
from .refs import (
    Bind,
    Const,
    EventKind,
    EventPattern,
    FieldCmp,
    FieldEq,
    FieldNe,
    MismatchAny,
    Predicate,
    Var,
    event_fields,
    kind_matches,
)
from .spec import Absent, Observe, PropertySpec, SpecError
from .violations import Violation

__all__ = [
    "Watcher",
    "dispatch_plan",
    "dispatch_summary",
    "scan_watchers",
    "analyze",
    "classify_match_kind",
    "field_family",
    "field_layer",
    "required_layer",
    "requires_drop_visibility",
    "requires_multiple_match",
    "requires_negative_match",
    "requires_obligation",
    "requires_out_of_band",
    "requires_timeout_actions",
    "requires_timeouts",
    "EVICT_LRU",
    "EVICT_OLDEST",
    "EVICT_REJECT",
    "EVICTION_POLICIES",
    "IMPACT_FALSE",
    "IMPACT_MISSED",
    "DEFAULT_INSTANCE_CAP",
    "DegradationPolicy",
    "OverflowLedger",
    "suggested_policy",
    "ATTACKER_CONTROLLED",
    "TRUSTED",
    "TRUSTED_FIELDS",
    "Feature",
    "FeatureRequirements",
    "MatchKind",
    "field_provenance",
    "Instance",
    "InstanceStore",
    "stage_index_plan",
    "uid_var",
    "Monitor",
    "MonitorStats",
    "ProvenanceLevel",
    "StageRecord",
    "Bind",
    "Const",
    "EventKind",
    "EventPattern",
    "FieldCmp",
    "FieldEq",
    "FieldNe",
    "MismatchAny",
    "Predicate",
    "Var",
    "event_fields",
    "kind_matches",
    "Absent",
    "Observe",
    "PropertySpec",
    "SpecError",
    "Violation",
]
