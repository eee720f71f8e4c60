"""Backend capability model — the scaffolding behind Table 2.

Each of the paper's surveyed approaches (OpenFlow 1.3, OpenState, FAST,
POF/P4, SNAP, Varanus, Static Varanus) is modeled as a :class:`Backend`
with a :class:`Capabilities` descriptor declaring exactly the semantic
features the paper's Table 2 grants it.  ``compile()`` validates a property
specification against those capabilities — raising
:class:`UnsupportedFeature` precisely where the paper puts an ✗ (or leaves
a blank, for target-dependent support) — and otherwise instantiates a
:class:`BackendMonitor`: the core monitor engine configured with the
backend's parse depth, drop visibility, state-update path, processing
mode, and pipeline-cost model.

Tri-state capability values mirror Table 2's cells: ``True`` = ✓,
``False`` = ✗ ("the architecture precludes implementation"), ``None`` =
blank ("does not apply or support is unclear / target-dependent").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.analysis import (
    analyze,
    requires_drop_visibility,
    requires_multiple_match,
    requires_out_of_band,
)
from ..core.features import FeatureRequirements, MatchKind
from ..core.monitor import Monitor
from ..core.provenance import ProvenanceLevel
from ..core.spec import PropertySpec
from ..core.violations import Violation
from ..switch.events import DataplaneEvent, PacketDrop
from ..switch.registers import StateCostMeter, TABLE_LOOKUP_COST
from ..switch.switch import DEFAULT_SPLIT_LAG, ProcessingMode

#: state-update lag for approaches whose Table 2 update-datapath cell says
#: "Fast path": the update lands within roughly one pipeline pass, not a
#: control-channel round trip.
FAST_PATH_SPLIT_LAG = 5e-6


def default_split_lag(caps: "Capabilities") -> float:
    """Table 2's update-datapath column read as a split-lag prior.

    "Fast path" updates commit in-pipeline (:data:`FAST_PATH_SPLIT_LAG`);
    "Slow path" — and the blank / "—" cells, where the update path is
    unstated — pay the control-channel round trip that
    :data:`DEFAULT_SPLIT_LAG` models.
    """
    if caps.update_datapath == "Fast path":
        return FAST_PATH_SPLIT_LAG
    return DEFAULT_SPLIT_LAG


def split_lag_profile() -> Dict[str, float]:
    """Per-backend default split lags, keyed by canonical backend name."""
    from .conformance import all_backends  # deferred: conformance imports base

    return {
        backend.caps.name: default_split_lag(backend.caps)
        for backend in all_backends()
    }


class UnsupportedFeature(Exception):
    """The backend's architecture cannot express a required feature.

    ``precluded`` distinguishes Table 2's ✗ ("the architecture precludes
    implementation") from its blanks ("support is unclear or
    target-dependent"): the conformance harness renders the two
    differently.
    """

    def __init__(self, feature: str, reason: str, precluded: bool = True) -> None:
        super().__init__(f"{feature}: {reason}")
        self.feature = feature
        self.reason = reason
        self.precluded = precluded


@dataclass(frozen=True)
class Capabilities:
    """One Table 2 column."""

    name: str
    state_mechanism: str
    update_datapath: str  # "Fast path" | "Slow path" | "—" | "" (blank)
    processing_mode: str  # "Inline" | "Split" | "" (blank)
    event_history: Optional[bool]
    related_events: Optional[bool]  # packet identity / F5; OF uses a note
    related_events_note: str = ""
    field_access: str = "Fixed"  # "Fixed" | "Dynamic"
    negative_match: Optional[bool] = True
    rule_timeouts: Optional[bool] = None
    timeout_actions: Optional[bool] = False
    symmetric_match: Optional[bool] = None
    wandering_match: Optional[bool] = None
    out_of_band: Optional[bool] = None
    full_provenance: Optional[bool] = None
    #: not a Table 2 row, but load-bearing for the firewall/NAT properties:
    #: can the approach observe dropped packets at all?
    drop_visibility: bool = False

    @property
    def max_parse_layer(self) -> int:
        return 7 if self.field_access == "Dynamic" else 4

    def cell(self, value: Optional[bool]) -> str:
        if value is None:
            return ""
        return "Y" if value else "X"


class BackendMonitor:
    """A property monitor running under one backend's constraints.

    Wraps the core engine with: the backend's parse-depth limit, drop
    (in)visibility, state-update path costs, processing mode, and a
    pipeline-depth model (``depth_fn``) so benchmarks can read the cost of
    each event in simulated lookup ticks.
    """

    def __init__(
        self,
        backend_name: str,
        props: Sequence[PropertySpec],
        max_layer: int,
        mode: ProcessingMode,
        slow_path: bool,
        drop_visibility: bool,
        depth_fn: Callable[["BackendMonitor"], int],
        provenance: ProvenanceLevel = ProvenanceLevel.LIMITED,
        split_lag: float = DEFAULT_SPLIT_LAG,
    ) -> None:
        self.backend_name = backend_name
        self.meter = StateCostMeter()
        self.monitor = Monitor(
            provenance=provenance,
            mode=mode,
            split_lag=split_lag,
            max_layer=max_layer,
            meter=self.meter,
            slow_path_updates=slow_path,
        )
        for prop in props:
            self.monitor.add_property(prop)
        self.drop_visibility = drop_visibility
        self._depth_fn = depth_fn
        self.events_seen = 0
        self.events_filtered = 0

    # -- event intake ------------------------------------------------------
    def observe(self, event: DataplaneEvent) -> None:
        if isinstance(event, PacketDrop) and not self.drop_visibility:
            self.events_filtered += 1
            return  # the architecture never surfaces drops
        self.events_seen += 1
        # Every packet event traverses the whole monitoring pipeline: one
        # lookup per table.  This is the cost Sec. 3.3 worries about.
        self.meter.charge_lookup(self.pipeline_depth)
        self.monitor.observe(event)

    def advance_to(self, when: float) -> None:
        self.monitor.advance_to(when)

    def attach(self, switch) -> None:
        switch.add_tap(self.observe)

    # -- results -------------------------------------------------------------
    @property
    def violations(self) -> List[Violation]:
        return self.monitor.violations

    @property
    def pipeline_depth(self) -> int:
        return self._depth_fn(self)

    @property
    def live_instances(self) -> int:
        return self.monitor.live_instances()


class Backend:
    """Base class: capability checks shared by every approach."""

    caps: Capabilities

    def __init__(self) -> None:
        if not hasattr(self, "caps"):  # pragma: no cover - subclass contract
            raise TypeError("Backend subclasses must define caps")

    # -- compile ----------------------------------------------------------------
    def compile(self, *props: PropertySpec) -> BackendMonitor:
        """Validate and instantiate a monitor for the given properties."""
        if not props:
            raise ValueError("compile() needs at least one property")
        for prop in props:
            self.check(prop)
        return self._instantiate(props)

    def check(self, prop: PropertySpec) -> FeatureRequirements:
        """Raise :class:`UnsupportedFeature` if the property needs more
        than this backend provides; returns the requirement analysis."""
        req = analyze(prop)
        gaps = self.blockers(prop, req)
        if gaps:
            raise gaps[0]
        return req

    def blockers(
        self,
        prop: PropertySpec,
        req: Optional[FeatureRequirements] = None,
    ) -> Tuple[UnsupportedFeature, ...]:
        """Every feature gap between ``prop`` and this backend, in the
        order ``check()`` would trip over them (so ``blockers()[0]`` is
        exactly what ``check()`` raises).  The static feasibility pass in
        :mod:`repro.lint` reports the full list per backend."""
        if req is None:
            req = analyze(prop)
        caps = self.caps
        gaps: List[UnsupportedFeature] = []
        self._require(gaps, caps.event_history, req.history, "event history")
        self._require(gaps, caps.related_events, req.identity,
                      "identification of related events")
        if req.max_layer > caps.max_parse_layer:
            gaps.append(UnsupportedFeature(
                "field access",
                f"property parses to L{req.max_layer} but {caps.name} has "
                f"fixed-function parsing (max L{caps.max_parse_layer})",
            ))
        self._require(gaps, caps.negative_match, req.negative_match,
                      "negative match")
        self._require(gaps, caps.rule_timeouts, req.timeouts, "rule timeouts")
        self._require(gaps, caps.timeout_actions, req.timeout_actions,
                      "timeout actions")
        self._require(
            gaps,
            caps.symmetric_match,
            req.match_kind is MatchKind.SYMMETRIC,
            "symmetric match",
        )
        self._require(
            gaps,
            caps.wandering_match,
            req.match_kind is MatchKind.WANDERING,
            "wandering match",
        )
        self._require(gaps, caps.out_of_band,
                      req.out_of_band or req.multiple_match,
                      "out-of-band events / multiple match")
        if req.drop_visibility and not caps.drop_visibility:
            gaps.append(UnsupportedFeature(
                "drop visibility",
                f"{caps.name} never surfaces dropped packets (they do not "
                "enter the egress pipeline)",
            ))
        return tuple(gaps)

    def _require(
        self,
        gaps: List[UnsupportedFeature],
        capability: Optional[bool],
        needed: bool,
        feature: str,
    ) -> None:
        if not needed:
            return
        if capability is True:
            return
        if capability is False:
            gaps.append(UnsupportedFeature(
                feature,
                f"{self.caps.name}'s architecture precludes it",
                precluded=True,
            ))
            return
        gaps.append(UnsupportedFeature(
            feature,
            f"support in {self.caps.name} is target-dependent / not part "
            "of its design",
            precluded=False,
        ))

    # -- instantiation -----------------------------------------------------------
    def _instantiate(self, props: Sequence[PropertySpec]) -> BackendMonitor:
        caps = self.caps
        return BackendMonitor(
            backend_name=caps.name,
            props=props,
            max_layer=caps.max_parse_layer,
            mode=(
                ProcessingMode.SPLIT
                if caps.processing_mode == "Split"
                else ProcessingMode.INLINE
            ),
            slow_path=caps.update_datapath == "Slow path",
            drop_visibility=caps.drop_visibility,
            depth_fn=self._depth_fn(props),
            split_lag=default_split_lag(caps),
            provenance=(
                ProvenanceLevel.FULL
                if caps.full_provenance
                else ProvenanceLevel.LIMITED
            ),
        )

    def _depth_fn(
        self, props: Sequence[PropertySpec]
    ) -> Callable[[BackendMonitor], int]:
        """Default pipeline-depth model: one table per observation stage."""
        static_depth = sum(p.num_stages for p in props)
        return lambda bm: static_depth

    # -- provenance capability (probed separately) ----------------------------------
    def supports_full_provenance(self) -> Optional[bool]:
        return self.caps.full_provenance
