"""Static feature analysis: derive a property's requirements from its IR.

This is the machinery that regenerates **Table 1**: given a
:class:`~repro.core.spec.PropertySpec`, compute which of the paper's
semantic features monitoring it requires.  The rules (documented per
function) are purely structural — they read the specification, never run
it — so the derived columns are a function of how the property is *stated*,
exactly as in the paper.  Table 1's Fields column (F1) is the deepest
``LAYER`` among the headers that declare the fields a property reads.

Classification of instance identification (Feature 8) follows the paper's
definitions:

* **exact** — later observations match on the very fields the instance's
  variables were bound from (the ARP proxy: a request for D, then another
  request for D);
* **symmetric** — later observations match bound values through *renamed or
  inverted* fields within the same protocol family (the stateful firewall:
  A,B bound from src,dst match return packets' dst,src);
* **wandering** — observations with *different protocol* fields map to the
  same instance (DHCP traffic populating state that ARP events consult).

Protocol families: ``{eth,vlan}``, ``{arp}``, ``{ipv4,tcp,udp,icmp,ftp}``
(FTP rides its TCP connection: the paper classifies the FTP property as
symmetric), ``{dhcp}``.  Metadata fields (ports, actions) are family-
neutral.
"""

from __future__ import annotations

from typing import Dict, Iterable

from ..packet.wire import HEADERS
from .features import FeatureRequirements, MatchKind
from .instances import stage_index_plan
from .refs import EventKind, EventPattern, Predicate
from .spec import Absent, Observe, PropertySpec

#: dotted-field prefix (a header's ``NAME``) -> OSI layer the switch
#: parser must reach (that header's ``LAYER``)
_LAYER_BY_PREFIX: Dict[str, int] = {h.NAME: h.LAYER for h in HEADERS}

#: dotted-field prefix -> protocol family for match-kind classification
_FAMILY_BY_PREFIX: Dict[str, str] = {
    "eth": "l2",
    "vlan": "l2",
    "arp": "arp",
    "ipv4": "inet",
    "tcp": "inet",
    "udp": "inet",
    "icmp": "inet",
    "ftp": "inet",
    "dhcp": "dhcp",
}


def field_layer(name: str) -> int:
    """Parse depth a field requires (metadata fields require none)."""
    prefix = name.split(".", 1)[0]
    return _LAYER_BY_PREFIX.get(prefix, 2)


def field_family(name: str) -> str:
    prefix = name.split(".", 1)[0]
    return _FAMILY_BY_PREFIX.get(prefix, "meta")


def _all_patterns(prop: PropertySpec) -> Iterable[EventPattern]:
    for stage in prop.stages:
        yield stage.pattern
        for unless in getattr(stage, "unless", ()):
            yield unless


def required_layer(prop: PropertySpec) -> int:
    """Deepest parse layer any guard, bind, or predicate history needs."""
    layer = 2
    for pattern in _all_patterns(prop):
        for name in pattern.referenced_fields():
            layer = max(layer, field_layer(name))
    return layer


def requires_timeouts(prop: PropertySpec) -> bool:
    """F3 — ordinary timeouts.

    True when the property's statement involves durations: an expiring
    positive stage (``Observe.within``), or a negative observation whose
    deadline is part of the property itself (``Absent.semantic_deadline``)
    rather than a bound the monitor imposes for practicality.
    """
    for stage in prop.stages:
        if isinstance(stage, Observe) and stage.within is not None:
            return True
        if isinstance(stage, Absent) and stage.semantic_deadline:
            return True
    return False


def requires_timeout_actions(prop: PropertySpec) -> bool:
    """F7 — any negative observation needs a timer that *acts*."""
    return any(isinstance(stage, Absent) for stage in prop.stages)


def requires_obligation(prop: PropertySpec) -> bool:
    """F4 — persistent obligation.

    Derived from the presence of ``unless`` cancel patterns (the "until
    ..." that partitions the obligation space), unless the property carries
    an explicit ``obligation_override`` — F4 is ultimately a judgement
    about the property's statement (does the monitor hold a pending
    response that may never arrive?), and the Table-1 catalog pins those
    judgements to the paper's.
    """
    if prop.obligation_override is not None:
        return prop.obligation_override
    return any(getattr(stage, "unless", ()) for stage in prop.stages)


def requires_identity(prop: PropertySpec) -> bool:
    """F5 — any stage links to an earlier one via packet identity."""
    return any(
        stage.pattern.same_packet_as is not None for stage in prop.stages
    )


def requires_negative_match(prop: PropertySpec) -> bool:
    """F6 — any guard (in stages or unless patterns) negatively matches."""
    return any(pattern.has_negation for pattern in _all_patterns(prop))


def requires_history(prop: PropertySpec) -> bool:
    """F2 — more than one observation, or guards referencing bound state."""
    if prop.num_stages >= 2:
        return True
    return any(pattern.env_guards() for pattern in _all_patterns(prop))


def requires_drop_visibility(prop: PropertySpec) -> bool:
    """Whether any observation watches packet drops (the Feature 5
    discussion's 'almost universally unsupported' capability)."""
    return any(
        stage.pattern.kind is EventKind.DROP for stage in prop.stages
    ) or any(
        unless.kind is EventKind.DROP
        for stage in prop.stages
        for unless in getattr(stage, "unless", ())
    )


def requires_out_of_band(prop: PropertySpec) -> bool:
    """Whether any pattern observes non-packet (OOB) events."""
    return any(pattern.kind is EventKind.OOB for pattern in _all_patterns(prop))


def requires_multiple_match(prop: PropertySpec) -> bool:
    """F8 (multiple) — some stage beyond the first cannot be narrowed to a
    single instance: its index plan is empty, so one event must be checked
    against (and may advance) every instance waiting there."""
    return any(
        not stage_index_plan(stage)
        for i, stage in enumerate(prop.stages)
        if i >= 1
    )


#: directional field roles: cross-matching a ``.src`` against the same
#: protocol's ``.dst`` is the pair *inversion* that makes instance
#: identification symmetric (the firewall's "A, B match, when inverted,
#: return packets").  Non-directional renamings (e.g. a value bound from
#: ``arp.sender_ip`` matched against ``arp.target_ip``) stay exact: no
#: pair is being flipped, the same atom is matched in both stages.
_DIRECTIONAL_SUFFIXES = {"src": "dst", "dst": "src"}


def _directional_pair(field_a: str, field_b: str) -> bool:
    if "." not in field_a or "." not in field_b:
        return False
    prefix_a, _, suffix_a = field_a.rpartition(".")
    prefix_b, _, suffix_b = field_b.rpartition(".")
    return (
        prefix_a == prefix_b
        and suffix_a in _DIRECTIONAL_SUFFIXES
        and _DIRECTIONAL_SUFFIXES[suffix_a] == suffix_b
    )


def classify_match_kind(prop: PropertySpec) -> MatchKind:
    """F8 — exact / symmetric / wandering, per the module-level rules."""
    if prop.match_kind_override is not None:
        return MatchKind(prop.match_kind_override)
    origin = prop.var_origin()
    kind = MatchKind.EXACT
    for i, stage in enumerate(prop.stages):
        patterns = [stage.pattern] + list(getattr(stage, "unless", ()))
        for pattern in patterns:
            # Predicates with cross-protocol history make the property
            # wandering (DHCP knowledge consulted on an ARP event).
            if _pattern_wanders_via_history(pattern):
                return MatchKind.WANDERING
            if i == 0 and pattern is stage.pattern:
                continue
            for field, var in pattern.env_guards() + pattern.negative_env_refs():
                bound_from = origin.get(var)
                if bound_from is None:
                    continue
                f_fam, b_fam = field_family(field), field_family(bound_from)
                if "meta" in (f_fam, b_fam):
                    continue
                if f_fam != b_fam:
                    return MatchKind.WANDERING
                if _directional_pair(field, bound_from):
                    kind = MatchKind.SYMMETRIC
    return kind


def _pattern_wanders_via_history(pattern: EventPattern) -> bool:
    """A predicate consulting other-protocol history is a wandering match."""
    event_families = {
        field_family(name)
        for guard in pattern.guards
        if isinstance(guard, Predicate)
        for name in guard.fields_used
        if field_family(name) != "meta"
    }
    for guard in pattern.guards:
        if not isinstance(guard, Predicate):
            continue
        for name in guard.history_fields:
            family = field_family(name)
            if family != "meta" and event_families and family not in event_families:
                return True
    return False


def analyze(prop: PropertySpec) -> FeatureRequirements:
    """Derive the full Table-1 row for one property."""
    return FeatureRequirements(
        max_layer=required_layer(prop),
        history=requires_history(prop),
        timeouts=requires_timeouts(prop),
        obligation=requires_obligation(prop),
        identity=requires_identity(prop),
        negative_match=requires_negative_match(prop),
        timeout_actions=requires_timeout_actions(prop),
        match_kind=classify_match_kind(prop),
        multiple_match=requires_multiple_match(prop),
        out_of_band=requires_out_of_band(prop),
        drop_visibility=requires_drop_visibility(prop),
    )
