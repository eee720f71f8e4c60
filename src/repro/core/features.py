"""The paper's ten semantic features, as enumerable values.

Sec. 2 of the paper distills ten features a switch must provide to host
stateful property monitoring.  Eight are *per-property* (a given property
needs them or not — the columns of Table 1); side-effect control (F9) and
provenance (F10) are intrinsic to the monitoring implementation and
"independent of the property" (Table 1's caption).  Also here: who controls
a field's value, the label the taint pass starts from.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Tuple

from .refs import METADATA_FIELDS


class Feature(Enum):
    """F1–F10 of Sec. 2."""

    FIELD_ACCESS = "F1: access to necessary fields"
    EVENT_HISTORY = "F2: access to event history"
    TIMEOUTS = "F3: timeouts"
    OBLIGATION = "F4: persistent obligation"
    PACKET_IDENTITY = "F5: maintaining packet identity"
    NEGATIVE_MATCH = "F6: negative match"
    TIMEOUT_ACTIONS = "F7: timeout actions"
    INSTANCE_ID = "F8: instance identification"
    SIDE_EFFECT_CONTROL = "F9: side-effect control"
    PROVENANCE = "F10: provenance"


class MatchKind(Enum):
    """Feature 8's instance-identification varieties (Table 1's Inst. ID)."""

    EXACT = "exact"
    SYMMETRIC = "symmetric"
    WANDERING = "wandering"


@dataclass(frozen=True)
class FeatureRequirements:
    """What one property demands of the switch — one Table 1 row's columns."""

    max_layer: int
    history: bool
    timeouts: bool
    obligation: bool
    identity: bool
    negative_match: bool
    timeout_actions: bool
    match_kind: MatchKind
    multiple_match: bool
    out_of_band: bool
    drop_visibility: bool

    def fields_label(self) -> str:
        """Table 1's Fields column: the parse depth as 'L<n>'."""
        return f"L{self.max_layer}"

    def table1_row(self) -> Tuple[str, str, str, str, str, str, str, str]:
        """Render as Table 1 cells: Fields, History, Timeouts, Obligation,
        Identity, Neg Match, T.Out. Acts, Inst. ID."""
        dot = lambda b: "•" if b else ""  # noqa: E731 - tiny table renderer
        return (
            self.fields_label(),
            dot(self.history),
            dot(self.timeouts),
            dot(self.obligation),
            dot(self.identity),
            dot(self.negative_match),
            dot(self.timeout_actions),
            self.match_kind.value,
        )


# ---------------------------------------------------------------------------
# Field provenance (adversarial analysis)
# ---------------------------------------------------------------------------
#: Provenance labels the taint pass (:mod:`repro.lint.taint`) assigns to
#: event fields.  A field is *attacker-controlled* when an end host can put
#: an arbitrary value in it just by sending a packet — every parsed header
#: field qualifies, because the switch parses whatever bytes arrive.  A
#: field is *trusted* when only the switch itself decides its value: which
#: physical port a packet arrived on, the switch's clock, the forwarding
#: action the pipeline chose, out-of-band port/link events.
ATTACKER_CONTROLLED = "attacker-controlled"
TRUSTED = "trusted"

#: Fields whose values the switch, not the sender, supplies: the event
#: metadata (:data:`repro.core.refs.METADATA_FIELDS`).
TRUSTED_FIELDS = frozenset(row.name for row in METADATA_FIELDS)


def field_provenance(name: str) -> str:
    """Provenance label for one dotted event field.

    Defaults to attacker-controlled: packet header fields all are, and an
    unknown field must be assumed hostile — a taint pass that guessed
    "trusted" for fields it has never heard of would rubber-stamp exactly
    the properties it exists to flag.
    """
    return TRUSTED if name in TRUSTED_FIELDS else ATTACKER_CONTROLLED
