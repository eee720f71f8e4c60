"""Flow-table match predicates.

A :class:`MatchSpec` is a conjunction of per-field predicates over the
packet's dotted field namespace plus pipeline metadata (``in_port``,
``reg.*`` registers, and — in egress tables — ``out_port``).  Predicates
support exact values, ternary masks over integer fields, and **negative
match** (Feature 6): "field is NOT equal to value", which the NAT property's
final observation needs and which the paper notes all surveyed approaches do
support.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple, Union

from ..packet.addresses import IPv4Address, MACAddress
from ..packet.packet import Packet

FieldValue = Union[int, str, MACAddress, IPv4Address]


def _canonical(value: object) -> object:
    """Normalize values so MACAddress(1) == matches written as ints, etc."""
    return value


@dataclass(frozen=True)
class FieldPredicate:
    """One field's predicate: exact, masked, or negated-exact."""

    name: str
    value: object
    mask: Optional[int] = None
    negate: bool = False

    def __post_init__(self) -> None:
        if self.mask is not None and self.negate:
            raise ValueError("masked and negated predicates cannot combine")

    def matches(self, actual: object) -> bool:
        if self.mask is not None:
            try:
                return (int(actual) & self.mask) == (int(self.value) & self.mask)
            except (TypeError, ValueError):
                return False
        equal = actual == self.value
        return not equal if self.negate else equal

    def describe(self) -> str:
        if self.mask is not None:
            return f"{self.name}&{self.mask:#x}=={int(self.value) & self.mask:#x}"
        op = "!=" if self.negate else "=="
        return f"{self.name}{op}{self.value}"


class MatchSpec:
    """A conjunction of field predicates.

    >>> spec = MatchSpec(in_port=1).eq("ipv4.src", IPv4Address("10.0.0.1"))
    >>> spec.matches_fields({"in_port": 1, "ipv4.src": IPv4Address("10.0.0.1")})
    True
    """

    __slots__ = ("_predicates", "in_port", "out_port")

    def __init__(
        self,
        in_port: Optional[int] = None,
        out_port: Optional[int] = None,
        **exact: object,
    ) -> None:
        self.in_port = in_port
        self.out_port = out_port
        self._predicates: Tuple[FieldPredicate, ...] = tuple(
            FieldPredicate(name=name.replace("__", "."), value=_canonical(value))
            for name, value in sorted(exact.items())
        )

    # -- fluent construction ---------------------------------------------
    def _extended(self, predicate: FieldPredicate) -> "MatchSpec":
        clone = MatchSpec(in_port=self.in_port, out_port=self.out_port)
        clone._predicates = self._predicates + (predicate,)
        return clone

    def eq(self, name: str, value: object) -> "MatchSpec":
        """Add an exact-match predicate on dotted field ``name``."""
        return self._extended(FieldPredicate(name=name, value=_canonical(value)))

    def neq(self, name: str, value: object) -> "MatchSpec":
        """Add a negative-match predicate (Feature 6)."""
        return self._extended(
            FieldPredicate(name=name, value=_canonical(value), negate=True)
        )

    def masked(self, name: str, value: int, mask: int) -> "MatchSpec":
        """Add a ternary masked predicate over an integer field."""
        return self._extended(FieldPredicate(name=name, value=value, mask=mask))

    # -- evaluation ---------------------------------------------------------
    @property
    def predicates(self) -> Tuple[FieldPredicate, ...]:
        return self._predicates

    @property
    def has_negation(self) -> bool:
        return any(p.negate for p in self._predicates)

    def matches_fields(self, fields: Mapping[str, object]) -> bool:
        """Evaluate against a flat field map (packet fields + metadata)."""
        if self.in_port is not None and fields.get("in_port") != self.in_port:
            return False
        if self.out_port is not None and fields.get("out_port") != self.out_port:
            return False
        for predicate in self._predicates:
            if predicate.name not in fields:
                # Absent field: negative predicates vacuously hold (the
                # field cannot equal the forbidden value), positives fail.
                if not predicate.negate:
                    return False
                continue
            if not predicate.matches(fields[predicate.name]):
                return False
        return True

    def matches_packet(
        self,
        packet: Packet,
        in_port: Optional[int] = None,
        max_layer: int = 7,
        metadata: Optional[Mapping[str, object]] = None,
    ) -> bool:
        """Evaluate against a packet plus pipeline metadata."""
        fields: Dict[str, object] = dict(packet.fields(max_layer=max_layer))
        if in_port is not None:
            fields["in_port"] = in_port
        if metadata:
            fields.update(metadata)
        return self.matches_fields(fields)

    # -- misc ---------------------------------------------------------------
    def describe(self) -> str:
        parts = []
        if self.in_port is not None:
            parts.append(f"in_port=={self.in_port}")
        if self.out_port is not None:
            parts.append(f"out_port=={self.out_port}")
        parts.extend(p.describe() for p in self._predicates)
        return " AND ".join(parts) if parts else "ANY"

    def __repr__(self) -> str:
        return f"MatchSpec({self.describe()})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MatchSpec):
            return NotImplemented
        return (
            self.in_port == other.in_port
            and self.out_port == other.out_port
            and self._predicates == other._predicates
        )

    def __hash__(self) -> int:
        return hash((self.in_port, self.out_port, self._predicates))


ANY = MatchSpec()
