"""The header-field schema the type/width lints check against.

Field names in the property language are dotted paths into the flat event
field map (:func:`repro.core.refs.event_fields`).  Each known field has a
*kind* (``ip``, ``mac``, ``int``, ``str``, ``enum``, ``float``) and, for
integer fields, the register width in bits — the widths a switch would burn
per instance to carry the value (see the split-mode cost estimate).

Nothing here is written out: :data:`FIELD_SCHEMA` is read off the rows the
headers declare (:data:`repro.packet.HEADERS`) and the event metadata rows
(:data:`repro.core.refs.METADATA_FIELDS`).  ``tests/unit/test_field_table.py``
builds one packet of every protocol the reproduction builds and checks that
every field either projection emits is declared, with its declared kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..core.refs import METADATA_FIELDS
from ..packet.addresses import IPv4Address, MACAddress
from ..packet.wire import HEADERS


@dataclass(frozen=True)
class FieldType:
    """Static type of one dotted field."""

    kind: str  # "ip" | "mac" | "int" | "str" | "enum" | "float"
    bits: int  # register width; 0 for unsized kinds (str, float, enum)


#: dotted field name -> static type: every declared packet field, outermost
#: header first, then the event metadata.
FIELD_SCHEMA: Dict[str, FieldType] = {
    row.name: FieldType(row.kind, row.bits)
    for rows in [h.FIELDS for h in HEADERS] + [METADATA_FIELDS]
    for row in rows
}

#: width assumed for fields outside the schema (cost estimates only).
DEFAULT_FIELD_BITS = 32


def field_bits(name: str) -> int:
    """Register width to carry one value of this field."""
    ftype = FIELD_SCHEMA.get(name)
    if ftype is None or ftype.bits == 0:
        return DEFAULT_FIELD_BITS
    return ftype.bits


def literal_kind(value: object) -> str:
    """Classify a parsed literal the way the schema classifies fields."""
    if isinstance(value, IPv4Address):
        return "ip"
    if isinstance(value, MACAddress):
        return "mac"
    if isinstance(value, bool):  # bool is an int subclass; keep it distinct
        return "int"
    if isinstance(value, int):
        return "int"
    if isinstance(value, float):
        return "float"
    return "str"


def literal_mismatch(field_name: str, value: object) -> Optional[str]:
    """Why ``field == value`` can never hold, or None if it type-checks.

    Integer literals on int fields are range-checked separately
    (:func:`literal_overflow`); here only *kind* clashes are reported —
    an IP literal against a MAC field, a float against a port, a string
    against an address.
    """
    ftype = FIELD_SCHEMA.get(field_name)
    if ftype is None:
        return None  # unknown field: L010's problem, not L008's
    vkind = ftype.kind
    lkind = literal_kind(value)
    if vkind == lkind:
        return None
    # ints compare successfully against enum-ish metadata and floats.
    if vkind in ("enum", "float") and lkind in ("int", "float"):
        return None
    if vkind == "int" and lkind == "float":
        if isinstance(value, float) and value.is_integer():
            return None
        return (f"field {field_name} is a {ftype.bits}-bit integer but the "
                f"literal {value!r} is a non-integral float")
    return (f"field {field_name} holds {_kind_article(vkind)} but the "
            f"literal {value!r} is {_kind_article(lkind)}")


def literal_overflow(field_name: str, value: object) -> Optional[str]:
    """Why an integer literal cannot fit the field's width, or None."""
    ftype = FIELD_SCHEMA.get(field_name)
    if ftype is None or ftype.kind != "int" or not isinstance(value, int):
        return None
    if value < 0:
        return (f"field {field_name} is unsigned; the literal {value} can "
                "never match")
    if value >= (1 << ftype.bits):
        return (f"literal {value} overflows {field_name}'s {ftype.bits}-bit "
                f"width (max {(1 << ftype.bits) - 1})")
    return None


def kinds_compatible(kind_a: str, kind_b: str) -> bool:
    """Whether values of two field kinds can ever compare equal."""
    if kind_a == kind_b:
        return True
    numeric = {"int", "float", "enum"}
    return kind_a in numeric and kind_b in numeric


def _kind_article(kind: str) -> str:
    return {
        "ip": "an IPv4 address",
        "mac": "a MAC address",
        "int": "an integer",
        "float": "a number",
        "str": "a string",
        "enum": "an enumerated value",
    }[kind]
