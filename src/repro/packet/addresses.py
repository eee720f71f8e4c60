"""Network address value types.

These are small immutable wrappers over integers with canonical string
forms.  The monitor binds address values out of packets and compares them
across observation stages (the paper's Feature 2/8), so hashability and
total ordering matter more than wire-format tricks.
"""

from __future__ import annotations

import re
from functools import total_ordering
from typing import Union

_new = object.__new__  # bound once: from_wire runs per address per event

_MAC_RE = re.compile(r"^([0-9a-fA-F]{2}[:-]){5}[0-9a-fA-F]{2}$")
_IPV4_RE = re.compile(r"^(\d{1,3})\.(\d{1,3})\.(\d{1,3})\.(\d{1,3})$")


class AddressError(ValueError):
    """Raised for malformed address literals or out-of-range values."""


@total_ordering
class MACAddress:
    """A 48-bit IEEE 802 MAC address.

    Accepts ``"aa:bb:cc:dd:ee:ff"`` (or ``-`` separated) strings, raw
    integers, or 6-byte ``bytes``.

    >>> MACAddress("00:00:00:00:00:01")
    MACAddress('00:00:00:00:00:01')
    >>> int(MACAddress(1))
    1
    """

    __slots__ = ("_value",)

    BROADCAST: "MACAddress"
    ZERO: "MACAddress"

    def __init__(self, value: Union[str, int, bytes, "MACAddress"]) -> None:
        if isinstance(value, MACAddress):
            self._value = value._value
        elif isinstance(value, int):
            if not 0 <= value < (1 << 48):
                raise AddressError(f"MAC integer out of range: {value!r}")
            self._value = value
        elif isinstance(value, bytes):
            if len(value) != 6:
                raise AddressError(f"MAC bytes must be length 6, got {len(value)}")
            self._value = int.from_bytes(value, "big")
        elif isinstance(value, str):
            if not _MAC_RE.match(value):
                raise AddressError(f"malformed MAC address {value!r}")
            self._value = int(value.replace("-", ":").replace(":", ""), 16)
        else:
            raise AddressError(f"cannot build MACAddress from {type(value).__name__}")

    @classmethod
    def from_wire(cls, raw: bytes) -> "MACAddress":
        """From a ``struct``-unpacked ``6s`` — skips the type and length checks."""
        self = _new(cls)
        self._value = int.from_bytes(raw, "big")
        return self

    # -- conversions ---------------------------------------------------
    def __int__(self) -> int:
        return self._value

    def packed(self) -> bytes:
        """6-byte big-endian wire representation."""
        return self._value.to_bytes(6, "big")

    def __str__(self) -> str:
        raw = f"{self._value:012x}"
        return ":".join(raw[i : i + 2] for i in range(0, 12, 2))

    def __repr__(self) -> str:
        return f"MACAddress('{self}')"

    # -- predicates ----------------------------------------------------
    @property
    def is_broadcast(self) -> bool:
        return self._value == (1 << 48) - 1

    @property
    def is_multicast(self) -> bool:
        """True for group addresses (I/G bit set), including broadcast."""
        return bool((self._value >> 40) & 0x01)

    @property
    def is_unicast(self) -> bool:
        return not self.is_multicast

    # -- comparisons / hashing ------------------------------------------
    def __eq__(self, other: object) -> bool:
        if isinstance(other, MACAddress):
            return self._value == other._value
        return NotImplemented

    def __lt__(self, other: "MACAddress") -> bool:
        if isinstance(other, MACAddress):
            return self._value < other._value
        return NotImplemented

    def __hash__(self) -> int:
        # The integer itself: no tuple per hash, and no PYTHONHASHSEED
        # salt.  It equals an IPv4Address's hash of the same value; __eq__
        # still tells the two apart.
        return self._value


MACAddress.BROADCAST = MACAddress((1 << 48) - 1)
MACAddress.ZERO = MACAddress(0)


@total_ordering
class IPv4Address:
    """A 32-bit IPv4 address.

    >>> IPv4Address("10.0.0.1")
    IPv4Address('10.0.0.1')
    >>> IPv4Address(0x0A000001) == IPv4Address("10.0.0.1")
    True
    """

    __slots__ = ("_value",)

    ZERO: "IPv4Address"
    BROADCAST: "IPv4Address"

    def __init__(self, value: Union[str, int, bytes, "IPv4Address"]) -> None:
        if isinstance(value, IPv4Address):
            self._value = value._value
        elif isinstance(value, int):
            if not 0 <= value < (1 << 32):
                raise AddressError(f"IPv4 integer out of range: {value!r}")
            self._value = value
        elif isinstance(value, bytes):
            if len(value) != 4:
                raise AddressError(f"IPv4 bytes must be length 4, got {len(value)}")
            self._value = int.from_bytes(value, "big")
        elif isinstance(value, str):
            match = _IPV4_RE.match(value)
            if not match:
                raise AddressError(f"malformed IPv4 address {value!r}")
            octets = [int(g) for g in match.groups()]
            if any(o > 255 for o in octets):
                raise AddressError(f"IPv4 octet out of range in {value!r}")
            self._value = (
                (octets[0] << 24) | (octets[1] << 16) | (octets[2] << 8) | octets[3]
            )
        else:
            raise AddressError(f"cannot build IPv4Address from {type(value).__name__}")

    @classmethod
    def from_wire(cls, value: int) -> "IPv4Address":
        """From a ``struct``-unpacked u32 — skips the type and range checks."""
        self = _new(cls)
        self._value = value
        return self

    # -- conversions ---------------------------------------------------
    def __int__(self) -> int:
        return self._value

    def packed(self) -> bytes:
        """4-byte big-endian wire representation."""
        return self._value.to_bytes(4, "big")

    def __str__(self) -> str:
        v = self._value
        return f"{(v >> 24) & 0xFF}.{(v >> 16) & 0xFF}.{(v >> 8) & 0xFF}.{v & 0xFF}"

    def __repr__(self) -> str:
        return f"IPv4Address('{self}')"

    # -- predicates ----------------------------------------------------
    @property
    def is_broadcast(self) -> bool:
        return self._value == (1 << 32) - 1

    @property
    def is_multicast(self) -> bool:
        return 224 <= (self._value >> 24) <= 239

    @property
    def is_private(self) -> bool:
        """RFC 1918 private ranges — apps use this to classify 'internal'."""
        top = self._value >> 24
        if top == 10:
            return True
        if top == 172 and 16 <= ((self._value >> 16) & 0xFF) <= 31:
            return True
        if top == 192 and ((self._value >> 16) & 0xFF) == 168:
            return True
        return False

    def in_subnet(self, network: "IPv4Address", prefix_len: int) -> bool:
        """True if this address falls inside ``network/prefix_len``."""
        if not 0 <= prefix_len <= 32:
            raise AddressError(f"bad prefix length {prefix_len!r}")
        if prefix_len == 0:
            return True
        mask = ((1 << prefix_len) - 1) << (32 - prefix_len)
        return (self._value & mask) == (int(network) & mask)

    # -- comparisons / hashing ------------------------------------------
    def __eq__(self, other: object) -> bool:
        if isinstance(other, IPv4Address):
            return self._value == other._value
        return NotImplemented

    def __lt__(self, other: "IPv4Address") -> bool:
        if isinstance(other, IPv4Address):
            return self._value < other._value
        return NotImplemented

    def __hash__(self) -> int:
        return self._value  # see MACAddress.__hash__


IPv4Address.ZERO = IPv4Address(0)
IPv4Address.BROADCAST = IPv4Address((1 << 32) - 1)
