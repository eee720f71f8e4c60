"""Trace serialization: dataplane event streams as JSON lines.

Recorded traces can be written to disk and replayed later (or on another
machine) into any monitor — the repository's stand-in for pcap capture.
Packets are serialized via their wire encoding (hex), so a reloaded trace
re-parses through the same codecs the live path uses.  Packet uids are
preserved explicitly: identity (Feature 5) must survive the round trip,
and re-parsing alone would mint fresh uids.

A trace may begin with one **header line** (``kind: "TraceHeader"``)
recording provenance — schema version, generator seed, host count, packet
count — which ``repro stats`` echoes back so a snapshot is traceable to
the workload that produced it.  Readers skip the header transparently
(``load_trace`` returns events only; use ``read_trace_with_header`` to
get both), so headered traces stay readable by older tooling patterns.

Next to the line-oriented JSONL format lives a **binary batch encoding**,
RPF2 (:func:`encode_frames` / :func:`decode_frames`) — what ``repro send
--format rpf2`` writes to a daemon and what the sharded fabric's router
writes down the pipe to its ``multiprocessing`` workers.  A stream is
any number of batches back to back; all integers are big-endian::

    batch   = "RPF2"  u32 record-count  u32 body-length  body
    body    = record-count records, body-length bytes in all

    packet record (PacketArrival / PacketEgress / PacketDrop), 31 bytes
    then three byte strings:
      u8   tag             1 arrival, 2 egress, 3 drop
      f64  time
      u64  packet uid
      i32  in_port
      i32  out_port        egress only, else 0
      u8   egress action   index into EgressAction, egress only, else 0
      u8   len(switch id)
      u16  len(reason)     drop only, else 0
      u16  len(packet)
      switch id (ASCII) | reason (ASCII) | packet, as ``wire_encode`` wrote it

    JSON record (tag 0), 5 bytes then the payload:
      u8   tag             0
      u32  len(payload)
      payload              ``json.dumps(event_to_dict(event))``, UTF-8

The packet record carries fields, not a re-serialised object: no JSON,
no hex; the decoder checks a packet's L2 framing and keeps its bytes, read
on demand and written back untouched if nobody did.  Everything rare
(``OutOfBandEvent``, ``TimerFired`` with its tagged instance key) and
every packet event with a value the fixed widths cannot hold (a port
outside i32, a uid outside u64, a non-ASCII or over-long string, a
packet over 65 535 bytes) travels as a JSON record, so
:func:`event_to_dict` / :func:`event_from_dict` stay the one definition
of those and the two formats agree by construction.

One reader, :func:`iter_records`, serves every consumer and knows two
kinds of fault.  A record whose extent is known but whose content does
not decode is a *record fault*: :func:`decode_frames` (and so the worker
pipe) raises on it, the daemon counts one frame error and keeps the rest
of the batch.  A fault that loses the record boundaries — bad magic,
short header, unknown tag, a body that is not exactly the records it
declares — is *structural*: :func:`decode_frames` raises, the daemon
counts one frame error, keeps the events decoded before it and closes
the connection.  A stream reader also refuses, before buffering any of
it, a body declared longer than :data:`MAX_BATCH_BYTES`.
"""

from __future__ import annotations

import json
import struct
from typing import IO, Callable, Iterable, Iterator, List, Optional, Tuple

from ..packet.addresses import IPv4Address, MACAddress

from ..packet.packet import Packet
from ..packet.parser import encode as wire_encode
from ..packet.parser import parse as wire_parse
from ..switch.events import (
    DataplaneEvent,
    EgressAction,
    OobKind,
    OutOfBandEvent,
    PacketArrival,
    PacketDrop,
    PacketEgress,
    TimerFired,
)


class TraceFormatError(ValueError):
    """Raised on malformed trace lines."""


_ACTION_BY_VALUE = {action.value: action for action in EgressAction}
_OOB_BY_VALUE = {kind.value: kind for kind in OobKind}


def _member(members: dict, value: object, what: str):
    """The enum member whose value is ``value``: a dict probe, which
    ``Enum(value)`` is not, and the same ``ValueError`` on a miss."""
    try:
        return members[value]
    except (KeyError, TypeError):
        raise TraceFormatError(f"{value!r} is not a valid {what}") from None


#: Bumped whenever the event dict layout changes incompatibly.
TRACE_SCHEMA_VERSION = 1


def _key_scalar_to_json(value: object) -> object:
    """One instance-key element as JSON.

    JSON-native scalars pass through untouched (old traces stay
    readable); the richer types a monitor key can carry — addresses and
    the event-metadata enums — get a ``{"t": ..., "v": ...}`` tag so the
    round trip restores the original type, not its string shadow.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, IPv4Address):
        return {"t": "ip", "v": str(value)}
    if isinstance(value, MACAddress):
        return {"t": "mac", "v": str(value)}
    if isinstance(value, EgressAction):
        return {"t": "egress-action", "v": value.value}
    if isinstance(value, OobKind):
        return {"t": "oob-kind", "v": value.value}
    raise TraceFormatError(
        f"instance-key element {value!r} ({type(value).__name__}) has no "
        "trace encoding")


def _key_scalar_from_json(value: object) -> object:
    if isinstance(value, dict):
        try:
            tag, payload = value["t"], value["v"]
        except KeyError as exc:
            raise TraceFormatError(
                f"tagged key element missing field {exc}") from exc
        if tag == "ip":
            return IPv4Address(payload)
        if tag == "mac":
            return MACAddress(payload)
        if tag == "egress-action":
            return _member(_ACTION_BY_VALUE, payload, "EgressAction")
        if tag == "oob-kind":
            return _member(_OOB_BY_VALUE, payload, "OobKind")
        raise TraceFormatError(f"unknown key element tag {tag!r}")
    return value


def trace_header(**provenance: object) -> dict:
    """A header dict (``seed=``, ``hosts=``, ``packets=``, ``events=``...)
    stamped with the current schema version."""
    header = {"kind": "TraceHeader", "schema": TRACE_SCHEMA_VERSION}
    header.update({k: v for k, v in provenance.items() if v is not None})
    return header


def event_to_dict(event: DataplaneEvent) -> dict:
    """One event as a JSON-serializable dict."""
    base = {"kind": type(event).__name__, "switch": event.switch_id,
            "time": event.time}
    if isinstance(event, PacketArrival):
        base.update(packet=wire_encode(event.packet).hex(),
                    uid=event.packet.uid, in_port=event.in_port)
    elif isinstance(event, PacketEgress):
        base.update(packet=wire_encode(event.packet).hex(),
                    uid=event.packet.uid, in_port=event.in_port,
                    out_port=event.out_port, action=event.action.value)
    elif isinstance(event, PacketDrop):
        base.update(packet=wire_encode(event.packet).hex(),
                    uid=event.packet.uid, in_port=event.in_port,
                    reason=event.reason)
    elif isinstance(event, OutOfBandEvent):
        base.update(oob_kind=event.oob_kind.value, port=event.port)
    elif isinstance(event, TimerFired):
        base.update(timer_id=event.timer_id,
                    instance_key=[_key_scalar_to_json(k)
                                  for k in event.instance_key])
    else:  # pragma: no cover - taxonomy is closed
        raise TraceFormatError(f"unknown event type {type(event).__name__}")
    return base


def event_from_dict(data: dict) -> DataplaneEvent:
    """Rebuild one event from its dict form, through the trusted
    constructor :meth:`DataplaneEvent.decoded`."""
    try:
        kind = data["kind"]
        switch_id = data["switch"]
        time = float(data["time"])
    except KeyError as exc:
        raise TraceFormatError(f"trace line missing field {exc}") from exc

    def packet() -> Packet:
        return wire_parse(bytes.fromhex(data["packet"]), uid=int(data["uid"]))

    if kind == "PacketArrival":
        return PacketArrival.decoded(switch_id, time, packet=packet(),
                                     in_port=int(data["in_port"]))
    if kind == "PacketEgress":
        return PacketEgress.decoded(
            switch_id, time, packet=packet(), out_port=int(data["out_port"]),
            in_port=int(data["in_port"]),
            action=_member(_ACTION_BY_VALUE, data["action"], "EgressAction"))
    if kind == "PacketDrop":
        return PacketDrop.decoded(switch_id, time, packet=packet(),
                                  in_port=int(data["in_port"]),
                                  reason=data.get("reason", ""))
    if kind == "OutOfBandEvent":
        return OutOfBandEvent.decoded(
            switch_id, time,
            oob_kind=_member(_OOB_BY_VALUE, data["oob_kind"], "OobKind"),
            port=data.get("port"))
    if kind == "TimerFired":
        key = tuple(_key_scalar_from_json(k)
                    for k in data.get("instance_key", ()))
        return TimerFired.decoded(switch_id, time, instance_key=key,
                                  timer_id=data.get("timer_id", ""))
    raise TraceFormatError(f"unknown event kind {kind!r}")


def dump_trace(
    events: Iterable[DataplaneEvent],
    fp: IO[str],
    header: Optional[dict] = None,
) -> int:
    """Write events as JSON lines; returns the count written.

    ``header`` (from :func:`trace_header`) is written as the first line
    and is not included in the returned count.
    """
    count = 0
    if header is not None:
        fp.write(json.dumps(header, sort_keys=True))
        fp.write("\n")
    for event in events:
        fp.write(json.dumps(event_to_dict(event), sort_keys=True))
        fp.write("\n")
        count += 1
    return count


def _load(fp: IO[str]) -> Tuple[Optional[dict], List[DataplaneEvent]]:
    header: Optional[dict] = None
    events: List[DataplaneEvent] = []
    for lineno, line in enumerate(fp, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceFormatError(f"line {lineno}: invalid JSON: {exc}") from exc
        if data.get("kind") == "TraceHeader":
            if lineno == 1:
                header = data
                continue
            raise TraceFormatError(
                f"line {lineno}: TraceHeader only allowed on line 1")
        events.append(event_from_dict(data))
    return header, events


def load_trace(fp: IO[str]) -> List[DataplaneEvent]:
    """Read a JSONL trace; returns events in file order (header skipped)."""
    return _load(fp)[1]


def save_trace(
    events: Iterable[DataplaneEvent],
    path: str,
    header: Optional[dict] = None,
) -> int:
    with open(path, "w", encoding="utf-8") as fp:
        return dump_trace(events, fp, header=header)


def read_trace(path: str) -> List[DataplaneEvent]:
    with open(path, "r", encoding="utf-8") as fp:
        return load_trace(fp)


def read_trace_with_header(
    path: str,
) -> Tuple[Optional[dict], List[DataplaneEvent]]:
    """Like :func:`read_trace` but also returns the header (or ``None``)."""
    with open(path, "r", encoding="utf-8") as fp:
        return _load(fp)


# ---------------------------------------------------------------------------
# Framed batch encoding (RPF2)


#: Leading bytes of a framed batch — lets a reader reject a JSONL stream
#: (or any other garbage) fed to :func:`decode_frames` immediately.
FRAME_MAGIC = b"RPF2"

#: The most body bytes a stream reader buffers for one batch.  A header
#: declaring more is refused before any of the body is read; it is a
#: constant, not a setting — 16 MiB is ≈350 000 plain-ethernet events,
#: three orders of magnitude above the 64-event batches senders write.
MAX_BATCH_BYTES = 1 << 24

#: magic, u32 record count, u32 body length
_BATCH = struct.Struct(">4sII")
BATCH_HEADER_SIZE = _BATCH.size

#: Record layouts (the module docstring has the field tables): a packet
#: event's fixed header, and a JSON record's.
_PACKET_RECORD = struct.Struct(">BdQiiBBHH")
_JSON_RECORD = struct.Struct(">BI")

_TAG_JSON, _TAG_ARRIVAL, _TAG_EGRESS, _TAG_DROP = range(4)
_PACKET_TAGS = {PacketArrival: _TAG_ARRIVAL, PacketEgress: _TAG_EGRESS,
                PacketDrop: _TAG_DROP}
_ACTIONS = tuple(EgressAction)
_ACTION_INDEX = {action: index for index, action in enumerate(_ACTIONS)}

#: What decoding one delimited record can raise on hostile bytes: every
#: codec error is a ``ValueError`` (``TraceFormatError``, ``HeaderError``,
#: ``UnicodeDecodeError``, ``JSONDecodeError``, a bad enum value); a
#: tag-0 payload of the wrong shape adds the other three.
_RECORD_FAULTS = (ValueError, KeyError, TypeError, OverflowError)


def _packet_record(tag: int, event: DataplaneEvent) -> bytes:
    """``event`` as a fixed-header record.

    Raises ``struct.error`` or ``UnicodeEncodeError`` when a value does
    not fit the fixed widths (a port outside i32, a uid outside u64, a
    non-ASCII or over-long string, a packet over 65 535 bytes): the
    caller falls back to a tag-0 record.
    """
    packet = event.packet
    switch = event.switch_id.encode("ascii")
    wire = wire_encode(packet)
    out_port = action = 0
    reason = b""
    if tag == _TAG_EGRESS:
        out_port, action = event.out_port, _ACTION_INDEX[event.action]
    elif tag == _TAG_DROP:
        reason = event.reason.encode("ascii")
    return _PACKET_RECORD.pack(
        tag, event.time, packet.uid, event.in_port, out_port, action,
        len(switch), len(reason), len(wire)) + switch + reason + wire


def encode_frames(events: Iterable[DataplaneEvent]) -> bytes:
    """Encode a batch of events as one framed byte string.

    Layout: ``FRAME_MAGIC`` + u32 record count + u32 body length, then
    one record per event.  Packet events are a fixed ``struct`` header
    followed by the switch id, the drop reason and the raw wire bytes of
    the packet; every other event — and any packet event whose values do
    not fit the fixed widths — is a tag-0 record carrying the JSON
    payload the JSONL format writes, so the two formats agree by
    construction.
    """
    records = []
    for event in events:
        tag = _PACKET_TAGS.get(type(event))
        if tag is not None:
            try:
                records.append(_packet_record(tag, event))
                continue
            except (struct.error, UnicodeEncodeError):
                pass
        payload = json.dumps(event_to_dict(event), sort_keys=True,
                             separators=(",", ":")).encode("utf-8")
        records.append(_JSON_RECORD.pack(_TAG_JSON, len(payload)) + payload)
    body = b"".join(records)
    return _BATCH.pack(FRAME_MAGIC, len(records), len(body)) + body


def batch_header(header: bytes,
                 max_body: Optional[int] = None) -> Tuple[int, int]:
    """``(record count, body length)`` from a batch's leading bytes.

    Raises :class:`TraceFormatError` on a bad magic, a short header, or
    — for a reader that has yet to buffer the body — a declared body
    length above ``max_body``.
    """
    if header[:4] != FRAME_MAGIC:
        raise TraceFormatError(
            f"bad frame magic {header[:4]!r} (expected {FRAME_MAGIC!r})")
    if len(header) < BATCH_HEADER_SIZE:
        raise TraceFormatError("truncated batch header")
    _, count, size = _BATCH.unpack_from(header)
    if max_body is not None and size > max_body:
        raise TraceFormatError(
            f"batch declares {size} body bytes (cap {max_body})")
    return count, size


def iter_records(
    body: bytes,
    count: int,
    bad_record: Optional[Callable[[TraceFormatError], None]] = None,
) -> Iterator[DataplaneEvent]:
    """The events of one batch body, in order — the one record reader
    behind :func:`decode_frames`, the daemon's TCP and FIFO ingest and
    the fabric's worker pipe.

    Two kinds of fault.  A record whose extent is known but whose
    content does not decode (corrupt packet bytes, an unknown action
    index, bad JSON) is a **record fault**: without ``bad_record`` it
    raises; with it, the callback gets the error and iteration goes on
    with the next record.  A fault that loses the record boundaries (an
    unknown tag, a record running past the body, fewer or more bytes
    than ``count`` records carry) is **structural** and always raises
    :class:`TraceFormatError`; what was yielded before it stands.

    A record that decodes has had every value checked here (the packet's
    L2 framing by ``wire_parse``), so its event is built by the trusted
    :meth:`~repro.switch.events.DataplaneEvent.decoded`, not the frozen
    dataclass ``__init__``.
    """
    unpack_packet = _PACKET_RECORD.unpack_from
    arrival, egress = PacketArrival.decoded, PacketEgress.decoded
    drop = PacketDrop.decoded
    fixed = _PACKET_RECORD.size
    end = len(body)
    offset = 0
    for index in range(count):
        if offset >= end:
            raise TraceFormatError(
                f"truncated batch: record {index} of {count} missing")
        tag = body[offset]
        if tag == _TAG_JSON:
            start = offset + _JSON_RECORD.size
            if start > end:
                raise TraceFormatError(
                    f"truncated batch: record {index} header short")
            offset = start + _JSON_RECORD.unpack_from(body, offset)[1]
        elif tag <= _TAG_DROP:
            start = offset + fixed
            if start > end:
                raise TraceFormatError(
                    f"truncated batch: record {index} header short")
            (_, time, uid, in_port, out_port, action,
             n_switch, n_reason, n_packet) = unpack_packet(body, offset)
            offset = start + n_switch + n_reason + n_packet
        else:
            raise TraceFormatError(
                f"record {index}: unknown record tag {tag}")
        if offset > end:
            raise TraceFormatError(
                f"truncated batch: record {index} runs past the body")
        try:
            if tag == _TAG_JSON:
                event = event_from_dict(json.loads(body[start:offset]))
            else:
                wire_at = offset - n_packet
                switch_id = str(body[start:start + n_switch], "ascii")
                packet = wire_parse(body[wire_at:offset], uid=uid)
                if tag == _TAG_ARRIVAL:
                    event = arrival(switch_id, time, packet=packet,
                                    in_port=in_port)
                elif tag == _TAG_EGRESS:
                    if action >= len(_ACTIONS):
                        raise TraceFormatError(
                            f"unknown egress-action index {action}")
                    event = egress(switch_id, time, packet=packet,
                                   out_port=out_port, in_port=in_port,
                                   action=_ACTIONS[action])
                else:
                    event = drop(
                        switch_id, time, packet=packet, in_port=in_port,
                        reason=str(body[start + n_switch:wire_at], "ascii"))
        except _RECORD_FAULTS as exc:
            fault = TraceFormatError(f"record {index}: {exc}")
            if bad_record is None:
                raise fault from exc
            bad_record(fault)
            continue
        yield event
    if offset != end:
        raise TraceFormatError(
            f"{end - offset} trailing bytes after {count} records")


def decode_frames(data: bytes) -> List[DataplaneEvent]:
    """Decode one framed batch produced by :func:`encode_frames`.

    The strict form of :func:`iter_records`: any fault raises
    :class:`TraceFormatError` — a bad magic, a short header, a body
    length that is not the bytes carried, a bad record — because a
    partial IPC read must never silently drop events.
    """
    count, size = batch_header(data[:BATCH_HEADER_SIZE])
    carried = len(data) - BATCH_HEADER_SIZE
    if carried < size:
        raise TraceFormatError(
            f"truncated batch: {size} body bytes declared, {carried} carried")
    if carried > size:
        raise TraceFormatError(
            f"{carried - size} trailing bytes after the declared body")
    return list(iter_records(data[BATCH_HEADER_SIZE:], count))
