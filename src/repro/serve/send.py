"""``repro send`` — stream a recorded trace into a live daemon.

The sender is intentionally primitive: it reads a JSONL trace file as
raw lines (no parse, no re-serialize — the wire format *is* the file
format) and writes them down a TCP socket at a target event rate.
Pacing uses absolute deadlines against the monotonic clock, so drift
does not accumulate: the Nth event is due at ``start + N/rate``
regardless of how late event N-1 went out.

``rate=0`` means "as fast as the socket accepts", which is how the
benchmark and the CI smoke job flood the daemon's ingest queue to
exercise shedding and the ``/readyz`` flip.

Connection loss is survivable: ``retry`` grants that many reconnect
attempts (with exponential ``backoff`` doubling per consecutive
failure, reset on success), and the chunk that was in flight when the
connection died is resent whole on the new connection.  The daemon's
frame parser tolerates the resulting duplicate/partial lines — a torn
line fails to parse and is counted as a frame error, never crashing
ingest.
"""

from __future__ import annotations

import socket
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..netsim.serialize import encode_frames, read_trace


@dataclass
class SendResult:
    """What a finished stream looked like from the sending side."""

    events: int
    duration: float
    target_rate: float
    reconnects: int = 0

    @property
    def achieved_rate(self) -> float:
        if self.duration <= 0:
            return float("inf") if self.events else 0.0
        return self.events / self.duration

    def to_dict(self) -> dict:
        return {
            "events": self.events,
            "duration": self.duration,
            "target_rate": self.target_rate,
            "achieved_rate": self.achieved_rate,
            "reconnects": self.reconnects,
        }


def _read_lines(path: str) -> List[bytes]:
    """Event lines from a trace file, newline-terminated, header kept.

    The header line is forwarded as-is — the daemon's frame parser skips
    it — so a sent stream is byte-identical to the file.
    """
    with open(path, "rb") as fp:
        return [line if line.endswith(b"\n") else line + b"\n"
                for line in fp if line.strip()]


def _build_units(path: str, format: str, chunk: int) -> List[Tuple[bytes, int]]:
    """The trace as ``(payload, event_count)`` send units.

    ``jsonl`` keeps the file's own lines (one unit per line, headers
    counting zero events).  ``rpf2`` parses the trace and re-encodes it
    as framed binary batches of up to ``chunk`` events — the daemon's
    ingest sniffs the magic and switches codec per connection.
    """
    if format == "jsonl":
        return [(line, 0 if b'"TraceHeader"' in line else 1)
                for line in _read_lines(path)]
    if format == "rpf2":
        events = read_trace(path)
        return [(encode_frames(events[i:i + chunk]),
                 len(events[i:i + chunk]))
                for i in range(0, len(events), chunk)]
    raise ValueError(f"unknown send format {format!r}; "
                     "choose jsonl or rpf2")


def check_port(port: int, what: str = "port") -> int:
    """``port`` if it is a TCP port number; ``ValueError`` if not."""
    if not 0 <= port <= 65535:
        raise ValueError(f"{what} must be 0-65535, got {port}")
    return port


def stream_trace(
    path: str,
    host: str,
    port: int,
    rate: float = 0.0,
    repeat: int = 1,
    chunk: int = 64,
    retry: int = 0,
    backoff: float = 0.5,
    format: str = "jsonl",
    monotonic: Optional[Callable[[], float]] = None,
    sleep: Optional[Callable[[float], None]] = None,
    connect: Optional[Callable[[str, int], socket.socket]] = None,
) -> SendResult:
    """Stream the trace at ``path`` to ``host:port`` at ``rate`` events/s.

    ``repeat`` replays the whole file that many times over one
    connection.  ``rate=0`` disables pacing.  ``chunk`` bounds how many
    events are written between pacing checks (coarse pacing costs far
    fewer syscalls than per-event sleeps; at 10k ev/s a chunk of 64 is
    a pacing decision every ~6ms).  ``retry`` is the reconnect budget
    for the whole stream: each connection failure — initial or mid-send
    — consumes one attempt and waits ``backoff * 2**consecutive_failures``
    seconds; a successful reconnect resets the consecutive count, the
    budget never refills.  ``format`` picks the wire codec: ``jsonl``
    forwards the file's own lines; ``rpf2`` re-encodes the trace as
    framed binary batches (one batch per chunk).  ``monotonic``/
    ``sleep``/``connect`` are injectable for tests.
    """
    check_port(port)
    if repeat < 1:
        raise ValueError(f"repeat must be >= 1, got {repeat!r}")
    if rate < 0:
        raise ValueError(f"rate must be >= 0, got {rate!r}")
    if retry < 0:
        raise ValueError(f"retry must be >= 0, got {retry!r}")
    if backoff < 0:
        raise ValueError(f"backoff must be >= 0, got {backoff!r}")
    now = monotonic if monotonic is not None else time.monotonic
    pause = sleep if sleep is not None else time.sleep
    dial = (connect if connect is not None
            else lambda h, p: socket.create_connection((h, p)))
    units = _build_units(path, format, chunk)
    # An rpf2 unit is already a whole chunk-sized batch; jsonl units are
    # single lines grouped chunk-at-a-time at send time.
    group = chunk if format == "jsonl" else 1

    sent = 0  # events only; header lines don't count toward pacing
    reconnects = 0
    attempts_left = retry
    consecutive_failures = 0
    sock: Optional[socket.socket] = None
    start = now()
    try:
        for round_idx in range(repeat):
            i = 0
            while i < len(units):
                if sock is None:
                    try:
                        sock = dial(host, port)
                    except OSError:
                        if attempts_left <= 0:
                            raise
                        attempts_left -= 1
                        pause(backoff * (2 ** consecutive_failures))
                        consecutive_failures += 1
                        continue
                    if round_idx or i or consecutive_failures:
                        reconnects += 1
                    consecutive_failures = 0
                batch = units[i:i + group]
                try:
                    sock.sendall(b"".join(payload for payload, _ in batch))
                except OSError:
                    # The failed chunk is resent whole on the next
                    # connection; it was not counted as sent.
                    sock.close()
                    sock = None
                    continue
                i += len(batch)
                sent += sum(count for _, count in batch)
                if rate > 0:
                    due = start + sent / rate
                    delay = due - now()
                    if delay > 0:
                        pause(delay)
    finally:
        if sock is not None:
            sock.close()
    duration = max(0.0, now() - start)
    return SendResult(events=sent, duration=duration, target_rate=rate,
                      reconnects=reconnects)
