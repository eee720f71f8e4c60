"""Multiprocessing shard workers and their byte protocol.

Each shard runs a plain :class:`Monitor` in a forked worker process.
Fork (not spawn) is required: property specs carry compiled predicate
closures that do not pickle, and a forked child inherits them directly.
Event batches cross the pipe as the binary batch encoding from
``netsim/serialize.py`` — the same bytes ``repro send --format rpf2``
writes to a daemon, so the IPC format is covered by the serialization
tests.

Command channel (parent -> worker), one ``send_bytes`` per command:

* ``b"B" + encode_frames(batch)`` — observe the batch;
* ``b"A" + f64(when)``            — advance monitor time;
* ``b"D"``                        — drain all deferred ops and timers;
* ``b"H" + u32(seq)``             — heartbeat; reply ``b"A" + u32(seq)``;
* ``b"S"``                        — reply with a :class:`ShardSnapshot`
                                    delta on the result channel;
* ``b"C"``                        — like ``S`` but the snapshot carries
                                    a full :class:`MonitorState`
                                    checkpoint;
* ``b"R" + pickle(MonitorState)`` — restore a checkpoint into the
                                    (fresh) worker monitor;
* ``b"Q"``                        — final snapshot, then exit.

Result channel (worker -> parent), also tagged ``send_bytes``:

* ``b"A" + u32(seq)``      — heartbeat ack echoing the sequence number;
* ``b"S" + pickle(snap)``  — a snapshot/checkpoint reply.

Workers reply only when asked (cursor-based deltas): there is no
per-event acknowledgement.  The parent does block on the data path,
though, in two places.  ``send_bytes`` returns once the whole message is
in the pipe, and a routed sub-batch is about as big as the pipe buffer
(64 kB on Linux; a TCP packet event is ≈85 bytes, so 512 of them are
≈44 kB), so a send waits for the worker to read whenever the previous
batch is still unread.  And the supervisor's checkpoint
(``Supervisor._checkpoint``, every ``checkpoint_interval`` events per
shard) is a request followed by a blocking ``recv_snapshot``: the parent
waits while the worker works through everything queued ahead of the
request and pickles its state.  Taking both off the data path is future
work.  What is guaranteed today is that neither wait becomes a deadlock:
every parent-side receive is bounded by a ``poll`` timeout and every
send checks pipe writability first (:meth:`MpShard._send` says what that
check does and does not cover), so a crashed or wedged worker surfaces
as :class:`ShardDied` / :class:`ShardTimeout`, which is what the fabric
supervisor turns into a restart.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import select
import signal
import struct
from multiprocessing.connection import Connection
from typing import Dict, List, Mapping, Optional, Sequence

from ..core.monitor import MonitorState
from ..core.spec import PropertySpec
from ..netsim.serialize import decode_frames, encode_frames
from ..switch.events import DataplaneEvent
from .routing import PropRoute
from .shard import ShardSnapshot, build_shard_monitor, take_snapshot

_F64 = struct.Struct(">d")
_U32 = struct.Struct(">I")


class ShardDied(RuntimeError):
    """The worker process is gone (crash, kill, or closed pipe)."""


class ShardTimeout(RuntimeError):
    """The worker did not answer (or accept work) within the deadline."""


def fork_available() -> bool:
    """Whether this platform can run fabric workers at all."""
    return (
        hasattr(os, "fork")
        and "fork" in multiprocessing.get_all_start_methods()
    )


def _worker_main(
    conn: Connection,
    results: Connection,
    props: Sequence[PropertySpec],
    shard_idx: int,
    num_shards: int,
    routes: Mapping[str, PropRoute],
    monitor_kwargs: Optional[Dict[str, object]],
    max_layer: int,
) -> None:
    monitor = build_shard_monitor(
        props, shard_idx, num_shards, routes, monitor_kwargs)
    violation_cursor = shed_cursor = 0
    while True:
        try:
            message = conn.recv_bytes()
        except (EOFError, OSError):
            break  # parent died; nothing useful left to do
        tag, payload = message[:1], message[1:]
        if tag == b"B":
            monitor.observe_batch(decode_frames(payload, max_layer=max_layer))
        elif tag == b"A":
            monitor.advance_to(_F64.unpack(payload)[0])
        elif tag == b"D":
            monitor.drain()
        elif tag == b"H":
            results.send_bytes(b"A" + payload)
        elif tag == b"R":
            monitor.restore_state(pickle.loads(payload))
        elif tag in (b"S", b"C", b"Q"):
            snapshot, violation_cursor, shed_cursor = take_snapshot(
                monitor, shard_idx, violation_cursor, shed_cursor,
                with_state=(tag == b"C"))
            results.send_bytes(
                b"S" + pickle.dumps(snapshot, pickle.HIGHEST_PROTOCOL))
            if tag == b"Q":
                break
        else:  # pragma: no cover - protocol is closed
            raise ValueError(f"unknown fabric command {tag!r}")


class MpShard:
    """Parent-side handle to one forked shard worker."""

    def __init__(
        self,
        props: Sequence[PropertySpec],
        shard_idx: int,
        num_shards: int,
        routes: Mapping[str, PropRoute],
        monitor_kwargs: Optional[Dict[str, object]],
        max_layer: int,
        send_timeout: float = 30.0,
    ) -> None:
        if not fork_available():
            raise RuntimeError(
                "fabric mode 'mp' needs the fork start method (unavailable "
                "on this platform); use mode='inprocess'")
        ctx = multiprocessing.get_context("fork")
        self._cmd, child_cmd = ctx.Pipe()
        self._results, child_results = ctx.Pipe()
        self.shard_idx = shard_idx
        self.send_timeout = send_timeout
        self._closed = False
        self.process = ctx.Process(
            target=_worker_main,
            args=(child_cmd, child_results, props, shard_idx, num_shards,
                  routes, monitor_kwargs, max_layer),
            name=f"repro-fabric-shard-{shard_idx}",
            daemon=True,
        )
        self.process.start()
        child_cmd.close()
        child_results.close()

    # -- liveness ----------------------------------------------------------
    @property
    def pid(self) -> Optional[int]:
        return self.process.pid

    def is_alive(self) -> bool:
        return not self._closed and self.process.is_alive()

    # -- sends (bounded, crash-surfacing) ----------------------------------
    def _send(self, message: bytes) -> None:
        """Send one command; raise instead of blocking or EPIPE-ing.

        A dead worker raises :class:`ShardDied` (its pipe end is
        closed); a wedged worker whose pipe buffer is full fails the
        writability select and raises :class:`ShardTimeout` rather than
        blocking the parent forever.  The select is a heuristic — *any*
        buffer space counts as writable — but a stopped worker stops
        draining the pipe, so sustained sends hit the timeout within a
        few batches.
        """
        if self._closed:
            raise ShardDied(f"shard {self.shard_idx}: handle closed")
        try:
            writable = select.select(
                [], [self._cmd.fileno()], [], self.send_timeout)[1]
        except (OSError, ValueError) as exc:
            raise ShardDied(f"shard {self.shard_idx}: {exc}") from exc
        if not writable:
            raise ShardTimeout(
                f"shard {self.shard_idx}: command pipe full for "
                f"{self.send_timeout}s (worker wedged?)")
        try:
            self._cmd.send_bytes(message)
        except (BrokenPipeError, OSError) as exc:
            raise ShardDied(f"shard {self.shard_idx}: {exc}") from exc

    def send_batch(self, events: Sequence[DataplaneEvent]) -> None:
        self._send(b"B" + encode_frames(events))

    def advance_to(self, when: float) -> None:
        self._send(b"A" + _F64.pack(when))

    def drain(self) -> None:
        self._send(b"D")

    def ping(self, seq: int) -> None:
        self._send(b"H" + _U32.pack(seq & 0xFFFFFFFF))

    def restore(self, state: MonitorState) -> None:
        self._send(b"R" + pickle.dumps(state, pickle.HIGHEST_PROTOCOL))

    def request_snapshot(self, checkpoint: bool = False) -> None:
        self._send(b"C" if checkpoint else b"S")

    # -- receives (bounded) ------------------------------------------------
    def recv_reply(self, timeout: Optional[float]) -> Optional[bytes]:
        """One tagged reply, or None if nothing arrived in ``timeout``."""
        if self._closed:
            raise ShardDied(f"shard {self.shard_idx}: handle closed")
        try:
            if not self._results.poll(timeout):
                return None
            return self._results.recv_bytes()
        except (EOFError, OSError) as exc:
            raise ShardDied(f"shard {self.shard_idx}: {exc}") from exc

    def recv_snapshot(
        self, timeout: Optional[float] = None
    ) -> ShardSnapshot:
        """The next snapshot reply, skipping interleaved heartbeat acks."""
        while True:
            reply = self.recv_reply(timeout)
            if reply is None:
                raise ShardTimeout(
                    f"shard {self.shard_idx}: no snapshot within {timeout}s")
            if reply[:1] == b"S":
                return pickle.loads(reply[1:])
            # b"A" heartbeat ack raced ahead of the snapshot: drop it —
            # a snapshot reply is a stronger liveness proof anyway.

    def recv_ack(self, timeout: Optional[float]) -> Optional[int]:
        """The next heartbeat ack's sequence number, or None on timeout.

        Snapshot replies must not arrive here — the supervisor always
        consumes a requested snapshot before pinging again.
        """
        reply = self.recv_reply(timeout)
        if reply is None:
            return None
        if reply[:1] == b"A":
            return _U32.unpack(reply[1:5])[0]
        raise ShardDied(
            f"shard {self.shard_idx}: unexpected reply {reply[:1]!r} "
            "while awaiting heartbeat ack")

    # -- teardown ----------------------------------------------------------
    def quit(self, timeout: float = 30.0) -> Optional[ShardSnapshot]:
        """Quiesce: final snapshot then reap; None if the worker hung.

        The wait is bounded (the PR-8 version blocked forever on a hung
        worker): after ``timeout`` with no reply the worker is killed
        and ``None`` returned, and the caller ledgers whatever state the
        final snapshot would have carried.
        """
        snapshot: Optional[ShardSnapshot] = None
        try:
            self._send(b"Q")
            snapshot = self.recv_snapshot(timeout)
        except (ShardDied, ShardTimeout):
            snapshot = None
        if snapshot is not None:
            self.process.join(timeout)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout)
        self._close_pipes()
        return snapshot

    def kill(self, sig: int = signal.SIGKILL) -> None:
        """Hard teardown (error paths, supervisor restarts)."""
        if self.process.is_alive():
            if sig == signal.SIGKILL:
                self.process.kill()
            else:
                self.process.terminate()
            self.process.join(5.0)
        self._close_pipes()

    def _close_pipes(self) -> None:
        if not self._closed:
            self._closed = True
            self._cmd.close()
            self._results.close()
