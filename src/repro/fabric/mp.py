"""Multiprocessing shard workers and their byte protocol.

Each shard runs a plain :class:`Monitor` in a forked worker process.
Fork (not spawn) is required: a worker inherits its shard's monitor,
built once in the parent with its program compiled
(:func:`~repro.fabric.shard.build_shard_monitor`), which would not
pickle (predicate closures, exec'd functions) and is never rebuilt.

A worker collects only what it makes.  Its first act is
``gc.freeze()``: everything it inherited — its shard monitor and the
rest of the parent's heap — moves into the collector's permanent
generation, a list splice that touches no object, so the worker's
collections walk, and copy on write, only what it allocated itself.
The freeze is the child's own: a freeze/unfreeze pair around the fork
in the parent would also thaw whatever an embedding application had
frozen on purpose.  Around its two bulk, acyclic builds — the restore
(``pickle.loads`` + ``restore_state``) and the checkpoint export
(``export_state`` + pickle) — the worker pauses its collector
(:func:`_collector_paused`); ``Monitor.export_state`` and
``restore_state`` themselves leave the collector alone, for in-process
callers.

Event batches cross the channel as the binary batch encoding from
``netsim/serialize.py`` — the same bytes ``repro send --format rpf2``
writes to a daemon, so the IPC format is covered by the serialization
tests.

The channel is one ``AF_UNIX`` stream socketpair per shard, commands
one way and replies the other, every message a ``u32`` length then the
tagged body.  The worker's end is blocking; the parent's end is
non-blocking and only ever touched by :meth:`MpShard._send` and
:meth:`MpShard.recv_reply`.

Commands (parent -> worker):

* ``b"B" + encode_frames(batch)`` — observe the batch;
* ``b"A" + f64(when)``            — advance monitor time;
* ``b"D"``                        — drain all deferred ops and timers;
* ``b"H" + u32(seq)``             — heartbeat; reply ``b"A" + u32(seq)``;
* ``b"S"``                        — reply with a :class:`ShardSnapshot`
                                    delta;
* ``b"C"``                        — like ``S`` but the snapshot is a
                                    checkpoint: it carries the worker's
                                    pickled :class:`MonitorState`;
* ``b"R" + state``                — restore those bytes, verbatim, into
                                    the (fresh) worker monitor;
* ``b"Q"``                        — final snapshot, then exit.

Replies (worker -> parent), in the order of the commands they answer:

* ``b"A" + u32(seq)``      — heartbeat ack echoing the sequence number;
* ``b"S" + pickle(snap)``  — a snapshot/checkpoint reply;
* ``b"K"``                 — keepalive, every quarter of the handle's
                             ``heartbeat_timeout`` while the worker
                             restores (``R``) or exports (``C``); it
                             answers nothing and is never handed out.

Workers reply only when asked (snapshot deltas): there is no
per-event acknowledgement, and no command waits for its reply — the
supervisor requests a checkpoint and takes the reply in whenever it
next looks (``fabric.supervise``), unless the shard's recovery journal
is past its bound.  The only wait in this module is back-pressure: a
socketpair holds about 200 kB per direction (``SO_SNDBUF`` 212 992 on
Linux; a routed 512-event sub-batch is ≈44 kB), so a send waits for
socket space once a worker is a few batches behind.
``ShardedMonitor.sync()`` and ``stop()`` are the explicit barriers.

Every parent-side wait — for socket space, a reply, an ack — ends
after ``heartbeat_timeout`` of *silence*: any whole frame from the
worker (a keepalive included), and any bytes it takes off a send,
start the count again.  So a restore or an export is never timed by
its size — one ``pickle.loads`` and ``restore_state`` of a large state
may take many timeouts, its keepalives saying the worker lives — while
a stopped or wedged worker is silent and times out as before.

A checkpoint reply is several times larger than the socket buffer, so
a worker blocks writing it until the parent reads.  A parent that
blocked writing a command at the same moment would deadlock the pair —
and the timeout would then end that stall as a :class:`ShardTimeout`,
a spurious restart.  :meth:`MpShard._send` therefore never waits on an
unread reply: while it waits for socket space it also reads, parking
complete replies in an inbox that :meth:`MpShard.recv_reply` serves
first.  Every parent-side wait is a ``select`` with a deadline, so a
crashed or wedged worker surfaces as :class:`ShardDied` /
:class:`ShardTimeout`, which is what the fabric supervisor turns into
a restart.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import pickle
import select
import signal
import socket
import struct
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Callable, Deque, Iterator, Optional, Sequence

from ..core.monitor import Monitor
from ..netsim.serialize import decode_frames, encode_frames
from ..switch.events import DataplaneEvent
from .shard import ShardSnapshot, take_snapshot

_F64 = struct.Struct(">d")
_U32 = struct.Struct(">I")
_READ_CHUNK = 1 << 18


class ShardDied(RuntimeError):
    """The worker process is gone (crash, kill, or closed channel)."""


class ShardTimeout(RuntimeError):
    """The worker did not answer (or accept work) within the deadline."""


def fork_available() -> bool:
    """Whether this platform can run fabric workers at all."""
    return (
        hasattr(os, "fork")
        and "fork" in multiprocessing.get_all_start_methods()
    )


@contextmanager
def _keepalive(reply: Callable[[bytes], None],
               period: float) -> Iterator[None]:
    """Send ``b"K"`` every ``period`` seconds while the body runs.

    Only around work that writes nothing (restore, export): the beat
    has stopped before anything else is written.
    """
    done = threading.Event()

    def beat() -> None:
        try:
            while not done.wait(period):
                reply(b"K")
        except OSError:
            pass  # the parent is gone; the command loop finds out next

    thread = threading.Thread(target=beat, daemon=True)
    thread.start()
    try:
        yield
    finally:
        done.set()
        thread.join()


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Run the body with the cyclic collector off.

    For the worker's bulk, acyclic builds (a restore, a checkpoint
    export): each allocates a whole state's worth of containers and no
    cycle, so every collection those allocations trigger walks the
    young heap for nothing.  The collector comes back on afterwards,
    exception or not, only if it was on before.
    """
    was_on = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_on:
            gc.enable()


def _worker_main(sock: socket.socket, monitor: Monitor,
                 shard_idx: int, keepalive: float) -> None:
    # everything inherited goes to the permanent generation: the
    # worker's collector walks (and copies on write) only what it makes
    gc.freeze()
    commands = sock.makefile("rb")

    def reply(body: bytes) -> None:
        sock.sendall(_U32.pack(len(body)))
        sock.sendall(body)

    def command() -> bytes:
        """The next whole command; empty once the parent's end is gone."""
        try:
            header = commands.read(_U32.size)
            if len(header) == _U32.size:
                size = _U32.unpack(header)[0]
                message = commands.read(size)
                if len(message) == size:
                    return message
        except OSError:
            pass
        return b""

    while True:
        message = command()
        if not message:
            break  # parent died; nothing useful left to do
        tag, payload = message[:1], message[1:]
        if tag == b"B":
            monitor.observe_batch(decode_frames(payload))
        elif tag == b"A":
            monitor.advance_to(_F64.unpack(payload)[0])
        elif tag == b"D":
            monitor.drain()
        elif tag == b"H":
            reply(b"A" + payload)
        elif tag == b"R":
            with _keepalive(reply, keepalive), _collector_paused():
                monitor.restore_state(pickle.loads(payload))
        elif tag in (b"S", b"C", b"Q"):
            if tag == b"C":
                with _keepalive(reply, keepalive), _collector_paused():
                    snapshot = take_snapshot(monitor, shard_idx,
                                             with_state=True)
            else:
                snapshot = take_snapshot(monitor, shard_idx)
            reply(b"S" + pickle.dumps(snapshot, pickle.HIGHEST_PROTOCOL))
            if tag == b"Q":
                break
        else:  # pragma: no cover - protocol is closed
            raise ValueError(f"unknown fabric command {tag!r}")


class MpShard:
    """Parent-side handle to a forked worker running a copy of ``monitor``."""

    def __init__(
        self,
        monitor: Monitor,
        shard_idx: int,
        heartbeat_timeout: float,
    ) -> None:
        if not fork_available():
            raise RuntimeError(
                "the fabric needs the fork start method, which this "
                "platform lacks; there is no fallback mode")
        ctx = multiprocessing.get_context("fork")
        self._sock, child_sock = socket.socketpair()
        self._sock.setblocking(False)
        self.shard_idx = shard_idx
        #: seconds of silence that end a send (the receives take theirs)
        self.heartbeat_timeout = heartbeat_timeout
        self._closed = False
        self._eof = False
        #: bytes read off the socket that do not yet make a whole reply
        self._partial = bytearray()
        #: whole replies read (by a send that was waiting for socket
        #: space, or by a look that found more than one) and not yet
        #: handed out; :meth:`recv_reply` serves these first
        self._inbox: Deque[bytes] = deque()
        self.process = ctx.Process(
            target=_worker_main,
            args=(child_sock, monitor, shard_idx, heartbeat_timeout / 4),
            name=f"repro-fabric-shard-{shard_idx}",
            daemon=True,
        )
        self.process.start()
        child_sock.close()

    # -- liveness ----------------------------------------------------------
    @property
    def pid(self) -> Optional[int]:
        return self.process.pid

    def is_alive(self) -> bool:
        return not self._closed and self.process.is_alive()

    # -- the channel (non-blocking, deadline-bounded) ----------------------
    def _died(self, why: object) -> ShardDied:
        return ShardDied(f"shard {self.shard_idx}: {why}")

    def _pump(self) -> bool:
        """Read what the socket holds now; park every whole reply and
        drop every keepalive.  True when any whole frame came in."""
        partial = self._partial
        while not self._eof:
            try:
                chunk = self._sock.recv(_READ_CHUNK)
            except BlockingIOError:
                break
            except OSError as exc:
                raise self._died(exc) from exc
            if not chunk:
                self._eof = True
            partial += chunk
        start = 0
        while len(partial) - start >= _U32.size:
            end = start + _U32.size + _U32.unpack_from(partial, start)[0]
            if end > len(partial):
                break
            body = bytes(partial[start + _U32.size:end])
            if body != b"K":
                self._inbox.append(body)
            start = end
        if start:
            del partial[:start]
        return start > 0

    def _wait(self, deadline: float, writing: bool) -> bool:
        """Sleep until the socket is readable (or, for a sender, has
        space); False once ``deadline`` has passed."""
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return False
        try:
            select.select([self._sock], [self._sock] if writing else [],
                          [], remaining)
        except (OSError, ValueError) as exc:
            raise self._died(exc) from exc
        return True

    def _send(self, message: bytes) -> None:
        """Send one command; raise instead of blocking or EPIPE-ing.

        One non-blocking write loop that ends after
        ``heartbeat_timeout`` of silence: the worker taking bytes off the
        message, or a whole frame from it, starts the count again.  A
        dead worker raises :class:`ShardDied` (its end is closed).  A
        worker that has stopped reading raises :class:`ShardTimeout`,
        and the handle closes: a message cut short leaves the stream
        unframed, so nothing more may be written to it.  While waiting
        for space the loop reads replies into the inbox, because the
        worker may itself be blocked writing one (module docstring).
        """
        if self._closed:
            raise self._died("handle closed")
        data = memoryview(_U32.pack(len(message)) + message)
        timeout = self.heartbeat_timeout
        deadline = time.monotonic() + timeout
        while data:
            try:
                data = data[self._sock.send(data):]
                deadline = time.monotonic() + timeout
                continue
            except BlockingIOError:
                pass
            except OSError as exc:
                raise self._died(exc) from exc
            if self._pump():
                deadline = time.monotonic() + timeout
            if not self._wait(deadline, writing=True):
                self._close_channel()
                raise ShardTimeout(
                    f"shard {self.shard_idx}: command channel full and "
                    f"the worker silent for {timeout}s (wedged?)")

    def send_batch(self, events: Sequence[DataplaneEvent]) -> None:
        self._send(b"B" + encode_frames(events))

    def advance_to(self, when: float) -> None:
        self._send(b"A" + _F64.pack(when))

    def drain(self) -> None:
        self._send(b"D")

    def ping(self, seq: int) -> None:
        self._send(b"H" + _U32.pack(seq & 0xFFFFFFFF))

    def restore(self, state: bytes) -> None:
        """Rehydrate from a checkpoint's ``ShardSnapshot.state`` bytes."""
        self._send(b"R" + state)

    def request_snapshot(self, checkpoint: bool = False) -> None:
        self._send(b"C" if checkpoint else b"S")

    # -- receives (bounded) ------------------------------------------------
    def recv_reply(self, timeout: float) -> Optional[bytes]:
        """One tagged reply, or None once ``timeout`` seconds pass with
        no whole frame from the worker (0 looks without waiting).

        Replies already parked are handed out even once the handle is
        closed (a send that timed out closes it): only an empty inbox
        on a closed handle raises.
        """
        deadline = time.monotonic() + timeout
        while True:
            if not self._inbox and not self._closed and self._pump():
                deadline = time.monotonic() + timeout
            if self._inbox:
                return self._inbox.popleft()
            if self._closed:
                raise self._died("handle closed")
            if self._eof:
                raise self._died("worker closed its end")
            if not self._wait(deadline, writing=False):
                return None

    def recv_snapshot(self, timeout: float) -> Optional[ShardSnapshot]:
        """The next snapshot or checkpoint reply (a checkpoint has
        ``state`` set), or None after ``timeout`` of silence.

        Replies come in command order, so the caller knows which of the
        two is due.  A stale heartbeat ack ahead of it is dropped — a
        snapshot is the stronger liveness proof.  Nothing else is: any
        other tag is a protocol breach and raises :class:`ShardDied`.
        """
        while True:
            reply = self.recv_reply(timeout)
            if reply is None:
                return None
            if reply[:1] == b"S":
                return pickle.loads(reply[1:])
            if reply[:1] != b"A":
                raise self._died(
                    f"unexpected reply {reply[:1]!r} while awaiting a "
                    "snapshot")

    def recv_ack(self, timeout: float) -> Optional[int]:
        """The next heartbeat ack's sequence number, or None after
        ``timeout`` of silence.

        Snapshot replies must not arrive here — the supervisor takes in
        every snapshot it requested before it waits for an ack.
        """
        reply = self.recv_reply(timeout)
        if reply is None:
            return None
        if reply[:1] == b"A":
            return _U32.unpack(reply[1:5])[0]
        raise self._died(
            f"unexpected reply {reply[:1]!r} while awaiting heartbeat ack")

    # -- teardown ----------------------------------------------------------
    def quit(self, timeout: float) -> Optional[ShardSnapshot]:
        """Quiesce: final snapshot then reap; None if the worker hung.

        The wait is bounded: after ``timeout`` with no reply the worker
        is killed and ``None`` returned, and the caller ledgers whatever
        state the final snapshot would have carried.  A worker that is
        already dead raises :class:`ShardDied` instead, so the caller
        can recover it.  Either way the process is reaped.  The caller
        takes in any checkpoint reply still due before calling this.
        """
        snapshot: Optional[ShardSnapshot] = None
        try:
            self._send(b"Q")
            snapshot = self.recv_snapshot(timeout)
        except ShardTimeout:
            pass  # wedged: reaped below, like a hung worker
        finally:
            if snapshot is not None:
                self.process.join(timeout)
            if self.process.is_alive():
                self.process.kill()
                self.process.join(timeout)
            self._close_channel()
        return snapshot

    def kill(self, sig: int = signal.SIGKILL) -> None:
        """Hard teardown (error paths, supervisor restarts)."""
        if self.process.is_alive():
            if sig == signal.SIGKILL:
                self.process.kill()
            else:
                self.process.terminate()
            self.process.join(5.0)
        self._close_channel()

    def _close_channel(self) -> None:
        if not self._closed:
            self._closed = True
            self._sock.close()
