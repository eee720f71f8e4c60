"""Shard workers, their standbys, and the byte protocol to the parent.

Each shard runs a plain :class:`Monitor` in a worker process forked
from the parent, which inherits its shard's monitor, built once with
its program compiled (:func:`~repro.fabric.shard.build_shard_monitor`);
that monitor would not pickle (predicate closures, exec'd functions).

**The checkpoint is a forked standby.**  At a cut the worker forks a
copy of itself between two commands, right after its snapshot has
handed its violations over.  The standby drops the worker's channel,
read buffer included (it may hold batches sent after the cut), keeps
one end of a fresh socketpair and blocks on it, touching nothing.  The
worker passes the other end to the parent with ``SCM_RIGHTS`` in the
cut's reply; the cut has landed once the parent holds it.  The parent
then closes the previous standby's end, and that standby exits on the
EOF.  To recover, the parent sends the standby ``P``: it forks a fresh
standby of itself first, so a death during the journal replay still
has the cut to return to, then freezes what it inherited and serves as
the worker.

**Every fabric process is the parent's child.**  The parent is its
descendants' child subreaper (``PR_SET_CHILD_SUBREAPER``, process-wide,
set at its first fork), and a standby is forked by an intermediate
process that exits at once, so it is the parent's child before the
parent learns its pid: the parent reaps by pid, and a pid it has not
reaped names no other process.  A worker killed between forking a
standby and naming it leaves a process the parent never hears of; all
of a fabric's processes share one process group, whose leader the
parent leaves unreaped so the group id stays the fabric's, and
:meth:`ProcessGroup.close` kills and reaps what is left in it.  Every
forked process closes each fabric socket it inherited but does not own
(``_PARENT_ENDS``): a copy of a standby's end in a later worker would
keep the EOF from reaching that standby.

A worker collects only what it makes: its first act is ``gc.freeze()``,
which moves everything it inherited into the collector's permanent
generation (a list splice that touches no object), so its collections
walk, and copy on write, only what it allocated itself.  The freeze is
the child's own; a freeze/unfreeze pair around the fork in the parent
would thaw what an embedding application froze on purpose.  No worker
runs a thread, so none runs at a fork.

The channel is one ``AF_UNIX`` stream socketpair per process, every
message a ``u32`` length then the tagged body; batches travel in the
binary encoding of ``netsim/serialize.py``, the bytes ``repro send
--format rpf2`` writes.  The worker's end blocks; the parent's end is
non-blocking and touched only by :meth:`MpShard._send` and
:meth:`MpShard._pump`.

Commands (parent -> worker):

* ``b"B" + encode_frames(batch)`` — observe the batch;
* ``b"A" + f64(when)``            — advance monitor time;
* ``b"D"``                        — drain all deferred ops and timers;
* ``b"H" + u32(seq)``             — heartbeat; reply ``b"A" + u32(seq)``;
* ``b"S"``                        — reply ``b"S" + pickle(snapshot)``;
* ``b"C"``                        — a cut: reply ``b"C" + u32(pid) +
                                    pickle(snapshot)``, the standby's
                                    socket attached;
* ``b"P"``                        — to a standby: reply ``b"P" +
                                    u32(pid)``, a fresh standby's socket
                                    attached, and serve from then on.

Replies come in command order, only when asked, and no command waits
for its reply: the supervisor takes a cut's in whenever it next looks
(``fabric.supervise``).  The only wait here is back-pressure for socket
space (about 200 kB a direction).  Every parent-side wait ends after
``heartbeat_timeout`` of *silence* — any whole frame from the worker,
and any bytes it takes off a send, start the count again — so a wedged
worker surfaces as :class:`ShardTimeout` and a dead one as
:class:`ShardDied`, which the supervisor turns into a restart.  A
worker may block writing a reply larger than the socket buffer, so
:meth:`MpShard._send` reads while it waits for space (a parent blocked
writing would deadlock the pair), parking whole replies in an inbox the
receives serve first.
"""

from __future__ import annotations

import gc
import os
import pickle
import select
import signal
import socket
import struct
import sys
import time
import traceback
import weakref
from collections import deque
from typing import Callable, Deque, List, Optional, Tuple

from ..core.monitor import Monitor
from ..netsim.serialize import decode_frames, encode_frames
from ..switch.events import DataplaneEvent
from .shard import ShardSnapshot, take_snapshot

_F64 = struct.Struct(">d")
_U32 = struct.Struct(">I")
_READ_CHUNK = 1 << 18
#: ``prctl`` option: orphaned descendants are re-parented to the caller
_PR_SET_CHILD_SUBREAPER = 36

#: the parent's end of every fabric channel this process holds; a
#: forked worker closes its copies of them all
_PARENT_ENDS: "weakref.WeakSet[socket.socket]" = weakref.WeakSet()


class ShardDied(RuntimeError):
    """The worker process is gone (crash, kill, or closed channel)."""


class ShardTimeout(RuntimeError):
    """The worker did not answer (or accept work) within the deadline."""


def fork_available() -> bool:
    """Whether this platform can run fabric workers at all: ``fork``,
    descriptor passing, and a child subreaper (Linux)."""
    return (hasattr(os, "fork") and hasattr(socket, "send_fds")
            and sys.platform.startswith("linux"))


def _become_subreaper() -> None:
    """Have this process adopt its orphaned descendants."""
    import ctypes  # here: only a process that forks workers needs it
    prctl = ctypes.CDLL(None, use_errno=True).prctl
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    if prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        errno = ctypes.get_errno()
        raise OSError(errno, f"prctl(PR_SET_CHILD_SUBREAPER): "
                             f"{os.strerror(errno)}")


def _child(body: Callable[[], None]) -> None:
    """Run ``body`` in a forked child and exit; never returns."""
    code = 1
    try:
        body()
        code = 0
    except Exception:
        traceback.print_exc()
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(code)


class ProcessGroup:
    """The process group all of one fabric's processes run in, led by
    its first worker, which the parent leaves unreaped until
    :meth:`close`: no pid a zombie holds is handed out again, so the id
    names this fabric's group until then."""

    def __init__(self) -> None:
        self.pgid = 0

    def join(self, pid: int) -> bool:
        """Put the just-forked ``pid`` in the group (the child does the
        same, whichever runs first); True when it leads the group."""
        leads = not self.pgid
        if leads:
            self.pgid = pid
        try:
            os.setpgid(pid, self.pgid)
        except OSError:
            pass  # the child got there first, or is already gone
        return leads

    def close(self) -> None:
        """Kill and reap every process left in the group."""
        if not self.pgid:
            return
        try:
            os.killpg(self.pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        while True:
            try:
                os.waitpid(-self.pgid, 0)
            except ChildProcessError:
                break
        self.pgid = 0


class _Worker:
    """The command loop of a worker, or of a standby once promoted."""

    def __init__(self, sock: socket.socket, monitor: Monitor,
                 shard_idx: int) -> None:
        self.monitor = monitor
        self.shard_idx = shard_idx
        self._attach(sock)

    def _attach(self, sock: socket.socket) -> None:
        self.sock = sock
        self.commands = sock.makefile("rb")

    def reply(self, body: bytes,
              standby: Optional[socket.socket] = None) -> None:
        frame = _U32.pack(len(body)) + body
        if standby is not None:
            sent = socket.send_fds(self.sock, [frame], [standby.fileno()])
            frame = frame[sent:]
        self.sock.sendall(frame)

    def command(self) -> bytes:
        """The next whole command; empty once the parent's end is gone."""
        try:
            header = self.commands.read(_U32.size)
            if len(header) == _U32.size:
                size = _U32.unpack(header)[0]
                message = self.commands.read(size)
                if len(message) == size:
                    return message
        except OSError:
            pass
        return b""

    def serve(self) -> None:
        monitor = self.monitor
        while True:
            message = self.command()
            if not message:
                return  # the parent's end is gone: nothing left to do
            tag, payload = message[:1], message[1:]
            if tag == b"B":
                monitor.observe_batch(decode_frames(payload))
            elif tag == b"A":
                monitor.advance_to(_F64.unpack(payload)[0])
            elif tag == b"D":
                monitor.drain()
            elif tag == b"H":
                self.reply(b"A" + payload)
            elif tag in (b"S", b"C"):
                snapshot = pickle.dumps(
                    take_snapshot(monitor, self.shard_idx),
                    pickle.HIGHEST_PROTOCOL)
                if tag == b"S":
                    self.reply(b"S" + snapshot)
                else:
                    self._fork_standby(b"C", snapshot)
            elif tag == b"P":
                if not self._fork_standby(b"P", b""):
                    gc.freeze()  # all the promoted standby inherited
            else:  # pragma: no cover - protocol is closed
                raise ValueError(f"unknown fabric command {tag!r}")

    def _fork_standby(self, tag: bytes, body: bytes) -> bool:
        """Fork a standby of this process as it is now, through an
        intermediate that exits at once, and reply ``tag + u32(pid) +
        body`` with its socket attached.  True in the standby, whose
        loop is then on its own socket, where ``P`` or the EOF comes."""
        ours, theirs = socket.socketpair()
        middle = os.fork()
        if middle == 0:  # returns in the standby only
            _intermediate((ours, self.commands, self.sock), theirs)
            self._attach(theirs)
            return True
        theirs.close()
        try:
            if os.waitpid(middle, 0)[1] != 0:
                raise RuntimeError("the standby's fork failed")
            pid = _U32.unpack(ours.recv(_U32.size, socket.MSG_WAITALL))[0]
            self.reply(tag + _U32.pack(pid) + body, standby=ours)
        finally:
            ours.close()
        return False


def _intermediate(drop: Tuple, theirs: socket.socket) -> None:
    """Close the worker's sockets (``drop``, so the standby never holds
    them), fork the standby, write its pid on its socket, and exit;
    returns in the standby only (the intermediate must never reach the
    worker's loop)."""
    try:
        for sock in drop:
            sock.close()
        pid = os.fork()
        if pid:
            theirs.sendall(_U32.pack(pid))
    except BaseException:
        os._exit(1)
    if pid:
        os._exit(0)


def _worker_main(sock: socket.socket, monitor: Monitor, shard_idx: int,
                 pgid: Optional[int]) -> None:
    if pgid is not None:
        os.setpgid(0, pgid)
    # the fabric channels this process inherited are other processes'
    for end in list(_PARENT_ENDS):
        end.close()
    _PARENT_ENDS.clear()
    # everything inherited goes to the permanent generation: the
    # worker's collector walks (and copies on write) only what it makes
    gc.freeze()
    _Worker(sock, monitor, shard_idx).serve()


class MpShard:
    """The parent's handle on one fabric process, a worker or a standby:
    its pid and the parent's end of its channel."""

    @classmethod
    def fork(cls, monitor: Monitor, shard_idx: int,
             heartbeat_timeout: float,
             group: Optional[ProcessGroup] = None) -> "MpShard":
        """Fork a fresh worker running a copy of ``monitor``."""
        if not fork_available():
            raise RuntimeError(
                "the fabric needs fork, descriptor passing and a child "
                "subreaper, which this platform lacks; there is no "
                "fallback mode")
        _become_subreaper()
        ours, theirs = socket.socketpair()
        pgid = None if group is None else group.pgid
        pid = os.fork()
        if pid == 0:
            ours.close()
            _child(lambda: _worker_main(theirs, monitor, shard_idx, pgid))
        theirs.close()
        leads = group is not None and group.join(pid)
        return cls(ours, pid, shard_idx, heartbeat_timeout, leads)

    def __init__(self, sock: socket.socket, pid: int, shard_idx: int,
                 heartbeat_timeout: float, leads: bool = False) -> None:
        sock.setblocking(False)
        _PARENT_ENDS.add(sock)
        self._sock = sock
        self.pid = pid
        self.shard_idx = shard_idx
        #: seconds of silence that end a send (the receives take theirs)
        self.heartbeat_timeout = heartbeat_timeout
        #: leads its fabric's process group (:class:`ProcessGroup`)
        self._leads = leads
        self._reaped = False
        self._closed = False
        self._eof = False
        #: bytes read off the socket that do not yet make a whole reply
        self._partial = bytearray()
        #: standbys' sockets received and not yet matched to their reply
        self._ends: Deque[socket.socket] = deque()
        #: whole replies read (by a send that was waiting for socket
        #: space, or by a look that found more than one) and not yet
        #: handed out, each with the standby attached to it, if any;
        #: the receives serve these first
        self._inbox: Deque[Tuple[bytes, Optional[MpShard]]] = deque()

    # -- liveness ----------------------------------------------------------
    def is_alive(self) -> bool:
        if self._closed or self._reaped:
            return False
        try:
            return os.waitid(os.P_PID, self.pid, os.WEXITED | os.WNOHANG
                             | os.WNOWAIT) is None
        except ChildProcessError:
            return False

    # -- the channel (non-blocking, deadline-bounded) ----------------------
    def _died(self, why: object) -> ShardDied:
        return ShardDied(f"shard {self.shard_idx}: {why}")

    def _pump(self) -> bool:
        """Read what the socket holds now and park every whole reply,
        a standby's descriptor as its handle.  True when any whole frame
        came in."""
        partial = self._partial
        while not self._eof:
            try:
                chunk, fds, _, _ = socket.recv_fds(
                    self._sock, _READ_CHUNK, 1)
            except BlockingIOError:
                break
            except OSError as exc:
                raise self._died(exc) from exc
            for fd in fds:  # a forked worker must close these too
                end = socket.socket(fileno=fd)
                _PARENT_ENDS.add(end)
                self._ends.append(end)
            if not chunk:
                self._eof = True
            partial += chunk
        start = 0
        while len(partial) - start >= _U32.size:
            end = start + _U32.size + _U32.unpack_from(partial, start)[0]
            if end > len(partial):
                break
            body = bytes(partial[start + _U32.size:end])
            start = end
            standby = None
            if body[:1] in (b"C", b"P"):
                if not self._ends:
                    raise self._died("a standby's reply without its socket")
                standby = MpShard(
                    self._ends.popleft(), _U32.unpack_from(body, 1)[0],
                    self.shard_idx, self.heartbeat_timeout)
                body = body[:1] + body[1 + _U32.size:]
            self._inbox.append((body, standby))
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
                self.close()
                raise ShardTimeout(
                    f"shard {self.shard_idx}: command channel full and "
                    f"the worker silent for {timeout}s (wedged?)")

    def send_batch(self, events: List[DataplaneEvent]) -> None:
        self._send(b"B" + encode_frames(events))

    def advance_to(self, when: float) -> None:
        self._send(b"A" + _F64.pack(when))

    def drain(self) -> None:
        self._send(b"D")

    def ping(self, seq: int) -> None:
        self._send(b"H" + _U32.pack(seq & 0xFFFFFFFF))

    def request_snapshot(self, cut: bool = False) -> None:
        """Ask for a snapshot; with ``cut``, for a standby as well."""
        self._send(b"C" if cut else b"S")

    def promote(self, timeout: float) -> "MpShard":
        """Make this standby the worker; returns the standby it forks of
        itself first."""
        self._send(b"P")
        reply = self._recv(b"P", timeout)
        if reply is None:
            raise ShardTimeout(f"shard {self.shard_idx}: the standby did "
                               f"not answer its promotion in {timeout}s")
        return reply[1]

    # -- receives (bounded) ------------------------------------------------
    def _recv_reply(self, timeout: float
                    ) -> Optional[Tuple[bytes, Optional["MpShard"]]]:
        """One reply and its standby, or None once ``timeout`` seconds
        pass with no whole frame from the worker (0 only looks).  Parked
        replies are handed out even once the handle is closed (a send
        that timed out closes it); then only an empty inbox raises."""
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

    def _recv(self, tag: bytes, timeout: float
              ) -> Optional[Tuple[bytes, Optional["MpShard"]]]:
        """The next reply, which must be a ``tag`` one, or None after
        ``timeout`` of silence.

        Replies come in command order, so the caller knows which is
        due.  A stale heartbeat ack ahead of a snapshot, a cut or a
        promotion is dropped — those are the stronger liveness proof.
        Anything else is a protocol breach and raises :class:`ShardDied`
        (the supervisor takes in every snapshot and cut it requested
        before it waits for an ack).
        """
        while True:
            reply = self._recv_reply(timeout)
            if reply is None or reply[0][:1] == tag:
                return reply
            if reply[1] is not None:
                reply[1].kill()
            if tag == b"A" or reply[0][:1] != b"A":
                raise self._died(f"unexpected reply {reply[0][:1]!r} "
                                 f"while awaiting {tag!r}")

    def recv_snapshot(self, timeout: float) -> Optional[ShardSnapshot]:
        """The next (plain) snapshot reply, or None after ``timeout`` of
        silence."""
        reply = self._recv(b"S", timeout)
        return None if reply is None else pickle.loads(reply[0][1:])

    def recv_cut(self, timeout: float
                 ) -> Optional[Tuple[ShardSnapshot, "MpShard"]]:
        """The next cut's snapshot and the standby forked at it, or None
        after ``timeout`` of silence."""
        reply = self._recv(b"C", timeout)
        if reply is None:
            return None
        body, standby = reply
        assert standby is not None
        return pickle.loads(body[1:]), standby

    def recv_ack(self, timeout: float) -> Optional[int]:
        """The next heartbeat ack's sequence number, or None after
        ``timeout`` of silence."""
        reply = self._recv(b"A", timeout)
        return None if reply is None else _U32.unpack(reply[0][1:5])[0]

    # -- teardown ----------------------------------------------------------
    def quit(self, timeout: float) -> Optional[ShardSnapshot]:
        """A final snapshot, then kill and reap; None if the worker hung
        (no reply within ``timeout``), and the caller ledgers what the
        snapshot would have carried.  A dead worker raises
        :class:`ShardDied`, so the caller can recover it.  The caller
        takes in any cut still due first."""
        snapshot: Optional[ShardSnapshot] = None
        try:
            self._send(b"S")
            snapshot = self.recv_snapshot(timeout)
        except ShardTimeout:
            pass  # wedged: killed below, like a hung worker
        finally:
            self.kill()
        return snapshot

    def reaped(self) -> bool:
        """Reap the process if it has exited; True once it is reaped."""
        if not self._reaped:
            try:
                self._reaped = os.waitid(
                    os.P_PID, self.pid, os.WEXITED | os.WNOHANG) is not None
            except ChildProcessError:
                self._reaped = True
        return self._reaped

    def kill(self) -> None:
        """SIGKILL the process and reap it (the leader of a process
        group is only waited for), then close the channel and kill every
        standby the process handed over that nobody took in."""
        if not self._reaped:
            try:
                os.kill(self.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            try:
                os.waitid(os.P_PID, self.pid,
                          os.WEXITED | (os.WNOWAIT if self._leads else 0))
            except ChildProcessError:
                pass
            self._reaped = not self._leads
        if not self._closed:
            try:
                self._pump()  # all it ever wrote is in the socket now
            except ShardDied:
                pass
        for _, standby in self._inbox:
            if standby is not None:
                standby.kill()
        self._inbox.clear()
        for end in self._ends:
            end.close()
        self._ends.clear()
        self.close()

    def close(self) -> None:
        """Close the channel (a standby exits on the EOF)."""
        if not self._closed:
            self._closed = True
            self._sock.close()
