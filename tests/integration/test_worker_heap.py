"""A fabric worker collects only what it makes.

A forked worker moves the heap it inherited into the collector's
permanent generation (``gc.freeze()``) before it reads a command, and
pauses its collector around its two bulk builds: the restore (``R``)
and the checkpoint export (``C``).  The worker reports what it sees
through its inherited monitor: an instance-level ``observe_batch``
appends the freeze count and the collector's state to ``violations``,
which the next snapshot carries back, and instance-level
``export_state`` / ``restore_state`` note whether the collector ran
while they did.  Nothing here is timed.
"""

import gc

import pytest

from repro.core.monitor import Monitor
from repro.fabric import MpShard, fork_available
from repro.fabric.mp import _collector_paused
from repro.packet import tcp_packet
from repro.switch.events import PacketArrival
from tests.forks import assert_reaped

pytestmark = pytest.mark.skipif(not fork_available(),
                                reason="fabric workers need fork")

TIMEOUT = 10.0
#: extra tracked containers the test process holds across the fork
HELD = 50_000

EVENT = PacketArrival(switch_id="s1", time=0.1,
                      packet=tcp_packet(1, 2, "10.0.0.1", "10.0.0.2",
                                        1234, 80),
                      in_port=1)


def reporting_monitor():
    """A monitor whose batches report the worker's collector instead of
    matching: one ``(freeze count, collector on, notes)`` row a batch,
    the notes saying whether it was on inside each export and restore."""
    monitor = Monitor()
    notes = []

    def observe_batch(events):
        monitor.violations.append(
            (gc.get_freeze_count(), gc.isenabled(), tuple(notes)))

    def export_state():
        notes.append(("export", gc.isenabled()))
        return Monitor.export_state(monitor)

    def restore_state(state):
        notes.append(("restore", gc.isenabled()))
        Monitor.restore_state(monitor, state)

    monitor.observe_batch = observe_batch
    monitor.export_state = export_state
    monitor.restore_state = restore_state
    return monitor


def report(shard):
    """The worker's row for one batch."""
    shard.send_batch([EVENT])
    shard.request_snapshot()
    snapshot = shard.recv_snapshot(TIMEOUT)
    assert snapshot is not None
    (row,) = snapshot.violations
    return row


@pytest.fixture
def shard():
    shard = MpShard(reporting_monitor(), 0, heartbeat_timeout=TIMEOUT)
    pid = shard.pid
    try:
        yield shard
    finally:
        assert shard.quit(TIMEOUT) is not None
        assert_reaped({pid})


class TestFrozenInheritance:
    def test_the_worker_freezes_what_it_inherited(self):
        held = [[] for _ in range(HELD)]
        gc.collect()        # what the parent tracks is then all live
        tracked = len(gc.get_objects())
        shard = MpShard(reporting_monitor(), 0, heartbeat_timeout=TIMEOUT)
        pid = shard.pid
        try:
            frozen, collecting, _ = report(shard)
        finally:
            shard.quit(TIMEOUT)
        assert_reaped({pid})
        # everything the parent tracked at the fork, the held lists
        # among it, less what the child freed before its first command
        assert frozen >= 0.9 * tracked > len(held), (frozen, tracked)
        assert collecting
        assert gc.get_freeze_count() == 0   # the parent froze nothing

    def test_the_collector_is_paused_around_export_and_restore_only(
            self, shard):
        assert report(shard)[1:] == (True, ())
        shard.request_snapshot(checkpoint=True)
        cut = shard.recv_snapshot(TIMEOUT)
        assert cut is not None and cut.state is not None
        assert report(shard)[1:] == (True, (("export", False),))
        shard.restore(cut.state)
        assert report(shard)[1:] == (
            True, (("export", False), ("restore", False)))


class TestCollectorPaused:
    @pytest.fixture(autouse=True)
    def collector_restored(self):
        was_on = gc.isenabled()
        yield
        if was_on:
            gc.enable()
        else:
            gc.disable()

    def test_an_exception_inside_turns_the_collector_back_on(self):
        gc.enable()
        with pytest.raises(RuntimeError):
            with _collector_paused():
                assert not gc.isenabled()
                raise RuntimeError("inside")
        assert gc.isenabled()

    def test_a_collector_that_was_off_stays_off(self):
        gc.disable()
        with _collector_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
        with pytest.raises(RuntimeError):
            with _collector_paused():
                raise RuntimeError("inside")
        assert not gc.isenabled()
