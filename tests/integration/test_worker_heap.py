"""A fabric worker collects only what it makes.

A forked worker moves the heap it inherited into the collector's
permanent generation (``gc.freeze()``) before it reads a command, and a
promoted standby freezes all it inherited, its worker's own heap
included, before it serves.  The worker reports what it sees through
its inherited monitor: an instance-level ``observe_batch`` appends the
freeze count and the collector's state to ``violations``, which the
next snapshot carries back.  Nothing here is timed.
"""

import gc

import pytest

from repro.core.monitor import Monitor
from repro.fabric import MpShard, fork_available
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


def reporting_monitor(make=0):
    """A monitor whose batches report the worker's collector instead of
    matching: one ``(freeze count, collector on)`` row a batch.  Each
    batch also keeps ``make`` new tracked containers alive."""
    monitor = Monitor()
    kept = []

    def observe_batch(events):
        kept.extend([] for _ in range(make))
        monitor.violations.append((gc.get_freeze_count(), gc.isenabled()))

    monitor.observe_batch = observe_batch
    return monitor


def report(shard):
    """The worker's row for one batch."""
    shard.send_batch([EVENT])
    shard.request_snapshot()
    snapshot = shard.recv_snapshot(TIMEOUT)
    assert snapshot is not None
    (row,) = snapshot.violations
    return row


class TestFrozenInheritance:
    def test_the_worker_freezes_what_it_inherited(self):
        held = [[] for _ in range(HELD)]
        gc.collect()        # what the parent tracks is then all live
        tracked = len(gc.get_objects())
        shard = MpShard.fork(reporting_monitor(), 0,
                             heartbeat_timeout=TIMEOUT)
        pid = shard.pid
        try:
            frozen, collecting = report(shard)
        finally:
            shard.quit(TIMEOUT)
        assert_reaped({pid})
        # everything the parent tracked at the fork, the held lists
        # among it, less what the child freed before its first command
        assert frozen >= 0.9 * tracked > len(held), (frozen, tracked)
        assert collecting
        assert gc.get_freeze_count() == 0   # the parent froze nothing

    def test_a_promoted_standby_freezes_too(self):
        worker = MpShard.fork(reporting_monitor(make=HELD), 0,
                              heartbeat_timeout=TIMEOUT)
        forked = [worker]
        try:
            frozen_at_start, _ = report(worker)
            worker.request_snapshot(cut=True)
            cut = worker.recv_cut(TIMEOUT)
            assert cut is not None
            _, standby = cut
            forked.append(standby)
            worker.kill()
            forked.append(standby.promote(TIMEOUT))
            frozen, collecting = report(standby)
        finally:
            for shard in forked:
                shard.kill()
        assert_reaped({shard.pid for shard in forked})
        # the worker's own containers, made after its freeze, are frozen
        # in the standby that took over
        assert frozen >= frozen_at_start + HELD, (frozen, frozen_at_start)
        assert collecting
