"""Unit tests: bounded monitor state, backpressure, the overflow ledger."""

import tracemalloc

import pytest

from repro.core import (
    Absent,
    Bind,
    Const,
    DegradationPolicy,
    EventKind,
    EventPattern,
    FieldEq,
    IMPACT_FALSE,
    IMPACT_MISSED,
    Monitor,
    Observe,
    OverflowLedger,
    PropertySpec,
    Var,
)
from repro.core.degradation import UNATTRIBUTED
from repro.packet import MACAddress, ethernet
from repro.serve import IngestQueue
from repro.switch.events import OobKind, OutOfBandEvent, PacketArrival
from repro.switch.switch import ProcessingMode


def arr(packet, t, port=1):
    return PacketArrival(switch_id="s", time=t, packet=packet, in_port=port)


def two_stage(name="p"):
    """frame from S, then frame to S."""
    return PropertySpec(
        name=name,
        description="test property",
        stages=(
            Observe("seen", EventPattern(kind=EventKind.ARRIVAL,
                                         binds=(Bind("S", "eth.src"),))),
            Observe("answered", EventPattern(
                kind=EventKind.ARRIVAL,
                guards=(FieldEq("eth.dst", Var("S")),))),
        ),
        key_vars=("S",),
    )


def degraded_monitor(policy, mode=ProcessingMode.INLINE, **kw):
    monitor = Monitor(mode=mode, degradation=policy, **kw)
    monitor.add_property(two_stage())
    return monitor


class TestPolicyValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            DegradationPolicy(max_instances=0)
        with pytest.raises(ValueError):
            DegradationPolicy(eviction="drop-table")
        with pytest.raises(ValueError):
            DegradationPolicy(max_pending_ops=0)
        with pytest.raises(ValueError):
            DegradationPolicy(retry_backoff=-1.0)
        with pytest.raises(ValueError):
            DegradationPolicy(max_retries=-1)


class DropAfter:
    """Control channel that applies the first ``n`` ops on time and
    drops every later one."""

    def __init__(self, n):
        self.n = n

    def perturb(self):
        self.n -= 1
        return 0.0 if self.n >= 0 else None


class TestClassifyOp:
    """A lost op's primary impact, as a monitor's ledger records it."""

    @staticmethod
    def drop_kill_and_create():
        """Split-mode monitor whose control channel applies one create,
        then drops a kill (S=1) and a create (S=2)."""
        monitor = Monitor(mode=ProcessingMode.SPLIT, split_lag=1.0,
                          op_faults=DropAfter(1))
        monitor.add_property(PropertySpec(
            name="p",
            description="frame from S, then no frame to S for 5s",
            stages=(
                Observe("seen", EventPattern(
                    kind=EventKind.ARRIVAL, binds=(Bind("S", "eth.src"),))),
                Absent("unanswered", EventPattern(
                    kind=EventKind.ARRIVAL,
                    guards=(FieldEq("eth.dst", Var("S")),)), within=5.0),
            ),
            key_vars=("S",),
        ))
        monitor.observe(arr(ethernet(1, 9), 0.0))   # create S=1: applied
        monitor.observe(arr(ethernet(2, 1), 2.0))   # kill S=1, create S=2
        monitor.advance_to(20.0)
        return monitor

    def test_primary_direction(self):
        """A lost kill usually lets a discharged obligation complete
        (false positive); a lost create usually hides a violation."""
        monitor = self.drop_kill_and_create()
        assert monitor.ledger.by_kind() == {"op-dropped": 2}
        assert monitor.ledger.by_primary() == {
            IMPACT_FALSE: 1, IMPACT_MISSED: 1}

    def test_both_sides_always_present(self):
        """Each shed bounds both sides, whatever its primary direction."""
        monitor = self.drop_kill_and_create()
        assert monitor.ledger.interval(len(monitor.violations)) == (0, 3)
        assert monitor.ledger.summary()["per_property"]["p"] == {
            "potential_missed": 2, "potential_false": 2}


class TestLedger:
    def test_interval_clamps_at_zero(self):
        ledger = OverflowLedger()
        ledger.record("op-dropped", "p", IMPACT_FALSE)
        ledger.record("op-dropped", "p", IMPACT_MISSED)
        assert ledger.interval(0) == (0, 2)
        assert ledger.interval(5) == (3, 7)
        assert len(ledger) == ledger.count() == 2

    def test_per_property_filtering(self):
        ledger = OverflowLedger()
        ledger.record("instance-evicted", "a", IMPACT_MISSED)
        ledger.record("op-shed", "b", IMPACT_MISSED, count=3)
        assert ledger.count("a") == 1
        assert ledger.count("b") == 3
        assert ledger.interval(4, "b") == (1, 7)
        assert ledger.count() == 4
        assert ledger.properties() == ("a", "b")
        summary = ledger.summary()
        assert summary["records"] == 4
        assert summary["by_kind"] == {"instance-evicted": 1, "op-shed": 3}
        assert summary["per_property"]["b"] == {
            "potential_missed": 3, "potential_false": 3}

    @pytest.mark.parametrize("row", UNATTRIBUTED)
    def test_a_row_of_no_property_widens_every_interval(self, row):
        """A lost event can hide a violation of any property: a fabric or
        ingest row counts toward each property's interval, and is not
        listed as a property itself."""
        ledger = OverflowLedger()
        ledger.record("instance-evicted", "a", IMPACT_MISSED)
        ledger.record("crash-gap", row, IMPACT_MISSED, count=2)
        assert ledger.count("a") == 3
        assert ledger.count("b") == 2
        assert ledger.interval(4, "a") == (1, 7)
        assert ledger.interval(4, "b") == (2, 6)
        assert ledger.count() == 3
        assert ledger.properties() == ("a",)


class TestLedgerMemory:
    """The ledger counts sheds; it keeps no record of each one, so a
    sender that mints sheds cannot grow it."""

    N = 1000

    @staticmethod
    def growth(shed, n):
        """Bytes still allocated after sheds n..5n that were not after
        sheds n..2n (sheds 0..n create the ledger's rows)."""
        shed(0, n)
        tracemalloc.start()
        try:
            shed(n, 2 * n)
            low = tracemalloc.get_traced_memory()[0]
            shed(2 * n, 5 * n)
            return tracemalloc.get_traced_memory()[0] - low
        finally:
            tracemalloc.stop()

    def test_ingest_sheds_retain_nothing(self):
        queue = IngestQueue(max_depth=1)
        event = OutOfBandEvent(switch_id="s", time=0.0,
                               oob_kind=OobKind.PORT_UP, port=1)

        def shed(start, stop):
            for _ in range(start, stop):
                queue.offer(event)

        assert self.growth(shed, self.N) < 1024
        assert len(queue.ledger) == 5 * self.N - 1

    def test_rejected_creations_retain_nothing(self):
        monitor = degraded_monitor(
            DegradationPolicy(max_instances=1, eviction="reject-new"))

        def shed(start, stop):
            for i in range(start, stop):
                monitor.observe(arr(ethernet(i + 1, 1 << 40), 1e-3 * i))

        assert self.growth(shed, self.N) < 1024
        assert monitor.ledger.by_kind() == {
            "instance-rejected": 5 * self.N - 1}


class TestBoundedStores:
    def _fill(self, policy, n=4):
        monitor = degraded_monitor(policy)
        for i in range(n):
            monitor.observe(arr(ethernet(i + 1, 100 + i), 0.1 * (i + 1)))
        return monitor

    def test_reject_new(self):
        monitor = self._fill(
            DegradationPolicy(max_instances=2, eviction="reject-new"))
        assert monitor.live_instances() == 2
        assert monitor.stats.instances_created == 2
        assert monitor.stats.instances_rejected == 2
        assert monitor.ledger.by_kind() == {"instance-rejected": 2}

    def test_evict_oldest(self):
        monitor = self._fill(
            DegradationPolicy(max_instances=2, eviction="evict-oldest"))
        assert monitor.live_instances() == 2
        assert monitor.stats.instances_created == 4
        assert monitor.stats.instances_evicted == 2
        # The two oldest (keys 1 and 2) were shed; key 3 and 4 survive.
        store = monitor._stores["p"]
        assert store.by_key((MACAddress(1),)) is None or not store.by_key((MACAddress(1),)).alive
        assert store.by_key((MACAddress(4),)).alive

    def test_evict_lru_prefers_stale_instance(self):
        monitor = degraded_monitor(
            DegradationPolicy(max_instances=2, eviction="evict-lru"))
        monitor.observe(arr(ethernet(1, 100), 0.1))
        monitor.observe(arr(ethernet(2, 100), 0.2))
        # Refresh key 1 (stage-0 re-match touches advanced_at)...
        monitor.observe(arr(ethernet(1, 100), 0.3))
        # ...so the LRU victim for the next create is key 2.
        monitor.observe(arr(ethernet(3, 100), 0.4))
        store = monitor._stores["p"]
        assert store.by_key((MACAddress(1),)).alive
        assert store.by_key((MACAddress(3),)).alive
        assert store.by_key((MACAddress(2),)) is None or not store.by_key((MACAddress(2),)).alive

    def test_eviction_keeps_accounting_identity(self):
        monitor = self._fill(
            DegradationPolicy(max_instances=2, eviction="evict-oldest"), n=6)
        stats = monitor.stats
        retired = (stats.violations + stats.instances_expired
                   + stats.instances_discharged + stats.instances_cancelled
                   + stats.instances_evicted)
        assert stats.instances_created == monitor.live_instances() + retired


class TestBackpressure:
    def test_queue_bound_retries_then_sheds(self):
        policy = DegradationPolicy(max_pending_ops=2, retry_backoff=1.0,
                                   max_retries=1)
        monitor = Monitor(mode=ProcessingMode.SPLIT, split_lag=0.5,
                          degradation=policy)
        monitor.add_property(two_stage())
        # Four creations in one lag window: 2 queue, 1 retries, then the
        # queue is still full at t+backoff... with backoff 1.0 > lag 0.5
        # the retry lands after the queue drains, so nothing sheds yet.
        for i in range(4):
            monitor.observe(arr(ethernet(i + 1, 100 + i), 0.01 * (i + 1)))
        assert monitor.pending_op_count() == 4  # 2 queued + 2 retrying
        assert monitor.stats.op_retries == 2
        monitor.advance_to(10.0)
        assert monitor.pending_op_count() == 0
        assert monitor.stats.instances_created == 4
        assert monitor.stats.ops_shed == 0

    def test_exhausted_retries_shed(self):
        policy = DegradationPolicy(max_pending_ops=1, retry_backoff=1e-4,
                                   max_retries=1)
        monitor = Monitor(mode=ProcessingMode.SPLIT, split_lag=1.0,
                          degradation=policy)
        monitor.add_property(two_stage())
        for i in range(3):
            monitor.observe(arr(ethernet(i + 1, 100 + i), 0.01))
        monitor.advance_to(20.0)
        # Queue held 1; the other two retried once (backoff far shorter
        # than the 1s lag, so the queue was still full) and were shed.
        assert monitor.stats.ops_shed == 2
        assert monitor.stats.op_retries == 2
        assert monitor.stats.instances_created == 1
        assert monitor.ledger.by_kind()["op-shed"] == 2
        assert monitor.pending_op_count() == 0

    def test_shed_ops_enter_ledger_with_primary(self):
        policy = DegradationPolicy(max_pending_ops=1, retry_backoff=1e-4,
                                   max_retries=0)
        monitor = Monitor(mode=ProcessingMode.SPLIT, split_lag=1.0,
                          degradation=policy)
        monitor.add_property(two_stage())
        for i in range(3):
            monitor.observe(arr(ethernet(i + 1, 100 + i), 0.01))
        monitor.advance_to(20.0)
        assert monitor.ledger.by_kind() == {"op-shed": 2}
        assert monitor.ledger.by_primary() == {IMPACT_MISSED: 2}  # creates


def gated_two_stage(within):
    """frame from S on port 1, then — within ``within`` — a frame to S.

    Only port-1 arrivals create, so a port-2 reply plans one advance and
    nothing else."""
    return PropertySpec(
        name="p",
        description="test property",
        stages=(
            Observe("seen", EventPattern(
                kind=EventKind.ARRIVAL,
                guards=(FieldEq("in_port", Const(1)),),
                binds=(Bind("S", "eth.src"),))),
            Observe("answered", EventPattern(
                kind=EventKind.ARRIVAL,
                guards=(FieldEq("eth.dst", Var("S")),)), within=within),
        ),
        key_vars=("S",),
    )


class TestAgendaOrder:
    """Retries, deferred ops and timers are one time-ordered agenda."""

    def split_monitor(self, within):
        policy = DegradationPolicy(max_pending_ops=1, retry_backoff=1.0,
                                   max_retries=5)
        monitor = Monitor(mode=ProcessingMode.SPLIT, split_lag=1.0,
                          degradation=policy)
        monitor.add_property(gated_two_stage(within))
        return monitor

    def test_same_instant_retry_then_op_then_timer(self):
        monitor = self.split_monitor(within=3.0)
        # S=1 is created at 1.0 (the lag) and expires at 0.0 + 3.0.
        monitor.observe(arr(ethernet(1, 9), 0.0))
        # Both due at 3.0 too: the advance of S=1 takes the queue's one
        # slot (2.0 + lag); the create of S=3 backs off (2.0 + backoff).
        monitor.observe(arr(ethernet(2, 1), 2.0, port=2))
        monitor.observe(arr(ethernet(3, 9), 2.0))
        assert monitor.live_instances() == 1
        assert monitor.pending_op_count() == 2
        assert monitor.stats.op_retries == 1
        monitor.advance_to(3.0)
        # The retry came first: the advance still held the slot, so the
        # create backed off again — now past its ideal time, hence the ink.
        assert monitor.stats.op_retries == 2
        assert monitor.ledger.by_kind() == {"op-retried": 1}
        assert monitor.pending_op_count() == 1
        # The op came before the timer: the advance found S=1 alive at
        # its own deadline and completed it; the expiry found it gone.
        assert len(monitor.violations) == 1
        assert monitor.stats.instances_expired == 0

    def test_drain_flushes_ops_and_retries_not_later_timers(self):
        monitor = self.split_monitor(within=100.0)
        monitor.observe(arr(ethernet(1, 9), 0.0))   # queued for 1.0
        monitor.observe(arr(ethernet(2, 9), 0.0))   # backs off to 1.0
        assert monitor.pending_op_count() == 2
        assert monitor.drain() == 0
        assert monitor.pending_op_count() == 0
        # The second create got in on its second retry (1.0, then 3.0);
        # nothing ran the clock on to the expiries at 100.0.
        assert monitor.now == 3.0
        assert monitor.stats.instances_created == 2
        assert monitor.live_instances() == 2
        monitor.advance_to(100.0)
        assert monitor.stats.instances_expired == 2
