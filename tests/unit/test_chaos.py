"""Unit tests: fault profiles and the channels that apply them."""

import warnings

import pytest

from repro.faults.profiles import (
    DUPLICATE_GAP,
    PROFILES,
    ChaosProfile,
    ControlFaultProfile,
    FaultyEventChannel,
    LinkFaultProfile,
    corrupt_packet,
)
from repro.netsim import EventScheduler, SchedulerTruncationError
from repro.packet import tcp_packet
from repro.switch.events import PacketArrival


class TestProfiles:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            LinkFaultProfile(drop=1.5)
        with pytest.raises(ValueError):
            LinkFaultProfile(jitter=-0.1)
        with pytest.raises(ValueError):
            LinkFaultProfile(reorder=0.5)  # no window
        with pytest.raises(ValueError):
            ControlFaultProfile(drop=-0.1)
        with pytest.raises(ValueError):
            ControlFaultProfile(extra_lag=float("inf"))
        with pytest.raises(ValueError):
            ChaosProfile(name="x", description="", split_lag=-1.0)

    def test_is_null(self):
        assert LinkFaultProfile().is_null
        assert not LinkFaultProfile(drop=0.1).is_null
        assert ControlFaultProfile().is_null
        assert not ControlFaultProfile(extra_lag=1e-3).is_null

    def test_named_catalog(self):
        assert set(PROFILES) == {"clean", "lossy", "overloaded",
                                 "adversarial", "worker-crash"}
        clean = PROFILES["clean"]
        assert clean.link.is_null and clean.control.is_null
        assert clean.degradation is None and clean.ledgered
        assert PROFILES["overloaded"].ledgered  # perfect tap
        assert not PROFILES["lossy"].ledgered
        assert not PROFILES["adversarial"].ledgered
        assert PROFILES["overloaded"].degradation.max_instances == 24
        crash = PROFILES["worker-crash"]
        assert crash.link.is_null and crash.control.is_null
        assert crash.ledgered  # perfect tap: all loss is monitor-side
        assert crash.worker_crash.kills_per_shard == 1


class TestControlChannel:
    def test_deterministic_streams(self):
        prof = ControlFaultProfile(drop=0.3, extra_lag=1e-3, jitter=1e-3,
                                   seed=5)
        runs = []
        for _ in range(2):
            chan = prof.channel("m")
            runs.append([chan.perturb() for _ in range(50)])
        assert runs[0] == runs[1]
        assert any(x is None for x in runs[0])
        assert any(x is not None and x > 1e-3 for x in runs[0])

    def test_drop_stream_independent_of_lag(self):
        # Which ops drop must not change when lag knobs are toggled.
        drops = []
        for extra in (0.0, 0.5):
            chan = ControlFaultProfile(drop=0.5, extra_lag=extra,
                                       seed=9).channel("m")
            drops.append([chan.perturb() is None for _ in range(100)])
        assert drops[0] == drops[1]


class TestCorruptPacket:
    def test_keeps_uid_truncates_headers(self):
        packet = tcp_packet(1, 2, "10.0.0.1", "10.0.0.2", 1000, 80)
        bad = corrupt_packet(packet)
        assert bad.uid == packet.uid
        assert len(bad.headers) == 1
        assert bad.payload == b"\xde\xad"


def _arrivals(n=40, gap=0.01):
    return [
        PacketArrival(switch_id="s", time=(i + 1) * gap,
                      packet=tcp_packet(1, 2, "10.0.0.1", "10.0.0.2",
                                        1000 + i, 80),
                      in_port=1)
        for i in range(n)
    ]


def _counters(profile, num_events=60):
    channel = FaultyEventChannel(profile, name="t")
    channel.transform(_arrivals(num_events))
    return channel.counters


class TestFaultyEventChannel:
    def test_null_profile_is_identity(self):
        events = _arrivals()
        out = FaultyEventChannel(LinkFaultProfile()).transform(events)
        assert out == events

    def test_clean_profile_delivers_everything(self):
        counters = _counters(LinkFaultProfile())
        assert counters["offered"] == counters["delivered"] == 60
        assert counters["dropped"] == 0

    def test_drop_all(self):
        counters = _counters(LinkFaultProfile(drop=1.0))
        assert counters["dropped"] == 60
        assert counters["delivered"] == 0

    def test_deterministic_for_seed(self):
        profile = LinkFaultProfile(drop=0.2, duplicate=0.1, jitter=1e-4,
                                   corrupt=0.1, seed=3)
        a = _counters(profile)
        assert a == _counters(profile)
        assert a["dropped"] > 0 and a["duplicated"] > 0

    def test_fault_streams_independent(self):
        # Enabling duplication must not change which events drop.
        base = FaultyEventChannel(LinkFaultProfile(drop=0.3, seed=3))
        both = FaultyEventChannel(LinkFaultProfile(drop=0.3, duplicate=0.5,
                                                   seed=3))
        events = _arrivals(60)
        kept = {e.packet.uid for e in base.transform(events)}
        assert kept == {e.packet.uid for e in both.transform(events)}
        assert base.counters["dropped"] == both.counters["dropped"] > 0

    def test_successive_batches_continue_the_streams(self):
        profile = LinkFaultProfile(drop=0.3, seed=5)
        events = _arrivals(40)
        whole = FaultyEventChannel(profile).transform(events)
        split = FaultyEventChannel(profile)
        assert split.transform(events[:15]) + split.transform(events[15:]) \
            == whole

    def test_deterministic(self):
        profile = LinkFaultProfile(drop=0.1, duplicate=0.1, reorder=0.3,
                                   reorder_window=0.05, jitter=0.01,
                                   corrupt=0.1, seed=7)
        events = _arrivals()
        a = FaultyEventChannel(profile, name="t").transform(events)
        b = FaultyEventChannel(profile, name="t").transform(events)
        assert a == b

    def test_times_monotonic_after_transform(self):
        profile = LinkFaultProfile(reorder=0.5, reorder_window=0.2,
                                   jitter=0.05, seed=11)
        out = FaultyEventChannel(profile).transform(_arrivals())
        times = [e.time for e in out]
        assert times == sorted(times)

    def test_duplicate_trails_by_gap(self):
        out = FaultyEventChannel(
            LinkFaultProfile(duplicate=1.0, seed=1)).transform(_arrivals(3))
        assert len(out) == 6
        assert out[1].time == pytest.approx(out[0].time + DUPLICATE_GAP)
        assert out[1].packet.uid == out[0].packet.uid

    def test_corrupt_keeps_uid(self):
        events = _arrivals(5)
        out = FaultyEventChannel(
            LinkFaultProfile(corrupt=1.0, seed=1)).transform(events)
        assert [e.packet.uid for e in out] == [e.packet.uid for e in events]
        assert all(len(e.packet.headers) == 1 for e in out)


class TestSchedulerTruncation:
    def test_exact_capacity_drain_is_clean(self):
        sched = EventScheduler()
        for i in range(5):
            sched.call_at(float(i), lambda: None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sched.run(max_events=5) == 5
        assert sched.truncations == 0

    def test_truncation_raises_and_counts(self):
        sched = EventScheduler()

        def reschedule():
            sched.call_after(0.001, reschedule)

        sched.call_at(0.0, reschedule)
        with pytest.warns(RuntimeWarning, match="truncated"):
            with pytest.raises(SchedulerTruncationError) as exc:
                sched.run(max_events=10)
        assert exc.value.fired == 10
        assert exc.value.pending == 1
        assert sched.truncations == 1
