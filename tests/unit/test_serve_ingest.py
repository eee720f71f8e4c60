"""IngestQueue backpressure, frame parsing, config bounds, and the serve
report.

The queue is the daemon's honesty mechanism: every shed must be
ledgered with both impact kinds, readiness must flap conservatively
(hysteresis), and dwell time must land in the latency histogram.  These
tests drive it with a fake clock — no sockets, no event loop.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.degradation import IMPACT_MISSED, OverflowLedger
from repro.serve import FrameError, IngestQueue, ServeConfig, parse_frame
from repro.serve.ingest import decode_batch, stream_reader
from repro.serve.daemon import parse_ingest_spec
from repro.serve.report import ServeDegradationReport, render_serve_report
from repro.switch.events import OutOfBandEvent, OobKind
from repro.telemetry import MetricsRegistry
from repro.telemetry.metrics import Histogram


def oob(time=0.0):
    return OutOfBandEvent(switch_id="s1", time=time,
                          oob_kind=OobKind.PORT_UP, port=1)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestOfferAndShed:
    def test_accepts_until_full_then_sheds(self):
        q = IngestQueue(max_depth=3)
        assert [q.offer(oob()) for _ in range(5)] \
            == [True, True, True, False, False]
        assert q.accepted == 3
        assert q.shed == 2
        assert q.depth == 3

    def test_sheds_are_ledgered_with_both_impacts(self):
        ledger = OverflowLedger()
        q = IngestQueue(max_depth=1, ledger=ledger)
        q.offer(oob())
        q.offer(oob())
        assert ledger.counts == {("ingest-shed", "(ingest)", IMPACT_MISSED): 1}
        assert ledger.interval(3) == (2, 4)

    def test_shed_widens_uncertainty_interval_both_ways(self):
        ledger = OverflowLedger()
        q = IngestQueue(max_depth=1, ledger=ledger)
        q.offer(oob())
        q.offer(oob())
        assert ledger.interval(observed=3) == (2, 4)

    def test_take_batch_drains_oldest_first(self):
        q = IngestQueue(max_depth=10)
        events = [oob(time=float(i)) for i in range(5)]
        for e in events:
            q.offer(e)
        assert q.take_batch(3) == events[:3]
        assert q.take_batch(10) == events[3:]
        assert q.take_batch(10) == []

    def test_rejects_degenerate_configuration(self):
        with pytest.raises(ValueError):
            IngestQueue(max_depth=0)
        with pytest.raises(ValueError):
            IngestQueue(max_depth=10, low_mark=0.9, high_mark=0.5)


class TestReadiness:
    def test_ready_until_high_mark(self):
        q = IngestQueue(max_depth=10, high_mark=0.8, low_mark=0.3)
        for _ in range(7):
            q.offer(oob())
        assert q.ready()
        q.offer(oob())  # depth 8 >= 0.8 * 10
        assert not q.ready()
        assert q.unready_reasons()

    def test_hysteresis_requires_draining_to_low_mark(self):
        q = IngestQueue(max_depth=10, high_mark=0.8, low_mark=0.3)
        for _ in range(8):
            q.offer(oob())
        q.take_batch(4)  # depth 4, still above low mark of 3
        assert not q.ready()
        q.take_batch(2)  # depth 2
        assert q.ready()

    def test_shed_holds_unready_for_the_window(self):
        clock = FakeClock()
        q = IngestQueue(max_depth=1, clock=clock, shed_window=1.0)
        q.offer(oob())
        q.offer(oob())  # shed at t=0
        q.take_batch(5)
        clock.now = 0.5
        assert not q.ready()  # drained, but shed too recent
        assert any("shed" in r for r in q.unready_reasons())
        clock.now = 1.5
        assert q.ready()
        assert q.unready_reasons() == []

    def test_stats_digest_is_jsonable(self):
        q = IngestQueue(max_depth=2)
        q.offer(oob())
        digest = json.loads(json.dumps(q.stats()))
        assert digest["depth"] == 1
        assert digest["accepted"] == 1
        assert digest["shed"] == 0
        assert digest["ready"] is True


class TestInstrumentation:
    def test_latency_histogram_measures_dwell_time(self):
        clock = FakeClock()
        registry = MetricsRegistry()
        q = IngestQueue(max_depth=10, clock=clock, registry=registry)
        q.offer(oob())
        clock.now = 0.002
        q.take_batch(1)
        hist = registry.histogram("repro_serve_ingest_latency_seconds")
        assert hist.count == 1
        assert hist.sum == pytest.approx(0.002)

    def test_counters_and_depth_gauge_track_traffic(self):
        registry = MetricsRegistry()
        q = IngestQueue(max_depth=2, registry=registry)
        for _ in range(3):
            q.offer(oob())
        assert registry.counter("repro_serve_events_ingested_total").value == 2
        assert registry.counter("repro_serve_events_shed_total").value == 1
        gauge = registry.gauge("repro_serve_queue_depth")
        assert gauge.value == 2
        assert gauge.high_watermark == 2


class TestBatchOffer:
    """``offer_batch`` is ``offer`` event by event, whole: the counts,
    the ledger, the readiness latch and both histograms' count, sum,
    min and max come out the same however the events are chunked."""

    MAX_DEPTH = 10

    @classmethod
    def run(cls, script, chunked):
        """Drive a queue through ``script`` — ``("offer", n)`` offers
        ``n`` fresh events, ``("take", n)`` takes a batch — with the
        clock a quarter second further on at every step, so each dwell
        is exact in binary and equal both ways."""
        clock, registry, ledger = FakeClock(), MetricsRegistry(), \
            OverflowLedger()
        q = IngestQueue(cls.MAX_DEPTH, ledger=ledger, clock=clock,
                        registry=registry, high_mark=0.8, low_mark=0.3,
                        shed_window=0.6)
        seen, made = [], 0
        for op, n in script:
            clock.now += 0.25
            if op == "offer":
                events = [oob(time=float(made + i)) for i in range(n)]
                made += n
                if chunked:
                    accepted = q.offer_batch(events)
                else:
                    accepted = sum(q.offer(event) for event in events)
                seen.append(("offered", accepted))
            else:
                seen.append(("took", [e.time for e in q.take_batch(n)]))
            seen.append((q.depth, q.ready(), q.accepted, q.shed,
                         q.last_shed_at, dict(ledger.counts)))
        gauge = registry.gauge("repro_serve_queue_depth")
        seen.append((gauge.value, gauge.high_watermark,
                     registry.counter("repro_serve_events_ingested_total")
                     .value,
                     registry.counter("repro_serve_events_shed_total").value))
        for name in ("repro_serve_queue_depth_at_enqueue",
                     "repro_serve_ingest_latency_seconds"):
            hist = registry.histogram(name)
            seen.append((name, hist.count, hist.sum, hist.min, hist.max))
        return seen

    def test_a_chunk_shed_in_part_and_a_take_that_splits_a_chunk(self):
        script = [("offer", 4), ("offer", 5), ("take", 3), ("offer", 6),
                  ("take", 7), ("offer", 1), ("take", 100), ("take", 1),
                  ("take", 1), ("take", 1)]
        chunked = self.run(script, chunked=True)
        assert chunked == self.run(script, chunked=False)
        # offered 4 + 5 fit; after taking 3 of the first chunk (split),
        # 6 more meet room for 4: two shed in one ledger row.
        assert chunked[6] == ("offered", 4)
        assert chunked[7][3] == 2
        assert chunked[7][5] == {("ingest-shed", "(ingest)",
                                  IMPACT_MISSED): 2}
        # 7 taken across three chunks: the rest of the split one, the
        # whole second and the first of the third, oldest first.
        assert chunked[8] == ("took", [3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0])
        # Saturated at the high mark, held by the shed at t=1.0; ready
        # again once drained under the low mark with the shed 0.75 s
        # (more than the window) old.
        assert [row[1] for row in chunked[1:20:2]] == [
            True, False, False, False, False, False, True, True, True,
            True]

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["offer", "take"]),
                              st.integers(0, 14)), max_size=12))
    def test_chunked_equals_event_by_event(self, script):
        assert self.run(script, chunked=True) \
            == self.run(script, chunked=False)

    def test_an_empty_batch_at_a_full_queue_sheds_nothing(self):
        ledger = OverflowLedger()
        q = IngestQueue(max_depth=1, ledger=ledger)
        q.offer(oob())
        assert q.offer_batch([]) == 0
        assert (q.depth, q.shed, q.last_shed_at, ledger.counts) \
            == (1, 0, None, {})

    def test_histogram_observes_a_value_count_times(self):
        once, counted = Histogram(), Histogram()
        for _ in range(3):
            once.observe(2.0)
        counted.observe(2.0, 3)
        once.observe(7.0)
        counted.observe(7.0)
        for hist in (once, counted):
            assert (hist.count, hist.sum, hist.min, hist.max) \
                == (4, 13.0, 2.0, 7.0)
        assert counted.bucket_counts == once.bucket_counts
        assert counted.cumulative() == once.cumulative()


class TestParseFrame:
    def test_round_trips_a_serialized_event(self):
        from repro.netsim.serialize import event_to_dict

        line = (json.dumps(event_to_dict(oob(time=1.5))) + "\n").encode()
        event = parse_frame(line)
        assert isinstance(event, OutOfBandEvent)
        assert event.time == 1.5
        assert event.oob_kind is OobKind.PORT_UP

    def test_blank_lines_and_headers_are_skipped(self):
        assert parse_frame(b"") is None
        assert parse_frame(b"   \n") is None
        header = json.dumps({"kind": "TraceHeader", "schema": 1}).encode()
        assert parse_frame(header) is None

    @pytest.mark.parametrize("junk", [
        b"not json\n",
        b"[1, 2, 3]\n",
        b'{"kind": "NoSuchEvent", "switch": "s1", "time": 0}\n',
        b'{"kind": "PacketArrival", "switch": "s1"}\n',  # missing fields
        b"\xff\xfe\n",
        b'{"kind": "PacketArrival", "switch": "s1", "time": null}\n',
        b'{"kind": "OutOfBandEvent", "switch": "s1", "time": 0,'
        b' "oob_kind": ["link-up"]}\n',
        b'{"kind": "OutOfBandEvent", "switch": "s1", "time": 0,'
        b' "oob_kind": "no-such-kind"}\n',
        b'{"kind": "PacketArrival", "switch": "s1", "time": 0, "uid": 1,'
        b' "packet": "' + b"00" * 14 + b'", "in_port": 1e999999}\n',
    ])
    def test_junk_raises_frame_error(self, junk):
        with pytest.raises(FrameError):
            parse_frame(junk)


class TestDecodeBatch:
    """The counting form of the frame decoder (the live-daemon hostile
    set is in tests/integration/test_serve_daemon.py)."""

    @staticmethod
    def body(events):
        from repro.netsim.serialize import BATCH_HEADER_SIZE, encode_frames

        return encode_frames(events)[BATCH_HEADER_SIZE:]

    def test_intact_batch(self):
        body = self.body([oob(1.0), oob(2.0)])
        events, errors, intact = decode_batch(body, 2, len(body))
        assert [e.time for e in events] == [1.0, 2.0]
        assert (errors, intact) == (0, True)

    def test_bad_record_costs_one_error_and_nothing_else(self):
        junk = b"\x00\x00\x00\x00\x08not json"
        body = self.body([oob(1.0)]) + junk + self.body([oob(3.0)])
        events, errors, intact = decode_batch(body, 3, len(body))
        assert [e.time for e in events] == [1.0, 3.0]
        assert (errors, intact) == (1, True)

    def test_cut_body_keeps_the_prefix_and_loses_the_framing(self):
        body = self.body([oob(1.0), oob(2.0)])
        events, errors, intact = decode_batch(body[:-1], 2, len(body))
        assert [e.time for e in events] == [1.0]
        assert (errors, intact) == (1, False)

    def test_body_shorter_than_declared_is_a_fault_even_if_it_decodes(self):
        # A header that overstates the body length, on a stream cut
        # exactly where the records end.
        body = self.body([oob(1.0)])
        events, errors, intact = decode_batch(body, 1, len(body) + 9)
        assert len(events) == 1
        assert (errors, intact) == (1, False)


def drive(stream, step=None):
    """Feed ``stream`` to ``stream_reader`` the way a transport does,
    each read returning at most ``step`` bytes (``None``: all that was
    asked for).  Returns the times of the events delivered, the frame
    errors, ``(len(events), errors)`` per delivery, and how many bytes
    of the stream were read."""
    import io

    fp = io.BytesIO(stream)
    times, deliveries = [], []

    def deliver(events, errors):
        times.extend(event.time for event in events)
        deliveries.append((len(events), errors))

    steps = stream_reader(deliver)
    try:
        want = next(steps)
        while True:
            assert want > 0
            want = steps.send(fp.read(want if step is None else min(want, step)))
    except StopIteration:
        pass
    return times, sum(e for _, e in deliveries), deliveries, fp.tell()


def drive_both(stream):
    """Everything in one read, and one byte per read: same outcome."""
    whole, trickled = drive(stream), drive(stream, step=1)
    assert whole[:2] == trickled[:2]
    return whole, trickled


class TestFramedReader:
    """The batch half of the sans-IO stream protocol."""

    def test_batches_until_clean_eof(self):
        from repro.netsim.serialize import encode_frames

        first, second = encode_frames([oob(1.0)]), encode_frames([oob(2.0)] * 3)
        for times, errors, deliveries, read in drive_both(first + second):
            assert deliveries == [(1, 0), (3, 0)]   # one per batch
            assert (times, errors) == ([1.0, 2.0, 2.0, 2.0], 0)
            assert read == len(first + second)

    def test_over_cap_length_ends_the_stream_before_the_body_is_asked_for(self):
        from repro.netsim.serialize import FRAME_MAGIC, MAX_BATCH_BYTES

        lying = FRAME_MAGIC + (1).to_bytes(4, "big") \
            + (MAX_BATCH_BYTES + 1).to_bytes(4, "big")
        for _, _, deliveries, read in drive_both(lying + b"x" * 100):
            assert deliveries == [(0, 1)]
            assert read == len(lying)

    def test_stream_ending_inside_a_header_is_one_error(self):
        from repro.netsim.serialize import encode_frames

        batch = encode_frames([oob(1.0)])
        for cut in (5, 4, 2):  # inside the header, after and inside the magic
            for times, errors, _, _ in drive_both(batch + batch[:cut]):
                assert (times, errors) == ([1.0], 1)
            for times, errors, _, _ in drive_both(batch[:cut]):
                assert (times, errors) == ([], 1)

    def test_stream_ending_inside_a_body_keeps_the_whole_records(self):
        from repro.netsim.serialize import encode_frames

        batch = encode_frames([oob(1.0), oob(2.0)])
        for times, errors, _, _ in drive_both(batch + batch[:-1]):
            assert (times, errors) == ([1.0, 2.0, 1.0], 1)

    def test_empty_stream_is_no_error(self):
        for times, errors, _, _ in drive_both(b""):
            assert (times, errors) == ([], 0)


class TestLineReader:
    """The newline-JSON half of the same generator."""

    @staticmethod
    def line(time):
        from repro.netsim.serialize import event_to_dict

        return json.dumps(event_to_dict(oob(time))).encode()

    def test_a_line_split_across_reads(self):
        stream = b"".join(self.line(t) + b"\n" for t in (1.0, 2.0, 3.0))
        for step in (None, len(stream) // 2, 7, 1):
            times, errors, _, read = drive(stream, step)
            assert (times, errors, read) == ([1.0, 2.0, 3.0], 0, len(stream))

    def test_last_line_needs_no_newline(self):
        stream = self.line(1.0) + b"\n" + self.line(2.0)
        for times, errors, _, _ in drive_both(stream):
            assert (times, errors) == ([1.0, 2.0], 0)

    def test_blank_lines_and_a_trace_header_deliver_nothing(self):
        header = json.dumps({"kind": "TraceHeader", "schema": 1}).encode()
        for times, errors, _, _ in drive_both(header + b"\n\n  \r\n\n"):
            assert (times, errors) == ([], 0)

    def test_bad_lines_are_counted_and_the_good_ones_around_them_survive(self):
        stream = b"\n".join([
            self.line(1.0), b"not json", self.line(2.0), b"[1, 2]",
            b"\xff\xfe", self.line(3.0), b'{"kind": "NoSuchEvent"}',
            b'{"kind": "PacketArrival", "switch": "s1", "time": null}',
            self.line(4.0)])
        for times, errors, _, _ in drive_both(stream):
            assert (times, errors) == ([1.0, 2.0, 3.0, 4.0], 5)

    def test_a_stream_shorter_than_the_sniff_is_one_frame_error(self):
        for times, errors, _, _ in drive_both(b"RPF"):
            assert (times, errors) == ([], 1)

    def test_a_line_over_the_cap_is_one_error_and_ends_the_stream(
            self, monkeypatch):
        from repro.serve import ingest

        monkeypatch.setattr(ingest, "MAX_BATCH_BYTES", 64)
        monkeypatch.setattr(ingest, "READ_SIZE", 16)
        stream = b"\n\n" + b"x" * 200 + b"\n" + self.line(1.0) + b"\n"
        times, errors, _, read = drive(stream)
        assert (times, errors) == ([], 1)
        assert read <= 2 + 64 + 16   # the generator returned, the rest unread


class TestIngestSpec:
    def test_tcp_and_pipe_specs(self):
        assert parse_ingest_spec("tcp:9801") == ("tcp", 9801)
        assert parse_ingest_spec("pipe:/tmp/frames") == ("pipe", "/tmp/frames")

    @pytest.mark.parametrize("bad", [
        "tcp", "tcp:", "tcp:http", "udp:9801", "9801", "pipe:",
    ])
    def test_bad_specs_raise(self, bad):
        with pytest.raises(ValueError):
            parse_ingest_spec(bad)


class TestServeConfigBounds:
    # batch_max 0 once had the dispatcher take empty batches forever,
    # and a negative trace_buffer silently turned tracing off.
    @pytest.mark.parametrize("field, value", [
        ("batch_max", 0), ("batch_max", -1), ("trace_buffer", -1),
        ("max_queue", 0),
    ])
    def test_out_of_range_is_refused(self, field, value):
        with pytest.raises(ValueError, match=field):
            ServeConfig(**{field: value})

    def test_smallest_legal_values_are_accepted(self):
        config = ServeConfig(batch_max=1, trace_buffer=0)
        assert (config.batch_max, config.trace_buffer) == (1, 0)

    def test_cli_negative_trace_buffer_exits_2(self, capsys):
        assert main(["serve", "--trace-buffer", "-1"]) == 2
        assert "trace_buffer must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, status", [
        ("serve --max-queue 0", 2),
        ("serve --restart-budget 7", 2),
        ("serve --chaos-profile lossy", 2),
        ("serve --chaos-profile adversarial", 2),
        ("serve --chaos-profile worker-crash --shards 2", 2),
        ("send {trace} --repeat 0", 2),
        ("send {trace} --rate -5", 2),
        ("stats {trace} {prop} --poll-interval -1", 2),
        ("chaos --profile worker-crash --shards 0", 2),
        ("chaos --profile lossy --shards 5", 2),
        ("chaos --profile clean --restart-budget 7", 2),
        ("record {out} --hosts 0", 2),
        ("replay {not_json} {prop}", 1),
        ("replay {trace} {no_lex}", 1),
        ("replay {trace} {no_parse}", 1),
        ("replay {missing} {prop}", 1),
        ("stats {not_json} {prop}", 1),
        ("stats {trace} {no_lex}", 1),
        ("stats {trace} {no_parse}", 1),
        ("stats {trace} {missing}", 1),
        ("send {missing}", 1),
        ("stats {trace} {prop} --poll-interval 0", 2),
        ("serve --port 70000", 2),
        ("serve --ingest tcp:70000", 2),
        ("send {trace} --port 70000", 2),
    ])
    def test_cli_bad_input_is_one_error_line(self, argv, status, tmp_path,
                                             capsys):
        from importlib import resources

        from repro.netsim.serialize import save_trace

        files = {name: str(tmp_path / name) for name in (
            "trace", "not_json", "no_lex", "no_parse", "missing", "out")}
        save_trace([oob()], files["trace"])
        (tmp_path / "not_json").write_text("{not json\n")
        (tmp_path / "no_lex").write_text('property p "x" $$$\n')
        (tmp_path / "no_parse").write_text("property p:\n")
        files["prop"] = str(resources.files("repro.props") / "sources"
                            / "arp_reply_within.prop")
        assert main(argv.format(**files).split()) == status
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert [line for line in err.splitlines()
                if line.startswith("error:")] == [err.strip()]
        if "{missing}" in argv:
            assert files["missing"] in err and "connection" not in err


    @pytest.mark.parametrize("argv", [
        "serve --shards 2 --checkpoint-interval 100",
        "chaos --profile worker-crash --checkpoint-interval 100",
    ], ids=["serve", "chaos"])
    def test_no_checkpoint_interval_flag(self, argv, capsys):
        # the cadence follows each shard's live state; nothing sets it
        with pytest.raises(SystemExit) as exited:
            main(argv.split())
        assert exited.value.code == 2
        assert "unrecognized arguments: --checkpoint-interval" \
            in capsys.readouterr().err


class TestServeReport:
    def report(self, **overrides):
        fields = dict(
            profile="clean", uptime=1.25, events_ingested=100,
            events_shed=0, events_observed=100, violations=2,
            interval=(2, 2), live_instances=3, pending_ops=0)
        fields.update(overrides)
        return ServeDegradationReport(**fields)

    def test_exact_when_nothing_shed(self):
        assert self.report().exact is True
        assert self.report(interval=(1, 4)).exact is False

    def test_to_dict_round_trips_through_json(self):
        data = json.loads(json.dumps(self.report(
            events_shed=5, interval=(0, 7),
            ledger={"by_kind": {"ingest-shed": 5}}).to_dict()))
        assert data["events"]["shed"] == 5
        assert data["violations"]["interval"] == [0, 7]
        assert data["violations"]["exact"] is False

    def test_render_mentions_interval_and_sheds(self):
        text = render_serve_report(self.report(
            events_shed=5, interval=(0, 7),
            ledger={"by_kind": {"ingest-shed": 5}}))
        assert "interval=[0, 7]" in text
        assert "uncertain" in text
        assert "ingest-shed=5" in text

    def test_render_clean_run_says_exact(self):
        text = render_serve_report(self.report())
        assert "(exact)" in text
        assert "nothing shed" in text
