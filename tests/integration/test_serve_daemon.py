"""End-to-end tests of the live daemon: boot, stream, scrape, drain.

Each test boots a real :class:`ServeDaemon` on ephemeral ports in a
background thread, drives it over actual sockets (``stream_trace`` is
the same code path ``repro send`` uses), scrapes the HTTP plane with
stdlib ``urllib``, and asserts the graceful-shutdown contract: the
queue drains, the monitor stops, and the final report's uncertainty
interval accounts for everything shed.
"""

import asyncio
import collections
import json
import os
import random
import signal
import socket
import struct
import time
import urllib.error
import urllib.request

import pytest

from repro.apps import LearningSwitchApp, sometimes
from repro.netsim import TraceRecorder, single_switch_network
from repro.netsim.serialize import (
    BATCH_HEADER_SIZE,
    FRAME_MAGIC,
    MAX_BATCH_BYTES,
    encode_frames,
    event_to_dict,
    read_trace,
    save_trace,
    trace_header,
)
from repro.fabric import fork_available
from repro.faults.profiles import PROFILES
from repro.faults.rounds import build_monitor, catalog_trace
from repro.netsim.workload import l2_pairs, send_all
from repro.serve import (
    ServeConfig,
    ServeDaemon,
    serve_in_thread,
    stream_trace,
)
from repro.serve.ingest import READ_SIZE
from repro.switch.pipeline import MissPolicy
from repro.telemetry import uid_sampled


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    """A recorded learning-switch trace (with faults, so properties fire)."""
    net, switch, hosts = single_switch_network(
        4, switch_kwargs={"miss_policy": MissPolicy.CONTROLLER})
    switch.set_app(LearningSwitchApp(faults=sometimes("wrong_port", 0.2,
                                                      seed=11)))
    recorder = TraceRecorder()
    switch.add_tap(recorder)
    send_all(hosts, l2_pairs(4, 80, seed=11))
    net.run()
    path = tmp_path_factory.mktemp("serve") / "trace.jsonl"
    save_trace(recorder.events, str(path),
               header=trace_header(seed=11, hosts=4, packets=80))
    return str(path)


def boot(**config_overrides):
    fields = dict(port=0, ingest=("tcp:0",))
    fields.update(config_overrides)
    config = ServeConfig(**fields)
    daemon = ServeDaemon(config)
    handle = serve_in_thread(daemon)
    return daemon, handle


def get(daemon, path):
    url = f"http://127.0.0.1:{daemon.http_port}{path}"
    try:
        with urllib.request.urlopen(url, timeout=5) as response:
            return response.status, response.read().decode("utf-8")
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode("utf-8")


def sized_attributes(root):
    """``{attribute path: len}`` of everything sized that ``root`` holds,
    followed through repro's own objects and the builtin containers
    (not into asyncio, threading or socket internals, which churn)."""
    sizes, seen = {}, set()

    def walk(obj, path):
        if id(obj) in seen:
            return
        seen.add(id(obj))
        if isinstance(obj, (dict, list, tuple, set, frozenset,
                            collections.deque)):
            sizes[path] = len(obj)
            values = obj.values() if isinstance(obj, dict) else obj
            for n, value in enumerate(values):
                walk(value, f"{path}[{n}]")
        elif type(obj).__module__.startswith("repro."):
            names = list(getattr(obj, "__dict__", ()))
            for cls in type(obj).__mro__:
                names.extend(getattr(cls, "__slots__", ()))
            for name in names:
                walk(getattr(obj, name, None), f"{path}.{name}")

    walk(root, type(root).__name__)
    return sizes


def wait_until(predicate, timeout=5.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestEndToEnd:
    def test_stream_scrape_drain(self, trace_path):
        daemon, handle = boot()
        try:
            result = stream_trace(
                trace_path, "127.0.0.1", daemon.ingest_ports[0], rate=0)
            assert result.events > 0
            assert wait_until(
                lambda: daemon.monitor.stats.events >= result.events)

            status, body = get(daemon, "/healthz")
            assert status == 200
            assert json.loads(body)["status"] == "ok"

            status, body = get(daemon, "/readyz")
            assert status == 200
            assert json.loads(body)["ready"] is True

            status, body = get(daemon, "/stats")
            stats = json.loads(body)
            assert stats["monitor"]["events"] == result.events
            assert stats["queue"]["accepted"] == result.events
            assert stats["queue"]["shed"] == 0

            status, text = get(daemon, "/metrics")
            assert status == 200
            assert f"repro_serve_events_ingested_total {result.events}" \
                in text
            assert f"repro_monitor_events_total {result.events}" in text
            # Ingest-latency histogram made it to the exposition.
            assert "repro_serve_ingest_latency_seconds_count" in text
            assert "# TYPE repro_serve_ingest_latency_seconds histogram" \
                in text

            status, body = get(daemon, "/trace?limit=10")
            trace = json.loads(body)
            assert status == 200
            assert 0 < trace["count"] <= 10
            uids = [s["uid"] for s in trace["spans"] if s.get("uid")]
            assert uids, "root spans carry packet uids"
        finally:
            report = handle.stop()
        assert report.events_ingested == result.events
        assert report.events_observed == result.events
        assert report.events_shed == 0
        assert report.exact
        assert report.pending_ops == 0

    def test_idle_daemon_holds_nothing_that_grows(self):
        # A daemon runs for months between restarts: idling (and being
        # scraped) must not make anything it holds longer.  It once kept
        # a row of every gauge per second that no endpoint ever served.
        daemon = ServeDaemon()
        handle = serve_in_thread(daemon)
        try:
            for path in ("/stats", "/metrics"):   # first hits: warm-up
                assert get(daemon, path)[0] == 200
            before = sized_attributes(daemon)
            deadline = time.monotonic() + 2.6     # a few 1 s periods
            while time.monotonic() < deadline:
                assert get(daemon, "/stats")[0] == 200
                assert get(daemon, "/metrics")[0] == 200
                time.sleep(0.2)
            after = sized_attributes(daemon)
        finally:
            handle.stop()
        grew = {path: (before.get(path, 0), size)
                for path, size in after.items()
                if size > before.get(path, 0)}
        assert not grew, grew

    def test_repeat_streams_multiply_events(self, trace_path):
        daemon, handle = boot()
        try:
            result = stream_trace(
                trace_path, "127.0.0.1", daemon.ingest_ports[0], repeat=3)
            assert wait_until(
                lambda: daemon.monitor.stats.events >= result.events)
        finally:
            report = handle.stop()
        assert report.events_observed == result.events
        single = result.events // 3
        assert result.events == single * 3

    def test_unknown_route_404s_with_route_list(self, trace_path):
        daemon, handle = boot()
        try:
            status, body = get(daemon, "/nope")
            assert status == 404
            assert "/metrics" in json.loads(body)["routes"]
        finally:
            handle.stop()

    def test_garbage_frames_counted_not_fatal(self, trace_path):
        daemon, handle = boot()
        try:
            with socket.create_connection(
                    ("127.0.0.1", daemon.ingest_ports[0])) as sock:
                sock.sendall(b"this is not json\n[]\n")
            assert wait_until(
                lambda: json.loads(get(daemon, "/stats")[1])
                ["frame_errors"] == 2)
            # Daemon still serves and still ingests after the garbage.
            result = stream_trace(
                trace_path, "127.0.0.1", daemon.ingest_ports[0])
            assert wait_until(
                lambda: daemon.monitor.stats.events >= result.events)
        finally:
            report = handle.stop()
        assert report.frame_errors == 2


def send_raw(daemon, payload):
    """One ingest connection carrying exactly ``payload``, then EOF."""
    with socket.create_connection(
            ("127.0.0.1", daemon.ingest_ports[0])) as sock:
        sock.sendall(payload)


def frame_errors(daemon):
    return int(daemon.registry.counter(
        "repro_serve_frame_errors_total").value)


def observed(daemon):
    return int(daemon.monitor.stats.events)


def violations_by_property(daemon):
    return collections.Counter(
        v.property_name for v in daemon.monitor.violations)


def listener_errors(caplog):
    """What asyncio logged about a connection handler that raised."""
    return [r.getMessage() for r in caplog.records if r.name == "asyncio"]


class TestFramedIngest:
    def test_framed_stream_matches_jsonl_stream(self, tmp_path):
        # Catalog traffic, so the daemon's properties have something to
        # fire on (the learning-switch trace raises none of them).
        path = str(tmp_path / "catalog.jsonl")
        save_trace(catalog_trace(seed=3, num_events=400), path)
        outcomes = []
        for fmt in ("jsonl", "rpf2"):
            daemon, handle = boot()
            try:
                # chunk=16: the framed stream is several batches on the
                # one connection.
                result = stream_trace(
                    path, "127.0.0.1", daemon.ingest_ports[0],
                    chunk=16, format=fmt)
                assert result.events > 3 * 16
                assert wait_until(
                    lambda: observed(daemon) >= result.events)
            finally:
                report = handle.stop()
            assert report.frame_errors == 0
            outcomes.append((report.events_observed, report.violations,
                             violations_by_property(daemon)))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][1] > 0, "the trace is supposed to raise violations"

    def test_framed_fifo(self, trace_path, tmp_path):
        events = read_trace(trace_path)[:10]
        last = encode_frames(events[6:])
        fifo = str(tmp_path / "ingest.fifo")
        os.mkfifo(fifo)
        daemon, handle = boot(ingest=(f"pipe:{fifo}",))
        try:
            with open(fifo, "wb") as fp:  # the reader thread is waiting
                fp.write(encode_frames(events[:3]))
                fp.write(encode_frames(events[3:6]))
                fp.write(last[:-1])       # the writer dies mid-batch
            assert wait_until(lambda: frame_errors(daemon) == 1)
            assert wait_until(lambda: observed(daemon) == 9)
        finally:
            report = handle.stop()
        assert (report.events_observed, report.frame_errors) == (9, 1)


class TestPipeIngest:
    """``pipe:PATH`` is the same reader as TCP: a local writer that
    outruns the dispatcher is slowed down, not shed."""

    FLOOD = 20_000

    @pytest.fixture(scope="class")
    def flood(self):
        events = catalog_trace(seed=5, num_events=self.FLOOD)
        lines = [json.dumps(event_to_dict(e)).encode() for e in events]
        return {
            "jsonl": b"".join(line + b"\n" for line in lines),
            "rpf2": b"".join(encode_frames(events[i:i + 64])
                             for i in range(0, len(events), 64)),
            # The most events one read can hold.
            "per_read": READ_SIZE // min(len(line) + 1 for line in lines),
        }

    @pytest.mark.parametrize("kind,codec", [
        ("fifo", "jsonl"), ("file", "jsonl"), ("fifo", "rpf2")])
    def test_flood_is_observed_whole_under_the_default_config(
            self, flood, tmp_path, kind, codec):
        path = str(tmp_path / f"ingest.{kind}")
        if kind == "file":
            with open(path, "wb") as fp:
                fp.write(flood[codec])
        else:
            os.mkfifo(path)
        daemon = ServeDaemon(ServeConfig(port=0, ingest=(f"pipe:{path}",)))
        handle = serve_in_thread(daemon)
        try:
            if kind == "fifo":
                with open(path, "wb") as fp:   # as fast as write() accepts
                    fp.write(flood[codec])
            assert wait_until(
                lambda: observed(daemon) + daemon.queue.shed >= self.FLOOD,
                timeout=60.0)
            peak = daemon.registry.histogram(
                "repro_serve_queue_depth_at_enqueue").max
        finally:
            report = handle.stop()
        assert (report.events_shed, report.frame_errors) == (0, 0)
        assert report.events_observed == self.FLOOD
        assert peak <= daemon.config.batch_max + flood["per_read"]

    def test_fifo_without_a_writer_stalls_nothing(self, tmp_path):
        fifo = str(tmp_path / "ingest.fifo")
        os.mkfifo(fifo)
        daemon, handle = boot(ingest=(f"pipe:{fifo}",), drain_grace=0.2)
        try:
            # A blocking open would be sitting in the loop right now.
            status, body = get(daemon, "/healthz")
            assert (status, json.loads(body)["status"]) == (200, "ok")
        finally:
            started = time.monotonic()
            report = handle.stop(timeout=5.0)
        assert time.monotonic() - started < 0.2 + 1.0
        assert report.events_observed == 0

    def test_missing_pipe_is_not_fatal(self, trace_path, tmp_path):
        daemon, handle = boot(
            ingest=(f"pipe:{tmp_path / 'absent'}", "tcp:0"))
        try:
            result = stream_trace(
                trace_path, "127.0.0.1", daemon.ingest_ports[0])
            assert wait_until(lambda: observed(daemon) >= result.events)
        finally:
            report = handle.stop()
        assert report.events_observed == result.events


class TestHostileFrames:
    """The threat model of a monitor that sits on the forwarding path:
    whatever a sender writes is counted, never fatal."""

    @pytest.fixture()
    def batches(self, trace_path):
        events = read_trace(trace_path)
        return [events[0:2], events[2:4], events[4:6]]

    def test_stream_cut_at_every_offset(self, batches, caplog):
        stream = b"".join(encode_frames(batch) for batch in batches)
        # For every cut: how many records end at or before it, and
        # whether it falls strictly inside a batch.
        whole_records, inside = [], []
        records_before = offset = 0
        for batch in batches:
            ends = []
            end = offset + BATCH_HEADER_SIZE
            for event in batch:
                end += len(encode_frames([event])) - BATCH_HEADER_SIZE
                ends.append(end)
            for cut in range(offset, end):
                whole_records.append(
                    records_before + sum(1 for e in ends if e <= cut))
                inside.append(cut > offset)
            records_before += len(batch)
            offset = end
        whole_records.append(records_before)   # the uncut stream
        inside.append(False)
        assert offset == len(stream) and len(inside) == len(stream) + 1

        daemon, handle = boot()
        want_events = want_errors = 0
        try:
            for cut in range(len(stream) + 1):
                send_raw(daemon, stream[:cut])
                want_events += whole_records[cut]
                want_errors += inside[cut]
                assert wait_until(
                    lambda: observed(daemon) == want_events
                    and frame_errors(daemon) >= want_errors,
                    interval=0.0005), (cut, observed(daemon), want_events)
        finally:
            report = handle.stop()
        # Exactly one error per cut inside a batch, none for a cut on a
        # batch boundary — so the totals match only if every cut did.
        assert report.frame_errors == want_errors == sum(inside)
        assert report.events_observed == want_events
        assert listener_errors(caplog) == []

    def test_seeded_bit_flips(self, batches, caplog):
        stream = b"".join(encode_frames(batch) for batch in batches)
        total = sum(len(batch) for batch in batches)
        rng = random.Random(18)
        daemon = ServeDaemon(ServeConfig(port=0, ingest=("tcp:0",)))
        handle_conn = daemon._handle_ingest_conn
        ended = []

        async def counted(reader, writer):
            await handle_conn(reader, writer)
            ended.append(writer)

        daemon._handle_ingest_conn = counted
        handle = serve_in_thread(daemon)
        try:
            for _ in range(60):
                damaged = bytearray(stream)
                for _ in range(rng.randint(1, 3)):
                    damaged[rng.randrange(len(damaged))] ^= 1 << rng.randrange(8)
                send_raw(daemon, bytes(damaged))
            # Every damaged stream read to its end and what it queued
            # observed, so only the clean stream below moves the count.
            assert wait_until(lambda: len(ended) == 60
                              and observed(daemon) == daemon.queue.accepted)
            # Still listening, still decoding.
            before = observed(daemon)
            send_raw(daemon, stream)
            assert wait_until(lambda: observed(daemon) >= before + total)
        finally:
            report = handle.stop()
        assert total <= report.events_observed <= 61 * total
        assert report.events_observed == report.events_ingested
        assert listener_errors(caplog) == []

    def test_wrong_magic_between_batches(self, batches):
        first, second, third = map(encode_frames, batches)
        daemon, handle = boot()
        try:
            send_raw(daemon, first + b"RPF1" + second[4:] + third)
            assert wait_until(lambda: frame_errors(daemon) == 1)
        finally:
            report = handle.stop()
        # The framing is lost at the bad magic: nothing after it counts.
        assert report.events_observed == len(batches[0])
        assert report.frame_errors == 1

    def test_corrupt_packet_in_one_record(self, batches):
        records = [encode_frames([event])[BATCH_HEADER_SIZE:]
                   for batch in batches for event in batch]
        # Record 2 of 6: a packet record whose five packet bytes are no
        # ethernet header (layout: netsim/serialize.py).
        records[2] = struct.pack(
            ">BdQiiBBHH", 1, 0.5, 7, 1, 0, 0, 1, 0, 5) + b"s" + b"\x00" * 5
        body = b"".join(records)
        damaged = FRAME_MAGIC + struct.pack(">II", 6, len(body)) + body
        daemon, handle = boot()
        try:
            # The connection outlives the bad record.
            send_raw(daemon, damaged + encode_frames(batches[0]))
            assert wait_until(lambda: observed(daemon) == 5 + 2)
        finally:
            report = handle.stop()
        assert report.events_observed == 7
        assert report.frame_errors == 1

    def test_short_packet_is_stopped_at_the_door(self, batches):
        """A packet is read only when the matcher asks for a field, but
        bytes that are no packet are still refused where frames are
        counted — the monitor is never handed the record."""
        events = [event for batch in batches for event in batch]
        records = [encode_frames([event])[BATCH_HEADER_SIZE:]
                   for event in events]
        # The third record's packet: nine bytes, no ethernet header.
        records[2] = struct.pack(
            ">BdQiiBBHH", 1, 0.5, 7, 1, 0, 0, 1, 0, 9) + b"s" + b"\x00" * 9
        body = b"".join(records)
        daemon, handle = boot()
        handed = []
        real_observe = daemon.monitor.observe
        daemon.monitor.observe = lambda event: (
            handed.append(event), real_observe(event))
        try:
            send_raw(daemon, FRAME_MAGIC + struct.pack(">II", 6, len(body))
                     + body)
            assert wait_until(lambda: observed(daemon) == 5)
        finally:
            report = handle.stop()
        assert report.frame_errors == 1
        assert report.events_observed == 5
        assert [e.time for e in handed] \
            == [e.time for e in events[:2] + events[3:]]
        assert all(e.packet.uid != 7 for e in handed)

    def test_over_cap_body_length_is_refused_unread(self, batches):
        lying = FRAME_MAGIC + struct.pack(">II", 1, MAX_BATCH_BYTES + 1)
        daemon, handle = boot()
        try:
            with socket.create_connection(
                    ("127.0.0.1", daemon.ingest_ports[0])) as sock:
                sock.sendall(encode_frames(batches[0]) + lying + b"x" * 64)
                # The daemon hangs up rather than wait for 16 MiB.
                sock.settimeout(5.0)
                assert sock.recv(1) == b""
            assert frame_errors(daemon) == 1
        finally:
            report = handle.stop()
        assert report.events_observed == len(batches[0])
        assert report.frame_errors == 1


@pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable")
class TestShardedDaemon:
    """``repro serve --shards 2`` with every other field default, one
    worker SIGKILLed mid-stream: however the events arrive, the journal
    reaches back to the last landed checkpoint, so nothing is lost and
    the report is exact."""

    EVENTS = 3000
    KILL_AT = 2000

    @pytest.fixture(scope="class")
    def catalog(self):
        events = catalog_trace(seed=7, num_events=self.EVENTS)
        plain = build_monitor(PROFILES["clean"])
        plain.observe_batch(events)
        plain.stop()
        assert plain.violations, "workload produced no violations — vacuous"
        return events, len(plain.violations)

    def _serve_and_kill(self, catalog, writes, lockstep):
        """Stream ``writes`` — ``(events so far, bytes)`` pairs — into a
        default sharded daemon and SIGKILL shard 0's worker (pid read
        from ``/healthz``) at ``KILL_AT``.  ``lockstep`` holds each
        write back until the dispatcher is within two events of the
        sender."""
        events, reference = catalog
        daemon = ServeDaemon(ServeConfig(shards=2))
        handle = serve_in_thread(daemon)
        killed = None
        try:
            with socket.create_connection(
                    ("127.0.0.1", daemon.ingest_ports[0])) as sock:
                for sent, payload in writes:
                    if killed is None and sent >= self.KILL_AT:
                        _, body = get(daemon, "/healthz")
                        killed = json.loads(body)["shards"][0]["pid"]
                        os.kill(killed, signal.SIGKILL)
                    sock.sendall(payload)
                    if lockstep:
                        assert wait_until(
                            lambda: observed(daemon) >= sent - 2,
                            timeout=30.0, interval=0.0001)
            assert killed is not None
            assert wait_until(
                lambda: observed(daemon) >= self.EVENTS, timeout=30.0)
            # the root span of the last packet the sampler keeps,
            # recorded by the fabric
            last = next(e for e in reversed(events)
                        if getattr(e, "packet", None) is not None
                        and uid_sampled(e.packet.uid))
            status, body = get(daemon, f"/trace?uid={last.packet.uid}")
            assert status == 200
            assert any(
                span["name"] == type(last).__name__
                and span["start"] == last.time
                and span["parent_id"] is None
                and span["uid"] == last.packet.uid
                and span["attrs"] == {"switch": last.switch_id}
                for span in json.loads(body)["spans"]), body
        finally:
            report = handle.stop()
        assert report.events_observed == report.events_ingested \
            == self.EVENTS
        assert report.shard_restarts >= 1 and not report.failed_shards
        assert "crash-gap" not in report.ledger["by_kind"], report.ledger
        assert report.violations == reference
        assert report.interval == (reference, reference)

    def test_rpf2_batches_with_a_worker_killed(self, catalog):
        events = catalog[0]
        writes = [(start + 64, encode_frames(events[start:start + 64]))
                  for start in range(0, len(events), 64)]
        self._serve_and_kill(catalog, writes, lockstep=False)

    def test_trickled_jsonl_with_a_worker_killed(self, catalog):
        # One line per write, each held until the dispatcher has caught
        # up: every dispatch is one to three events, which is what a
        # journal counted in batches could not hold an interval of.
        events = catalog[0]
        writes = [(n, json.dumps(event_to_dict(event)).encode() + b"\n")
                  for n, event in enumerate(events, 1)]
        self._serve_and_kill(catalog, writes, lockstep=True)


class TestBackpressure:
    def test_flood_flips_readyz_and_ledgers_sheds(self, trace_path):
        daemon, handle = boot(max_queue=8, shed_window=30.0)
        # Pause dispatch so the flood actually piles up in the queue
        # instead of racing the consumer.
        daemon.queue.take_batch, real_take = (
            lambda n: [], daemon.queue.take_batch)
        try:
            result = stream_trace(
                trace_path, "127.0.0.1", daemon.ingest_ports[0], rate=0)
            assert wait_until(lambda: daemon.queue.shed > 0)

            status, body = get(daemon, "/readyz")
            payload = json.loads(body)
            assert status == 503
            assert payload["ready"] is False
            assert payload["reasons"]

            ledger = daemon.monitor.ledger
            assert len(ledger) == daemon.queue.shed
            assert ledger.by_kind() == {"ingest-shed": daemon.queue.shed}
        finally:
            daemon.queue.take_batch = real_take
            report = handle.stop()
        # Accept + shed accounts for every event sent.
        assert report.events_ingested + report.events_shed == result.events
        assert report.events_shed > 0
        assert not report.exact
        lo, hi = report.interval
        assert lo <= report.violations <= hi
        assert hi - lo >= report.events_shed

    def test_final_report_written_to_disk(self, trace_path, tmp_path):
        out = tmp_path / "report.json"
        daemon, handle = boot(report_path=str(out))
        try:
            result = stream_trace(trace_path, "127.0.0.1",
                                  daemon.ingest_ports[0])
            assert wait_until(
                lambda: daemon.queue.accepted >= result.events)
        finally:
            report = handle.stop()
        data = json.loads(out.read_text())
        assert data["events"]["ingested"] == report.events_ingested
        assert data["violations"]["exact"] is True


class TestGracefulShutdown:
    def test_a_handler_that_first_runs_after_the_stop_is_drained(
            self, trace_path):
        """A connection is the daemon's from the moment asyncio hands it
        over.  Here the hand-over itself requests the stop, and the
        handler's first step comes some loop turns later, after the
        dispatcher has found the queue empty: the stream is still waited
        for, read and observed.  Several trials, as the window is a
        race."""
        stream = encode_frames(read_trace(trace_path)[:6])
        for _ in range(5):
            daemon = ServeDaemon(ServeConfig(port=0, ingest=("tcp:0",)))
            handle_conn = daemon._handle_ingest_conn
            handed_over = []

            def late(reader, writer, handle_conn=handle_conn,
                     daemon=daemon, handed_over=handed_over):
                handed_over.append(writer)
                daemon.request_stop()

                async def first_step_later():
                    for _ in range(8):
                        await asyncio.sleep(0)
                    await handle_conn(reader, writer)

                return first_step_later()

            daemon._handle_ingest_conn = late
            handle = serve_in_thread(daemon)
            send_raw(daemon, stream)
            assert wait_until(lambda: handed_over)
            handle.thread.join(30)  # the hand-over requested the stop
            assert not handle.thread.is_alive() and not handle.error
            report = daemon.report
            assert (report.events_ingested, report.events_observed) == (6, 6)

    def test_stop_after_the_daemon_stopped_itself_returns_the_report(self):
        """A stop requested inside the loop ends the daemon; a later
        ``handle.stop()`` finds the loop closed and hands back the report
        instead of raising."""
        daemon = ServeDaemon(ServeConfig(port=0, ingest=("tcp:0",)))
        daemon.on_started = ServeDaemon.request_stop
        handle = serve_in_thread(daemon)
        handle.thread.join(30)
        assert not handle.thread.is_alive() and not handle.error
        assert handle.stop() is daemon.report
        daemon.request_stop()

    def test_stop_drains_queue_before_reporting(self, trace_path):
        # Slow the dispatcher down so a backlog exists at stop time.
        daemon, handle = boot(batch_max=1)
        result = stream_trace(trace_path, "127.0.0.1",
                              daemon.ingest_ports[0], repeat=2)
        # Stop only once every frame crossed the socket into the queue;
        # stopping mid-accept is allowed to drop the connection, which
        # is not what this test is about.
        assert wait_until(lambda: daemon.queue.accepted >= result.events)
        report = handle.stop()
        # Everything accepted was observed — nothing stranded in the queue.
        assert report.events_observed == report.events_ingested
        assert daemon.queue.depth == 0
        assert report.pending_ops == 0

    def test_spans_written_on_shutdown(self, trace_path, tmp_path):
        from repro.telemetry import load_spans, validate_spans

        spans_out = tmp_path / "spans.jsonl"
        daemon, handle = boot(spans_path=str(spans_out), trace_buffer=32)
        result = stream_trace(trace_path, "127.0.0.1",
                              daemon.ingest_ports[0])
        assert wait_until(lambda: daemon.queue.accepted >= result.events)
        handle.stop()
        with open(spans_out, "r", encoding="utf-8") as fp:
            spans = load_spans(fp)
        assert spans
        spans.sort(key=lambda s: s.span_id)
        assert validate_spans(spans) == []
