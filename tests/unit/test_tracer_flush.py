"""Tracer flush-on-close guarantees and the /trace ring buffer.

The daemon-facing half of the tracing contract: spans persist the
moment they close (``SpanWriter``), a tracer used as a context manager
cannot leak open spans, and a process killed mid-span leaves a valid
JSONL prefix — every line parses, no truncated records.  The kill test
runs a real subprocess and SIGKILLs it between spans-in-flight.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
import time

from repro.serve import ServeDaemon
from repro.telemetry import SpanWriter, Tracer, load_spans, validate_spans

SRC = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..", "src"))


class TestTracerRing:
    def test_ring_keeps_only_recent_spans(self):
        tracer = Tracer(max_spans=3)
        for i in range(7):
            tracer.event(f"e{i}", float(i))
        assert [s.name for s in tracer.recent(10)] == ["e4", "e5", "e6"]

    def test_recent_respects_limit_and_uid(self):
        tracer = Tracer(max_spans=10)
        for i in range(6):
            tracer.event(f"e{i}", float(i), uid=i % 2)
        assert [s.name for s in tracer.recent(2)] == ["e4", "e5"]
        assert [s.name for s in tracer.recent(10, uid=1)] \
            == ["e1", "e3", "e5"]

    def test_limit_zero_or_less_is_no_spans(self):
        # ``list(spans)[-0:]`` is every span: a limit of 0 once dumped
        # the whole ring.
        tracer = Tracer(max_spans=10)
        for i in range(6):
            tracer.event(f"e{i}", float(i), uid=1)
        assert tracer.recent(0) == []
        assert tracer.recent(0, uid=1) == []
        assert tracer.recent(-3) == []

    def test_trace_endpoint_limit_zero_is_empty_and_negative_is_400(self):
        daemon = ServeDaemon()
        for i in range(3):
            daemon.tracer.event(f"e{i}", float(i), uid=i)
        status, _, body = daemon._ep_trace({"limit": "0"})
        assert (status, json.loads(body)["count"]) == (200, 0)
        status, _, body = daemon._ep_trace({"limit": "2"})
        assert (status, json.loads(body)["count"]) == (200, 2)
        status, _, body = daemon._ep_trace({"limit": "-1"})
        assert status == 400 and "limit" in json.loads(body)["error"]

    def test_ending_an_evicted_span_still_fires_on_close(self):
        closed = []
        tracer = Tracer(max_spans=1, on_close=closed.append)
        old = tracer.start("old", 0.0)
        tracer.event("new", 1.0)  # evicts "old" from the ring
        tracer.end(old, 2.0)
        assert [s.name for s in closed] == ["new", "old"]

    def test_unbounded_by_default(self):
        tracer = Tracer()
        for i in range(5):
            tracer.event(f"e{i}", float(i))
        assert len(tracer.spans) == 5


class TestTracerContextManager:
    def test_exit_closes_open_spans_at_latest_time(self):
        with Tracer() as tracer:
            tracer.start("a", 1.0)
            tracer.event("b", 7.5)
        assert all(s.end is not None for s in tracer.spans)
        assert tracer.spans[0].end == 7.5
        assert validate_spans(sorted(
            tracer.spans, key=lambda s: s.span_id)) == []

    def test_exit_closes_even_on_exception(self):
        tracer = Tracer()
        try:
            with tracer:
                tracer.start("a", 1.0)
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert tracer.spans[0].end == 1.0


class TestSpanWriter:
    def test_writes_each_span_as_it_closes(self, tmp_path):
        path = str(tmp_path / "spans.jsonl")
        tracer = Tracer()
        writer = SpanWriter(path, tracer)
        root = tracer.start("root", 0.0, uid=1, root=True)
        tracer.event("child", 0.5, uid=1)
        # The child closed; it must already be durable on disk.
        with open(path, encoding="utf-8") as fp:
            assert len(fp.readlines()) == 1
        tracer.end(root, 1.0)
        writer.close()
        with open(path, encoding="utf-8") as fp:
            spans = sorted(load_spans(fp), key=lambda s: s.span_id)
        assert [s.name for s in spans] == ["root", "child"]
        assert validate_spans(spans) == []

    def test_close_flushes_open_spans_and_is_idempotent(self, tmp_path):
        path = str(tmp_path / "spans.jsonl")
        tracer = Tracer()
        with SpanWriter(path, tracer) as writer:
            tracer.start("dangling", 3.0)
        writer.close()  # second close: no-op
        with open(path, encoding="utf-8") as fp:
            spans = load_spans(fp)
        assert spans[0].name == "dangling"
        assert spans[0].end == 3.0
        assert writer.written == 1

    def test_kill_mid_span_leaves_no_truncated_record(self, tmp_path):
        """SIGKILL between writes: the file is a valid JSONL prefix."""
        path = str(tmp_path / "spans.jsonl")
        script = textwrap.dedent("""
            import os, sys
            from repro.telemetry import SpanWriter, Tracer

            tracer = Tracer()
            writer = SpanWriter(sys.argv[1], tracer)
            root = tracer.start("root", 0.0, uid=1, root=True)
            for i in range(50):
                tracer.event("tick", float(i), uid=1, payload="x" * 512)
            print("READY", flush=True)
            # Spin with the root span still open until the parent kills us.
            while True:
                tracer.event("spin", 99.0, uid=1, payload="y" * 512)
        """)
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.Popen(
            [sys.executable, "-c", script, path],
            stdout=subprocess.PIPE, env=env)
        try:
            assert proc.stdout.readline().strip() == b"READY"
            time.sleep(0.05)  # let the spin loop write mid-stream
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=10)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup
                proc.kill()
        with open(path, encoding="utf-8") as fp:
            lines = fp.readlines()
        assert len(lines) >= 50
        for line in lines:  # every record is complete JSON on one line
            assert line.endswith("\n")
            record = json.loads(line)
            assert record["end"] is not None
        # The still-open root was never written — only closed spans are.
        assert all(json.loads(l)["name"] != "root" for l in lines)

    def test_atexit_flush_on_unclean_exit(self, tmp_path):
        """sys.exit without close(): atexit still closes the file."""
        path = str(tmp_path / "spans.jsonl")
        script = textwrap.dedent("""
            import sys
            from repro.telemetry import SpanWriter, Tracer

            tracer = Tracer()
            writer = SpanWriter(sys.argv[1], tracer)
            tracer.start("open-at-exit", 2.0)
            sys.exit(3)
        """)
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.run(
            [sys.executable, "-c", script, path], env=env)
        assert proc.returncode == 3
        with open(path, encoding="utf-8") as fp:
            spans = load_spans(fp)
        assert [s.name for s in spans] == ["open-at-exit"]
        assert spans[0].end == 2.0
