"""The daemon's sampled ``/trace`` ring, end to end.

``repro serve`` traces one packet uid in ``TRACE_SAMPLE_EVERY`` whole and
every violation besides.  These tests stream the catalog trace into a
default daemon whose ring is large enough to hold every span it records,
and hold the contract: each violating uid answers ``GET /trace?uid=``,
root spans exist for exactly the uids the sampler keeps, the spans are
well formed, tracing changes no outcome, and the decision is the same
in every process.
"""

import json
import os
import socket
import subprocess
import sys
import textwrap
import time
import urllib.request

import pytest

from repro.faults.rounds import catalog_trace
from repro.netsim.serialize import encode_frames, save_trace
from repro.serve import ServeConfig, ServeDaemon, serve_in_thread
from repro.telemetry import TRACE_SAMPLE_EVERY, uid_sampled, validate_spans

SRC = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..", "src"))

EVENTS = 4000
#: larger than every span the daemon records on EVENTS events
WHOLE_RING = 1 << 20


def violation_key(violation):
    packet = getattr(violation.trigger, "packet", None)
    return (violation.property_name, violation.time,
            repr(sorted(violation.bindings.items())),
            packet.uid if packet is not None else None)


def get_json(daemon, path):
    url = f"http://127.0.0.1:{daemon.http_port}{path}"
    with urllib.request.urlopen(url, timeout=5) as response:
        return json.load(response)


def serve(events, trace_buffer, probe=None):
    """Stream ``events`` as RPF2 batches into a default daemon; run
    ``probe(daemon)`` once every event is observed; return the daemon
    and its final report."""
    daemon = ServeDaemon(ServeConfig(
        port=0, ingest=("tcp:0",), trace_buffer=trace_buffer))
    handle = serve_in_thread(daemon)
    try:
        with socket.create_connection(
                ("127.0.0.1", daemon.ingest_ports[0])) as sock:
            for start in range(0, len(events), 64):
                sock.sendall(encode_frames(events[start:start + 64]))
        deadline = time.monotonic() + 30.0
        while daemon.monitor.stats.events < len(events):
            assert time.monotonic() < deadline, "daemon fell behind"
            time.sleep(0.01)
        if probe is not None:
            probe(daemon)
    finally:
        report = handle.stop()
    return daemon, report


def comparable(report):
    """The report minus what depends on timing, not on the events."""
    data = report.to_dict()
    for key in ("uptime", "queue", "http_requests"):
        del data[key]
    return data


@pytest.fixture(scope="module")
def events():
    return catalog_trace(seed=7, num_events=EVENTS)


@pytest.fixture(scope="module")
def packet_uids(events):
    return sorted({e.packet.uid for e in events
                   if getattr(e, "packet", None) is not None})


@pytest.fixture(scope="module")
def traced(events):
    answers = {}

    def probe(daemon):
        # Every violating uid, asked for over HTTP while the daemon runs.
        for violation in daemon.monitor.violations:
            uid = violation_key(violation)[3]
            if uid is not None and uid not in answers:
                answers[uid] = get_json(daemon, f"/trace?uid={uid}")["spans"]

    daemon, report = serve(events, WHOLE_RING, probe)
    assert daemon.monitor.violations, "catalog trace fired nothing — vacuous"
    assert answers, "no violation had a packet trigger — vacuous"
    return daemon, report, answers


class TestSampledRing:
    def test_every_violating_uid_answers_with_its_violation(self, traced):
        daemon, _, answers = traced
        for uid, spans in answers.items():
            assert any(s["name"] == "monitor.violation" and s["uid"] == uid
                       for s in spans), (uid, spans)
        violations = [s for s in daemon.tracer.spans
                      if s.name == "monitor.violation"]
        assert len(violations) == len(daemon.monitor.violations)

    def test_roots_are_exactly_the_sampled_uids(self, traced, packet_uids):
        daemon = traced[0]
        roots = {s.uid for s in daemon.tracer.spans
                 if not s.name.startswith("monitor.")}
        assert roots == {uid for uid in packet_uids if uid_sampled(uid)}
        # An unsampled event built nothing but its violations' spans.
        assert all(s.name == "monitor.violation" or s.uid in roots
                   for s in daemon.tracer.spans if s.uid is not None)

    def test_sampled_fraction_is_near_one_in_n(self, packet_uids):
        kept = sum(1 for uid in packet_uids if uid_sampled(uid))
        fraction = kept / len(packet_uids)
        target = 1 / TRACE_SAMPLE_EVERY
        assert target / 2 <= fraction <= target * 2, (kept, len(packet_uids))

    def test_spans_are_well_formed(self, traced):
        spans = sorted(traced[0].tracer.spans, key=lambda s: s.span_id)
        assert spans
        assert validate_spans(spans) == []

    def test_tracing_changes_no_outcome(self, traced, events):
        daemon, report, _ = traced
        untraced, untraced_report = serve(events, 0)
        assert not untraced.tracer.enabled
        assert [violation_key(v) for v in daemon.monitor.violations] \
            == [violation_key(v) for v in untraced.monitor.violations]
        assert comparable(report) == comparable(untraced_report)


def test_decision_is_the_same_under_another_hash_seed(
        events, packet_uids, tmp_path):
    """A daemon restarted under another ``PYTHONHASHSEED`` — or the fork
    of a sharded one — traces the same packets."""
    path = tmp_path / "catalog.jsonl"
    save_trace(events, str(path))
    script = textwrap.dedent("""
        import json, sys
        from repro.faults.rounds import build_monitor
        from repro.netsim.serialize import read_trace
        from repro.telemetry import Tracer

        monitor = build_monitor()
        monitor.tracer = tracer = Tracer(sampled=True)
        monitor.observe_batch(read_trace(sys.argv[1]))
        print(json.dumps(sorted({s.uid for s in tracer.spans
                                 if not s.name.startswith("monitor.")})))
    """)
    seed = "1" if os.environ.get("PYTHONHASHSEED") != "1" else "2"
    out = subprocess.run(
        [sys.executable, "-c", script, str(path)], check=True,
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=seed)).stdout
    assert json.loads(out) \
        == [uid for uid in packet_uids if uid_sampled(uid)]
