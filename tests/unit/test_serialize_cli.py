"""Unit tests: trace serialization round-trips and the CLI commands."""

import io
import json

import pytest

from repro.cli import main
from repro.fabric import fork_available
from repro.netsim.serialize import (
    TraceFormatError,
    dump_trace,
    event_from_dict,
    event_to_dict,
    load_trace,
    read_trace,
    save_trace,
)
from repro.packet import dhcp_packet, DhcpMessageType, ethernet, tcp_packet
from repro.switch.events import (
    EgressAction,
    OobKind,
    OutOfBandEvent,
    PacketArrival,
    PacketDrop,
    PacketEgress,
    TimerFired,
)


def sample_events():
    p = tcp_packet(1, 2, "10.0.0.1", "10.0.0.2", 1000, 80, payload=b"hi")
    d = dhcp_packet(5, DhcpMessageType.ACK, yiaddr="10.0.0.50")
    return [
        PacketArrival(switch_id="s1", time=0.0, packet=p, in_port=1),
        PacketEgress(switch_id="s1", time=0.001, packet=p, in_port=1,
                     out_port=2, action=EgressAction.UNICAST),
        PacketDrop(switch_id="s1", time=0.002, packet=d, in_port=2,
                   reason="acl"),
        OutOfBandEvent(switch_id="s1", time=0.003,
                       oob_kind=OobKind.PORT_DOWN, port=3),
        TimerFired(switch_id="s1", time=0.004, timer_id="t1",
                   instance_key=("a", 1)),
    ]


class TestTraceSerialization:
    def test_roundtrip_preserves_everything(self):
        events = sample_events()
        buf = io.StringIO()
        assert dump_trace(events, buf) == 5
        buf.seek(0)
        loaded = load_trace(buf)
        assert len(loaded) == 5
        for original, restored in zip(events, loaded):
            assert type(original) is type(restored)
            assert restored.time == original.time
            assert restored.switch_id == original.switch_id

    def test_packet_identity_survives(self):
        events = sample_events()
        buf = io.StringIO()
        dump_trace(events, buf)
        buf.seek(0)
        loaded = load_trace(buf)
        # Arrival and egress carried the same packet: identity preserved.
        assert loaded[0].packet.uid == loaded[1].packet.uid
        assert loaded[0].packet.uid == events[0].packet.uid

    def test_packet_contents_survive(self):
        events = sample_events()
        buf = io.StringIO()
        dump_trace(events, buf)
        buf.seek(0)
        loaded = load_trace(buf)
        assert loaded[0].packet.l4_sport == 1000
        assert loaded[0].packet.payload == b"hi"
        from repro.packet import Dhcp

        assert loaded[2].packet.get(Dhcp).yiaddr is not None

    def test_oob_and_timer_fields(self):
        buf = io.StringIO()
        dump_trace(sample_events(), buf)
        buf.seek(0)
        loaded = load_trace(buf)
        assert loaded[3].oob_kind is OobKind.PORT_DOWN
        assert loaded[3].port == 3
        assert loaded[4].timer_id == "t1"
        assert loaded[4].instance_key == ("a", 1)

    def test_file_roundtrip(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        assert save_trace(sample_events(), path) == 5
        assert len(read_trace(path)) == 5

    def test_blank_lines_skipped(self):
        buf = io.StringIO()
        dump_trace(sample_events()[:1], buf)
        buf.write("\n\n")
        buf.seek(0)
        assert len(load_trace(buf)) == 1

    def test_invalid_json_rejected(self):
        with pytest.raises(TraceFormatError):
            load_trace(io.StringIO("not json\n"))

    def test_missing_fields_rejected(self):
        with pytest.raises(TraceFormatError):
            load_trace(io.StringIO(json.dumps({"kind": "PacketArrival"}) + "\n"))

    def test_unknown_kind_rejected(self):
        line = json.dumps({"kind": "Quantum", "switch": "s", "time": 0.0})
        with pytest.raises(TraceFormatError):
            load_trace(io.StringIO(line + "\n"))

    def test_dict_roundtrip_single(self):
        event = sample_events()[0]
        assert event_from_dict(event_to_dict(event)).packet.uid == event.packet.uid


DSL = """
property learned_unicast
key D
observe learn : arrival
    bind D = eth.src, p = in_port
observe bad_egress : egress
    where eth.dst == $D and out_port != $p
"""


class TestCli:
    def test_tables_exits_zero(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "13/13 rows match the paper" in out
        assert "all cells match the paper" in out

    def test_survey_lists_backends(self, capsys):
        assert main(["survey"]) == 0
        out = capsys.readouterr().out
        assert "Varanus" in out and "hosts" in out

    def test_check_analyzes_file(self, tmp_path, capsys):
        path = tmp_path / "p.prop"
        path.write_text(DSL)
        assert main(["check", str(path)]) == 0
        out = capsys.readouterr().out
        assert "learned_unicast" in out
        assert "negative-match" in out

    def test_check_reports_errors(self, tmp_path, capsys):
        path = tmp_path / "bad.prop"
        path.write_text("property broken observe x : wormhole")
        assert main(["check", str(path)]) == 1
        assert "ERROR" in capsys.readouterr().err

    def test_record_then_replay(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        props = tmp_path / "p.prop"
        props.write_text(DSL)
        assert main(["record", str(trace), "--packets", "30",
                     "--fault-rate", "1.0"]) == 0
        assert main(["replay", str(trace), str(props)]) == 0
        out = capsys.readouterr().out
        assert "violations:" in out
        assert "VIOLATION learned_unicast" in out

    def test_replay_clean_trace(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        props = tmp_path / "p.prop"
        props.write_text(DSL)
        assert main(["record", str(trace), "--packets", "30",
                     "--fault-rate", "0.0"]) == 0
        assert main(["replay", str(trace), str(props)]) == 0
        assert "violations: 0" in capsys.readouterr().out


    @pytest.mark.skipif(not fork_available(),
                        reason="fork start method unavailable")
    def test_replay_shards_matches_unsharded(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        props = tmp_path / "p.prop"
        props.write_text(DSL)
        assert main(["record", str(trace), "--packets", "30",
                     "--fault-rate", "1.0"]) == 0
        capsys.readouterr()

        def replay(*flags):
            assert main(["replay", str(trace), str(props), *flags]) == 0
            head, count, *rest = capsys.readouterr().out.split("\n", 2)
            return head, count, sorted("".join(rest).split("\n\n"))

        plain_head, plain_count, plain = replay()
        head, count, sharded = replay("--shards", "2")
        assert head == plain_head + " across 2 mp shard(s)"
        assert count == plain_count != "violations: 0"
        assert sharded == plain

    @pytest.mark.parametrize("argv", [
        ["replay", "t.jsonl", "p.prop", "--shards", "2"],
        ["serve", "--shards", "2"],
    ])
    def test_shards_without_fork_exits_2(self, argv, tmp_path, capsys,
                                         monkeypatch):
        (tmp_path / "t.jsonl").write_text("")
        (tmp_path / "p.prop").write_text(DSL)
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("repro.fabric.fork_available", lambda: False)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "fork start method" in err


class TestTraceHeader:
    def test_header_roundtrip(self):
        from repro.netsim.serialize import trace_header

        buf = io.StringIO()
        header = trace_header(seed=7, hosts=4, packets=40)
        dump_trace(sample_events(), buf, header=header)
        buf.seek(0)
        first = json.loads(buf.readline())
        assert first["kind"] == "TraceHeader"
        assert first["schema"] == 1
        assert first["seed"] == 7
        buf.seek(0)
        # Plain loads skip the header transparently.
        assert len(load_trace(buf)) == 5

    def test_header_drops_none_fields(self):
        from repro.netsim.serialize import trace_header

        assert "seed" not in trace_header(seed=None, hosts=4)

    def test_read_trace_with_header(self, tmp_path):
        from repro.netsim.serialize import read_trace_with_header, trace_header

        path = str(tmp_path / "t.jsonl")
        save_trace(sample_events(), path, header=trace_header(seed=3))
        header, events = read_trace_with_header(path)
        assert header["seed"] == 3
        assert len(events) == 5

    def test_headerless_trace_reads_as_none(self, tmp_path):
        from repro.netsim.serialize import read_trace_with_header

        path = str(tmp_path / "t.jsonl")
        save_trace(sample_events(), path)
        header, events = read_trace_with_header(path)
        assert header is None
        assert len(events) == 5

    def test_header_past_line_one_rejected(self):
        buf = io.StringIO()
        dump_trace(sample_events()[:1], buf)
        buf.write(json.dumps({"kind": "TraceHeader", "schema": 1}) + "\n")
        buf.seek(0)
        with pytest.raises(TraceFormatError):
            load_trace(buf)


class TestStatsCli:
    @pytest.fixture
    def recorded(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        props = tmp_path / "p.prop"
        props.write_text(DSL)
        assert main(["record", str(trace), "--packets", "20", "--seed", "3",
                     "--fault-rate", "1.0"]) == 0
        return str(trace), str(props)

    def test_record_writes_provenance_header(self, recorded):
        trace, _ = recorded
        with open(trace, encoding="utf-8") as fp:
            first = json.loads(fp.readline())
        assert first["kind"] == "TraceHeader"
        assert first["schema"] == 1
        assert first["seed"] == 3
        assert first["packets"] == 20
        assert first["generator"] == "repro record"

    def test_stats_default_prometheus(self, recorded, capsys):
        trace, props = recorded
        assert main(["stats", trace, props]) == 0
        captured = capsys.readouterr()
        assert "# TYPE repro_monitor_events_total counter" in captured.out
        assert "repro_monitor_events_total" in captured.out
        # Provenance echo goes to stderr, not into the exposition text.
        assert "schema v1" in captured.err
        assert "seed=3" in captured.err

    def test_stats_json_snapshot(self, recorded, capsys):
        trace, props = recorded
        assert main(["stats", trace, props, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trace"]["header"]["seed"] == 3
        names = {m["name"] for m in payload["snapshot"]["metrics"]}
        assert "repro_monitor_events_total" in names
        assert "repro_monitor_live_instances" in names

    def test_stats_trace_out_spans_validate(self, recorded, tmp_path):
        from repro.telemetry import load_spans, validate_spans

        trace, props = recorded
        spans_path = str(tmp_path / "spans.jsonl")
        assert main(["stats", trace, props, "--trace-out", spans_path]) == 0
        with open(spans_path, encoding="utf-8") as fp:
            spans = load_spans(fp)
        assert spans
        assert validate_spans(spans) == []

    def test_stats_poll_interval_samples(self, recorded, capsys):
        trace, props = recorded
        # The 20-packet recording spans ~19ms of virtual time; a 5ms
        # interval yields a handful of samples across it.
        assert main(["stats", trace, props, "--json",
                     "--poll-interval", "0.005"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["samples"]
        times = [row["time"] for row in payload["samples"]]
        assert times == sorted(times)

    def test_replay_metrics_out(self, recorded, tmp_path, capsys):
        trace, props = recorded
        out = str(tmp_path / "metrics.json")
        assert main(["replay", trace, props, "--metrics", out]) == 0
        with open(out, encoding="utf-8") as fp:
            snapshot = json.load(fp)
        names = {m["name"] for m in snapshot["metrics"]}
        assert "repro_monitor_events_total" in names


class TestShippedPropertyFiles:
    """The catalog's .prop files (package data) must stay compilable."""

    @staticmethod
    def _files():
        from importlib import resources

        sources = resources.files("repro.props") / "sources"
        return sorted(str(entry) for entry in sources.iterdir()
                      if entry.name.endswith(".prop"))

    def test_all_shipped_files_check(self, capsys):
        files = self._files()
        assert len(files) == 22
        assert main(["check"] + files) == 0
        out = capsys.readouterr().out
        assert out.count("inst. id") == 22

    def test_files_match_catalog_names(self):
        """One file per catalog name: no stray source, none missing."""
        import os

        from repro.props import CATALOG_NAMES

        names = [os.path.basename(f)[:-5].replace("_", "-")
                 for f in self._files()]
        assert sorted(names) == sorted(CATALOG_NAMES)
