"""Integration tests: ``repro chaos`` — the acceptance-criteria runs."""

import dataclasses
import json
import os

import pytest

from repro.cli import main
from repro.fabric import fork_available
from repro.faults import rounds
from repro.faults.profiles import PROFILES

GOLDEN = os.path.join(os.path.dirname(__file__), "..", "fixtures", "chaos")

#: fixture name -> ``repro chaos`` arguments whose stdout it pins
GOLDEN_RUNS = {
    **{name: ["--profile", name, "--seed", "0", "--rounds", "2",
              "--events", "400"] for name in sorted(PROFILES)},
    "attack": ["--attack", "--rounds", "1"],
}


class TestGoldenOutput:
    @pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
    def test_stdout_matches_the_golden(self, name, capsys):
        """Every profile's report, and the attack sweep, byte for byte
        (``tests/fixtures/chaos/NAME.txt``)."""
        if name == "worker-crash" and not fork_available():
            pytest.skip("worker-crash runs forked fabric workers")
        main(["chaos", *GOLDEN_RUNS[name]])
        with open(os.path.join(GOLDEN, f"{name}.txt"), encoding="utf-8") as fp:
            assert capsys.readouterr().out == fp.read()


class TestChaosCommand:
    def test_overloaded_full_catalog(self, capsys):
        """The headline acceptance run: zero crashes, zero leaks, both
        shed mechanisms engaged, clean count inside the interval."""
        assert main(["chaos", "--profile", "overloaded",
                     "--events", "1500"]) == 0
        out = capsys.readouterr().out
        assert "clean count WITHIN interval" in out
        assert "instance-evicted" in out
        assert "op-shed" in out
        assert "INVARIANT" not in out

    def test_overloaded_report_fields(self):
        report = rounds.run_chaos(PROFILES["overloaded"], seed=7,
                                  num_events=1500)
        assert report.invariant_failures == []
        by_kind = report.ledger["by_kind"]
        assert by_kind.get("instance-evicted", 0) > 0
        assert by_kind.get("op-shed", 0) + by_kind.get("op-dropped", 0) > 0
        lo, hi = report.interval
        assert lo <= report.clean_total <= hi
        assert report.bounded is True
        # Telemetry snapshot rides along with the monitor's counters.
        metrics = {m["name"] for m in report.telemetry["metrics"]}
        assert "repro_monitor_instances_evicted_total" in metrics
        assert "repro_monitor_ops_shed_total" in metrics

    def test_soak_rounds_and_json(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        assert main(["chaos", "--profile", "lossy", "--rounds", "3",
                     "--events", "400", "--json", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "round 3/3" in out
        payload = json.loads(out_path.read_text())
        assert payload["profile"] == "lossy"
        assert len(payload["rounds"]) == 3
        # Rounds use derived seeds; each is a full report.
        assert [r["seed"] for r in payload["rounds"]] == [7, 8, 9]
        for round_report in payload["rounds"]:
            assert round_report["invariant_failures"] == []
            assert round_report["violations"]["bounded"] is None  # link faults

    def test_clean_profile_perfect_recall(self, capsys):
        assert main(["chaos", "--profile", "clean", "--events", "400"]) == 0
        out = capsys.readouterr().out
        assert "recall=1.000" in out
        assert "overflow ledger: empty" in out

    def test_adversarial_completes(self, capsys):
        assert main(["chaos", "--profile", "adversarial",
                     "--events", "600"]) == 0
        out = capsys.readouterr().out
        assert "recall only" in out
        assert "INVARIANT" not in out


class TestWorkerCrashSupervision:
    def test_cli_hands_over_the_soak_policy_with_its_one_flag(
            self, monkeypatch):
        """``--restart-budget`` is the only difference from the policy
        ``run_chaos`` defaults to: the checkpoint cadence is no flag."""
        handed = []

        class Stop(Exception):
            pass

        def fake_run(profile, seed, supervision, **kwargs):
            handed.append(supervision)
            raise Stop

        monkeypatch.setattr("repro.cli._lacks_fork", lambda what: False)
        monkeypatch.setattr(rounds, "run_chaos", fake_run)
        with pytest.raises(Stop):
            main(["chaos", "--profile", "worker-crash",
                  "--restart-budget", "9"])
        assert handed == [dataclasses.replace(
            rounds.SOAK_SUPERVISION, restart_budget=9)]
        assert handed[0] != rounds.SOAK_SUPERVISION
