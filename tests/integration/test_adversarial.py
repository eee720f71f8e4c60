"""Attack synthesis closes the taint-lint loop (repro.faults.attacks).

The contract under test: a property the taint pass *flags* really does
degrade under the synthesized attack (shed counters above zero, ledger
uncertainty interval widened), while the benign control trace — and any
property the lint did *not* flag — stays clean.  If either side fails,
the lint is crying wolf or sleeping through one.
"""

import json

from repro.cli import main
from repro.faults.attacks import (
    _key_value,
    catalog_findings,
    findings_for,
    render_attack_report,
    run_attack,
    run_attacks,
    run_exhaustion,
    synthesize_flood,
)
from repro.lint import lint_source
from repro.lint.schema import FIELD_SCHEMA, literal_kind, literal_overflow

FLOODABLE_KEY = "knocking-invalidated"  # predicate-free stage 0, L017

PACED = """\
property paced_request "deadline the sender controls"
key PORT
observe request : arrival
    where tcp.dst == 7001
    bind PORT = in_port
absent reply : arrival within 5 refresh on_prior
    where tcp.src == 7001
"""

UNFLAGGED = """\
property pinned_lb "key half-pinned: the lint stays quiet"
key CLIENT, VIP
observe req : arrival
    where ipv4.dst == 10.0.0.100
    bind CLIENT = ipv4.src, VIP = ipv4.dst
observe resp : arrival
    where ipv4.src == $VIP and ipv4.dst == $CLIENT
"""


class TestExhaustionFlood:
    def test_flagged_property_degrades_and_control_stays_clean(self):
        (finding,) = [f for f in catalog_findings([FLOODABLE_KEY])
                      if f.code == "L017"]
        outcome = run_exhaustion(finding, cap=32, events=128)
        assert outcome.kind == "exhaustion-flood"
        # the acceptance bar: the attack pushes shed counters above zero
        # while the clean run stays at zero
        assert outcome.attack_sheds > 0
        assert outcome.control_sheds == 0
        assert outcome.succeeded and outcome.clean_control
        # the ledger's uncertainty interval widened under attack: every
        # evicted instance is a potentially missed violation
        low, high = outcome.attack_interval
        assert high >= outcome.attack_violations + outcome.attack_sheds

    def test_unflagged_property_yields_no_attack(self):
        assert findings_for(UNFLAGGED) == []
        # and the lint agrees end to end
        report = lint_source(UNFLAGGED)
        assert not [d for d in report.all_diagnostics()
                    if d.code in ("L017", "L018")]

    def test_flood_matches_the_stage0_guards(self):
        (finding,) = [f for f in catalog_findings([FLOODABLE_KEY])
                      if f.code == "L017"]
        flood = synthesize_flood(finding, 16)
        # knocking stage 0 requires tcp.dst == 7001; every forged packet
        # must honour it or the flood would not create instances
        for event in flood:
            fields = _tcp_dst(event.packet)
            assert fields == 7001
        # and the key field cycles: all sources distinct
        sources = {str(_ipv4_src(event.packet)) for event in flood}
        assert len(sources) == 16


class TestForgedKeys:
    def test_every_declared_field_forges_a_value_of_its_kind(self):
        """A forged key takes its kind from the field table, and an int
        fits the declared width: ``dhcp.yiaddr`` is an address, not
        ``1024 + salt``."""
        forged = [name for name, ftype in FIELD_SCHEMA.items()
                  if ftype.kind in ("ip", "mac", "int")]
        assert {"dhcp.yiaddr", "dhcp.server_id", "dhcp.requested_ip",
                "vlan.pcp", "in_port"} <= set(forged)
        for name in forged:
            ftype = FIELD_SCHEMA[name]
            values = {_key_value(name, salt) for salt in (0, 1, 7, 300, 70000)}
            assert len(values) > 1, name
            for value in values:
                assert literal_kind(value) == ftype.kind, (name, value)
                if ftype.kind == "int":
                    assert literal_overflow(name, value) is None, (name, value)


def _tcp_dst(packet):
    return packet.field("tcp.dst")


def _ipv4_src(packet):
    return packet.field("ipv4.src")


class TestEvasionPacing:
    def test_pacing_defers_the_deadline(self):
        (finding,) = findings_for(PACED)
        assert finding.code == "L018"
        outcome = run_attack(finding)
        assert outcome.kind == "evasion-pacing"
        assert outcome.succeeded and outcome.clean_control
        # the unpaced control collects the violation the attacker dodged
        assert outcome.control_violations > 0


class TestSweep:
    def test_catalog_sweep_confirms_every_executed_attack(self):
        report = run_attacks(
            keys=[FLOODABLE_KEY, "dhcp-reply-within"],
            extra_sources=[PACED], cap=32)
        assert not report.failed
        kinds = {o.kind for o in report.outcomes}
        assert "exhaustion-flood" in kinds
        assert "evasion-pacing" in kinds
        text = render_attack_report(report)
        assert "confirmed" in text and "passed" in text

    def test_opaque_stage0_predicates_are_skipped_not_attacked(self):
        outcomes = [run_attack(f)
                    for f in catalog_findings(["firewall-basic"])]
        assert outcomes  # the property is flagged...
        assert all(o.kind == "skipped" for o in outcomes)  # ...not forged
        assert all("opaque predicate" in o.detail for o in outcomes)


class TestCli:
    def test_chaos_attack_smoke(self, tmp_path, capsys):
        out_path = str(tmp_path / "attack.json")
        assert main(["chaos", "--attack", "--rounds", "1",
                     "--json", out_path]) == 0
        out = capsys.readouterr().out
        assert "adversarial sweep" in out
        assert "attack sweep passed" in out
        with open(out_path, encoding="utf-8") as fp:
            payload = json.load(fp)
        assert payload["failed"] is False
        executed = [o for o in payload["outcomes"]
                    if o["kind"] != "skipped"]
        assert executed
        assert all(o["succeeded"] and o["clean_control"] for o in executed)
