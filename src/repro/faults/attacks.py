"""Attack synthesis from taint findings: the lint's claims, executed.

The taint pass (:mod:`repro.lint.taint`) *flags* properties whose monitor
state an end host controls — L017 says "one sender can flood the instance
table", L018 says "the sender paces traffic around the deadline".  This
module closes the loop by turning those findings into concrete event
traces and running them against a real :class:`~repro.core.monitor.Monitor`
so the claims are checked, not just asserted.  The threat model is Wang,
Mittal and Rexford's "Data-Plane Security Applications in Adversarial
Settings": a sender that controls the header fields it emits (each forged
with the kind and width the field table declares) and nothing else.

* an **exhaustion flood** (from an L017 finding) synthesizes packets that
  match the property's stage 0 while cycling every key-bound header field
  through fresh values, then feeds them to a monitor capped by the very
  :func:`~repro.core.degradation.suggested_policy` the lint recommends.
  The attack *succeeds* when the monitor's :class:`OverflowLedger` shows
  shed instances; a benign control trace (same traffic shape, a handful
  of distinct keys) over the same monitor must shed nothing.

* an **evasion pacing** run (from an L018 finding on an ``absent ...
  refresh on_prior`` stage) re-sends the deadline-opening packet just
  inside the window so the obligation never fires, while the control run
  sends it once and collects the violation the attacker suppressed.

``repro chaos --attack`` drives :func:`run_attacks` over the whole DSL
catalog plus the adversarial corpus; the integration tests assert the
flagged/unflagged split is faithful (flagged properties degrade under
attack, unflagged ones do not).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Dict, Iterable, List, Optional, Tuple

from ..core.degradation import suggested_policy
from ..core.monitor import Monitor
from ..core.spec import PropertySpec
from ..lang import compile_one, parse_one
from ..lang.ast import Comparison, Literal, NamedPredicate, PropertyAst, StageAst
from ..lint.diagnostics import Diagnostic
from ..lint.schema import FIELD_SCHEMA
from ..lint.taint import TaintReport, analyze_taint, taint_diagnostics
from ..packet.addresses import IPv4Address, MACAddress
from ..packet.builder import (
    arp_reply,
    arp_request,
    dhcp_packet,
    ethernet,
    tcp_packet,
    udp_packet,
)
from ..packet.dhcp import DhcpMessageType
from ..packet.headers import TCPFlags
from ..packet.packet import Packet
from ..props import CATALOG_NAMES, catalog_predicates, property_source
from ..switch.events import PacketArrival

#: ledger record kinds that mean "an instance was shed"
SHED_KINDS = ("instance-evicted", "instance-rejected")

#: instance cap imposed on the attacked monitor (small so floods are cheap)
ATTACK_CAP = 64

#: distinct keys in the benign control trace — far under ATTACK_CAP
BENIGN_KEYS = 8

#: stage-0 predicates we know how to satisfy with a forged packet
_SPOOFABLE_PREDICATES = (
    "tcp_syn", "arp_request", "arp_reply",
    "dhcp_request", "dhcp_ack", "dhcp_release",
)


# ---------------------------------------------------------------------------
# findings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AttackFinding:
    """One L017/L018 diagnostic paired with everything needed to attack."""

    source_key: str  # catalog name ("" for ad-hoc sources)
    source: str
    ast: PropertyAst
    report: TaintReport
    diagnostic: Diagnostic

    @property
    def prop(self) -> str:
        return self.ast.name

    @property
    def code(self) -> str:
        return self.diagnostic.code


def findings_for(source: str, source_key: str = "") -> List[AttackFinding]:
    """The attackable (L017/L018) findings for one property source."""
    ast = parse_one(source)
    report = analyze_taint(ast)
    return [
        AttackFinding(source_key=source_key, source=source, ast=ast,
                      report=report, diagnostic=diag)
        for diag in taint_diagnostics(ast, report)
        if diag.code in ("L017", "L018")
    ]


def catalog_findings(
    keys: Optional[Iterable[str]] = None,
) -> List[AttackFinding]:
    """Attackable findings across the catalog (or a subset of names)."""
    out: List[AttackFinding] = []
    for key in (sorted(CATALOG_NAMES) if keys is None else keys):
        out.extend(findings_for(property_source(key), source_key=key))
    return out


# ---------------------------------------------------------------------------
# trace synthesis
# ---------------------------------------------------------------------------

class SynthesisError(Exception):
    """Stage 0 cannot be forged by a lone sender (opaque predicate &c)."""


def _stage0_plan(stage: StageAst, key_vars: Tuple[str, ...]):
    """(fixed field assignments, varying key fields, predicates) for stage 0.

    Equality guards against literals become fixed header values — the
    flood has to *match* the property, not just resemble it.  Ordered
    guards pick a satisfying value just inside the bound.
    """
    fixed: Dict[str, object] = {}
    predicates: List[str] = []
    for condition in stage.pattern.conditions:
        if isinstance(condition, NamedPredicate):
            if condition.name not in _SPOOFABLE_PREDICATES:
                raise SynthesisError(
                    f"stage 0 requires opaque predicate @{condition.name}")
            predicates.append(condition.name)
        elif isinstance(condition, Comparison):
            if not isinstance(condition.value, Literal):
                continue  # stage-0 var refs have nothing bound yet
            value = condition.value.value
            if condition.op in ("==", "<=", ">="):
                fixed[condition.field] = value
            elif condition.op == "<" and isinstance(value, int):
                fixed[condition.field] = value - 1
            elif condition.op == ">" and isinstance(value, int):
                fixed[condition.field] = value + 1
            # "!=": any default value other than the literal matches;
            # the synthetic defaults below never collide with catalog
            # literals, so nothing to do.
    varying = tuple(
        bind.field for bind in stage.pattern.binds
        if bind.var in key_vars and bind.field not in fixed
    )
    return fixed, varying, predicates


def _key_value(field_name: str, salt: int) -> object:
    """The ``salt``-th distinct forged value for one header field, of the
    kind the field table declares (an int within its declared width)."""
    ftype = FIELD_SCHEMA.get(field_name)
    kind = ftype.kind if ftype is not None else "int"
    if kind == "mac":
        # locally-administered unicast OUI so forged MACs are well-formed
        return MACAddress(0x02_00_00_00_00_00 + salt)
    if kind == "ip":
        # RFC 2544 benchmarking range: never collides with catalog hosts
        return IPv4Address(f"198.18.{(salt >> 8) & 255}.{salt & 255}")
    if kind == "int" and ftype is not None and ftype.bits < 16:
        return salt % (1 << ftype.bits)  # narrow fields: cycle the width
    return 1024 + (salt % 60000)  # ports, xids, misc integers


def _forge_packet(assign: Dict[str, object], predicates: List[str]) -> Packet:
    """A packet realizing the given field assignment.

    The protocol is inferred from the assigned field prefixes (and any
    spoofable stage-0 predicates); unassigned fields fall back to fixed
    attacker-host defaults.
    """
    prefixes = {name.split(".", 1)[0] for name in assign}

    def get(name, default):
        return assign.get(name, default)

    if "arp" in prefixes or any(p.startswith("arp_") for p in predicates):
        if "arp_reply" in predicates:
            return arp_reply(
                get("arp.sender_mac", MACAddress(0x02_00_00_00_FF_01)),
                get("arp.sender_ip", "198.18.255.1"),
                get("arp.target_mac", MACAddress(0x02_00_00_00_FF_02)),
                get("arp.target_ip", "198.18.255.2"))
        return arp_request(
            get("arp.sender_mac", MACAddress(0x02_00_00_00_FF_01)),
            get("arp.sender_ip", "198.18.255.1"),
            get("arp.target_ip", "198.18.255.2"))
    if "dhcp" in prefixes or any(p.startswith("dhcp_") for p in predicates):
        msg_type = DhcpMessageType.REQUEST
        if "dhcp_ack" in predicates:
            msg_type = DhcpMessageType.ACK
        elif "dhcp_release" in predicates:
            msg_type = DhcpMessageType.RELEASE
        msg_type = get("dhcp.msg_type", msg_type)
        return dhcp_packet(
            get("dhcp.client_mac", MACAddress(0x02_00_00_00_FF_01)),
            msg_type,
            xid=get("dhcp.xid", 1),
            yiaddr=get("dhcp.yiaddr", "198.18.255.3"),
            server_id=get("dhcp.server_id", "198.18.255.4"),
            requested_ip=get("dhcp.requested_ip", None))
    if "udp" in prefixes:
        return udp_packet(
            get("eth.src", MACAddress(0x02_00_00_00_FF_01)),
            get("eth.dst", MACAddress(0x02_00_00_00_FF_02)),
            get("ipv4.src", "198.18.255.1"),
            get("ipv4.dst", "198.18.255.2"),
            get("udp.src", 40000), get("udp.dst", 40001))
    if "tcp" in prefixes or "ipv4" in prefixes or "tcp_syn" in predicates:
        flags = TCPFlags.SYN if "tcp_syn" in predicates else TCPFlags.ACK
        return tcp_packet(
            get("eth.src", MACAddress(0x02_00_00_00_FF_01)),
            get("eth.dst", MACAddress(0x02_00_00_00_FF_02)),
            get("ipv4.src", "198.18.255.1"),
            get("ipv4.dst", "198.18.255.2"),
            get("tcp.src", 40000), get("tcp.dst", 40001),
            flags=get("tcp.flags", flags))
    return ethernet(
        get("eth.src", MACAddress(0x02_00_00_00_FF_01)),
        get("eth.dst", MACAddress(0x02_00_00_00_FF_02)))


def synthesize_flood(
    finding: AttackFinding,
    count: int,
    *,
    distinct_keys: Optional[int] = None,
    start: float = 0.0,
    spacing: float = 0.001,
    salt: int = 0,
) -> List[PacketArrival]:
    """``count`` stage-0 matches cycling the key through forged values.

    ``distinct_keys=None`` mints a fresh key per packet (the exhaustion
    flood); a small value replays the same few keys (the benign control).
    Raises :class:`SynthesisError` when stage 0 needs an opaque predicate.
    """
    stage = finding.ast.stages[0]
    fixed, varying, predicates = _stage0_plan(stage, finding.report.key_vars)
    events: List[PacketArrival] = []
    for i in range(count):
        key_salt = salt + (i if distinct_keys is None else i % distinct_keys)
        assign = dict(fixed)
        for name in varying:
            assign[name] = _key_value(name, key_salt)
        in_port = assign.pop("in_port", 1)
        events.append(PacketArrival(
            switch_id="s", time=start + i * spacing,
            packet=_forge_packet(assign, predicates), in_port=in_port))
    return events


# ---------------------------------------------------------------------------
# attack execution
# ---------------------------------------------------------------------------

@dataclass
class AttackOutcome:
    """What one synthesized attack did to one property's monitor."""

    prop: str
    code: str
    kind: str  # "exhaustion-flood" | "evasion-pacing" | "skipped"
    succeeded: bool  # attack had the effect the lint predicted
    clean_control: bool  # control run showed no degradation artifact
    events: int = 0
    attack_sheds: int = 0
    control_sheds: int = 0
    attack_violations: int = 0
    control_violations: int = 0
    #: ledgered uncertainty interval around the attack run's verdict count
    attack_interval: Tuple[int, int] = (0, 0)
    detail: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {
            "prop": self.prop,
            "code": self.code,
            "kind": self.kind,
            "succeeded": self.succeeded,
            "clean_control": self.clean_control,
            "events": self.events,
            "attack_sheds": self.attack_sheds,
            "control_sheds": self.control_sheds,
            "attack_violations": self.attack_violations,
            "control_violations": self.control_violations,
            "attack_interval": list(self.attack_interval),
            "detail": self.detail,
        }


def _capped_monitor(finding: AttackFinding, cap: int) -> Monitor:
    """A monitor holding just the flagged property, capped as suggested."""
    spec: PropertySpec = compile_one(finding.source, catalog_predicates())
    policy = suggested_policy(
        max(finding.report.instance_bound, 1), attacker_keyed=True, cap=cap)
    monitor = Monitor(degradation=policy)
    monitor.add_property(spec)
    return monitor


def _sheds(monitor: Monitor) -> int:
    """Instances the capped monitor (one property) shed."""
    by_kind = monitor.ledger.by_kind()
    return sum(by_kind.get(kind, 0) for kind in SHED_KINDS)


def run_exhaustion(
    finding: AttackFinding,
    *,
    cap: int = ATTACK_CAP,
    events: Optional[int] = None,
    salt: int = 0,
) -> AttackOutcome:
    """Flood the instance table; contrast with a benign control trace."""
    count = events if events is not None else 4 * cap
    try:
        flood = synthesize_flood(finding, count, salt=salt)
        benign = synthesize_flood(finding, count,
                                  distinct_keys=BENIGN_KEYS, salt=salt)
    except SynthesisError as exc:
        return AttackOutcome(
            prop=finding.prop, code=finding.code, kind="skipped",
            succeeded=False, clean_control=True, detail=str(exc))

    attacked = _capped_monitor(finding, cap)
    for event in flood:
        attacked.observe(event)
    control = _capped_monitor(finding, cap)
    for event in benign:
        control.observe(event)

    attack_sheds = _sheds(attacked)
    control_sheds = _sheds(control)
    return AttackOutcome(
        prop=finding.prop, code=finding.code, kind="exhaustion-flood",
        succeeded=attack_sheds > 0, clean_control=control_sheds == 0,
        events=count,
        attack_sheds=attack_sheds, control_sheds=control_sheds,
        attack_violations=len(attacked.violations),
        control_violations=len(control.violations),
        attack_interval=attacked.ledger.interval(
            len(attacked.violations), finding.prop),
        detail=f"{count} forged packets against max_instances={cap}",
    )


def _evasion_stage(ast: PropertyAst) -> Optional[int]:
    """Index of the refreshable deadline stage an attacker can pace."""
    for index, stage in enumerate(ast.stages):
        if (index == 1 and stage.negative and stage.within is not None
                and stage.refresh == "on_prior"):
            return index
    return None


def run_evasion(
    finding: AttackFinding,
    *,
    windows: int = 4,
    salt: int = 0,
) -> AttackOutcome:
    """Pace the deadline-opening packet so the obligation never fires.

    Supported shape: ``observe`` then ``absent ... within W refresh
    on_prior`` — re-matching stage 0 resets the deadline (the "buggy
    reset" the spec documents), so a sender repeating its request every
    0.9 W keeps the obligation alive forever.  The control run sends the
    request once and harvests the violation the attacker suppressed.
    """
    index = _evasion_stage(finding.ast)
    if index is None:
        return AttackOutcome(
            prop=finding.prop, code=finding.code, kind="skipped",
            succeeded=False, clean_control=True,
            detail="no absent-within-refresh-on_prior stage to pace")
    window = finding.ast.stages[index].within
    try:
        openers = synthesize_flood(
            finding, windows, distinct_keys=1,
            spacing=0.9 * window, salt=salt)
        (single,) = synthesize_flood(finding, 1, distinct_keys=1, salt=salt)
    except SynthesisError as exc:
        return AttackOutcome(
            prop=finding.prop, code=finding.code, kind="skipped",
            succeeded=False, clean_control=True, detail=str(exc))
    horizon = windows * window + 2 * window

    attacked = _capped_monitor(finding, ATTACK_CAP)
    # re-send the opener just inside each deadline window, then stop:
    # only the *final* (unrefreshed) deadline may fire
    for event in openers:
        attacked.observe(event)
    attacked.advance_to(horizon)

    control = _capped_monitor(finding, ATTACK_CAP)
    control.observe(single)
    control.advance_to(horizon)

    # The attack succeeds when the deadline was *deferred*: the paced run
    # either never fires, or fires strictly later than the single-opener
    # control (whose violation lands at opener-time + window).
    first_attack = min((v.time for v in attacked.violations), default=None)
    first_control = min((v.time for v in control.violations), default=None)
    deferred = first_control is not None and (
        first_attack is None or first_attack > first_control)
    evaded_windows = len(openers) - 1
    return AttackOutcome(
        prop=finding.prop, code=finding.code, kind="evasion-pacing",
        succeeded=deferred and evaded_windows > 0,
        clean_control=len(control.violations) > 0,
        events=len(openers),
        attack_violations=len(attacked.violations),
        control_violations=len(control.violations),
        attack_interval=attacked.ledger.interval(
            len(attacked.violations), finding.prop),
        detail=(f"opener re-sent every {0.9 * window:g}s deferred the "
                f"within-{window:g} deadline across {evaded_windows} "
                f"window(s)"
                + ("" if first_attack is None or first_control is None else
                   f" (violation at t={first_attack:g} vs t="
                   f"{first_control:g} unpaced)")),
    )


def run_attack(finding: AttackFinding, *, salt: int = 0,
               cap: int = ATTACK_CAP) -> AttackOutcome:
    """Dispatch one finding to the attack its rule code calls for."""
    if finding.code == "L018":
        return run_evasion(finding, salt=salt)
    return run_exhaustion(finding, cap=cap, salt=salt)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass
class AttackReport:
    """One sweep of synthesized attacks over a set of findings."""

    outcomes: List[AttackOutcome] = dc_field(default_factory=list)
    rounds: int = 1

    @property
    def failed(self) -> bool:
        """True when any executed attack contradicted the lint's claim."""
        return any(
            o.kind != "skipped" and not (o.succeeded and o.clean_control)
            for o in self.outcomes
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "rounds": self.rounds,
            "failed": self.failed,
            "outcomes": [o.to_dict() for o in self.outcomes],
        }


def run_attacks(
    *,
    rounds: int = 1,
    keys: Optional[Iterable[str]] = None,
    extra_sources: Iterable[str] = (),
    cap: int = ATTACK_CAP,
) -> AttackReport:
    """Attack every flagged property in the catalog (plus extras)."""
    findings = catalog_findings(keys)
    for source in extra_sources:
        findings.extend(findings_for(source))
    report = AttackReport(rounds=rounds)
    for round_index in range(rounds):
        salt = round_index * 100_000
        for finding in findings:
            report.outcomes.append(run_attack(finding, salt=salt, cap=cap))
    return report


def render_attack_report(report: AttackReport) -> str:
    """Human-readable sweep summary for ``repro chaos --attack``."""
    lines: List[str] = []
    executed = [o for o in report.outcomes if o.kind != "skipped"]
    skipped = [o for o in report.outcomes if o.kind == "skipped"]
    lines.append(
        f"adversarial sweep: {len(report.outcomes)} finding(s) over "
        f"{report.rounds} round(s), {len(executed)} attack(s) executed, "
        f"{len(skipped)} skipped")
    for outcome in report.outcomes:
        if outcome.kind == "skipped":
            lines.append(
                f"  SKIP {outcome.prop} [{outcome.code}]: {outcome.detail}")
            continue
        verdict = ("confirmed" if outcome.succeeded and outcome.clean_control
                   else "NOT CONFIRMED")
        lines.append(
            f"  {verdict} {outcome.prop} [{outcome.code}] "
            f"{outcome.kind}: {outcome.detail}")
        if outcome.kind == "exhaustion-flood":
            lines.append(
                f"    attack shed {outcome.attack_sheds} instance(s), "
                f"control shed {outcome.control_sheds}; verdict interval "
                f"{list(outcome.attack_interval)}")
        else:
            lines.append(
                f"    attack saw {outcome.attack_violations} violation(s), "
                f"control saw {outcome.control_violations}")
    lines.append("attack sweep "
                 + ("FAILED: a lint claim did not reproduce" if report.failed
                    else "passed: every executed attack behaved as flagged"))
    return "\n".join(lines)
