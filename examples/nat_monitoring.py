#!/usr/bin/env python3
"""NAT reverse-translation monitoring — the Sec. 2.2 worked example.

Four observations, connected by packet identity (Feature 5), with the
final stage a disjunctive negative match (Feature 6):

  (1) A,P -> B,Q arrives from inside      (2) the same packet leaves as A',P'
  (3) B,Q -> A',P' arrives from outside   (4) the same packet leaves with
                                              destination != A,P  => violation

The script runs a correct NAT (clean) and a NAT with a corrupted reverse
mapping (caught), printing the violation with FULL provenance so the whole
four-event witness is visible.

Run:  python examples/nat_monitoring.py
"""

from repro.apps import NatApp, sometimes
from repro.core import Monitor, ProvenanceLevel
from repro.netsim import single_switch_network
from repro.packet import IPv4Address, tcp_packet
from repro.props import load_property
from repro.switch.pipeline import MissPolicy

PUBLIC_IP = IPv4Address("203.0.113.1")


def run(nat: NatApp):
    net, switch, hosts = single_switch_network(
        2, switch_kwargs={"miss_policy": MissPolicy.CONTROLLER}
    )
    switch.set_app(nat)
    monitor = Monitor(scheduler=net.scheduler,
                      provenance=ProvenanceLevel.FULL)
    monitor.add_property(load_property("nat-reverse-translation"))
    monitor.attach(switch)

    # Outbound: 10.0.0.1:5555 -> 198.51.100.1:80 (gets translated).
    hosts[0].send(tcp_packet(1, 2, "10.0.0.1", "198.51.100.1", 5555, 80))
    net.run()
    # Return traffic to the translation's public endpoint.
    hosts[1].send(tcp_packet(2, 1, "198.51.100.1", str(PUBLIC_IP),
                             80, 40000))
    net.run()
    return monitor


def main() -> None:
    print("correct NAT:")
    clean = run(NatApp(public_ip=PUBLIC_IP))
    print(f"  violations: {len(clean.violations)} (expected 0)\n")
    assert not clean.violations

    print("NAT with corrupted reverse port mapping:")
    buggy = run(NatApp(public_ip=PUBLIC_IP,
                       faults=sometimes("corrupt_reverse", 1.0)))
    print(f"  violations: {len(buggy.violations)} (expected 1)\n")
    assert len(buggy.violations) == 1

    violation = buggy.violations[0]
    print(violation.describe())
    print()
    print("bindings carried with the alert (limited provenance for free):")
    for name in ("A", "P", "B", "Q", "A2", "P2"):
        print(f"  {name:>3} = {violation.bindings[name]}")
    print()
    print("note the four-stage history above: both 'same packet' links "
          "(arrival->egress) survived the header rewrites, because packet "
          "identity is tracked on-switch (Feature 5).")


if __name__ == "__main__":
    main()
