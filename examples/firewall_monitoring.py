#!/usr/bin/env python3
"""The stateful-firewall walk-through of Sec. 2.1.

The paper refines one property three times, each refinement fixing a
soundness hole the previous version had against real firewalls:

1. basic     — "after A->B, packets B->A are not dropped"
               (false-alarms when the firewall correctly expires state);
2. + timeout — "...for T seconds after A->B" (Feature 3);
3. + close   — "...or until the connection is closed" (Feature 4).

This script runs all three against a *correct* firewall on three scenarios
and prints which property versions false-alarm where, then confirms that
the fully-refined property still catches a genuinely buggy firewall.

Run:  python examples/firewall_monitoring.py
"""

from dataclasses import replace

from repro.apps import StatefulFirewallApp, sometimes
from repro.core import Monitor
from repro.netsim import single_switch_network
from repro.packet import tcp_fin, tcp_packet
from repro.props import load_property
from repro.switch.pipeline import MissPolicy

T = 5.0  # the firewall's advertised state timeout


def with_window(name: str, seconds: float):
    """The catalog property *name* (shipped with a 30 s pinhole window)
    with the window set to this firewall's timeout."""
    prop = load_property(name)
    outbound_stage, return_dropped = prop.stages
    return replace(prop, stages=(
        outbound_stage, replace(return_dropped, within=seconds)))


def run_scenario(app, scenario) -> dict:
    """Run one traffic scenario; returns violations per property version."""
    net, switch, hosts = single_switch_network(
        2, switch_kwargs={"miss_policy": MissPolicy.CONTROLLER}
    )
    switch.set_app(app)
    monitor = Monitor(scheduler=net.scheduler)
    props = {
        "basic": load_property("firewall-basic"),
        "timed": with_window("firewall-timed", T),
        "with-close": with_window("firewall-with-close", T),
    }
    for prop in props.values():
        monitor.add_property(prop)
    monitor.attach(switch)

    scenario(hosts)
    net.run()
    counts = {label: 0 for label in props}
    for violation in monitor.violations:
        for label, prop in props.items():
            if violation.property_name == prop.name:
                counts[label] += 1
    return counts


def outbound(hosts, t=0.0, sport=10000):
    hosts[0].send_at(t, tcp_packet(1, 2, "10.0.0.1", "198.51.100.1",
                                   sport, 80))


def inbound(hosts, t, sport=10000):
    hosts[1].send_at(t, tcp_packet(2, 1, "198.51.100.1", "10.0.0.1",
                                   80, sport))


def close_from_inside(hosts, t, sport=10000):
    hosts[0].send_at(t, tcp_fin(1, 2, "10.0.0.1", "198.51.100.1", sport, 80))


def scenario_normal(hosts):
    """Happy path: outbound opens the pinhole, return traffic flows."""
    outbound(hosts)
    inbound(hosts, t=1.0)


def scenario_stale(hosts):
    """Return traffic arrives AFTER the firewall's state expired — the
    firewall correctly drops it."""
    outbound(hosts)
    inbound(hosts, t=T + 5.0)


def scenario_closed(hosts):
    """The connection closes, then late return traffic — correctly
    dropped, inside the timeout window."""
    outbound(hosts)
    close_from_inside(hosts, t=1.0)
    inbound(hosts, t=2.0)


def main() -> None:
    print(f"correct firewall (state timeout {T}s); violations reported "
          "per property version\n")
    header = f"{'scenario':<22}{'basic':>8}{'timed':>8}{'with-close':>12}"
    print(header)
    print("-" * len(header))
    rows = [
        ("normal exchange", scenario_normal),
        ("stale return (> T)", scenario_stale),
        ("return after close", scenario_closed),
    ]
    for label, scenario in rows:
        counts = run_scenario(StatefulFirewallApp(state_timeout=T), scenario)
        print(f"{label:<22}{counts['basic']:>8}{counts['timed']:>8}"
              f"{counts['with-close']:>12}")

    print("""
Reading the table: against a CORRECT firewall every count should be 0.
The basic property false-alarms on both expiry and close; adding the
timeout (Feature 3) fixes the first; adding the close obligation
(Feature 4) fixes the second.
""")

    # And the refined property still catches a real bug:
    buggy = StatefulFirewallApp(state_timeout=T,
                                faults=sometimes("drop_valid", 1.0))
    counts = run_scenario(buggy, scenario_normal)
    print(f"buggy firewall (drops valid return traffic): "
          f"with-close reports {counts['with-close']} violation(s)")
    assert counts["with-close"] == 1


if __name__ == "__main__":
    main()
