#!/usr/bin/env python3
"""Quickstart: catch a buggy learning switch in the act.

The paper's opening example (Sec. 1): "Once a destination D is learned,
packets to D are unicast on the appropriate port."  We build a one-switch
network, run a learning switch with an injected wrong-port bug, attach the
monitor, and watch the violation appear — with the bound values (which
destination, which port) carried along for free.

Run:  python examples/quickstart.py
"""

from repro.apps import LearningSwitchApp, sometimes
from repro.core import Monitor
from repro.netsim import single_switch_network
from repro.packet import ethernet
from repro.props import load_property
from repro.switch.pipeline import MissPolicy


def main() -> None:
    # A switch with three hosts; table misses punt to the controller app.
    net, switch, hosts = single_switch_network(
        3, switch_kwargs={"miss_policy": MissPolicy.CONTROLLER}
    )

    # The system under test: MAC learning with a deterministic bug that
    # unicasts known destinations out the wrong port.
    switch.set_app(LearningSwitchApp(faults=sometimes("wrong_port", 1.0)))

    # The monitor: attach the Sec. 1 property as a dataplane tap.
    monitor = Monitor(scheduler=net.scheduler)
    monitor.add_property(load_property("learned-unicast-port"))
    monitor.attach(switch)

    # Drive traffic: h1 talks (teaching the switch MAC 1 lives on port 1),
    # then h2 sends to MAC 1 — which the buggy switch misdelivers.
    hosts[0].send(ethernet(1, 2))
    net.run()
    hosts[1].send(ethernet(2, 1))
    net.run()

    print(f"events observed : {monitor.stats.events}")
    print(f"violations      : {len(monitor.violations)}\n")
    for violation in monitor.violations:
        print(violation.describe())
        print()

    assert monitor.violations, "expected the wrong-port bug to be caught"
    print("the monitor caught the learning switch misdelivering — "
          "cross-packet state (learned D -> port p) made that checkable")


if __name__ == "__main__":
    main()
