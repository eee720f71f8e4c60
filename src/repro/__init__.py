"""repro — stateful cross-packet property monitoring on software switches.

A full reproduction of *"Switches are Monitors Too! Stateful Property
Monitoring as a Switch Design Criterion"* (Nelson, DeMarinis, Hoff,
Fonseca, Krishnamurthi — HotNets 2016): the monitoring engine the paper
gestures at, the substrate it assumes, the thirteen-property catalog of its
Table 1, executable capability models of the seven approaches in its Table
2, and benchmarks for the Sec. 3.3 performance analysis.

Quick tour::

    from repro.netsim import single_switch_network, TraceRecorder
    from repro.core import Monitor
    from repro.props import load_property

    net, switch, hosts = single_switch_network(2)
    monitor = Monitor(scheduler=net.scheduler)
    monitor.add_property(load_property("firewall-timed"))
    monitor.attach(switch)
    # drive traffic; monitor.violations collects the witnesses

Subpackages:

* :mod:`repro.core`     — property IR, monitor engine, static analysis;
* :mod:`repro.packet`   — addresses, L2-L7 headers, wire codecs, builders;
* :mod:`repro.switch`   — the match-action dataplane (tables, learn
  actions, registers, egress stage, out-of-band events);
* :mod:`repro.netsim`   — virtual time, event scheduler, topology, traces,
  workloads;
* :mod:`repro.apps`     — the monitored network functions, with fault
  injection;
* :mod:`repro.props`    — the property catalog (Table 1 + worked examples);
* :mod:`repro.backends` — capability models of OpenFlow 1.3, OpenState,
  FAST, POF/P4, SNAP, Varanus, Static Varanus (Table 2);
* :mod:`repro.lang`     — the textual property language.
"""

__version__ = "1.0.0"

from .core.monitor import Monitor
from .core.provenance import ProvenanceLevel
from .core.spec import Absent, Observe, PropertySpec
from .core.violations import Violation
from .switch.switch import ProcessingMode, Switch

__all__ = [
    "__version__",
    "Monitor",
    "ProvenanceLevel",
    "Absent",
    "Observe",
    "PropertySpec",
    "Violation",
    "ProcessingMode",
    "Switch",
]
