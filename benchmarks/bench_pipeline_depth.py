"""Experiment P1 (Sec. 3.3) — pipeline depth vs. active instances.

The paper: "Since Varanus isolates each instance in its own table, the
depth of the switch pipeline is no smaller than the number of active
instances, which is infeasible in practice", while bounding the tables
("static" Varanus) gives "in principle, a constant packet processing time,
at the expense of some expressivity."

We sweep the live-flow population and measure, for both backends:

* the pipeline depth (tables a packet must traverse), and
* the simulated per-event processing cost in lookup ticks.

Expected shape: Varanus linear in instances; Static Varanus flat.
"""

import pytest

from repro.backends import StaticVaranusBackend, VaranusBackend
from repro.backends.conformance import history_probe
from repro.packet import ethernet
from repro.switch.events import PacketArrival

FLOW_COUNTS = (10, 50, 200)


def populate(monitor, num_flows):
    """Create ``num_flows`` live instances (distinct stage-0 keys)."""
    for i in range(num_flows):
        monitor.observe(PacketArrival(
            switch_id="s", time=i * 1e-4,
            packet=ethernet(i + 1, 0xFFFF00 + i), in_port=1))
    monitor.advance_to(num_flows * 1e-4 + 1.0)  # split lag drains


def per_event_cost(monitor, probe_time):
    before = monitor.meter.lookup_ticks
    monitor.observe(PacketArrival(
        switch_id="s", time=probe_time,
        packet=ethernet(0xAAAAAA, 0xBBBBBB), in_port=1))
    return monitor.meter.lookup_ticks - before


def depth_series(backend_factory):
    series = []
    for flows in FLOW_COUNTS:
        monitor = backend_factory().compile(history_probe())
        populate(monitor, flows)
        cost = per_event_cost(monitor, flows * 1e-4 + 2.0)
        series.append((flows, monitor.pipeline_depth, cost))
    return series


def test_varanus_depth_linear_in_instances(benchmark):
    series = benchmark(lambda: depth_series(VaranusBackend))
    print("\nVaranus:  flows -> (depth, per-event lookup ticks)")
    for flows, depth, cost in series:
        print(f"  {flows:6d} -> depth {depth:6d}, cost {cost:8d}")
    depths = [d for _, d, _ in series]
    # Linear: depth tracks the instance population one-for-one (+1 base).
    for (flows, depth, _) in series:
        assert depth >= flows
    assert depths[-1] / depths[0] == pytest.approx(
        FLOW_COUNTS[-1] / FLOW_COUNTS[0], rel=0.2
    )


def test_static_varanus_depth_constant(benchmark):
    series = benchmark(lambda: depth_series(StaticVaranusBackend))
    print("\nStatic Varanus:  flows -> (depth, per-event lookup ticks)")
    for flows, depth, cost in series:
        print(f"  {flows:6d} -> depth {depth:6d}, cost {cost:8d}")
    depths = {d for _, d, _ in series}
    assert len(depths) == 1  # flat across the sweep
    costs = {c for _, _, c in series}
    assert len(costs) == 1


def test_compiled_rules_depth_matches_model(benchmark):
    """The cost model is not hypothetical: the real Varanus compiler
    (property -> recursive-learn rules) grows an actual switch pipeline by
    one table per unrolled instance, and per-packet lookups track depth."""
    from repro.backends.varanus_compiler import compile_property
    from repro.core import Bind, Const, EventPattern, FieldEq, Observe, PropertySpec, Var
    from repro.core.refs import EventKind
    from repro.netsim import EventScheduler
    from repro.packet import tcp_syn
    from repro.switch.match import MatchSpec
    from repro.switch.pipeline import MissPolicy
    from repro.switch.switch import Switch

    prop = PropertySpec(
        name="compiled-depth", description="",
        stages=(
            Observe("k1", EventPattern(
                kind=EventKind.ARRIVAL,
                guards=(FieldEq("tcp.dst", Const(7001)),),
                binds=(Bind("knocker", "ipv4.src"),))),
            Observe("k2", EventPattern(
                kind=EventKind.ARRIVAL,
                guards=(FieldEq("ipv4.src", Var("knocker")),
                        FieldEq("tcp.dst", Const(22))))),
        ),
        key_vars=("knocker",),
    )

    def run():
        switch = Switch("mon", EventScheduler(), num_ports=2, num_tables=1,
                        miss_policy=MissPolicy.FLOOD)
        compile_property(switch, prop)
        series = []
        for n in (10, 40):
            while switch.pipeline.depth - 1 < n:
                i = switch.pipeline.depth
                switch.receive(
                    tcp_syn(1, 2, f"10.0.{i // 250}.{i % 250 + 1}",
                            "10.0.0.99", 30000, 7001), 1)
            before = switch.meter.lookups
            switch.receive(
                tcp_syn(1, 2, "10.9.9.9", "10.0.0.99", 30000, 80), 1)
            series.append((n, switch.pipeline.depth, switch.meter.lookups - before))
        return series

    series = benchmark(run)
    print("\ncompiled Varanus rules: instances -> (pipeline depth, lookups/packet)")
    for n, depth, lookups in series:
        print(f"  {n:4d} -> depth {depth:4d}, lookups {lookups:4d}")
    (n1, d1, l1), (n2, d2, l2) = series
    assert d2 - d1 == n2 - n1  # one real table per instance
    assert l2 > l1  # per-packet lookups track the growth


def test_estimate_matches_measured_depth(benchmark):
    """The linter's static cost model against the backends' real depth.

    ``repro.lint.splitmode.estimate_cost`` predicts, per property, how
    many tables a packet traverses (``pipeline_tables``).  The Static
    Varanus backend's bounded layout is the thing that prediction models
    — so for every Table-1 catalog property the backend accepts, the
    estimate must equal the measured depth exactly.
    """
    from repro.backends import UnsupportedFeature
    from repro.lint.splitmode import estimate_cost
    from repro.props import build_table1

    def run():
        rows = []
        for entry in build_table1():
            est = estimate_cost(entry.prop)
            try:
                monitor = StaticVaranusBackend().compile(entry.prop)
                measured = monitor.pipeline_depth
            except UnsupportedFeature:
                measured = None  # the backend refuses; nothing to compare
            rows.append(
                (entry.prop.name, est.pipeline_tables, measured, est.model))
        return rows

    rows = benchmark(run)
    print("\nlinter estimate vs measured Static-Varanus depth (tables)")
    for name, est, measured, model in rows:
        shown = f"{measured:3d}" if measured is not None else "  -"
        print(f"  {name:<28} est {est:3d}  measured {shown}  [{model}]")
    compared = [(n, e, m) for n, e, m, _ in rows if m is not None]
    assert compared, "no catalog property compiled on Static Varanus"
    for name, est, measured in compared:
        assert est == measured, (
            f"{name}: estimate {est} != measured {measured}")


def test_crossover_varanus_costlier_beyond_stage_count(benchmark):
    """The crossover the paper implies: Varanus beats nothing on cost —
    as soon as instances exceed the property's stage count, its per-event
    cost exceeds the static pipeline's."""

    def run():
        out = {}
        for name, factory in (("varanus", VaranusBackend),
                              ("static", StaticVaranusBackend)):
            monitor = factory().compile(history_probe())
            populate(monitor, 100)
            out[name] = per_event_cost(monitor, 100.0)
        return out

    costs = benchmark(run)
    print(f"\nper-event cost at 100 live instances: {costs}")
    assert costs["varanus"] > 10 * costs["static"]
