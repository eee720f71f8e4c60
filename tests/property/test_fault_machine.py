"""State machine: under any fault schedule, the true count is in the interval.

Aim 3's claim about faults is that whenever the monitor sheds, drops,
delays or recovers, the overflow ledger accounts for it: the violation
count a fault-free monitor would have reported lies inside the ledger's
``[lo, hi]`` interval around the degraded count.  This machine drives one
:class:`~repro.core.monitor.Monitor` through the same faults ``repro
chaos`` injects — batches of :func:`~repro.faults.rounds.catalog_trace`
through a :class:`~repro.faults.profiles.FaultyEventChannel`, a
:class:`~repro.faults.profiles.ControlFaultProfile` channel on its split
ops, a bounded :class:`~repro.core.degradation.DegradationPolicy`, and
checkpoint → restore into a fresh monitor — with time advancing between.

The oracle is an unbounded, fault-free reference monitor
(``match_strategy="interpreted"``) with the same mode and split lag, fed
exactly the events that reached the monitor under test: the tap's faults
happen before either monitor sees anything, so only monitor-side
divergence is being bounded.  After every step both monitors drain their
in-flight ops and are brought to the same time, then:

* the reference count lies in the ledger's ``[lo, hi]``, in total and
  per property;
* an empty ledger means identical violation fingerprints;
* ``hi - lo <= 2 * len(ledger)``;
* :func:`~repro.faults.rounds.check_invariants` passes.

A restore carries the old monitor's violations forward, the way the
fabric keeps them across a worker restart; the ledger's counts ride the
checkpoint itself.
"""

from dataclasses import replace

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.core.degradation import EVICTION_POLICIES, DegradationPolicy
from repro.core.monitor import Monitor
from repro.faults.profiles import (
    ControlFaultProfile,
    FaultyEventChannel,
    LinkFaultProfile,
)
from repro.faults.rounds import (
    catalog_trace,
    check_invariants,
    count_by_property,
    fingerprint,
)
from repro.props import build_table1
from repro.switch.switch import ProcessingMode

CATALOG = [entry.prop for entry in build_table1()]

seeds = st.integers(min_value=0, max_value=2 ** 16)

policies = st.builds(
    DegradationPolicy,
    max_instances=st.sampled_from([1, 2, 4, 16]),
    eviction=st.sampled_from(EVICTION_POLICIES),
    max_pending_ops=st.sampled_from([None, 1, 2, 8]),
    retry_backoff=st.sampled_from([0.0, 1e-4, 0.05]),
    max_retries=st.integers(min_value=0, max_value=2),
)

link_profiles = st.one_of(
    st.just(LinkFaultProfile()),
    st.builds(
        LinkFaultProfile,
        drop=st.sampled_from([0.0, 0.1, 0.5]),
        duplicate=st.sampled_from([0.0, 0.2]),
        reorder=st.sampled_from([0.0, 0.3]),
        reorder_window=st.just(0.05),
        jitter=st.sampled_from([0.0, 0.01]),
        corrupt=st.sampled_from([0.0, 0.2]),
        seed=seeds,
    ),
)

control_profiles = st.one_of(
    st.just(ControlFaultProfile()),
    st.builds(
        ControlFaultProfile,
        drop=st.sampled_from([0.0, 0.1, 0.5]),
        extra_lag=st.sampled_from([0.0, 1e-3, 0.1]),
        jitter=st.sampled_from([0.0, 0.01]),
        seed=seeds,
    ),
)


def catalog_monitor(**kwargs) -> Monitor:
    monitor = Monitor(**kwargs)
    for prop in CATALOG:
        monitor.add_property(prop)
    return monitor


class FaultMachine(RuleBasedStateMachine):
    @initialize(
        mode=st.sampled_from(list(ProcessingMode)),
        split_lag=st.sampled_from([0.0, 5e-4, 0.02]),
        policy=policies,
        link=link_profiles,
        control=control_profiles,
    )
    def build(self, mode, split_lag, policy, link, control):
        ops = None if control.is_null else control.channel("machine")
        self.kwargs = dict(mode=mode, split_lag=split_lag,
                           degradation=policy, op_faults=ops)
        self.monitor = catalog_monitor(**self.kwargs)
        self.oracle = catalog_monitor(mode=mode, split_lag=split_lag,
                                      match_strategy="interpreted")
        self.tap = FaultyEventChannel(link, name="machine")
        #: what monitors replaced by a restore reported
        self.carried_violations = []

    def _now(self) -> float:
        return max(self.monitor.now, self.oracle.now)

    @rule(seed=seeds, count=st.integers(min_value=1, max_value=25))
    def traffic(self, seed, count):
        start = self._now() + 1e-3
        batch = [replace(event, time=event.time + start)
                 for event in catalog_trace(seed, count)]
        delivered = self.tap.transform(batch)
        self.monitor.observe_batch(delivered)
        self.oracle.observe_batch(delivered)

    @rule(dt=st.sampled_from([1e-3, 0.05, 1.0, 30.0, 600.0]))
    def advance(self, dt):
        when = self._now() + dt
        self.monitor.advance_to(when)
        self.oracle.advance_to(when)

    @rule()
    def checkpoint_and_restore(self):
        # Quiescent: the invariant below drained every in-flight op.
        state = self.monitor.export_state()
        assert state.lost_pending_ops == 0
        fresh = catalog_monitor(**self.kwargs)
        fresh.restore_state(state)
        self.carried_violations.extend(self.monitor.violations)
        self.monitor = fresh

    @invariant()
    def reference_count_lies_in_the_interval(self):
        assert self.monitor.drain() == 0 and self.oracle.drain() == 0
        when = self._now()
        self.monitor.advance_to(when)
        self.oracle.advance_to(when)

        ledger = self.monitor.ledger
        observed = self.carried_violations + self.monitor.violations
        reference = self.oracle.violations
        lo, hi = ledger.interval(len(observed))
        assert lo <= len(reference) <= hi, (lo, len(reference), hi)
        assert hi - lo <= 2 * len(ledger)

        observed_by, reference_by = (count_by_property(observed),
                                     count_by_property(reference))
        for name in set(observed_by) | set(reference_by) \
                | set(ledger.properties()):
            lo, hi = ledger.interval(observed_by.get(name, 0), name)
            assert lo <= reference_by.get(name, 0) <= hi, (name, lo, hi)
        if not len(ledger):
            assert fingerprint(observed) == fingerprint(reference)
        assert check_invariants(self.monitor) == []


TestFaultMachine = FaultMachine.TestCase
TestFaultMachine.settings = settings(
    max_examples=100, stateful_step_count=20, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
