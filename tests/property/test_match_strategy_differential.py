"""The oracle is independent of the index it checks.

The generated program finds its candidates by probing the instance
store's hash indexes; the reference walk (``repro.core.reference``,
``match_strategy="interpreted"``) scans each stage's population.  The
differential lattice (``test_lattice.py``) holds the two equal under
every configuration; this example shows that the equality means
something: break the index by hand and only the scan still finds the
instance.
"""

from repro.core import (
    Bind,
    EventKind,
    EventPattern,
    FieldEq,
    Monitor,
    Observe,
    PropertySpec,
    Var,
)
from tests.workloads import arrival


class TestMatchStrategyEquivalence:
    def test_reference_scans_instead_of_reading_the_index(self):
        """With one waiting instance taken out of its key bucket but left in
        its stage population, the generated program (a bucket probe) misses
        the advance and the reference walk (a scan) still makes it."""
        echo = PropertySpec(
            name="echo", description="",
            stages=(
                Observe("a", EventPattern(kind=EventKind.ARRIVAL,
                                          binds=(Bind("S", "eth.src"),))),
                Observe("b", EventPattern(
                    kind=EventKind.ARRIVAL,
                    guards=(FieldEq("eth.dst", Var("S")),))),
            ),
            key_vars=("S",),
        )

        def run(match_strategy):
            monitor = Monitor(match_strategy=match_strategy)
            monitor.add_property(echo)
            monitor.observe(arrival(1, 2, 0.1))
            (waiting,) = monitor.store("echo").at_stage(1)
            ((index, key, bucket),) = waiting.slots
            del bucket[waiting.instance_id]
            del index[key]  # its key bucket held it alone
            waiting.slots = ()
            monitor.observe(arrival(2, 1, 0.2))
            return (len(monitor.violations),
                    monitor.stats.candidates_examined)

        assert run("compiled") == (0, 0)
        assert run("interpreted") == (1, 1)
