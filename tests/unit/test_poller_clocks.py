"""StatsPoller rows on virtual time.

``advance_to``/``attach`` are the only ways to drive the poller — what
replay and ``repro stats --poll-interval`` do; a row is ``time`` and
``values``, nothing else.
"""

from repro.telemetry import MetricsRegistry, StatsPoller


def gauge_registry():
    registry = MetricsRegistry()
    return registry, registry.gauge("depth")


class TestVirtualClockParity:
    def test_virtual_rows_carry_no_jitter_field(self):
        registry, g = gauge_registry()
        poller = StatsPoller(registry, interval=1.0)
        g.set(3)
        poller.advance_to(2.5)
        assert [set(row) for row in poller.samples] \
            == [{"time", "values"}] * 2

    def test_sources_refresh_before_each_sample(self):
        registry, g = gauge_registry()
        calls = []
        poller = StatsPoller(
            registry, interval=1.0,
            sources=[lambda: calls.append(len(calls)) or g.set(len(calls))])
        assert poller.advance_to(2.0) == 2
        assert calls == [0, 1]
        assert [row["values"]["depth"] for row in poller.samples] == [1, 2]
