"""The fabric's partition semantics in one process, as a test reference.

The router's split feeds one shard monitor per shard, built by
``build_shard_monitor`` as the fabric builds it, and the shards'
violations merge the way the fabric merges them.  What the
forked fabric adds on top — transport, supervision, the facade — is
tested against this, as ``core/reference.py`` is for the matcher.
"""

from collections import Counter

from repro.fabric import Router, build_routes, build_shard_monitor
from repro.fabric.fabric import _violation_order


class Partitioned:
    """``monitor_kwargs()`` is called once per shard, as each forked
    worker holds its own copy of a control channel, registry or tracer."""

    def __init__(self, props, num_shards, monitor_kwargs=dict):
        routes = build_routes(props, num_shards)
        self.router = Router(routes, num_shards)
        self.shards = [
            build_shard_monitor(props, i, num_shards, routes,
                                monitor_kwargs())
            for i in range(num_shards)]

    def observe_batch(self, events):
        for shard, batch in zip(self.shards, self.router.split(events)):
            if batch:
                shard.observe_batch(batch)

    def advance_to(self, when):
        for shard in self.shards:
            shard.advance_to(when)

    def drain(self):
        for shard in self.shards:
            shard.drain()

    @property
    def now(self):
        return max(shard.now for shard in self.shards)

    def counter(self, name):
        if name == "events":
            return self.router.events_total
        return sum(getattr(shard.stats, name) for shard in self.shards)

    def by_kind(self):
        return dict(sum((Counter(shard.ledger.by_kind())
                         for shard in self.shards), Counter()))

    @property
    def violations(self):
        return sorted((v for shard in self.shards for v in shard.violations),
                      key=_violation_order)
