"""Deterministic network fault injection (the chaos layer).

The paper's Sec. 3.3 is about what happens when the conditions the monitor
was designed for stop holding: state updates lag behind line rate, instance
tables outgrow the pipeline, and the network itself misbehaves.  This module
supplies the *network* half of that story — seeded, reproducible fault
injection for links, host attachments, and the monitor's control channel —
while :mod:`repro.core.degradation` supplies the monitor half (bounded
stores, backpressure, the overflow ledger).

Everything here is plain data plus scheduler callbacks: no imports from
``repro.core``, so the monitor can import fault profiles (for its control
channel) without a cycle.  All randomness derives from
``random.Random(f"{seed}:{name}:{fault}")`` streams — one stream per fault
kind, so enabling one fault never reshuffles another's firing pattern, and
identical seeds give byte-identical chaos.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..packet.packet import Packet
from .scheduler import EventScheduler

#: gap between an original delivery and its injected duplicate.
DUPLICATE_GAP = 1e-6


def _check_rate(name: str, rate: float) -> None:
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"{name}={rate!r} outside [0, 1]")


def _check_delay(name: str, value: float) -> None:
    if not 0.0 <= value < float("inf"):
        raise ValueError(f"{name}={value!r} must be finite and non-negative")


@dataclass(frozen=True)
class LinkFaultProfile:
    """Seeded fault rates for one link or host attachment.

    ``drop``/``duplicate``/``corrupt`` are per-packet probabilities;
    ``jitter`` adds a uniform extra delay in ``[0, jitter]`` seconds to
    every delivery; ``reorder`` selects packets that additionally wait up
    to ``reorder_window`` seconds, letting later traffic overtake them.
    Corruption truncates the header stack below L2 but preserves the
    packet uid — the frame arrived, its contents did not.
    """

    drop: float = 0.0
    duplicate: float = 0.0
    reorder: float = 0.0
    reorder_window: float = 0.0
    jitter: float = 0.0
    corrupt: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("drop", "duplicate", "reorder", "corrupt"):
            _check_rate(name, getattr(self, name))
        for name in ("reorder_window", "jitter"):
            _check_delay(name, getattr(self, name))
        if self.reorder > 0.0 and self.reorder_window <= 0.0:
            raise ValueError("reorder > 0 needs a positive reorder_window")

    @property
    def is_null(self) -> bool:
        """True when this profile cannot perturb anything."""
        return (self.drop == 0.0 and self.duplicate == 0.0
                and self.reorder == 0.0 and self.jitter == 0.0
                and self.corrupt == 0.0)


@dataclass(frozen=True)
class ControlFaultProfile:
    """Faults on the monitor's control channel (split-mode state updates).

    Models the paper's "updates lag behind line rate": each deferred state
    transition independently gets ``extra_lag`` plus uniform jitter added
    to its apply time, or is dropped outright with ``drop`` probability
    (an update that never reached the datapath).
    """

    drop: float = 0.0
    extra_lag: float = 0.0
    jitter: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        _check_rate("drop", self.drop)
        _check_delay("extra_lag", self.extra_lag)
        _check_delay("jitter", self.jitter)

    @property
    def is_null(self) -> bool:
        return self.drop == 0.0 and self.extra_lag == 0.0 and self.jitter == 0.0

    def channel(self, name: str = "") -> "ControlChannel":
        """A fresh stateful channel (own RNG streams) for one run."""
        return ControlChannel(self, name=name)


class ControlChannel:
    """One run's stateful view of a :class:`ControlFaultProfile`.

    The monitor calls :meth:`perturb` once per deferred op; ``None`` means
    the update was lost, a float is extra seconds of lag (0.0 = on time).
    """

    def __init__(self, profile: ControlFaultProfile, name: str = "") -> None:
        self.profile = profile
        self._drop_rng = random.Random(f"{profile.seed}:{name}:op-drop")
        self._lag_rng = random.Random(f"{profile.seed}:{name}:op-lag")
        self.dropped = 0
        self.delayed = 0

    def perturb(self) -> Optional[float]:
        p = self.profile
        if p.drop > 0.0 and self._drop_rng.random() < p.drop:
            self.dropped += 1
            return None
        extra = p.extra_lag
        if p.jitter > 0.0:
            extra += self._lag_rng.uniform(0.0, p.jitter)
        if extra > 0.0:
            self.delayed += 1
        return extra


def corrupt_packet(packet: Packet) -> Packet:
    """A mangled copy: L2 header only, garbage payload, same uid.

    Keeping the uid models corruption of the frame *contents* — the
    arrival is still the same physical packet, so packet-identity
    properties see it, but every deeper header read fails to parse.
    """
    return Packet(headers=packet.headers[:1], payload=b"\xde\xad",
                  uid=packet.uid)


class _FaultRoll:
    """A :class:`LinkFaultProfile` rolled per offered item, streams
    ``{stream}:{fault}`` in a fixed order — drop, corrupt, jitter, reorder,
    then (once the caller has delivered) duplicate — so enabling one fault
    never reshuffles another.  Delivery is the subclass's."""

    def __init__(self, profile: LinkFaultProfile, stream: str) -> None:
        self.profile = profile
        self._rngs = {
            fault: random.Random(f"{stream}:{fault}")
            for fault in ("drop", "corrupt", "jitter", "reorder", "duplicate")
        }
        self.counters: Dict[str, int] = dict.fromkeys((
            "offered", "delivered", "dropped", "duplicated", "reordered",
            "corrupted", "delayed"), 0)

    def _fires(self, fault: str, rate: float) -> bool:
        return rate > 0.0 and self._rngs[fault].random() < rate

    def _roll(self, corruptible: bool) -> Optional[Tuple[bool, float]]:
        """``None`` if dropped, else ``(corrupt?, extra delay)``."""
        p, counters = self.profile, self.counters
        counters["offered"] += 1
        if self._fires("drop", p.drop):
            counters["dropped"] += 1
            return None
        corrupt = self._fires("corrupt", p.corrupt) and corruptible
        if corrupt:
            counters["corrupted"] += 1
        delay = 0.0
        if p.jitter > 0.0:
            delay += self._rngs["jitter"].uniform(0.0, p.jitter)
        if self._fires("reorder", p.reorder):
            counters["reordered"] += 1
            delay += self._rngs["reorder"].uniform(0.0, p.reorder_window)
        counters["delivered"] += 1
        if delay > 0.0:
            counters["delayed"] += 1
        return corrupt, delay

    def _duplicates(self) -> bool:
        """The last roll, made once the original has been delivered."""
        if self._fires("duplicate", self.profile.duplicate):
            self.counters["duplicated"] += 1
            return True
        return False


class FaultInjector(_FaultRoll):
    """Applies a :class:`LinkFaultProfile` to the ``deliver(packet)`` a
    switch port or host uplink calls (streams ``{seed}:{name}:{fault}``)."""

    def __init__(
        self,
        profile: LinkFaultProfile,
        scheduler: EventScheduler,
        name: str = "",
    ) -> None:
        super().__init__(profile, f"{profile.seed}:{name}")
        self.scheduler = scheduler
        self.name = name

    def wrap(self, deliver: Callable[[Packet], None]) -> Callable[[Packet], None]:
        """The chaos-wrapped version of a delivery callable."""
        def deliver_with_faults(packet: Packet) -> None:
            self.send(packet, deliver)
        return deliver_with_faults

    def send(self, packet: Packet, deliver: Callable[[Packet], None]) -> None:
        rolled = self._roll(corruptible=True)
        if rolled is None:
            return
        corrupt, delay = rolled
        if corrupt:
            packet = corrupt_packet(packet)
        if delay > 0.0:
            self.scheduler.call_after(
                delay, lambda pk=packet: deliver(pk), label="chaos-delay")
        else:
            deliver(packet)
        if self._duplicates():
            self.scheduler.call_after(
                delay + DUPLICATE_GAP, lambda pk=packet: deliver(pk),
                label="chaos-duplicate")


def install_link_chaos(link, profile: LinkFaultProfile) -> FaultInjector:
    """Install fault injection on both directions of a ``SwitchLink``.

    Re-attaches each endpoint port through one shared injector, so the
    fault streams advance in global packet order across both directions.
    """
    name = f"link:{link.a.switch_id}:{link.a_port}:{link.b.switch_id}:{link.b_port}"
    injector = FaultInjector(profile, link.scheduler, name=name)
    link.a.attach(link.a_port, injector.wrap(link._toward_b))
    link.b.attach(link.b_port, injector.wrap(link._toward_a))
    return injector


def install_host_chaos(host, profile: LinkFaultProfile) -> FaultInjector:
    """Install fault injection on a host's attachment, both directions."""
    injector = FaultInjector(profile, host.scheduler, name=f"host:{host.name}")
    host.wrap_uplink(injector.wrap)
    if host._switch is not None and host._port is not None:
        host._switch.attach(host._port, injector.wrap(host._deliver))
    return injector


class FaultyEventChannel(_FaultRoll):
    """Applies a :class:`LinkFaultProfile` to a recorded event stream.

    Models a lossy monitoring tap: the switch saw every event, but the
    stream the monitor receives is dropped / duplicated / delayed /
    corrupted on the way.  Works on any sequence of dataplane events
    (frozen dataclasses) — perturbed copies are made with
    ``dataclasses.replace`` and the result is re-sorted by perturbed
    time, which is exactly how reordering becomes visible to the
    monitor.  Deterministic for a given (profile.seed, name, stream):
    streams ``{seed}:{name}:events:{fault}``.
    """

    def __init__(self, profile: LinkFaultProfile, name: str = "") -> None:
        super().__init__(profile, f"{profile.seed}:{name}:events")
        self.name = name

    def transform(self, events: Sequence) -> List:
        out: List[Tuple[float, int, int, object]] = []
        for idx, event in enumerate(events):
            packet = getattr(event, "packet", None)
            rolled = self._roll(corruptible=packet is not None)
            if rolled is None:
                continue
            corrupt, delay = rolled
            if corrupt:
                event = replace(event, packet=corrupt_packet(packet))
            if delay > 0.0:
                event = replace(event, time=event.time + delay)
            out.append((event.time, idx, 0, event))
            if self._duplicates():
                dup = replace(event, time=event.time + DUPLICATE_GAP)
                out.append((dup.time, idx, 1, dup))
        out.sort(key=lambda item: (item[0], item[1], item[2]))
        return [item[3] for item in out]


#: eviction policy names understood by the monitor's degradation layer
#: (validated in :mod:`repro.core.degradation`; mirrored here so chaos
#: profiles stay core-free).
EVICT_REJECT = "reject-new"
EVICT_OLDEST = "evict-oldest"
EVICT_LRU = "evict-lru"


@dataclass(frozen=True)
class WorkerCrashProfile:
    """Process faults against the monitor *itself* (fabric workers).

    Unlike every other fault family, these do not perturb the event
    stream or the monitor's internal policies — they SIGKILL fabric
    worker processes mid-run, at fixed fractions of the replay, to
    exercise the supervisor's detect/restart/replay path.  Only
    meaningful for sharded mp runs; ``repro chaos`` dispatches profiles
    with a non-null crash plan to the crash-recovery harness.
    """

    #: SIGKILLs delivered to each shard over one run
    kills_per_shard: int = 0
    #: where in the replay (fraction of events fed) each kill lands;
    #: kill *k* of a shard uses ``at_fractions[k % len]`` staggered by
    #: shard index so shards do not die in the same batch.
    at_fractions: Tuple[float, ...] = (0.5,)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kills_per_shard < 0:
            raise ValueError(
                f"kills_per_shard must be >= 0, got {self.kills_per_shard}")
        if not self.at_fractions:
            raise ValueError("at_fractions must not be empty")
        for fraction in self.at_fractions:
            if not 0.0 < fraction < 1.0:
                raise ValueError(
                    f"at_fractions entries must be in (0, 1), "
                    f"got {fraction!r}")

    @property
    def is_null(self) -> bool:
        return self.kills_per_shard == 0


@dataclass(frozen=True)
class ChaosProfile:
    """A named, fully-seeded chaos scenario: network + monitor knobs.

    ``mode`` is ``"inline"`` or ``"split"`` (kept as a string so this
    module never imports the switch); the degradation knobs mirror
    :class:`repro.core.degradation.DegradationPolicy` as plain values.
    ``worker_crash`` targets the fabric's worker processes instead of
    the event stream — the monitor as its own failure domain.
    """

    name: str
    description: str
    link: LinkFaultProfile = LinkFaultProfile()
    control: ControlFaultProfile = ControlFaultProfile()
    mode: str = "inline"  # "inline" | "split"
    split_lag: float = 0.0
    max_instances: Optional[int] = None
    eviction: str = EVICT_REJECT
    max_pending_ops: Optional[int] = None
    retry_backoff: float = 1e-3
    max_retries: int = 3
    worker_crash: WorkerCrashProfile = WorkerCrashProfile()

    def __post_init__(self) -> None:
        if self.mode not in ("inline", "split"):
            raise ValueError(f"mode must be 'inline' or 'split', got {self.mode!r}")
        _check_delay("split_lag", self.split_lag)

    @property
    def ledgered(self) -> bool:
        """True when every divergence source is monitor-side.

        Link faults perturb the event stream *before* the monitor sees
        it, so their effect is not in the overflow ledger and the
        uncertainty interval does not bound the clean-run count; such
        profiles report recall only.
        """
        return self.link.is_null

    def degraded(self) -> bool:
        """Does this profile bound monitor state at all?"""
        return self.max_instances is not None or self.max_pending_ops is not None


#: The named fault catalog ``repro chaos`` replays Table 1 under.
PROFILES: Dict[str, ChaosProfile] = {
    "clean": ChaosProfile(
        name="clean",
        description="No faults, inline processing, unbounded state — "
                    "byte-identical to a plain monitor run.",
    ),
    "lossy": ChaosProfile(
        name="lossy",
        description="A degraded monitoring tap: 2% event loss plus "
                    "duplication, reordering, jitter, and corruption; "
                    "the monitor itself stays unbounded and inline.",
        link=LinkFaultProfile(drop=0.02, duplicate=0.01, reorder=0.05,
                              reorder_window=0.01, jitter=0.002,
                              corrupt=0.005, seed=101),
    ),
    "overloaded": ChaosProfile(
        name="overloaded",
        description="A perfect tap into an overloaded monitor: split-mode "
                    "updates lag and drop, instance tables are bounded "
                    "(evict-oldest), and the pending queue backpressures. "
                    "Fully ledgered: reports violations +/- uncertainty.",
        control=ControlFaultProfile(drop=0.05, extra_lag=0.05,
                                    jitter=0.01, seed=202),
        mode="split",
        split_lag=0.0,
        max_instances=24,
        eviction=EVICT_OLDEST,
        max_pending_ops=4,
        retry_backoff=5e-4,
        max_retries=2,
    ),
    "adversarial": ChaosProfile(
        name="adversarial",
        description="Everything at once: heavy loss/reorder/corruption on "
                    "the tap AND an overloaded monitor with reject-new "
                    "bounded tables and an aggressive shed policy.",
        link=LinkFaultProfile(drop=0.08, duplicate=0.04, reorder=0.15,
                              reorder_window=0.05, jitter=0.01,
                              corrupt=0.02, seed=303),
        control=ControlFaultProfile(drop=0.1, extra_lag=0.005,
                                    jitter=0.01, seed=404),
        mode="split",
        split_lag=0.0,
        max_instances=16,
        eviction=EVICT_REJECT,
        max_pending_ops=8,
        retry_backoff=1e-3,
        max_retries=1,
    ),
    "worker-crash": ChaosProfile(
        name="worker-crash",
        description="A perfect tap and an unbounded monitor, but the "
                    "fabric's worker processes are SIGKILLed mid-run "
                    "(once per shard): exercises supervisor detection, "
                    "checkpoint/replay recovery, and ledger honesty. "
                    "Fully ledgered: reports violations +/- uncertainty.",
        worker_crash=WorkerCrashProfile(
            kills_per_shard=1, at_fractions=(0.45,), seed=0),
    ),
}
