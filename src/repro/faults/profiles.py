"""Named fault profiles and the seeded channels that apply them.

The paper's Sec. 3.3 is about what happens when the conditions the monitor
was designed for stop holding: state updates lag behind line rate, instance
tables outgrow the pipeline, and the network itself misbehaves.  A
:class:`ChaosProfile` names one such scenario: faults on the monitoring tap
(:class:`LinkFaultProfile`, applied by :class:`FaultyEventChannel`), faults
on the monitor's control channel (:class:`ControlFaultProfile`, applied by
:class:`ControlChannel`), the monitor's own processing mode and
:class:`~repro.core.degradation.DegradationPolicy`, and SIGKILLs against
fabric workers (:class:`WorkerCrashProfile`).

All randomness derives from ``random.Random(f"{seed}:{name}:...")``
streams — one stream per fault kind, so enabling one fault never
reshuffles another's firing pattern, and identical seeds give
byte-identical chaos.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.degradation import EVICT_OLDEST, EVICT_REJECT, DegradationPolicy
from ..packet.packet import Packet
from ..switch.switch import ProcessingMode

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
    """Seeded fault rates for one monitoring tap.

    ``drop``/``duplicate``/``corrupt`` are per-event probabilities;
    ``jitter`` adds a uniform extra delay in ``[0, jitter]`` seconds to
    every delivery; ``reorder`` selects events that additionally wait up
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


class FaultyEventChannel:
    """Applies a :class:`LinkFaultProfile` to a recorded event stream.

    Models a lossy monitoring tap: the switch saw every event, but the
    stream the monitor receives is dropped / duplicated / delayed /
    corrupted on the way.  Works on any sequence of dataplane events
    (frozen dataclasses) — perturbed copies are made with
    ``dataclasses.replace`` and the result is re-sorted by perturbed
    time, which is exactly how reordering becomes visible to the
    monitor.

    Each offered event is rolled in a fixed order — drop, corrupt,
    jitter, reorder, then (once delivered) duplicate — each fault on its
    own stream ``{seed}:{name}:events:{fault}``, so the channel is
    deterministic for a given (profile, name, stream) and enabling one
    fault never reshuffles another.  Successive :meth:`transform` calls
    continue the same streams.
    """

    def __init__(self, profile: LinkFaultProfile, name: str = "") -> None:
        self.profile = profile
        self.name = name
        self._rngs = {
            fault: random.Random(f"{profile.seed}:{name}:events:{fault}")
            for fault in ("drop", "corrupt", "jitter", "reorder", "duplicate")
        }
        self.counters: Dict[str, int] = dict.fromkeys((
            "offered", "delivered", "dropped", "duplicated", "reordered",
            "corrupted", "delayed"), 0)

    def _fires(self, fault: str, rate: float) -> bool:
        return rate > 0.0 and self._rngs[fault].random() < rate

    def transform(self, events: Sequence) -> List:
        p, counters = self.profile, self.counters
        out: List[Tuple[float, int, int, object]] = []
        for idx, event in enumerate(events):
            counters["offered"] += 1
            if self._fires("drop", p.drop):
                counters["dropped"] += 1
                continue
            packet = getattr(event, "packet", None)
            if self._fires("corrupt", p.corrupt) and packet is not None:
                counters["corrupted"] += 1
                event = replace(event, packet=corrupt_packet(packet))
            delay = 0.0
            if p.jitter > 0.0:
                delay += self._rngs["jitter"].uniform(0.0, p.jitter)
            if self._fires("reorder", p.reorder):
                counters["reordered"] += 1
                delay += self._rngs["reorder"].uniform(0.0, p.reorder_window)
            counters["delivered"] += 1
            if delay > 0.0:
                counters["delayed"] += 1
                event = replace(event, time=event.time + delay)
            out.append((event.time, idx, 0, event))
            if self._fires("duplicate", p.duplicate):
                counters["duplicated"] += 1
                dup = replace(event, time=event.time + DUPLICATE_GAP)
                out.append((dup.time, idx, 1, dup))
        out.sort(key=lambda item: (item[0], item[1], item[2]))
        return [item[3] for item in out]


@dataclass(frozen=True)
class WorkerCrashProfile:
    """Process faults against the monitor *itself* (fabric workers).

    Unlike every other fault family, these do not perturb the event
    stream or the monitor's internal policies — they SIGKILL fabric
    worker processes mid-run, at fixed fractions of the replay, to
    exercise the supervisor's detect/restart/replay path.  Only
    meaningful for sharded mp runs; a profile with a non-null crash plan
    runs its rounds on a forked fabric.
    """

    #: SIGKILLs delivered to each shard over one run
    kills_per_shard: int = 0
    #: where in the replay (fraction of events fed) each kill lands;
    #: kill *k* of a shard uses ``at_fractions[k % len]`` staggered by
    #: shard index so shards do not die in the same batch.
    at_fractions: Tuple[float, ...] = (0.5,)

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
    """A named, fully-seeded chaos scenario: tap, control channel, monitor.

    ``mode``, ``split_lag`` and ``degradation`` are what the monitor under
    the profile is built with (``degradation=None`` is unbounded);
    ``worker_crash`` targets the fabric's worker processes instead of the
    event stream — the monitor as its own failure domain.
    """

    name: str
    description: str
    link: LinkFaultProfile = LinkFaultProfile()
    control: ControlFaultProfile = ControlFaultProfile()
    mode: ProcessingMode = ProcessingMode.INLINE
    split_lag: float = 0.0
    degradation: Optional[DegradationPolicy] = None
    worker_crash: WorkerCrashProfile = WorkerCrashProfile()

    def __post_init__(self) -> None:
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


def monitor_profile_kwargs(
    profile: Optional[ChaosProfile] = None,
) -> Dict[str, object]:
    """The ``Monitor(...)`` kwargs a chaos profile implies.

    Called once per monitor: a control channel carries RNG state, so
    every call mints a fresh one rather than sharing.  A fabric calls it
    once; each forked worker starts from its own copy of that one.
    """
    if profile is None:
        return {}
    return {
        "mode": profile.mode,
        "split_lag": profile.split_lag,
        "degradation": profile.degradation,
        "op_faults": (None if profile.control.is_null
                      else profile.control.channel(name=profile.name)),
    }


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
        mode=ProcessingMode.SPLIT,
        degradation=DegradationPolicy(
            max_instances=24, eviction=EVICT_OLDEST, max_pending_ops=4,
            retry_backoff=5e-4, max_retries=2),
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
        mode=ProcessingMode.SPLIT,
        degradation=DegradationPolicy(
            max_instances=16, eviction=EVICT_REJECT, max_pending_ops=8,
            retry_backoff=1e-3, max_retries=1),
    ),
    "worker-crash": ChaosProfile(
        name="worker-crash",
        description="A perfect tap and an unbounded monitor, but the "
                    "fabric's worker processes are SIGKILLed mid-run "
                    "(once per shard): exercises supervisor detection, "
                    "checkpoint/replay recovery, and ledger honesty. "
                    "Fully ledgered: reports violations +/- uncertainty.",
        worker_crash=WorkerCrashProfile(
            kills_per_shard=1, at_fractions=(0.45,)),
    ),
}
