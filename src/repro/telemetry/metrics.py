"""The unified metrics registry — one source of truth for every counter.

Sec. 3.3's claims are quantitative (pipeline depth tracks live instances,
split-mode lag causes monitor errors, postcards trade memory for
bandwidth), and before this module each layer measured them with its own
ad-hoc bookkeeping (``MonitorStats``, ``SwitchStats``, loose ints on the
postcard collector).  The registry replaces all of that with three
instrument kinds in the Prometheus mold — :class:`Counter`,
:class:`Gauge`, :class:`Histogram` — addressable by ``(name, labels)``
and timestamped on the **virtual clock**, never the wall clock, so a
replayed trace produces byte-identical snapshots run after run.

Two registry flavours share one interface:

* :class:`MetricsRegistry` — the real thing: instruments are registered,
  labeled families fan out, histograms bucket, and
  :meth:`MetricsRegistry.snapshot` exports everything for the
  Prometheus-text / JSON renderers in :mod:`repro.telemetry.exposition`.

* :class:`NullRegistry` — the **default** everywhere instrumentation is
  wired in.  Its counters and gauges still count (they are single slotted
  attributes, exactly as cheap as the ad-hoc ints they replaced — this is
  what keeps the legacy ``monitor.stats`` / ``switch.stats`` views
  working with no registry configured), but histograms are shared no-ops,
  ``enabled`` is False so hot paths skip labeled fan-out and span
  emission, and ``snapshot()`` exports nothing.
  ``benchmarks/e2e`` measures the enabled ↔ disabled gap (its
  ``telemetry.registry`` layer) to keep this claim honest.

Zero dependencies by design: the repo's north star is a switch simulator
that runs "as fast as the hardware allows", and a telemetry layer you
cannot afford to leave on is one you cannot trust when you need it.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Tuple

#: Default histogram buckets for virtual-time latencies (seconds).  The
#: interesting dynamic range is BASE_FORWARD_LATENCY (5e-6) through
#: slow-path storms (hundreds of microseconds per flow_mod at 250 ticks).
LATENCY_BUCKETS = (
    1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4, 1e-3, 1e-2, 1e-1,
)

#: Default buckets for small cardinalities (candidates scanned per event,
#: pending-op queue depth, tables traversed).
COUNT_BUCKETS = (0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 500.0, 1000.0)

LabelPairs = Tuple[Tuple[str, str], ...]


def _label_key(labels: Optional[Mapping[str, str]]) -> LabelPairs:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count (float so latency sums fit too)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Gauge:
    """A point-in-time value; tracks its high watermark for peak stats."""

    __slots__ = ("value", "high_watermark")

    def __init__(self) -> None:
        self.value = 0.0
        self.high_watermark = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.high_watermark:
            self.high_watermark = value

    def inc(self, amount: float = 1.0) -> None:
        self.set(self.value + amount)

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Fixed-bucket distribution with count/sum/min/max.

    Bucket semantics are Prometheus cumulative ``le`` bounds; an implicit
    ``+Inf`` bucket catches the overflow.
    """

    __slots__ = ("bounds", "bucket_counts", "count", "sum", "min", "max")

    def __init__(self, buckets: Tuple[float, ...] = COUNT_BUCKETS) -> None:
        self.bounds: Tuple[float, ...] = tuple(sorted(buckets))
        self.bucket_counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float, count: int = 1) -> None:
        """Record ``count`` (at least one) observations of ``value``."""
        self.count += count
        self.sum += value * count
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        # le semantics: the first bound >= value, else the +Inf slot
        self.bucket_counts[bisect_left(self.bounds, value)] += count

    def cumulative(self) -> List[Tuple[float, int]]:
        """Cumulative ``(le, count)`` pairs, ending with ``(inf, count)``."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, n in zip(self.bounds, self.bucket_counts):
            running += n
            out.append((bound, running))
        out.append((float("inf"), self.count))
        return out


class _NullHistogram(Histogram):
    """Shared do-nothing histogram handed out by the null registry."""

    __slots__ = ()

    def observe(self, value: float,
                count: int = 1) -> None:  # pragma: no cover - trivial
        pass


NULL_HISTOGRAM = _NullHistogram()


class _Family:
    """All cells of one metric name (one per distinct label set)."""

    __slots__ = ("name", "kind", "help", "unit", "cells")

    def __init__(self, name: str, kind: str, help: str, unit: str) -> None:
        self.name = name
        self.kind = kind  # "counter" | "gauge" | "histogram"
        self.help = help
        self.unit = unit
        self.cells: Dict[LabelPairs, object] = {}


class MetricsRegistry:
    """Counters, gauges, and histograms with labels, virtual-time stamped.

    Instruments are get-or-create by ``(name, labels)``; asking for an
    existing name with a different instrument kind raises ``ValueError``
    (one name, one meaning).  ``time_fn`` supplies the snapshot timestamp
    — wire it to the simulation clock (``scheduler.clock.now`` or
    ``monitor.now``) so exports are reproducible.
    """

    enabled = True

    def __init__(self, time_fn: Optional[Callable[[], float]] = None) -> None:
        self._families: Dict[str, _Family] = {}
        self.time_fn = time_fn

    # -- instrument access -------------------------------------------------
    def _instrument(
        self,
        kind: str,
        name: str,
        help: str,
        unit: str,
        labels: Optional[Mapping[str, str]],
        factory: Callable[[], object],
    ) -> object:
        family = self._families.get(name)
        if family is None:
            family = _Family(name, kind, help, unit)
            self._families[name] = family
        elif family.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {family.kind}, "
                f"not {kind}"
            )
        else:
            if help and not family.help:
                family.help = help
            if unit and not family.unit:
                family.unit = unit
        key = _label_key(labels)
        cell = family.cells.get(key)
        if cell is None:
            cell = factory()
            family.cells[key] = cell
        return cell

    def counter(
        self,
        name: str,
        help: str = "",
        unit: str = "",
        labels: Optional[Mapping[str, str]] = None,
    ) -> Counter:
        return self._instrument("counter", name, help, unit, labels, Counter)  # type: ignore[return-value]

    def gauge(
        self,
        name: str,
        help: str = "",
        unit: str = "",
        labels: Optional[Mapping[str, str]] = None,
    ) -> Gauge:
        return self._instrument("gauge", name, help, unit, labels, Gauge)  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help: str = "",
        unit: str = "",
        labels: Optional[Mapping[str, str]] = None,
        buckets: Tuple[float, ...] = COUNT_BUCKETS,
    ) -> Histogram:
        return self._instrument(  # type: ignore[return-value]
            "histogram", name, help, unit, labels, lambda: Histogram(buckets)
        )

    # -- export ------------------------------------------------------------
    def now(self) -> Optional[float]:
        return self.time_fn() if self.time_fn is not None else None

    def families(self) -> Iterator[_Family]:
        for name in sorted(self._families):
            yield self._families[name]

    def snapshot(self) -> dict:
        """Everything the registry holds, as plain JSON-serializable data."""
        metrics = []
        for family in self.families():
            samples = []
            for key in sorted(family.cells):
                cell = family.cells[key]
                sample: Dict[str, object] = {"labels": dict(key)}
                if family.kind == "counter":
                    sample["value"] = _jsonable(cell.value)  # type: ignore[union-attr]
                elif family.kind == "gauge":
                    sample["value"] = _jsonable(cell.value)  # type: ignore[union-attr]
                    sample["peak"] = _jsonable(cell.high_watermark)  # type: ignore[union-attr]
                else:
                    hist: Histogram = cell  # type: ignore[assignment]
                    sample.update(
                        count=hist.count,
                        sum=_jsonable(hist.sum),
                        min=_jsonable(hist.min),
                        max=_jsonable(hist.max),
                        buckets=[
                            [_jsonable(le), n] for le, n in hist.cumulative()
                        ],
                    )
                samples.append(sample)
            metrics.append({
                "name": family.name,
                "kind": family.kind,
                "help": family.help,
                "unit": family.unit,
                "samples": samples,
            })
        return {"time": _jsonable(self.now()), "metrics": metrics}


class NullRegistry(MetricsRegistry):
    """The default registry: counts, but registers and exports nothing.

    Counters and gauges returned here are real (the legacy stats views
    read them, and ``x.inc()`` costs what ``stats.x += 1`` used to), but
    they live outside any family — ``snapshot()`` is empty, histograms
    are a shared no-op, and ``enabled`` is False so call sites skip
    per-label fan-out and span emission entirely.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__()
        self._loose: Dict[Tuple[str, str, LabelPairs], object] = {}

    def _instrument(self, kind, name, help, unit, labels, factory):  # type: ignore[override]
        key = (kind, name, _label_key(labels))
        cell = self._loose.get(key)
        if cell is None:
            cell = factory()
            self._loose[key] = cell
        return cell

    def histogram(self, name, help="", unit="", labels=None, buckets=COUNT_BUCKETS):  # type: ignore[override]
        return NULL_HISTOGRAM

    def snapshot(self) -> dict:
        return {"time": None, "metrics": []}


class StatsView:
    """Legacy ``x.stats.name`` reads — a thin view over registry cells.

    A subclass maps attribute names to metric names: a ``_COUNTERS``
    attribute reads that counter's value, a ``_GAUGES`` attribute that
    gauge's high watermark.  The view and the exported sample are the
    SAME cell (no double counting, one source of truth), and it works
    against the default :class:`NullRegistry` too: its counters still
    count, they just export nothing.
    """

    _COUNTERS: Mapping[str, str] = {}
    _GAUGES: Mapping[str, str] = {}

    __slots__ = ("_registry",)

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self._registry = registry if registry is not None else NullRegistry()

    def __getattr__(self, name: str) -> int:
        counter = self._COUNTERS.get(name)
        if counter is not None:
            return int(self._registry.counter(counter).value)
        gauge = self._GAUGES.get(name)
        if gauge is not None:
            return int(self._registry.gauge(gauge).high_watermark)
        raise AttributeError(name)

    def export(self) -> Tuple[Dict[str, int], Dict[str, int]]:
        """``(counter values, gauge high-watermarks)`` by attribute name."""
        return ({name: getattr(self, name) for name in self._COUNTERS},
                {name: getattr(self, name) for name in self._GAUGES})

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        counters, peaks = self.export()
        inner = ", ".join(f"{k}={v}" for k, v in {**counters, **peaks}.items())
        return f"{type(self).__name__}({inner})"


def _jsonable(value):
    """Floats that carry integral values export as ints (stable goldens)."""
    if value is None:
        return None
    if isinstance(value, float):
        if value == float("inf"):
            return "+Inf"
        if value == int(value):
            return int(value)
    return value
