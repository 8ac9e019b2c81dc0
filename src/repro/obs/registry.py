"""Metrics registry: counters, gauges, and fixed-bucket histograms.

Zero-dependency, label-aware metric families in the Prometheus idiom,
sized for an in-process engine rather than a scrape endpoint. A family
(``Counter``, ``Gauge``, ``Histogram``) owns one series per distinct
label-value combination; an unlabeled family is its own single series.

Every series has exactly one writer (docs/OBSERVABILITY.md):

* A **push** series is incremented at the instrumentation site (per piece,
  per retry) — the hot-path cost is one dict probe on the label values
  and an add (``family.labels(tier, op).inc()``).
* A **mirror** series is *set* at export time (``Counter.set``) from the
  counter a subsystem already keeps, which stays the source of truth. The
  class that owns the counter declares the family as a :class:`Metric` row
  of its ``METRICS`` table; ``Observability.mirror`` turns the table into
  series.

Everything here is plain Python with no locks: HCompress instruments only
its serial control path (codec worker threads never touch the registry).
"""

from __future__ import annotations

import bisect
import json
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from ..errors import HCompressError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Metric",
    "MetricsRegistry",
    "DEFAULT_SECONDS_BUCKETS",
    "DEFAULT_RATIO_BUCKETS",
    "DEFAULT_BYTES_BUCKETS",
    "merge_registries",
]

#: Default histogram bucket upper bounds for durations in seconds.
DEFAULT_SECONDS_BUCKETS: tuple[float, ...] = (
    1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0,
)

#: Default buckets for compression ratios (1.0 = incompressible).
DEFAULT_RATIO_BUCKETS: tuple[float, ...] = (
    1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 20.0,
)

#: Default buckets for byte sizes (4 KiB .. 1 GiB).
DEFAULT_BYTES_BUCKETS: tuple[float, ...] = tuple(
    float(4096 << (2 * i)) for i in range(10)
)


class Metric(NamedTuple):
    """One mirrored family: a row of the ``METRICS`` table on the class
    whose counter it exports.

    ``read`` says where the value lives on the object being mirrored: an
    attribute path (``"moves"``, ``"stats.scans"``), or a callable taking
    the object. Either yields one number, a ``{label values: number}``
    mapping for a family with ``labels`` of its own (keys are tuples in
    ``labels`` order), or ``None`` for "nothing to export yet".
    """

    name: str
    help: str
    read: "str | Callable[[object], object]"
    labels: tuple[str, ...] = ()
    kind: str = "counter"  # or "gauge"


class _CounterSeries:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the series."""
        if amount < 0:
            raise HCompressError("counters only increase; use a Gauge")
        self.value += amount

    def set(self, value: float) -> None:
        """Mirror-sync: overwrite with an externally accumulated total."""
        self.value = value


class _GaugeSeries:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class _HistogramSeries:
    """Fixed-bucket histogram: counts per upper bound, plus sum/count."""

    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets: tuple[float, ...]) -> None:
        self.buckets = buckets
        self.counts = [0] * (len(buckets) + 1)  # +1: overflow bucket
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


class _Family:
    """Shared plumbing of a labeled metric family."""

    kind = "abstract"
    _series_cls: type | None = None

    def __init__(
        self, name: str, help: str, labelnames: tuple[str, ...] = ()
    ) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._series: dict[tuple[str, ...], object] = {}
        self._sole = None  # a label-less family's only series, once used

    def _make_series(self):
        return self._series_cls()  # type: ignore[misc]

    def labels(self, *values, **labels):
        """The child series for one label-value combination (auto-created).

        Values go positionally in declared order — the hot path: one dict
        probe, no validation — or by keyword; both resolve to one series.
        """
        series = self._series.get(values)
        if series is None or labels:
            series = self._resolve(values, labels)
        return series

    def _resolve(self, values: tuple, labels: dict):
        """Keyword and miss path of :meth:`labels`: validate names and
        arity, coerce the values to ``str`` (so ``3`` and ``"3"`` are one
        series), then find or create."""
        names = self.labelnames
        if labels:
            if values or set(labels) != set(names):
                raise HCompressError(
                    f"labels {sorted(labels)} do not match declared label "
                    f"names {sorted(names)}"
                )
            values = tuple(labels[name] for name in names)
        elif len(values) != len(names):
            raise HCompressError(
                f"{len(values)} label values do not match declared label "
                f"names {sorted(names)}"
            )
        key = tuple(str(value) for value in values)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = self._make_series()
        return series

    def _default(self):
        """The unlabeled series (only valid for label-less families),
        bound once on first use."""
        series = self._sole
        if series is None:
            if self.labelnames:
                raise HCompressError(
                    f"metric {self.name!r} declares labels {self.labelnames}; "
                    f"use .labels(...)"
                )
            series = self._sole = self.labels()
        return series

    def series_items(self):
        """Iterate ``(labels dict, series)`` pairs in insertion order."""
        for key, series in self._series.items():
            yield dict(zip(self.labelnames, key)), series


class Counter(_Family):
    """Monotone counter family; ``set`` exists only for mirror-sync."""

    kind = "counter"
    _series_cls = _CounterSeries

    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)

    def set(self, value: float) -> None:
        self._default().set(value)

    @property
    def value(self) -> float:
        """Total across every series of the family."""
        return sum(s.value for s in self._series.values())


class Gauge(_Family):
    """Point-in-time value family."""

    kind = "gauge"
    _series_cls = _GaugeSeries

    def set(self, value: float) -> None:
        self._default().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default().dec(amount)

    @property
    def value(self) -> float:
        return sum(s.value for s in self._series.values())


class Histogram(_Family):
    """Fixed-bucket distribution family."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_SECONDS_BUCKETS,
    ) -> None:
        super().__init__(name, help, labelnames)
        if not buckets or list(buckets) != sorted(buckets):
            raise HCompressError("histogram buckets must be sorted and non-empty")
        self.buckets = tuple(float(b) for b in buckets)

    def _make_series(self):
        return _HistogramSeries(self.buckets)

    def observe(self, value: float) -> None:
        self._default().observe(value)


@dataclass
class MetricsRegistry:
    """A named collection of metric families with one JSON export path.

    Families are created idempotently: asking for an existing name returns
    the registered family (declarations must agree on kind and labels, or
    :class:`~repro.errors.HCompressError` is raised — silent redefinition
    is how telemetry drifts).
    """

    _families: dict[str, _Family] = field(default_factory=dict)

    def _register(self, family: _Family) -> _Family:
        existing = self._families.get(family.name)
        if existing is not None:
            if (
                existing.kind != family.kind
                or existing.labelnames != family.labelnames
            ):
                raise HCompressError(
                    f"metric {family.name!r} re-declared with a different "
                    f"kind or label set"
                )
            return existing
        self._families[family.name] = family
        return family

    def counter(
        self, name: str, help: str = "", labels: tuple[str, ...] = ()
    ) -> Counter:
        return self._register(Counter(name, help, labels))  # type: ignore[return-value]

    def gauge(
        self, name: str, help: str = "", labels: tuple[str, ...] = ()
    ) -> Gauge:
        return self._register(Gauge(name, help, labels))  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_SECONDS_BUCKETS,
    ) -> Histogram:
        return self._register(Histogram(name, help, labels, buckets))  # type: ignore[return-value]

    # -- queries -------------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._families

    def get(self, name: str) -> _Family | None:
        return self._families.get(name)

    def names(self) -> list[str]:
        return sorted(self._families)

    def value(self, name: str, **labels: str) -> float:
        """One series' current value (counters/gauges only)."""
        family = self._families.get(name)
        if family is None:
            raise HCompressError(f"no metric named {name!r}")
        if isinstance(family, Histogram):
            raise HCompressError(
                f"{name!r} is a histogram; read .labels(...).sum/.count"
            )
        return family.labels(**labels).value  # type: ignore[union-attr]

    # -- export --------------------------------------------------------------

    def collect(self) -> dict:
        """Stable JSON-ready snapshot of every family.

        Schema (``hcompress.metrics.v1``): families sorted by name, series
        in creation order; histogram series carry bucket bounds alongside
        per-bucket counts (the final count is the overflow bucket).
        """
        out: dict = {"schema": "hcompress.metrics.v1", "metrics": {}}
        for name in sorted(self._families):
            family = self._families[name]
            entry: dict = {
                "type": family.kind,
                "help": family.help,
                "labels": list(family.labelnames),
                "series": [],
            }
            if isinstance(family, Histogram):
                entry["buckets"] = list(family.buckets)
            for labels, series in family.series_items():
                if isinstance(series, _HistogramSeries):
                    entry["series"].append(
                        {
                            "labels": labels,
                            "counts": list(series.counts),
                            "sum": series.sum,
                            "count": series.count,
                        }
                    )
                else:
                    entry["series"].append(
                        {"labels": labels, "value": series.value}  # type: ignore[union-attr]
                    )
            out["metrics"][name] = entry
        return out

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.collect(), indent=indent, sort_keys=False)


def merge_registries(
    named: "list[tuple[str, MetricsRegistry]]", label: str = "shard"
) -> MetricsRegistry:
    """Merge several engines' registries into one, adding a ``label``.

    Each input registry's families reappear in the merged registry with
    ``label`` appended to their label names and every series tagged with
    that registry's name (e.g. ``shard="3"``), so a sharded deployment
    exports one ``hcompress.metrics.v1`` document with per-shard series
    instead of N disjoint documents. Inputs are untouched; family kinds,
    help text, and histogram buckets must agree across registries (they
    do by construction — every shard runs the same instrumentation).

    This is an aggregation of *distinct engines*; a single-engine export
    must not pass through here (the CLI's one-shard path exports the
    engine's own registry untouched, keeping output byte-identical to an
    unsharded run).
    """
    merged = MetricsRegistry()
    for registry_name, registry in named:
        for family_name in sorted(registry._families):
            family = registry._families[family_name]
            if label in family.labelnames:
                raise HCompressError(
                    f"metric {family_name!r} already has a {label!r} label"
                )
            labelnames = family.labelnames + (label,)
            if isinstance(family, Histogram):
                target = merged.histogram(
                    family_name, family.help, labelnames, family.buckets
                )
            elif isinstance(family, Counter):
                target = merged.counter(family_name, family.help, labelnames)
            else:
                target = merged.gauge(family_name, family.help, labelnames)
            for labels, series in family.series_items():
                out = target.labels(**labels, **{label: registry_name})
                if isinstance(series, _HistogramSeries):
                    out.counts = list(series.counts)
                    out.sum = series.sum
                    out.count = series.count
                else:
                    out.set(series.value)  # type: ignore[union-attr]
    return merged
