"""``repro.obs`` — zero-dependency observability for the HCompress engine.

Three primitives compose the subsystem (see docs/OBSERVABILITY.md):

* :class:`~repro.obs.registry.MetricsRegistry` — labeled counter / gauge /
  fixed-bucket histogram families with one JSON export path;
* :class:`~repro.obs.tracer.Tracer` — structured nested spans carrying
  both wall and modeled (simulated-clock) durations, exportable to
  Chrome's ``chrome://tracing`` format;
* :class:`~repro.obs.hooks.ProfilingHooks` — per-site enter/exit
  callbacks on the engine's hot paths.

:class:`~repro.obs.observability.Observability` bundles all three behind
the ``record_*`` pushes the hot paths make and the one ``mirror`` that
exports a subsystem's :class:`~repro.obs.registry.Metric` table, and
:class:`~repro.obs.observability.ObservabilityConfig` is the opt-in knob
carried by ``HCompressConfig`` (disabled by default; disabled means the
engine holds no observability object at all).
"""

from .hooks import ProfilingHooks
from .observability import Observability, ObservabilityConfig
from .registry import (
    Counter,
    Gauge,
    Histogram,
    Metric,
    MetricsRegistry,
    merge_registries,
)
from .tracer import NULL_SPAN, Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Metric",
    "MetricsRegistry",
    "NULL_SPAN",
    "Observability",
    "ObservabilityConfig",
    "ProfilingHooks",
    "Span",
    "Tracer",
    "merge_registries",
]
