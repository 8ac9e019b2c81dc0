"""The observability facade: config, instrumentation surface, export.

One :class:`Observability` object per HCompress engine bundles the three
primitives — a :class:`~repro.obs.registry.MetricsRegistry`, a
:class:`~repro.obs.tracer.Tracer`, and :class:`~repro.obs.hooks.ProfilingHooks`
— behind the handful of ``record_*`` calls the hot paths make.

Overhead contract (docs/OBSERVABILITY.md): when
``ObservabilityConfig.enabled`` is False (the default), no
``Observability`` object exists at all — every instrumented component
holds ``obs=None`` and pays one identity check per operation
(``benchmarks/bench_obs.py`` verifies the plan path regresses < 2%).
When enabled, hot-path cost is a few dict lookups and float adds per
operation.

Every series has exactly one writer:

* **push** — the families declared in ``Observability.__init__`` are
  incremented at the instrumentation site (per plan, per piece, per SHI
  receipt, per retry) by the ``record_*`` methods below, and by nothing
  else.
* **mirror** — every counter a subsystem already keeps (``EngineStats``,
  ``ResilienceStats``, ``LifecycleStats``, the QoS governor, ...) is
  declared as a :class:`~repro.obs.registry.Metric` row in the ``METRICS``
  table of the class that owns it and *set* from it at export time by
  :meth:`Observability.mirror`. The subsystem's counter stays the source
  of truth; nothing pushes a mirrored family.

This package imports nothing from the rest of ``repro`` but
``repro.errors`` — a table names its own source's attributes, so the
facade knows no subsystem — which keeps ``repro.obs`` a leaf package
every layer can depend on (``tests/obs/test_leaf.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Iterable

from .hooks import ProfilingHooks
from .registry import (
    DEFAULT_BYTES_BUCKETS,
    DEFAULT_RATIO_BUCKETS,
    Metric,
    MetricsRegistry,
)
from .tracer import Span, Tracer

__all__ = ["ObservabilityConfig", "Observability"]

#: Buckets for per-plan wall time (planning is sub-millisecond when cached).
PLAN_SECONDS_BUCKETS: tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0,
)


@dataclass(frozen=True)
class ObservabilityConfig:
    """Telemetry knobs of an HCompress engine.

    Attributes:
        enabled: Master switch. Off (the default) means no registry, no
            tracer, no hooks — the instrumented call sites reduce to an
            ``obs is None`` check.
        tracing: Record spans (metrics stay on when this is off).
        max_spans: Ring-buffer bound on retained finished spans.
    """

    enabled: bool = False
    tracing: bool = True
    max_spans: int = 10_000

    def __post_init__(self) -> None:
        if self.max_spans < 1:
            raise ValueError("max_spans must be >= 1")


class _Region(Span):
    """One instrumented site: a span that also fires the site's hooks.

    The region owns its attrs, so exit hooks see the outcome annotations
    (``cache=hit``, ``error=...``) whether or not the span is recorded;
    with tracing off it carries no tracer and nothing reaches the ring.
    """

    __slots__ = ("_hooks",)

    def __init__(self, obs: "Observability", site: str, ctx: dict) -> None:
        # Span.__init__, inlined: this runs once per region per task.
        tracer = obs.tracer
        self._tracer = tracer if tracer.enabled else None
        self._hooks = obs.hooks
        self.name = site
        self.attrs = ctx
        self.modeled_seconds = 0.0

    def __enter__(self):
        hooks = self._hooks
        if hooks._enter:
            hooks.enter(self.name, **self.attrs)
        return Span.__enter__(self)

    def __exit__(self, exc_type, exc, tb) -> None:
        Span.__exit__(self, exc_type, exc, tb)
        hooks = self._hooks
        if hooks._exit:
            hooks.exit(self.name, **self.attrs)


class Observability:
    """Live telemetry for one engine: registry + tracer + hooks.

    Args:
        config: Knobs; an all-defaults (disabled) config still produces a
            working object — consumers that want the hard-off fast path
            hold ``None`` instead.
        modeled_clock: Optional simulated-time source for the tracer.
    """

    def __init__(
        self,
        config: ObservabilityConfig | None = None,
        modeled_clock: Callable[[], float] | None = None,
    ) -> None:
        self.config = config if config is not None else ObservabilityConfig()
        self.registry = MetricsRegistry()
        self.tracer = Tracer(
            modeled_clock=modeled_clock,
            max_spans=self.config.max_spans,
            enabled=self.config.tracing,
        )
        self.hooks = ProfilingHooks()
        reg = self.registry

        # -- push families (incremented on the hot paths) --------------------
        self.m_tasks = reg.counter(
            "hcompress_tasks_total", "operations executed", ("op",)
        )
        self.m_task_bytes = reg.histogram(
            "hcompress_task_bytes", "modeled task sizes", ("op",),
            buckets=DEFAULT_BYTES_BUCKETS,
        )
        self.m_tier_ops = reg.counter(
            "hcompress_tier_ops_total", "SHI operations per tier", ("tier", "op")
        )
        self.m_tier_bytes = reg.counter(
            "hcompress_tier_bytes_total",
            "accounted bytes moved through the SHI per tier", ("tier", "op"),
        )
        self.m_tier_seconds = reg.counter(
            "hcompress_tier_io_seconds_total",
            "modeled I/O seconds charged per tier (backoff included)",
            ("tier", "op"),
        )
        self.m_retries = reg.counter(
            "hcompress_shi_retries_total", "transient-error retries", ("tier",)
        )
        self.m_backoff = reg.counter(
            "hcompress_shi_backoff_seconds_total",
            "modeled backoff charged while retrying", ("tier",),
        )
        self.m_failovers = reg.counter(
            "hcompress_shi_failovers_total",
            "writes rerouted around a down/full tier", ("from_tier", "to_tier"),
        )
        self.m_exhausted = reg.counter(
            "hcompress_shi_exhausted_total",
            "operations that spent their whole retry budget", ("tier",),
        )
        self.m_plans = reg.counter(
            "hcompress_plans_total", "HCDP plan calls by outcome", ("result",)
        )
        self.m_plan_seconds = reg.histogram(
            "hcompress_plan_seconds", "wall seconds per HCDP plan call",
            buckets=PLAN_SECONDS_BUCKETS,
        )
        self.m_codec_pieces = reg.counter(
            "hcompress_codec_pieces_total", "pieces written per codec", ("codec",)
        )
        self.m_codec_bytes = reg.counter(
            "hcompress_codec_bytes_total",
            "uncompressed bytes routed through each codec", ("codec",),
        )
        self.m_codec_seconds = reg.counter(
            "hcompress_codec_compress_seconds_total",
            "modeled compression seconds per codec", ("codec",),
        )
        self.m_codec_ratio = reg.histogram(
            "hcompress_codec_ratio", "measured per-piece compression ratios",
            ("codec",), buckets=DEFAULT_RATIO_BUCKETS,
        )
        self.m_recovery_checkpoints = reg.counter(
            "hcompress_recovery_checkpoints_total",
            "engine snapshots written",
        )
        self.m_recovery_checkpoint_bytes = reg.counter(
            "hcompress_recovery_checkpoint_bytes_total",
            "snapshot file bytes written",
        )
        self.m_recovery_restores = reg.counter(
            "hcompress_recovery_restores_total",
            "engines rebuilt from snapshot + journal",
        )
        self.m_recovery_replayed = reg.counter(
            "hcompress_recovery_replayed_records_total",
            "journal records applied on top of a snapshot at restore",
        )
        self.m_recovery_gc = reg.counter(
            "hcompress_recovery_gc_evictions_total",
            "tier extents reclaimed by the restore sweep", ("reason",),
        )
        self.m_qos_admitted = reg.counter(
            "hcompress_qos_admitted_total",
            "tasks admitted by QoS admission control", ("qos_class",),
        )
        self.m_qos_shed = reg.counter(
            "hcompress_qos_shed_total",
            "tasks shed by QoS admission control", ("qos_class",),
        )
        self.m_deadline_exceeded = reg.counter(
            "hcompress_qos_deadline_exceeded_total",
            "operations that ran out of deadline budget", ("op",),
        )
        self.m_deadline_slack = reg.histogram(
            "hcompress_qos_deadline_slack_seconds",
            "remaining budget of operations that met their deadline",
            ("op",), buckets=PLAN_SECONDS_BUCKETS,
        )

    @property
    def enabled(self) -> bool:
        return self.config.enabled

    def region(self, site: str, **ctx) -> _Region:
        """Instrument one region: a span that fires the site's enter/exit
        hooks, as a context manager yielding itself."""
        return _Region(self, site, ctx)

    # -- hot-path recording --------------------------------------------------

    def record_io(self, receipt, op: str) -> None:
        """Account one SHI receipt (tier where the bytes actually landed)."""
        tier = receipt.tier
        self.m_tier_ops.labels(tier, op).inc()
        self.m_tier_bytes.labels(tier, op).inc(receipt.nbytes)
        self.m_tier_seconds.labels(tier, op).inc(receipt.seconds)

    def record_retry(self, tier: str, backoff_seconds: float) -> None:
        self.m_retries.labels(tier).inc()
        self.m_backoff.labels(tier).inc(backoff_seconds)

    def record_failover(self, from_tier: str, to_tier: str) -> None:
        self.m_failovers.labels(from_tier, to_tier).inc()

    def record_exhausted(self, tier: str) -> None:
        self.m_exhausted.labels(tier).inc()

    def record_plan(self, cache_hit: bool, wall_seconds: float) -> None:
        self.m_plans.labels("cache_hit" if cache_hit else "cache_miss").inc()
        self.m_plan_seconds.observe(wall_seconds)

    def record_write(self, result) -> None:
        """Account one finished write task (a ``WriteResult``)."""
        self.m_tasks.labels("write").inc()
        self.m_task_bytes.labels("write").observe(result.task.size)
        for piece in result.pieces:
            codec = piece.plan.codec
            self.m_codec_pieces.labels(codec).inc()
            self.m_codec_bytes.labels(codec).inc(piece.plan.length)
            self.m_codec_seconds.labels(codec).inc(piece.compress_seconds)
            self.m_codec_ratio.labels(codec).observe(piece.actual_ratio)

    def record_read(self, result) -> None:
        """Account one finished read task (a ``ReadResult``)."""
        self.m_tasks.labels("read").inc()
        self.m_task_bytes.labels("read").observe(result.modeled_size)

    def record_checkpoint(self, snapshot_bytes: int) -> None:
        """Account one engine checkpoint."""
        self.m_recovery_checkpoints.inc()
        self.m_recovery_checkpoint_bytes.inc(snapshot_bytes)

    def record_restore(
        self, records_replayed: int, orphans: int, duplicates: int
    ) -> None:
        """Account one snapshot + journal restore (and its GC sweep)."""
        self.m_recovery_restores.inc()
        self.m_recovery_replayed.inc(records_replayed)
        if orphans:
            self.m_recovery_gc.labels("orphan").inc(orphans)
        if duplicates:
            self.m_recovery_gc.labels("duplicate").inc(duplicates)

    def record_qos_admitted(self, qos_class: str) -> None:
        self.m_qos_admitted.labels(qos_class).inc()

    def record_qos_shed(self, qos_class: str) -> None:
        self.m_qos_shed.labels(qos_class).inc()

    def record_deadline_exceeded(self, op: str) -> None:
        self.m_deadline_exceeded.labels(op).inc()

    def record_deadline_slack(self, op: str, slack_seconds: float) -> None:
        self.m_deadline_slack.labels(op).observe(max(slack_seconds, 0.0))

    # -- mirror (subsystem counters -> one export path) ----------------------

    def mirror(self, source, table: Iterable[Metric], **labels) -> None:
        """Set every family ``table`` declares from ``source``'s current
        state — the one place a declaration becomes series.

        ``labels`` are constant pairs put in front of each row's own label
        names (a deployment mirrors one shard's coordinator rows under
        ``shard=3``). A row that reads ``None`` declares nothing yet; an
        empty mapping declares the family with no series.
        """
        reg = self.registry
        names, constants = tuple(labels), tuple(labels.values())
        for row in table:
            read = row.read
            value = read(source) if callable(read) else attrgetter(read)(source)
            if value is None:
                continue
            declare = reg.gauge if row.kind == "gauge" else reg.counter
            family = declare(row.name, row.help, names + row.labels)
            if not isinstance(value, dict):
                value = {(): value}
            for key, number in value.items():
                family.labels(*constants, *key).set(number)

    # -- export --------------------------------------------------------------

    def export_metrics(self) -> dict:
        """The registry snapshot (schema ``hcompress.metrics.v1``)."""
        return self.registry.collect()

    def export_chrome_trace(self) -> dict:
        """The span buffer in Chrome trace-event format."""
        return self.tracer.to_chrome()

    def summary(self) -> str:
        """Human-readable metrics table (counters/gauges + histogram means)."""
        lines = [f"{'metric':44s} {'labels':28s} {'value':>14s}"]
        snapshot = self.registry.collect()
        for name, family in snapshot["metrics"].items():
            for series in family["series"]:
                labels = ",".join(
                    f"{k}={v}" for k, v in series["labels"].items()
                )
                if family["type"] == "histogram":
                    count = series["count"]
                    mean = series["sum"] / count if count else 0.0
                    value = f"n={count} mean={mean:.4g}"
                else:
                    value = f"{series['value']:.6g}"
                lines.append(f"{name:44s} {labels:28s} {value:>14s}")
        return "\n".join(lines)

    def span_summary(self) -> str:
        """Per-span-name rollup table: count, wall and modeled seconds."""
        lines = [
            f"{'span':28s} {'count':>7s} {'wall_s':>10s} {'modeled_s':>10s}"
        ]
        for name, entry in sorted(self.tracer.by_name().items()):
            lines.append(
                f"{name:28s} {entry['count']:7d} "
                f"{entry['wall_seconds']:10.4f} {entry['modeled_seconds']:10.4f}"
            )
        return "\n".join(lines)
