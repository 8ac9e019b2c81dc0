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

Metric families follow two disciplines, split deliberately:

* **push** — incremented at the instrumentation site (per plan, per
  piece, per SHI receipt, per retry). These are *independent
  accumulations*, cross-checked against the legacy ad-hoc counters by
  the telemetry-drift regression tests.
* **mirror** — set from the legacy counters (``EngineStats``,
  ``ResilienceStats``, ``FlushStats``, ``InjectorStats``, ``Anatomy``)
  by the ``sync_*`` methods at export time, so every pre-existing
  counter shares the registry's one export path without rewriting its
  increment sites.

This module deliberately imports nothing from ``repro.core`` /
``repro.hcdp`` — consumers hand their objects in duck-typed, which keeps
``repro.obs`` a leaf package every layer can depend on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .hooks import ProfilingHooks
from .registry import (
    DEFAULT_BYTES_BUCKETS,
    DEFAULT_RATIO_BUCKETS,
    DEFAULT_SECONDS_BUCKETS,
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
        self.m_breaker_state = reg.gauge(
            "hcompress_qos_breaker_state",
            "circuit-breaker state per tier (0 closed, 1 half-open, 2 open)",
            ("tier",),
        )
        self.m_breaker_transitions = reg.counter(
            "hcompress_qos_breaker_transitions_total",
            "circuit-breaker state changes per tier", ("tier",),
        )
        self.m_brownout_level = reg.gauge(
            "hcompress_qos_brownout_level",
            "current brownout ladder rung (0 normal .. 3 shed)",
        )
        self.m_brownout_transitions = reg.counter(
            "hcompress_qos_brownout_transitions_total",
            "brownout ladder moves (either direction)",
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
        self.m_lifecycle_scans = reg.counter(
            "hcompress_lifecycle_scans_total",
            "lifecycle daemon catalog scans",
        )
        self.m_lifecycle_migrations = reg.counter(
            "hcompress_lifecycle_migrations_total",
            "blobs re-tiered by the lifecycle daemon", ("direction",),
        )
        self.m_lifecycle_bytes = reg.counter(
            "hcompress_lifecycle_bytes_moved_total",
            "stored bytes placed by lifecycle migrations", ("direction",),
        )
        self.m_lifecycle_seconds = reg.counter(
            "hcompress_lifecycle_migration_seconds_total",
            "modeled seconds of migration I/O + transcode",
        )
        self.m_lifecycle_cost = reg.gauge(
            "hcompress_lifecycle_cost_rate",
            "catalog-wide modeled TCO rate ($/s) at the last scan",
        )
        self.m_scrub_steps = reg.counter(
            "hcompress_scrub_steps_total",
            "background scrubber steps executed",
        )
        self.m_scrub_corruptions = reg.counter(
            "hcompress_scrub_corruptions_total",
            "latent corruptions detected by the scrubber's walk",
        )
        self.m_scrub_repairs = reg.counter(
            "hcompress_scrub_repairs_total",
            "scrubber repair outcomes by healing source",
            ("outcome", "source"),
        )
        self.m_repl_shipped = reg.counter(
            "hcompress_replication_shipped_records_total",
            "journal records shipped to standbys", ("shard",),
        )
        self.m_repl_lag = reg.gauge(
            "hcompress_replication_lag_records",
            "records the standby trails the primary by",
            ("shard", "replica"),
        )
        self.m_repl_promotions = reg.counter(
            "hcompress_replication_promotions_total",
            "standby promotions completed (failovers)", ("shard",),
        )
        self.m_repl_catchups = reg.counter(
            "hcompress_replication_catchups_total",
            "anti-entropy catch-up passes over a standby set", ("shard",),
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

    def record_brownout(self, prev_level: int, level: int) -> None:
        """Account one brownout ladder move (either direction)."""
        self.m_brownout_level.set(level)
        self.m_brownout_transitions.inc()

    def record_deadline_exceeded(self, op: str) -> None:
        self.m_deadline_exceeded.labels(op).inc()

    def record_deadline_slack(self, op: str, slack_seconds: float) -> None:
        self.m_deadline_slack.labels(op).observe(max(slack_seconds, 0.0))

    def record_lifecycle_scan(self) -> None:
        self.m_lifecycle_scans.inc()

    def record_scrub_step(self) -> None:
        self.m_scrub_steps.inc()

    def record_scrub_repair(self, outcome: str, source: str) -> None:
        """Account one scrubber-detected corruption and its fate."""
        self.m_scrub_corruptions.inc()
        self.m_scrub_repairs.labels(outcome, source or "none").inc()

    def record_shard_promotion(self, shard: str) -> None:
        """Account one completed standby promotion (shard failover)."""
        self.m_repl_promotions.labels(shard).inc()

    def record_lifecycle_migration(
        self, direction: str, nbytes: int, modeled_seconds: float
    ) -> None:
        """Account one completed lifecycle migration."""
        self.m_lifecycle_migrations.labels(direction).inc()
        self.m_lifecycle_bytes.labels(direction).inc(nbytes)
        self.m_lifecycle_seconds.inc(modeled_seconds)

    # -- mirror sync (legacy counters -> one export path) --------------------

    def sync_engine(self, engine) -> None:
        """Mirror every legacy ad-hoc counter of an ``HCompress`` engine
        (HCDP stats, SHI resilience trace, manager caches, feedback loop,
        monitor, analyzer, predictor, anatomy) into the registry."""
        reg = self.registry
        stats = engine.engine.stats
        for name, value in (
            ("hcompress_plan_cache_hits_total", stats.plan_cache_hits),
            ("hcompress_plan_cache_misses_total", stats.plan_cache_misses),
            (
                "hcompress_plan_cache_invalidations_total",
                stats.plan_cache_invalidations,
            ),
            ("hcompress_dp_memo_hits_total", stats.memo_hits),
            ("hcompress_dp_memo_misses_total", stats.memo_misses),
            ("hcompress_tasks_planned_total", stats.tasks_planned),
            ("hcompress_pieces_emitted_total", stats.pieces_emitted),
            ("hcompress_degraded_plans_total", stats.degraded_plans),
            ("hcompress_replans_total", engine.replans),
        ):
            reg.counter(name, "mirror of the HCDP engine counters").set(value)

        shi = engine.shi.stats
        reg.counter(
            "hcompress_shi_trace_retries_total",
            "mirror of ResilienceStats.retries",
        ).set(shi.retries)
        reg.counter(
            "hcompress_shi_trace_failovers_total",
            "mirror of ResilienceStats.failovers",
        ).set(shi.failovers)
        reg.counter(
            "hcompress_shi_trace_exhausted_total",
            "mirror of ResilienceStats.exhausted",
        ).set(shi.exhausted)
        reg.counter(
            "hcompress_shi_trace_backoff_seconds_total",
            "mirror of ResilienceStats.backoff_seconds",
        ).set(shi.backoff_seconds)
        trace_events = reg.counter(
            "hcompress_shi_trace_events_total",
            "deterministic SHI trace events by kind", ("kind",),
        )
        by_kind: dict[str, int] = {}
        for event in shi.trace:
            by_kind[event[0]] = by_kind.get(event[0], 0) + 1
        for kind, count in sorted(by_kind.items()):
            trace_events.labels(kind).set(count)

        manager = engine.manager
        for name, value in (
            ("hcompress_sample_cache_hits_total", manager.sample_cache_hits),
            ("hcompress_sample_cache_misses_total", manager.sample_cache_misses),
            ("hcompress_spill_events_total", manager.spill_events),
            ("hcompress_parallel_pieces_total", manager.parallel_pieces),
            ("hcompress_read_repairs_total", manager.read_repairs),
            (
                "hcompress_corruption_detected_total",
                manager.corruption_detected,
            ),
            (
                "hcompress_quarantine_events_total",
                manager.quarantine_events,
            ),
        ):
            reg.counter(name, "mirror of the Compression Manager counters").set(
                value
            )
        reg.gauge(
            "hcompress_quarantined_pieces",
            "pieces currently quarantined (reads fail fast, typed)",
        ).set(len(manager.quarantined))

        feedback = engine.feedback
        reg.counter(
            "hcompress_feedback_events_total", "observations recorded"
        ).set(feedback.events)
        reg.counter(
            "hcompress_feedback_flushes_total", "RLS batch updates"
        ).set(feedback.flushes)
        reg.gauge(
            "hcompress_feedback_pending", "observations awaiting a flush"
        ).set(feedback.pending)

        predictor = engine.predictor
        reg.gauge(
            "hcompress_model_version", "CCP parameter generation"
        ).set(predictor.model_version)
        accuracy = predictor.mean_accuracy()
        if accuracy is not None:
            reg.gauge(
                "hcompress_model_accuracy", "sliding mean R^2 over the heads"
            ).set(accuracy)
        reg.counter(
            "hcompress_ccp_table_cache_hits_total",
            "candidate-table cache hits",
        ).set(predictor.table_cache_hits)
        reg.counter(
            "hcompress_ccp_table_cache_misses_total",
            "candidate-table cache misses",
        ).set(predictor.table_cache_misses)

        monitor = engine.monitor
        reg.counter(
            "hcompress_monitor_samples_total", "fresh hierarchy snapshots"
        ).set(monitor.samples_taken)
        reg.gauge(
            "hcompress_monitor_state_epoch",
            "planning-relevant state transitions observed",
        ).set(monitor.state_epoch)

        analyzer = engine.analyzer
        reg.counter(
            "hcompress_analyzer_cache_hits_total", "input-analysis cache hits"
        ).set(analyzer.cache_hits)
        reg.counter(
            "hcompress_analyzer_cache_misses_total",
            "input analyses that ran inference",
        ).set(analyzer.cache_misses)

        journal = getattr(engine, "journal", None)
        if journal is not None:
            reg.counter(
                "hcompress_recovery_journal_records_total",
                "WAL records appended this engine lifetime",
            ).set(journal.records_appended)
            reg.counter(
                "hcompress_recovery_journal_syncs_total",
                "WAL sync batches (write + flush + fsync)",
            ).set(journal.syncs)
            reg.counter(
                "hcompress_recovery_journal_bytes_total",
                "WAL bytes made durable",
            ).set(journal.bytes_synced)
            reg.gauge(
                "hcompress_recovery_journal_durable_lsn",
                "newest journal record guaranteed on stable storage",
            ).set(journal.durable_lsn)

        anatomy = engine.anatomy
        phase_seconds = reg.counter(
            "hcompress_anatomy_seconds_total",
            "per-stage time accounting (Fig. 3 categories)", ("phase",),
        )
        for phase in (
            "hcdp_engine", "library_selection", "compression", "feedback",
            "write_io", "metadata_parsing", "decompression", "read_feedback",
            "read_io",
        ):
            phase_seconds.labels(phase).set(getattr(anatomy, phase))

        if getattr(engine, "qos", None) is not None:
            self.sync_qos(engine.qos)
        if getattr(engine, "lifecycle", None) is not None:
            self.sync_lifecycle(engine.lifecycle)
        if getattr(engine, "scrub", None) is not None:
            self.sync_scrub(engine.scrub)

    def sync_flusher(self, stats) -> None:
        """Mirror ``FlushStats`` (the background tier drainer)."""
        reg = self.registry
        for name, value in (
            ("hcompress_flusher_moves_total", stats.moves),
            ("hcompress_flusher_bytes_moved_total", stats.bytes_moved),
            ("hcompress_flusher_polls_total", stats.polls),
            ("hcompress_flusher_failed_moves_total", stats.failed_moves),
            (
                "hcompress_flusher_skipped_unavailable_total",
                stats.skipped_unavailable,
            ),
        ):
            reg.counter(name, "mirror of the TierFlusher counters").set(value)

    def sync_qos(self, governor) -> None:
        """Mirror a :class:`~repro.qos.QosGovernor`'s live state: breaker
        states per tier, admission backlog/counters, brownout rung."""
        from ..qos.breaker import HALF_OPEN, OPEN

        reg = self.registry
        admission = governor.admission
        reg.gauge(
            "hcompress_qos_backlog_bytes",
            "admission backlog (modeled bytes awaiting drain)",
        ).set(admission.backlog_bytes)
        for name, value in (
            ("hcompress_qos_admission_admitted_total", admission.admitted),
            ("hcompress_qos_admission_shed_total", admission.shed),
        ):
            reg.counter(name, "mirror of the admission controller").set(value)
        self.m_brownout_level.set(int(governor.brownout.level))
        code = {OPEN: 2, HALF_OPEN: 1}
        for tier, breaker in governor.breakers.breakers.items():
            self.m_breaker_state.labels(tier).set(code.get(breaker.state, 0))
            self.m_breaker_transitions.labels(tier).set(breaker.transitions)

    def sync_lifecycle(self, daemon) -> None:
        """Mirror a :class:`~repro.lifecycle.LifecycleDaemon`'s cumulative
        stats: scans, migrations by direction, bytes/seconds moved, and
        the catalog-wide cost rate at the last scan."""
        reg = self.registry
        stats = daemon.stats
        self.m_lifecycle_scans.set(stats.scans)
        self.m_lifecycle_migrations.labels("promote").set(stats.promotions)
        self.m_lifecycle_migrations.labels("demote").set(stats.demotions)
        self.m_lifecycle_seconds.set(stats.migration_seconds)
        self.m_lifecycle_cost.set(stats.cost_rate)
        for name, value in (
            ("hcompress_lifecycle_paused_total", stats.paused),
            ("hcompress_lifecycle_failed_total", stats.failed),
            (
                "hcompress_lifecycle_skipped_quarantined_total",
                stats.skipped_quarantined,
            ),
        ):
            reg.counter(name, "mirror of the lifecycle daemon counters").set(
                value
            )
        reg.gauge(
            "hcompress_lifecycle_tracked_tasks",
            "tasks with a live access-temperature record",
        ).set(len(daemon.access))
        reg.gauge(
            "hcompress_lifecycle_saved_rate",
            "cumulative modeled $/s earned by executed migrations",
        ).set(stats.saved_rate)

    def sync_scrub(self, scrubber) -> None:
        """Mirror a :class:`~repro.scrub.Scrubber`'s cumulative stats:
        steps/scans/pauses, pieces and bytes re-read, corruptions found,
        and repair outcomes by healing source."""
        reg = self.registry
        stats = scrubber.stats
        self.m_scrub_steps.set(stats.steps)
        self.m_scrub_corruptions.set(stats.corruptions)
        by_source: dict[tuple[str, str], int] = {}
        for repair in stats.repair_log:
            key = (repair.outcome, repair.source or "none")
            by_source[key] = by_source.get(key, 0) + 1
        for (outcome, source), count in sorted(by_source.items()):
            self.m_scrub_repairs.labels(outcome, source).set(count)
        for name, value in (
            ("hcompress_scrub_scans_total", stats.scans),
            ("hcompress_scrub_paused_total", stats.paused),
            ("hcompress_scrub_pieces_scanned_total", stats.pieces_scanned),
            ("hcompress_scrub_bytes_scanned_total", stats.bytes_scanned),
            ("hcompress_scrub_rewrites_total", stats.rewrites),
            ("hcompress_scrub_quarantined_total", stats.quarantined),
            ("hcompress_scrub_failed_total", stats.failed),
        ):
            reg.counter(name, "mirror of the scrubber counters").set(value)

    def sync_replication(self, coordinator, shard_id: int) -> None:
        """Mirror one shard's :class:`~repro.replication.ReplicationCoordinator`
        view: shipped-record and catch-up counters, plus the live lag of
        every standby against the primary's last-shipped LSN."""
        shard = str(shard_id)
        self.m_repl_shipped.labels(shard).set(
            coordinator.shipped_records[shard_id]
        )
        self.m_repl_catchups.labels(shard).set(coordinator.catch_ups[shard_id])
        self.m_repl_promotions.labels(shard).set(
            coordinator.failovers[shard_id]
        )
        primary_lsn = coordinator.primary_lsn[shard_id]
        for replica in coordinator.standbys[shard_id]:
            self.m_repl_lag.labels(shard, str(replica.replica_id)).set(
                replica.lag(primary_lsn)
            )

    def sync_injector(self, stats) -> None:
        """Mirror ``InjectorStats`` (the fault-injection event log)."""
        reg = self.registry
        for name, value in (
            ("hcompress_faults_applied_total", stats.events_applied),
            ("hcompress_faults_outages_total", stats.outages),
            ("hcompress_faults_recoveries_total", stats.recoveries),
            ("hcompress_faults_transient_errors_total", stats.transient_errors),
            ("hcompress_faults_corruptions_total", stats.corruptions),
        ):
            reg.counter(name, "mirror of the FaultInjector counters").set(value)
        log_events = reg.counter(
            "hcompress_fault_log_events_total",
            "injector log entries by kind", ("kind",),
        )
        by_kind: dict[str, int] = {}
        for event in stats.log:
            by_kind[str(event[0])] = by_kind.get(str(event[0]), 0) + 1
        for kind, count in sorted(by_kind.items()):
            log_events.labels(kind).set(count)

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
