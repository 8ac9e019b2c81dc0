"""The Observability facade: config, regions, recording, mirror."""

from __future__ import annotations

from dataclasses import dataclass, field

import pytest

from repro.errors import HCompressError
from repro.faults.injector import InjectorStats
from repro.hermes.flusher import FlushStats
from repro.obs import Metric, Observability, ObservabilityConfig


class TestConfig:
    def test_defaults_disabled(self) -> None:
        config = ObservabilityConfig()
        assert not config.enabled
        assert config.tracing
        assert config.max_spans == 10_000

    def test_max_spans_validated(self) -> None:
        with pytest.raises(ValueError):
            ObservabilityConfig(max_spans=0)

    def test_frozen(self) -> None:
        with pytest.raises(Exception):
            ObservabilityConfig().enabled = True  # type: ignore[misc]


class TestRegion:
    def test_region_opens_span_and_fires_hooks(self) -> None:
        obs = Observability(ObservabilityConfig(enabled=True))
        events = []
        obs.hooks.on_enter("hcdp.plan", lambda site, **ctx: events.append(("in", ctx)))
        obs.hooks.on_exit("hcdp.plan", lambda site, **ctx: events.append(("out", ctx)))
        with obs.region("hcdp.plan", task="t0") as span:
            span.set_attr("cache", "hit")
        assert events[0] == ("in", {"task": "t0"})
        # Exit hooks observe the *final* span attributes, outcome included.
        assert events[1] == ("out", {"task": "t0", "cache": "hit"})
        assert obs.tracer.spans[0].name == "hcdp.plan"

    def test_tracing_off_keeps_metrics_and_hooks(self) -> None:
        obs = Observability(ObservabilityConfig(enabled=True, tracing=False))
        fired = []
        obs.hooks.on_enter("x", lambda site, **ctx: fired.append(site))
        with obs.region("x"):
            pass
        assert fired == ["x"]
        assert len(obs.tracer.spans) == 0

    @pytest.mark.parametrize("tracing", [True, False])
    def test_exit_hooks_see_the_outcome_with_tracing_on_or_off(
        self, tracing
    ) -> None:
        obs = Observability(ObservabilityConfig(enabled=True, tracing=tracing))
        seen = []
        obs.hooks.on_exit("hcdp.plan", lambda site, **ctx: seen.append(ctx))
        with obs.region("hcdp.plan", task="t0") as span:
            span.set_attr("cache", "hit")
        with pytest.raises(ValueError):
            with obs.region("hcdp.plan", task="t1"):
                raise ValueError("boom")
        assert seen == [
            {"task": "t0", "cache": "hit"},
            {"task": "t1", "error": "ValueError"},
        ]
        assert len(obs.tracer.spans) == (2 if tracing else 0)

    def test_finished_region_is_its_own_record(self) -> None:
        obs = Observability(ObservabilityConfig(enabled=True))
        with obs.region("outer", task="t0") as outer:
            with obs.region("inner") as inner:
                inner.charge_modeled(0.5)
        assert list(obs.tracer.spans) == [inner, outer]  # no second object
        assert (inner.depth, inner.parent_index) == (1, outer.index)
        assert inner.modeled_seconds == 0.5
        assert outer.wall_seconds >= inner.wall_seconds >= 0.0
        assert outer.attrs == {"task": "t0"}


# Duck-typed stand-ins for the engine result objects record_* consumes.
@dataclass
class _Receipt:
    tier: str
    nbytes: int
    seconds: float


@dataclass
class _Plan:
    codec: str
    length: int


@dataclass
class _Piece:
    plan: _Plan
    compress_seconds: float
    actual_ratio: float


@dataclass
class _Task:
    size: int


@dataclass
class _WriteResult:
    task: _Task
    pieces: list = field(default_factory=list)


class TestRecording:
    def test_record_io(self) -> None:
        obs = Observability()
        obs.record_io(_Receipt("nvme", 4096, 0.25), op="write")
        obs.record_io(_Receipt("nvme", 4096, 0.25), op="write")
        reg = obs.registry
        assert reg.value("hcompress_tier_ops_total", tier="nvme", op="write") == 2
        assert reg.value("hcompress_tier_bytes_total", tier="nvme", op="write") == 8192
        assert reg.value(
            "hcompress_tier_io_seconds_total", tier="nvme", op="write"
        ) == pytest.approx(0.5)

    def test_record_retry_failover_exhausted(self) -> None:
        obs = Observability()
        obs.record_retry("ram", 0.002)
        obs.record_retry("ram", 0.004)
        obs.record_failover("ram", "nvme")
        obs.record_exhausted("ram")
        reg = obs.registry
        assert reg.value("hcompress_shi_retries_total", tier="ram") == 2
        assert reg.value(
            "hcompress_shi_backoff_seconds_total", tier="ram"
        ) == pytest.approx(0.006)
        assert reg.value(
            "hcompress_shi_failovers_total", from_tier="ram", to_tier="nvme"
        ) == 1
        assert reg.value("hcompress_shi_exhausted_total", tier="ram") == 1

    def test_record_plan_outcomes(self) -> None:
        obs = Observability()
        obs.record_plan(cache_hit=True, wall_seconds=1e-5)
        obs.record_plan(cache_hit=False, wall_seconds=1e-3)
        reg = obs.registry
        assert reg.value("hcompress_plans_total", result="cache_hit") == 1
        assert reg.value("hcompress_plans_total", result="cache_miss") == 1
        hist = obs.m_plan_seconds.labels()
        assert hist.count == 2
        assert hist.sum == pytest.approx(1.01e-3)

    def test_record_write_accounts_per_codec(self) -> None:
        obs = Observability()
        result = _WriteResult(
            task=_Task(size=1 << 20),
            pieces=[
                _Piece(_Plan("zlib", 4096), 0.01, 2.5),
                _Piece(_Plan("zlib", 4096), 0.01, 3.0),
                _Piece(_Plan("none", 8192), 0.0, 1.0),
            ],
        )
        obs.record_write(result)
        reg = obs.registry
        assert reg.value("hcompress_tasks_total", op="write") == 1
        assert reg.value("hcompress_codec_pieces_total", codec="zlib") == 2
        assert reg.value("hcompress_codec_bytes_total", codec="zlib") == 8192
        assert reg.value("hcompress_codec_bytes_total", codec="none") == 8192
        ratios = obs.m_codec_ratio.labels(codec="zlib")
        assert ratios.count == 2
        assert ratios.mean == pytest.approx(2.75)


@dataclass
class _FlushStats:
    moves: int = 3
    bytes_moved: int = 12288
    polls: int = 40
    failed_moves: int = 1
    skipped_unavailable: int = 2


@dataclass
class _InjectorStats:
    events_applied: int = 4
    outages: int = 1
    recoveries: int = 1
    transient_errors: int = 7
    corruptions: int = 2
    log: list = field(
        default_factory=lambda: [("outage", 1.0), ("outage", 2.0), ("recover", 3.0)]
    )


class TestMirrorSync:
    def test_sync_flusher(self) -> None:
        obs = Observability()
        obs.mirror(_FlushStats(), FlushStats.METRICS)
        reg = obs.registry
        assert reg.value("hcompress_flusher_moves_total") == 3
        assert reg.value("hcompress_flusher_bytes_moved_total") == 12288
        assert reg.value("hcompress_flusher_polls_total") == 40
        assert reg.value("hcompress_flusher_failed_moves_total") == 1
        assert reg.value("hcompress_flusher_skipped_unavailable_total") == 2

    def test_sync_flusher_is_set_not_accumulate(self) -> None:
        obs = Observability()
        stats = _FlushStats()
        obs.mirror(stats, FlushStats.METRICS)
        stats.moves = 5
        obs.mirror(stats, FlushStats.METRICS)
        assert obs.registry.value("hcompress_flusher_moves_total") == 5

    def test_sync_injector(self) -> None:
        obs = Observability()
        obs.mirror(_InjectorStats(), InjectorStats.METRICS)
        reg = obs.registry
        assert reg.value("hcompress_faults_applied_total") == 4
        assert reg.value("hcompress_faults_transient_errors_total") == 7
        assert reg.value("hcompress_fault_log_events_total", kind="outage") == 2
        assert reg.value("hcompress_fault_log_events_total", kind="recover") == 1

    def test_mirror_reads_paths_callables_mappings_and_none(self) -> None:
        table = (
            Metric("hcompress_x_total", "by path", "stats.moves"),
            Metric("hcompress_x_level", "by call", lambda s: s.level, kind="gauge"),
            Metric(
                "hcompress_x_by_kind_total", "by mapping",
                lambda s: {("a", 1): 2, ("b", 2): 0}, ("kind", "n"),
            ),
            Metric("hcompress_x_none", "not yet", lambda s: None, kind="gauge"),
            Metric("hcompress_x_empty", "no series", lambda s: {}, kind="gauge"),
        )

        @dataclass
        class Source:
            stats: _FlushStats = field(default_factory=_FlushStats)
            level: int = 2

        obs = Observability()
        obs.mirror(Source(), table, shard=7)
        reg = obs.registry
        assert reg.value("hcompress_x_total", shard="7") == 3
        assert reg.value("hcompress_x_level", shard="7") == 2.0
        assert reg.get("hcompress_x_by_kind_total").labelnames == (
            "shard", "kind", "n",
        )
        assert reg.value(
            "hcompress_x_by_kind_total", shard="7", kind="a", n="1"
        ) == 2
        assert "hcompress_x_none" not in reg
        assert list(reg.get("hcompress_x_empty").series_items()) == []

    def test_a_row_cannot_redeclare_a_family_differently(self) -> None:
        obs = Observability()
        row = Metric("hcompress_tasks_total", "clash", "moves", kind="gauge")
        with pytest.raises(HCompressError):
            obs.mirror(_FlushStats(), (row,))


class TestExport:
    def test_export_metrics_schema(self) -> None:
        obs = Observability()
        snap = obs.export_metrics()
        assert snap["schema"] == "hcompress.metrics.v1"
        # The push families exist (with zero series) from construction.
        assert "hcompress_plans_total" in snap["metrics"]
        assert "hcompress_codec_ratio" in snap["metrics"]

    def test_summary_renders_every_series(self) -> None:
        obs = Observability()
        obs.record_plan(cache_hit=True, wall_seconds=1e-5)
        obs.record_io(_Receipt("ram", 4096, 0.1), op="write")
        text = obs.summary()
        assert "hcompress_plans_total" in text
        assert "result=cache_hit" in text
        assert "tier=ram,op=write" in text
        assert "n=1" in text  # histogram rendering

    def test_span_summary_renders_rollup(self) -> None:
        obs = Observability(ObservabilityConfig(enabled=True))
        with obs.region("hcdp.plan"):
            pass
        text = obs.span_summary()
        assert "hcdp.plan" in text
        assert "count" in text
