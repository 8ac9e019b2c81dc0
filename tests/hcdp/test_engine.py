"""The HCDP dynamic program: placement, splitting, codec selection."""

from __future__ import annotations

import pytest

from repro.analyzer import InputAnalyzer
from repro.ccp import CompressionCostPredictor
from repro.codecs import CompressionLibraryPool
from repro.errors import PlacementError
from repro.hcdp import (
    ARCHIVAL_IO,
    EQUAL,
    HcdpEngine,
    IOTask,
    Operation,
    Priority,
    validate_schema,
)
from repro.monitor import SystemMonitor
from repro.tiers import StorageHierarchy, Tier, TierSpec
from repro.units import MiB, PAGE


@pytest.fixture()
def predictor(seed) -> CompressionCostPredictor:
    p = CompressionCostPredictor()
    p.fit_seed(seed.observations)
    return p


@pytest.fixture()
def analysis(gamma_f64):
    return InputAnalyzer().analyze(gamma_f64)


def _engine(hierarchy, predictor, **kw) -> HcdpEngine:
    return HcdpEngine(
        predictor, SystemMonitor(hierarchy), CompressionLibraryPool(), **kw
    )


def _bounded_hierarchy(*caps, pfs=True) -> StorageHierarchy:
    tiers = []
    bandwidths = [8e9, 4e9, 2e9, 1e9]
    names = ["t0", "t1", "t2", "t3"]
    for i, cap in enumerate(caps):
        tiers.append(
            Tier(TierSpec(name=names[i], capacity=cap, bandwidth=bandwidths[i],
                          latency=1e-6 * (i + 1), lanes=2))
        )
    if pfs:
        tiers.append(
            Tier(TierSpec(name="pfs", capacity=None, bandwidth=1e8,
                          latency=1e-3, lanes=4))
        )
    return StorageHierarchy(tiers)


class TestBasicPlanning:
    def test_small_task_single_piece(self, predictor, analysis) -> None:
        h = _bounded_hierarchy(16 * MiB)
        engine = _engine(h, predictor)
        schema = engine.plan(IOTask("t", 1 * MiB, analysis))
        validate_schema(schema, h)
        assert len(schema) == 1
        assert schema.pieces[0].tier == "t0"

    def test_empty_task(self, predictor, analysis) -> None:
        h = _bounded_hierarchy(16 * MiB)
        schema = _engine(h, predictor).plan(IOTask("t", 0, analysis))
        assert len(schema) == 0

    def test_read_task_rejected(self, predictor, analysis) -> None:
        h = _bounded_hierarchy(16 * MiB)
        with pytest.raises(PlacementError):
            _engine(h, predictor).plan(
                IOTask("t", 10, analysis, operation=Operation.READ)
            )

    def test_oversized_task_spills_to_pfs(self, predictor, analysis) -> None:
        h = _bounded_hierarchy(1 * MiB)
        schema = _engine(h, predictor).plan(IOTask("t", 64 * MiB, analysis))
        validate_schema(schema, h)
        assert "pfs" in schema.tiers_used()

    def test_split_fills_upper_then_lower(self, predictor, analysis) -> None:
        h = _bounded_hierarchy(2 * MiB, 4 * MiB)
        schema = _engine(h, predictor).plan(IOTask("t", 32 * MiB, analysis))
        validate_schema(schema, h)
        assert len(schema) >= 2
        levels = [p.tier_level for p in schema.pieces]
        assert levels == sorted(levels)

    def test_infeasible_without_sink(self, predictor, analysis) -> None:
        h = _bounded_hierarchy(1 * MiB, pfs=False)
        with pytest.raises(PlacementError):
            _engine(h, predictor).plan(IOTask("t", 100 * MiB, analysis))

    def test_unavailable_tier_skipped(self, predictor, analysis) -> None:
        h = _bounded_hierarchy(16 * MiB)
        h.by_name("t0").set_available(False)
        schema = _engine(h, predictor).plan(IOTask("t", 1 * MiB, analysis))
        assert schema.pieces[0].tier != "t0"

    def test_header_overhead_accounted(self, predictor, analysis) -> None:
        """A task exactly the tier's size cannot claim to fit with its
        16-byte header on top."""
        h = _bounded_hierarchy(1 * MiB)
        schema = _engine(h, predictor).plan(IOTask("t", 1 * MiB, analysis))
        validate_schema(schema, h)
        piece = schema.pieces[0]
        if piece.tier == "t0":  # fitting required compression
            assert piece.codec != "none"

    def test_stats_accumulate(self, predictor, analysis) -> None:
        h = _bounded_hierarchy(16 * MiB)
        engine = _engine(h, predictor)
        for i in range(5):
            engine.plan(IOTask(f"t{i}", 1 * MiB, analysis))
        assert engine.stats.tasks_planned == 5
        assert engine.stats.pieces_emitted >= 5
        assert engine.stats.memo_misses > 0


class TestStatusHandOver:
    """``plan(task, status=s)`` plans against the caller's snapshot
    instead of sampling the monitor again (the armed write step hands
    over the one it took for QoS)."""

    def test_handed_status_gives_the_sampled_plan(
        self, predictor, analysis
    ) -> None:
        # 32 MiB over 2 + 4 MiB tiers: the plan splits, so it reads capacity.
        task = IOTask("t", 32 * MiB, analysis)
        sampling = _engine(_bounded_hierarchy(2 * MiB, 4 * MiB), predictor)
        handed = _engine(_bounded_hierarchy(2 * MiB, 4 * MiB), predictor)
        expected = sampling.plan(task)
        assert sampling.monitor.samples_taken == 1
        status = handed.monitor.status()
        schema = handed.plan(task, status=status)
        assert handed.monitor.samples_taken == 1  # the caller's, not a second
        assert len(schema.pieces) > 1
        assert schema.pieces == expected.pieces
        assert handed.stats == sampling.stats

    def test_plan_believes_the_handed_status(self, predictor, analysis) -> None:
        h = _bounded_hierarchy(4 * MiB)
        engine = _engine(h, predictor)
        stale = engine.monitor.status()  # t0 up
        h.by_name("t0").set_available(False)
        schema = engine.plan(IOTask("t", 1 * MiB, analysis), status=stale)
        assert schema.pieces[0].tier == "t0"
        fresh = engine.plan(IOTask("u", 1 * MiB, analysis))
        assert fresh.pieces[0].tier == "pfs"


class TestCodecSelection:
    def test_fast_roomy_tier_prefers_no_compression(self, predictor, analysis) -> None:
        h = _bounded_hierarchy(64 * MiB)
        engine = _engine(h, predictor, priority=EQUAL, drain_penalty=0.0)
        schema = engine.plan(IOTask("t", 1 * MiB, analysis))
        assert schema.pieces[0].codec == "none"

    def test_archival_priority_prefers_ratio(self, predictor, analysis) -> None:
        h = _bounded_hierarchy(64 * MiB)
        engine = _engine(h, predictor, priority=ARCHIVAL_IO)
        schema = engine.plan(IOTask("t", 1 * MiB, analysis))
        piece = schema.pieces[0]
        assert piece.codec != "none"
        # Pure-ratio weighting lands in the heavy (archival) family.
        assert piece.codec in ("lzma", "bzip2", "bsc", "zlib", "brotli")
        assert piece.expected_ratio > 1.15

    def test_slow_sink_placement_compresses(self, predictor, analysis) -> None:
        """Tasks that can only land on the slow PFS choose compression
        under write priority."""
        h = _bounded_hierarchy(64 * PAGE)  # upper tier far too small
        engine = _engine(h, predictor, priority=Priority(1.0, 1.0, 0.0))
        h.by_name("t0").put("fill", None, accounted_size=64 * PAGE)
        schema = engine.plan(IOTask("t", 8 * MiB, analysis))
        pfs_pieces = [p for p in schema.pieces if p.tier == "pfs"]
        assert pfs_pieces
        assert all(p.codec != "none" for p in pfs_pieces)

    def test_compression_stretches_capacity(self, predictor, analysis) -> None:
        """With a tier that fits the task only when compressed, the engine
        prefers compressing over spilling to a much slower tier."""
        h = _bounded_hierarchy(3 * MiB)
        engine = _engine(h, predictor, priority=Priority(1.0, 1.0, 0.0))
        schema = engine.plan(IOTask("t", 4 * MiB, analysis))
        validate_schema(schema, h)
        top = [p for p in schema.pieces if p.tier == "t0"]
        assert top, "expected at least part of the task on the fast tier"
        assert any(p.codec != "none" for p in schema.pieces)

    def test_priority_swap_at_runtime(self, predictor, analysis) -> None:
        h = _bounded_hierarchy(64 * MiB)
        engine = _engine(h, predictor, drain_penalty=0.0)
        first = engine.plan(IOTask("a", 1 * MiB, analysis))
        engine.set_priority(ARCHIVAL_IO)
        second = engine.plan(IOTask("b", 1 * MiB, analysis))
        assert first.pieces[0].codec != second.pieces[0].codec


class TestMemoisation:
    def test_repeated_sizes_hit_memo(self, predictor, analysis) -> None:
        h = _bounded_hierarchy(2 * MiB, 4 * MiB)
        engine = _engine(h, predictor)
        engine.plan(IOTask("a", 32 * MiB, analysis))
        assert engine.stats.memo_hits > 0

    def test_load_signal_changes_choice(self, predictor, analysis) -> None:
        """The same task plans differently once the target tier reports a
        deep queue (the System Monitor's load signal at work)."""
        h = _bounded_hierarchy(64 * PAGE)
        h.by_name("t0").put("fill", None, accounted_size=64 * PAGE)
        engine = _engine(h, predictor, priority=Priority(1.0, 1.0, 0.0))
        idle = engine.plan(IOTask("idle", 4 * MiB, analysis))
        pfs = h.by_name("pfs")
        for _ in range(64):
            pfs.begin_io(4 * MiB)
        busy = engine.plan(IOTask("busy", 4 * MiB, analysis))
        idle_ratio = idle.pieces[-1].expected_ratio
        busy_ratio = busy.pieces[-1].expected_ratio
        assert busy_ratio >= idle_ratio
