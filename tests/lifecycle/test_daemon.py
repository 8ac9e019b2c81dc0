"""Lifecycle daemon: temperature, TCO scoring, determinism, feature-off
identity, and the batched-hot-path parity contract."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import HCompress, HCompressConfig
from repro.datagen import synthetic_buffer
from repro.lifecycle import (
    AccessRecord,
    LifecycleConfig,
    TierCostModel,
)
from repro.lifecycle.workload import (
    ZipfTraceConfig,
    _trace_hierarchy,
    run_zipf_trace,
    zipf_probabilities,
)
from repro.sim.clock import SimClock
from repro.units import KiB


SMALL = ZipfTraceConfig(tasks=24, reads=96, lifecycle=LifecycleConfig(
    enabled=True, scan_interval=2.0,
))


def _drive(seed, enabled: bool, step: bool = True) -> dict:
    """A shrunk zipf trace with direct engine access; returns the bits
    the contracts compare (migration schedule, catalog bytes)."""
    config = SMALL
    clock = SimClock()
    engine = HCompress(
        _trace_hierarchy(config),
        HCompressConfig(
            lifecycle=LifecycleConfig(
                **{**config.lifecycle.__dict__, "enabled": enabled}
            )
        ),
        seed=seed,
        clock=lambda: clock.now,
    )
    rng = np.random.default_rng(config.rng_seed)
    buffers = {
        f"zipf/t{rank}": synthetic_buffer(
            config.dtype, config.distribution, config.task_kib * KiB, rng
        )
        for rank in range(config.tasks)
    }
    order = [list(buffers)[i] for i in rng.permutation(config.tasks)]
    for task_id in order:
        written = engine.compress(buffers[task_id], task_id=task_id)
        clock.advance(written.io_seconds + written.compress_seconds)
    trace = rng.choice(
        config.tasks,
        size=config.reads,
        p=zipf_probabilities(config.tasks, config.zipf_s),
    )
    for rank in trace:
        clock.advance(config.step_seconds)
        read = engine.decompress(f"zipf/t{rank}")
        clock.advance(read.io_seconds + read.decompress_seconds)
        if step and engine.lifecycle is not None:
            engine.lifecycle.step()
    out = {
        "migrations": tuple(
            engine.lifecycle.stats.migrations
        ) if engine.lifecycle is not None else (),
        "status": (
            engine.lifecycle.status()
            if engine.lifecycle is not None
            else None
        ),
        "catalog": engine.manager.catalog_snapshot(),
        "data": {t: engine.decompress(t).data for t in buffers},
    }
    engine.close()
    return out


class TestAccessRecord:
    def test_temperature_halves_per_half_life(self) -> None:
        record = AccessRecord(temperature=4.0, touched_at=0.0)
        assert record.decayed(16.0, half_life=16.0) == pytest.approx(2.0)
        assert record.decayed(32.0, half_life=16.0) == pytest.approx(1.0)
        assert record.decayed(0.0, half_life=16.0) == pytest.approx(4.0)

    def test_untracked_task_reads_at_zero_rate(self, seed,
                                               small_hierarchy) -> None:
        engine = HCompress(
            small_hierarchy,
            HCompressConfig(lifecycle=LifecycleConfig(enabled=True)),
            seed=seed,
        )
        assert engine.lifecycle.read_rate("nobody") == 0.0
        engine.close()

    def test_repeat_reads_raise_the_rate(self, seed, small_hierarchy,
                                         gamma_f64) -> None:
        clock = SimClock()
        engine = HCompress(
            small_hierarchy,
            HCompressConfig(lifecycle=LifecycleConfig(enabled=True)),
            seed=seed,
            clock=lambda: clock.now,
        )
        engine.compress(gamma_f64, task_id="hot")
        cold = engine.lifecycle.read_rate("hot")
        for _ in range(8):
            clock.advance(1.0)
            engine.decompress("hot")
        assert engine.lifecycle.read_rate("hot") > cold
        engine.close()


class TestCostModel:
    def test_prices_rank_by_tier_speed(self, small_hierarchy) -> None:
        cost = TierCostModel(small_hierarchy)
        prices = [
            cost.dollars_per_gb_s(tier.spec.name) for tier in small_hierarchy
        ]
        # Faster tiers must cost strictly more per GB.s, or the
        # objective would never demote anything.
        assert prices == sorted(prices, reverse=True)
        assert prices[-1] > 0.0

    def test_migration_is_never_free(self, small_hierarchy) -> None:
        cost = TierCostModel(small_hierarchy)
        tiers = list(small_hierarchy)
        dollars = cost.migration_dollars(
            tiers[0], tiers[-1], 4 * KiB, 2 * KiB, "lz4", "lzma", 8 * KiB
        )
        assert dollars > 0.0

    def test_identity_codec_ratio_is_one(self, small_hierarchy) -> None:
        cost = TierCostModel(small_hierarchy)
        assert cost.expected_ratio("none") == 1.0


class TestDeterminism:
    def test_same_seed_same_migration_schedule(self, seed) -> None:
        first = _drive(seed, enabled=True)
        second = _drive(seed, enabled=True)
        assert first["migrations"], "trace produced no migrations to compare"
        assert first["migrations"] == second["migrations"]
        assert first["status"] == second["status"]
        assert first["catalog"] == second["catalog"]

    def test_workload_driver_is_deterministic(self, seed) -> None:
        runs = [
            run_zipf_trace(SMALL, lifecycle=True, seed=seed)
            for _ in range(2)
        ]
        assert runs[0].status == runs[1].status
        assert runs[0].total_dollars == runs[1].total_dollars
        assert runs[0].tier_residency == runs[1].tier_residency


class TestFeatureOffIdentity:
    def test_disabled_engine_holds_none(self, seed, small_hierarchy) -> None:
        engine = HCompress(small_hierarchy, seed=seed)
        assert engine.lifecycle is None
        engine.close()

    def test_enabled_but_never_stepped_is_byte_identical(self, seed) -> None:
        """Access bookkeeping alone (note_write/note_read on every op)
        must not perturb placement, schemas, or stored bytes."""
        disabled = _drive(seed, enabled=False)
        idle = _drive(seed, enabled=True, step=False)
        assert idle["catalog"] == disabled["catalog"]
        assert idle["data"] == disabled["data"]
        assert idle["status"]["scans"] == 0

    def test_migrations_change_placement_not_data(self, seed) -> None:
        disabled = _drive(seed, enabled=False)
        enabled = _drive(seed, enabled=True)
        assert enabled["status"]["demotions"] > 0
        assert enabled["catalog"] != disabled["catalog"]
        # Every blob still reads back byte-identical after migration.
        assert enabled["data"] == disabled["data"]


class TestBatchedPathParity:
    def test_compress_batch_with_idle_daemon(self, seed, rng) -> None:
        """Satellite 5: the daemon's write hooks ride the batched hot
        path without kicking it off the fast path or changing bytes."""
        buffers = [
            synthetic_buffer("float64", "gamma", 8 * KiB, rng)
            for _ in range(6)
        ]
        snapshots = []
        for enabled in (False, True):
            engine = HCompress(
                _trace_hierarchy(SMALL),
                HCompressConfig(
                    lifecycle=LifecycleConfig(
                        enabled=enabled, scan_interval=1e9
                    )
                ),
                seed=seed,
            )
            results = engine.compress_batch(
                [
                    {"data": data, "task_id": f"b{i}"}
                    for i, data in enumerate(buffers)
                ]
            )
            snapshots.append((
                [
                    tuple(
                        (p.plan.codec, p.tier, p.stored_size)
                        for p in r.pieces
                    )
                    for r in results
                ],
                engine.manager.catalog_snapshot(),
            ))
            if enabled:
                assert engine.lifecycle.status()["tracked_tasks"] == len(
                    buffers
                )
            engine.close()
        assert snapshots[0] == snapshots[1]


class _StubBrownout:
    def __init__(self, level: int) -> None:
        self.level = level


class _StubQos:
    def __init__(self, level: int, quarantined=()) -> None:
        self.brownout = _StubBrownout(level)
        self._quarantined = set(quarantined)

    def tier_quarantined(self, name: str) -> bool:
        return name in self._quarantined


class TestQosCooperation:
    def test_brownout_pauses_the_daemon(self, seed, small_hierarchy,
                                        gamma_f64) -> None:
        engine = HCompress(
            small_hierarchy,
            HCompressConfig(
                lifecycle=LifecycleConfig(enabled=True, scan_interval=0.0)
            ),
            seed=seed,
        )
        engine.compress(gamma_f64, task_id="t0")
        engine.qos = _StubQos(level=2)
        assert engine.lifecycle.step(force=True) == []
        assert engine.lifecycle.stats.paused == 1
        assert engine.lifecycle.stats.scans == 0
        engine.qos = _StubQos(level=0)
        engine.lifecycle.step(force=True)
        assert engine.lifecycle.stats.scans == 1
        engine.close()

    def test_quarantined_tier_is_skipped(self, seed, gamma_f64) -> None:
        clock = SimClock()
        engine = HCompress(
            _trace_hierarchy(SMALL),
            HCompressConfig(
                lifecycle=LifecycleConfig(
                    enabled=True,
                    scan_interval=0.0,
                    # Storage-heavy pricing: every blob wants to demote.
                    storage_price=1000.0,
                    access_price=0.001,
                )
            ),
            seed=seed,
            clock=lambda: clock.now,
        )
        engine.compress(gamma_f64, task_id="t0")
        names = [tier.spec.name for tier in engine.hierarchy]
        engine.qos = _StubQos(level=0, quarantined=set(names))
        assert engine.lifecycle.step(force=True) == []
        assert engine.lifecycle.stats.skipped_quarantined > 0
        engine.close()


class TestStatus:
    def test_status_is_json_serializable(self, seed, small_hierarchy,
                                         gamma_f64) -> None:
        engine = HCompress(
            small_hierarchy,
            HCompressConfig(lifecycle=LifecycleConfig(enabled=True)),
            seed=seed,
        )
        engine.compress(gamma_f64, task_id="t0")
        engine.lifecycle.step(force=True)
        status = json.loads(json.dumps(engine.lifecycle.status()))
        assert status["enabled"] is True
        assert status["scans"] == 1
        assert status["tracked_tasks"] == 1
        assert status["promote_codec"] in engine.pool
        assert status["refused"] == {}
        assert engine.manager.relocate("ghost", [], cause="lifecycle") is None
        assert engine.lifecycle.status()["refused"] == {"lost": 1}
        engine.close()


class TestConfigValidation:
    def test_bad_interval_rejected(self) -> None:
        with pytest.raises(Exception):
            LifecycleConfig(scan_interval=-1.0)

    def test_bad_horizon_rejected(self) -> None:
        with pytest.raises(Exception):
            LifecycleConfig(horizon=0.0)
