"""The QoS governor wired through a live engine: admission, deadlines,
breakers, checkpoint/restore, and the disabled-is-identical guarantee."""

from __future__ import annotations

import pytest

from repro.core import HCompress, HCompressConfig
from repro.core.config import ObservabilityConfig, RecoveryConfig
from repro.errors import DeadlineExceededError, TaskShedError
from repro.qos import QosClass, QosConfig
from repro.qos.breaker import OPEN
from repro.tiers import ares_hierarchy
from repro.units import KiB, MiB


def _hierarchy():
    return ares_hierarchy(
        ram_capacity=4 * MiB, nvme_capacity=8 * MiB, bb_capacity=64 * MiB,
        nodes=2,
    )


def _qos(**kwargs) -> QosConfig:
    base = dict(enabled=True)
    base.update(kwargs)
    return QosConfig(**base)


class TestDisabled:
    def test_no_governor_constructed(self, small_hierarchy, seed) -> None:
        engine = HCompress(small_hierarchy, seed=seed)
        assert engine.qos is None

    def test_disabled_runs_are_byte_identical(self, seed, gamma_f64) -> None:
        """With QoS off, two fresh engines produce identical schemas,
        stored bytes, and catalogs — the subsystem leaves no trace."""
        snapshots = []
        for _ in range(2):
            engine = HCompress(_hierarchy(), seed=seed)
            results = [
                engine.compress(gamma_f64, task_id=f"t{i}")
                for i in range(3)
            ]
            snapshots.append((
                [tuple((p.codec, p.tier) for p in r.schema.pieces)
                 for r in results],
                [r.total_stored for r in results],
                engine.manager.catalog_snapshot(),
            ))
        assert snapshots[0] == snapshots[1]

    def test_empty_constraints_share_the_plan_cache(self, small_hierarchy,
                                                    seed, gamma_f64) -> None:
        """Explicit no-op constraints hash to the same cache key as the
        constraint-free call — the disabled path costs nothing."""
        engine = HCompress(small_hierarchy, seed=seed)
        result = engine.compress(gamma_f64, task_id="warm")
        before = engine.engine.stats.plan_cache_hits
        engine.engine.plan(result.task, blocked_tiers=(), codec_filter=None)
        assert engine.engine.stats.plan_cache_hits == before + 1


class TestAdmission:
    def test_overload_sheds_typed(self, seed, gamma_f64) -> None:
        config = HCompressConfig(qos=_qos(
            max_backlog_bytes=96 * KiB,
            drain_bytes_per_s=1.0,  # effectively no drain
            shed_soft_fill=0.9,
        ))
        engine = HCompress(_hierarchy(), config, seed=seed)
        assert engine.qos is not None
        with pytest.raises(TaskShedError) as info:
            for i in range(4):  # 64 KiB each: the second crosses fill > 1
                engine.compress(gamma_f64, task_id=f"t{i}",
                                qos_class=QosClass.BEST_EFFORT)
        assert info.value.reason == "overload"
        assert info.value.qos_class == int(QosClass.BEST_EFFORT)

    def test_shed_task_leaves_no_state(self, seed, gamma_f64) -> None:
        config = HCompressConfig(qos=_qos(
            max_backlog_bytes=96 * KiB, drain_bytes_per_s=1.0,
            shed_soft_fill=0.9,
        ))
        engine = HCompress(_hierarchy(), config, seed=seed)
        shed_ids = []
        for i in range(4):
            try:
                engine.compress(gamma_f64, task_id=f"t{i}",
                                qos_class=QosClass.BEST_EFFORT)
            except TaskShedError:
                shed_ids.append(f"t{i}")
        assert shed_ids
        for task_id in shed_ids:
            assert task_id not in engine.manager

    def test_protected_class_rides_through(self, seed, gamma_f64) -> None:
        config = HCompressConfig(qos=_qos(
            max_backlog_bytes=96 * KiB, drain_bytes_per_s=1.0,
            shed_soft_fill=0.9,
        ))
        engine = HCompress(_hierarchy(), config, seed=seed)
        for i in range(4):
            engine.compress(gamma_f64, task_id=f"t{i}",
                            qos_class=QosClass.INTERACTIVE)
        assert engine.qos.admission.shed == 0


class TestDeadline:
    def test_impossible_write_deadline_raises(self, seed, gamma_f64) -> None:
        engine = HCompress(_hierarchy(), seed=seed)  # QoS off: still honoured
        with pytest.raises(DeadlineExceededError):
            engine.compress(gamma_f64, task_id="rushed", deadline=1e-12)
        assert "rushed" not in engine.manager

    def test_impossible_read_deadline_raises(self, seed, gamma_f64) -> None:
        engine = HCompress(_hierarchy(), seed=seed)
        engine.compress(gamma_f64, task_id="t0")
        with pytest.raises(DeadlineExceededError):
            engine.decompress("t0", deadline=1e-12)
        # The data itself is untouched by the failed read.
        assert engine.decompress("t0").data == gamma_f64

    def test_generous_deadline_completes(self, seed, gamma_f64) -> None:
        engine = HCompress(_hierarchy(), seed=seed)
        result = engine.compress(gamma_f64, task_id="t0", deadline=60.0)
        assert result.total_stored > 0
        assert engine.decompress("t0", deadline=60.0).data == gamma_f64

    def test_default_deadline_from_config(self, seed, gamma_f64) -> None:
        config = HCompressConfig(qos=_qos(default_deadline=1e-12))
        engine = HCompress(_hierarchy(), config, seed=seed)
        with pytest.raises(DeadlineExceededError):
            engine.compress(gamma_f64, task_id="t0",
                            qos_class=QosClass.CRITICAL)
        assert engine.qos.deadline_exceeded == 1

    def test_explicit_deadline_overrides_default(self, seed,
                                                 gamma_f64) -> None:
        config = HCompressConfig(qos=_qos(default_deadline=1e-12))
        engine = HCompress(_hierarchy(), config, seed=seed)
        result = engine.compress(gamma_f64, task_id="t0", deadline=60.0,
                                 qos_class=QosClass.CRITICAL)
        assert result.total_stored > 0


class TestBreakerIntegration:
    def test_open_breaker_blocks_planning_and_flusher(self, seed) -> None:
        config = HCompressConfig(qos=_qos())
        engine = HCompress(_hierarchy(), config, seed=seed)
        board = engine.qos.breakers
        now = engine.qos.now()
        for _ in range(3):
            board.record("nvme", False, now)
        assert "nvme" in engine.qos.quarantined_tiers()
        assert engine.qos.tier_quarantined("nvme")
        assert not engine.qos.tier_quarantined("ram")

    def test_quarantined_tier_excluded_from_plans(self, seed,
                                                  gamma_f64) -> None:
        config = HCompressConfig(qos=_qos())
        engine = HCompress(_hierarchy(), config, seed=seed)
        now = engine.qos.now()
        for _ in range(3):
            engine.qos.breakers.record("ram", False, now)
        result = engine.compress(gamma_f64, task_id="t0")
        assert all(p.tier != "ram" for p in result.schema.pieces)


class TestCheckpointRestore:
    def test_breaker_open_survives_restart_conservatively(
        self, seed, gamma_f64, tmp_path
    ) -> None:
        """Checkpoint while a breaker is open (even mid-probe): the
        restored engine must keep the tier quarantined, never resurrect
        it healthy."""
        config = HCompressConfig(
            qos=_qos(),
            recovery=RecoveryConfig(enabled=True, directory=str(tmp_path),
                                    fsync=False),
        )
        hierarchy = _hierarchy()
        engine = HCompress(hierarchy, config, seed=seed)
        engine.compress(gamma_f64, task_id="t0")
        board = engine.qos.breakers
        now = engine.qos.now()
        for _ in range(3):
            board.record("nvme", False, now)
        # Start a half-open probe, then checkpoint mid-probe.
        board.allow("nvme", now + 10.0)
        assert board.breakers["nvme"].state != OPEN
        engine.checkpoint()

        restored = HCompress.restore(tmp_path, hierarchy, config=config,
                                     seed=seed)
        assert restored.qos is not None
        assert restored.qos.breakers.breakers["nvme"].state == OPEN
        assert restored.qos.tier_quarantined("nvme")
        # Counters travelled too.
        assert restored.qos.admission.admitted == 1
        assert restored.decompress("t0").data == gamma_f64
        restored.close()

    def test_disabled_engine_restores_without_qos(self, seed, gamma_f64,
                                                  tmp_path) -> None:
        config = HCompressConfig(
            recovery=RecoveryConfig(enabled=True, directory=str(tmp_path),
                                    fsync=False),
        )
        hierarchy = _hierarchy()
        engine = HCompress(hierarchy, config, seed=seed)
        engine.compress(gamma_f64, task_id="t0")
        engine.checkpoint()
        restored = HCompress.restore(tmp_path, hierarchy, config=config,
                                     seed=seed)
        assert restored.qos is None
        assert restored.decompress("t0").data == gamma_f64
        restored.close()


class TestObservability:
    def test_qos_metrics_exported(self, seed, gamma_f64) -> None:
        config = HCompressConfig(
            qos=_qos(),
            observability=ObservabilityConfig(enabled=True),
        )
        engine = HCompress(_hierarchy(), config, seed=seed)
        engine.compress(gamma_f64, task_id="t0",
                        qos_class=QosClass.BATCH)
        exported = engine.sync_telemetry().export_metrics()["metrics"]
        assert "hcompress_qos_backlog_bytes" in exported
        assert "hcompress_qos_admission_admitted_total" in exported
        assert engine.obs.registry.value(
            "hcompress_qos_admitted_total", qos_class="BATCH"
        ) == 1

    @pytest.mark.parametrize(
        "qos,call,error,attrs",
        [
            (
                {"max_backlog_bytes": 1},
                {"qos_class": QosClass.BEST_EFFORT},
                "TaskShedError",
                {"qos_class": "BEST_EFFORT"},
            ),
            ({}, {"deadline": 1e-12}, "DeadlineExceededError", {}),
        ],
        ids=["shed", "deadline"],
    )
    def test_failed_write_span_names_its_task(
        self, seed, gamma_f64, qos, call, error, attrs
    ) -> None:
        config = HCompressConfig(
            qos=_qos(brownout_enabled=False, **qos),
            observability=ObservabilityConfig(enabled=True),
        )
        engine = HCompress(_hierarchy(), config, seed=seed)
        with pytest.raises((TaskShedError, DeadlineExceededError)):
            engine.compress(gamma_f64, task_id="t0", **call)
        span = engine.obs.tracer.spans[-1]
        assert span.name == "hcompress.compress"
        assert span.attrs == {
            "task": "t0", "size": len(gamma_f64), **attrs, "error": error,
        }
