"""Replication telemetry: the coordinator's view, mirrored per shard."""

from __future__ import annotations

from repro.obs import Observability, ObservabilityConfig
from repro.recovery import Journal, JournalRecord
from repro.replication import ReplicationConfig, ReplicationCoordinator

ENTRIES = (("t0/0", 4096, "zlib", 123),)


def _obs() -> Observability:
    return Observability(ObservabilityConfig(enabled=True))


def _coordinator(tmp_path, shards: int = 1) -> ReplicationCoordinator:
    return ReplicationCoordinator(
        shards,
        ReplicationConfig(enabled=True, replicas=2),
        tmp_path,
        fsync=False,
    )


class TestPush:
    def test_record_shard_promotion_increments_counter(self, tmp_path) -> None:
        """The coordinator's failover count is the counter's only writer:
        it reads the same on whichever engine holds the shard today."""
        coordinator = _coordinator(tmp_path, shards=2)
        coordinator.failovers[0] += 2
        coordinator.failovers[1] += 1
        obs = _obs()
        for shard, status in coordinator.status().items():
            obs.mirror(status, ReplicationCoordinator.METRICS, shard=shard)
        coordinator.close()
        reg = obs.registry
        assert reg.value(
            "hcompress_replication_promotions_total", shard="0"
        ) == 2
        assert reg.value(
            "hcompress_replication_promotions_total", shard="1"
        ) == 1


class TestMirror:
    def test_sync_replication_mirrors_coordinator_view(
        self, tmp_path
    ) -> None:
        coordinator = _coordinator(tmp_path)
        journal = Journal(tmp_path / "primary" / "journal.wal", fsync=False)
        coordinator.attach(0, journal)
        journal.append("commit", "t0", ENTRIES)
        journal.append("commit", "t1", ENTRIES)
        # One standby falls behind: fake a lag by rolling its LSN back.
        coordinator.standbys[0][1].applied_lsn = 1
        obs = _obs()
        obs.mirror(coordinator.status()[0], ReplicationCoordinator.METRICS, shard=0)
        reg = obs.registry
        assert reg.value(
            "hcompress_replication_shipped_records_total", shard="0"
        ) == 4
        assert reg.value(
            "hcompress_replication_lag_records", shard="0", replica="0"
        ) == 0
        assert reg.value(
            "hcompress_replication_lag_records", shard="0", replica="1"
        ) == 1
        assert reg.value(
            "hcompress_replication_catchups_total", shard="0"
        ) == 0
        journal.close()
        coordinator.close()


class TestEndToEnd:
    def test_failover_emits_span_and_counter(self, seed, tmp_path,
                                             gamma_f64) -> None:
        from repro.core import HCompressConfig
        from repro.shard import ShardConfig, ShardedHCompress
        from repro.tiers import ares_specs
        from repro.units import GiB, MiB

        sharded = ShardedHCompress(
            ares_specs(32 * MiB, 64 * MiB, 2 * GiB, nodes=2),
            HCompressConfig(
                observability=ObservabilityConfig(enabled=True),
            ),
            ShardConfig(
                shards=2,
                directory=tmp_path,
                replication=ReplicationConfig(
                    enabled=True, promotion_seconds=0.0
                ),
            ),
            seed=seed,
        )
        tenant = next(
            f"tenant-{t}" for t in range(256)
            if sharded.ring.route(f"tenant-{t}") == 0
        )
        sharded.compress(gamma_f64, task_id="t0", tenant=tenant)
        for promotions in (1, 2):
            sharded.kill_shard(0)
            engine = sharded.failover(0)
            # Each promoted engine is a fresh one and saw one promotion.
            spans = [s for s in engine.obs.tracer.spans
                     if s.name == "replication.promote"]
            assert len(spans) == 1
            assert spans[0].attrs["shard"] == 0
            assert spans[0].attrs["applied_lsn"] == engine.journal.durable_lsn
            # observabilities() mirrors the coordinator into the shard
            # view: the counter is the shard's history, not the engine's.
            obs = sharded.observabilities()[0]
            assert obs is engine.obs
            assert obs.registry.value(
                "hcompress_replication_promotions_total", shard="0"
            ) == promotions
            assert obs.registry.value(
                "hcompress_replication_shipped_records_total", shard="0"
            ) >= 1
        sharded.close()
