"""The failover scenario: the automatic-failover contract end to end."""

from __future__ import annotations

import pytest

from repro.errors import HCompressError
from repro.faults import run_scenario, scenario, sweep_crash_sites

QUICK = dict(shards=2, tasks=24, tenants=4, kill_after=8,
             checkpoint_after=6)


class TestConfig:
    def test_kill_targets_are_exclusive(self) -> None:
        with pytest.raises(HCompressError):
            scenario("failover", kill_shard=1, kill_owner_of="tenant-0")

    def test_kill_must_leave_traffic_after_it(self) -> None:
        with pytest.raises(HCompressError):
            scenario("failover", tasks=16, kill_shard=0, kill_after=16)

    def test_only_replication_sites_armable(self) -> None:
        with pytest.raises(HCompressError):
            scenario("failover", crash_site="journal.torn_sync")
        # ... and only with standbys: nothing promotes without them.
        with pytest.raises(HCompressError):
            scenario("shard_kill", crash_site="replication.pre_promote")


class TestUndisturbed:
    def test_baseline_contract_holds(self) -> None:
        outcome = run_scenario(scenario("failover", **QUICK))
        assert outcome.holds, outcome.summary()
        assert outcome.killed_shard is None
        assert outcome.completed == outcome.offered
        assert outcome.deferred == 0
        assert outcome.mismatched == 0


class TestKill:
    def test_kill_contract_holds_with_zero_acked_loss(self) -> None:
        outcome = run_scenario(scenario("failover", kill_shard=0, **QUICK))
        assert outcome.holds, outcome.summary()
        assert outcome.killed_shard == 0
        assert outcome.promotions >= 1
        assert outcome.missing_acked == 0
        assert outcome.mismatched == 0
        # fsync_every=8 means the kill genuinely destroyed a local tail;
        # zero loss therefore proves the *shipping* preserved it.
        assert outcome.lost_local_tail > 0
        assert outcome.unavailable == 0  # failover beat the routing gate

    def test_window_is_bounded(self) -> None:
        outcome = run_scenario(scenario("failover", kill_shard=0, **QUICK))
        assert outcome.unavailability_seconds <= outcome.unavailability_bound
        assert outcome.deferred > 0  # the window sheds retryably

    def test_survivor_events_match_undisturbed_run(self) -> None:
        """Determinism across the kill: the surviving shard's event
        stream is identical to the same-seed run with no kill."""
        base = run_scenario(scenario("failover", **QUICK))
        kill = run_scenario(
            scenario("failover", kill_owner_of="tenant-0", **QUICK)
        )
        assert kill.killed_shard is not None
        assert kill.survivor_events() == base.survivor_events(
            killed=kill.killed_shard
        )

    def test_instant_promotion_defers_nothing(self) -> None:
        outcome = run_scenario(scenario(
            "failover", kill_shard=0, promotion_seconds=0.0, **QUICK
        ))
        assert outcome.holds, outcome.summary()
        assert outcome.deferred == 0
        assert outcome.completed == outcome.offered


class TestCrashSites:
    def test_crash_mid_promotion_retries_and_converges(self) -> None:
        outcome = run_scenario(scenario(
            "failover", kill_shard=0,
            crash_site="replication.post_manifest", **QUICK
        ))
        assert outcome.holds, outcome.summary()
        assert outcome.fired_site == "replication.post_manifest"
        assert outcome.recovered  # the retried failover() converged
        assert outcome.promotions >= 1
        assert outcome.missing_acked == 0

    def test_sweep_runs_promotion_sites_on_the_replicated_storm(self) -> None:
        (crash,) = sweep_crash_sites(
            hits=(1,), sites=("replication.pre_promote",)
        )
        assert crash.config.replicas == 1 and crash.killed_shard == 0
        assert crash.crashed
        assert crash.fired_site == "replication.pre_promote"
        assert crash.holds, crash.summary()
        assert crash.recovered
        assert not crash.violated & {"failover_idempotent", "fence_consistent"}

    def test_unreached_hit_runs_crash_free(self) -> None:
        # One kill = one promotion: hit=2 never fires, the storm just
        # runs through and the invariants still hold.
        (crash,) = sweep_crash_sites(
            hits=(2,), sites=("replication.post_demote",)
        )
        assert not crash.crashed
        assert crash.holds, crash.summary()
