"""The shard-kill scenario: the failure-domain contract end to end."""

from __future__ import annotations

import pytest

from repro.errors import HCompressError
from repro.faults import run_scenario, scenario

QUICK = dict(shards=4, tasks=32, tenants=8, kill_after=12,
             checkpoint_after=6)


class TestConfig:
    def test_kill_targets_are_exclusive(self) -> None:
        with pytest.raises(HCompressError):
            scenario("shard_kill", kill_shard=1, kill_owner_of="tenant-0")

    def test_kill_shard_must_be_in_range(self) -> None:
        with pytest.raises(HCompressError):
            scenario("shard_kill", shards=4, kill_shard=4)

    def test_kill_must_leave_traffic_after_it(self) -> None:
        """The default kill point (24) is past a 16-task storm: asking
        for that kill is refused instead of silently never happening."""
        with pytest.raises(HCompressError):
            scenario("shard_kill", tasks=16, kill_owner_of="tenant-0")
        scenario("shard_kill", tasks=16)  # no kill requested: fine


class TestUndisturbed:
    def test_baseline_contract_holds(self) -> None:
        outcome = run_scenario(scenario("shard_kill", **QUICK))
        assert outcome.holds, outcome.summary()
        assert outcome.killed_shard is None
        assert outcome.unavailable == 0
        assert outcome.completed == outcome.offered
        assert outcome.mismatched == 0


class TestKill:
    def test_kill_contract_holds(self) -> None:
        outcome = run_scenario(
            scenario("shard_kill", kill_owner_of="tenant-0", **QUICK)
        )
        assert outcome.holds, outcome.summary()
        assert outcome.killed_shard is not None
        assert outcome.unavailable > 0
        assert outcome.recovered
        assert outcome.missing_acked == 0
        # Blast radius: only tenants the ring homes on the victim.
        assert outcome.affected_tenants <= outcome.expected_tenants

    def test_survivor_events_match_undisturbed_run(self) -> None:
        """Determinism across the kill: every surviving shard's event
        stream is identical to the same-seed run with no kill."""
        base = run_scenario(scenario("shard_kill", **QUICK))
        kill = run_scenario(
            scenario("shard_kill", kill_owner_of="tenant-0", **QUICK)
        )
        assert kill.killed_shard is not None
        assert kill.survivor_events() == base.survivor_events(
            killed=kill.killed_shard
        )

    def test_restore_replays_post_checkpoint_suffix(self) -> None:
        """Writes acked after the last checkpoint exist only in the
        journal — restore must replay them."""
        outcome = run_scenario(
            scenario("shard_kill", kill_owner_of="tenant-0", **QUICK)
        )
        assert outcome.recovered
        assert outcome.recovery.records_replayed >= 0
        assert outcome.manifest_version >= 3  # DOWN + UP transitions

    def test_single_shard_deployment_restores_fully(self) -> None:
        outcome = run_scenario(
            scenario(
                "shard_kill", shards=1, tasks=24, tenants=4, kill_shard=0,
                kill_after=10, checkpoint_after=4,
            )
        )
        assert outcome.holds, outcome.summary()
        # All tenants live on the only shard.
        assert outcome.expected_tenants == {
            f"tenant-{t}" for t in range(4)
        }
        assert outcome.recovered
