"""The one chaos runner: every invariant can fire, every preset replays.

The per-scenario contracts are exercised by the acceptance suites
(tests/faults, tests/recovery, tests/shard, tests/scrub, tests/lifecycle);
this file proves the two things they take on trust: that each row of
:data:`repro.faults.INVARIANTS` actually *fails* when the state it guards
is broken — a run is staged ``storm`` -> ``recover``, the post-recovery
state is broken by hand, then ``audit`` must name the violation — and
that every preset is a pure function of its seed.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.faults import (
    INVARIANTS,
    PRESETS,
    FaultPlan,
    LatentCorruptionInjector,
    ScenarioRun,
    default_seed,
    run_scenario,
    scenario,
)
from repro.qos import QosClass
from repro.shard.manifest import write_manifest

SMALL = dict(shards=2, tasks=24, tenants=4, kill_shard=0, kill_after=8,
             checkpoint_after=6)


def _drop_last_ack(run) -> None:
    # The last ack is past the mid-run checkpoint, so only the journal
    # holds it: replaying the journal re-adds it (visibly not a no-op),
    # and until then an acked write is missing.
    manager = run.reader.manager
    catalog = manager.catalog_snapshot()
    del catalog[run.acked[-1]]
    manager.restore_catalog(catalog)


def _flip_stored_byte(run) -> None:
    entry = run.reader.manager.task_entries(run.acked[-1])[0]
    assert LatentCorruptionInjector(run.hierarchy).corrupt(keys={entry.key})


def _leave_orphan(run) -> None:
    run.hierarchy.by_name("pfs").put("orphan/0", b"unreferenced")


def _resurrect_evicted(run) -> None:
    manager = run.reader.manager
    catalog = manager.catalog_snapshot()
    catalog[min(run.evicted)] = catalog[run.acked[-1]]
    manager.restore_catalog(catalog)


def _quarantine(run) -> None:
    run.reader.manager.quarantined.add("crash/t7/0")


def _shed_protected(run) -> None:
    run.outcome.shed_by_class[int(QosClass.INTERACTIVE)] = 1


def _lose_a_verdict(run) -> None:
    run.outcome.completed += 1


def _forget_the_kill(run) -> None:
    run.outcome.killed_shard = None


def _leak_unavailability(run) -> None:
    run.outcome.affected_tenants.add("tenant-elsewhere")


def _disturb_a_survivor(run) -> None:
    out = run.outcome
    index = next(
        i for i, e in enumerate(out.events) if e.shard != out.killed_shard
    )
    events = list(out.events)
    events[index] = events[index]._replace(status="unavailable")
    out.events = tuple(events)


def _kill_again(run) -> None:
    # A DOWN shard makes the "further failover() is refused" probe succeed.
    run.sharded.kill_shard(run.outcome.killed_shard)


def _come_back_late(run) -> None:
    run.sharded.supervisor.trace.append(
        ("UP", 99.0, run.outcome.killed_shard, "late")
    )


def _bump_disk_manifest(run) -> None:
    manifest = run.sharded.manifest
    write_manifest(
        run.sharded.root,
        dataclasses.replace(manifest, version=manifest.version + 1),
        fsync=False,
    )


CRASH_STORM = scenario(
    "overload", tasks=32, crash_site="manager.write.post_journal",
    crash_hit=20,
)
#: invariant -> (scenario, how to break what it guards)
BREAKS = {
    "idempotent_replay": (scenario("crash"), _drop_last_ack),
    "identical_double_restore": (scenario("crash"), _leave_orphan),
    "no_orphan_keys": (
        scenario("crash", invariants=("no_orphan_keys",)), _leave_orphan,
    ),
    "evicted_stay_gone": (scenario("crash"), _resurrect_evicted),
    "acked_read_back": (scenario("crash"), _flip_stored_byte),
    "fsck_clean": (scenario("crash"), _quarantine),
    "only_low_classes_shed": (scenario("overload", tasks=16), _shed_protected),
    "admitted_accounted": (scenario("overload", tasks=16), _lose_a_verdict),
    "kill_recorded": (scenario("shard_kill", **SMALL), _forget_the_kill),
    "blast_radius": (scenario("shard_kill", **SMALL), _leak_unavailability),
    "survivors_undisturbed": (
        scenario("shard_kill", **SMALL), _disturb_a_survivor,
    ),
    "failover_idempotent": (
        scenario("failover", promotion_seconds=0.0, **SMALL), _kill_again,
    ),
    "unavailability_bounded": (
        scenario("failover", **SMALL), _come_back_late,
    ),
    "fence_consistent": (scenario("failover", **SMALL), _bump_disk_manifest),
}


def _staged(config, root, tamper=None):
    run = ScenarioRun(config, root, default_seed())
    run.storm()
    run.recover()
    if tamper is not None:
        tamper(run)
    return run.audit()


class TestEveryInvariantFires:
    def test_every_invariant_has_a_break(self) -> None:
        assert set(BREAKS) == set(INVARIANTS)

    @pytest.mark.parametrize("name", sorted(BREAKS))
    def test_broken_state_is_named(self, name, tmp_path) -> None:
        config, tamper = BREAKS[name]
        assert name in config.invariants
        clean = _staged(config, tmp_path / "clean")
        assert clean.holds, clean.summary()
        broken = _staged(config, tmp_path / "broken", tamper)
        assert name in broken.violated, broken.summary()
        assert not broken.holds
        assert "CONTRACT VIOLATED" in broken.summary()

    def test_acked_write_lost_by_recovery_is_reported_mid_storm(
        self, tmp_path
    ) -> None:
        """The overload storm used to filter ``acked`` down to what the
        restored catalog still held *before* counting the missing, so an
        ack that recovery lost could never be reported."""
        outcome = _staged(CRASH_STORM, tmp_path, _drop_last_ack)
        assert outcome.crashed and outcome.recovered
        assert outcome.missing_acked == 1
        assert "acked_read_back" in outcome.violated

    def test_journal_committed_write_is_verified_past_the_ack(self) -> None:
        """Dying at ``post_journal`` leaves one write durable but never
        acknowledged: journal-durable means committed, so every scenario
        reads it back too."""
        outcome = run_scenario(CRASH_STORM)
        assert outcome.holds, outcome.summary()
        assert outcome.verified_intact == outcome.completed + 1

    def test_untyped_escape_breaks_the_contract(self) -> None:
        """With no QoS contract to make it a typed outcome, every tier
        down is an untyped escape: the scenario stops and does not hold."""
        dark = FaultPlan(seed=0)
        for tier in ("ram", "nvme", "burst_buffer", "pfs"):
            dark = dark.outage(tier, start=0.5, end=60.0)
        outcome = run_scenario(scenario("device", plan=dark))
        assert outcome.error is not None and not outcome.holds
        assert outcome.completed < outcome.offered


class TestEveryPresetReplays:
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_same_seed_same_events_and_trace(self, preset) -> None:
        first = run_scenario(PRESETS[preset])
        again = run_scenario(PRESETS[preset])
        assert first.holds, first.summary()
        assert first.events and first.events == again.events
        assert first.trace == again.trace
        assert first.summary() == again.summary()
        if PRESETS[preset].shards is None:
            return
        # A kill must not perturb what any surviving shard observes.
        kill = run_scenario(scenario(preset, kill_owner_of="tenant-0"))
        assert kill.holds, kill.summary()
        assert kill.killed_shard is not None
        assert kill.survivor_events() == first.survivor_events(
            killed=kill.killed_shard
        )
