"""Crash-point harness: every instrumented site recovers with invariants intact.

The acceptance gate for the recovery subsystem: `sweep_crash_sites` kills
the engine at every site x hit combination (>= 25 seeded crash points),
restores from journal + snapshot, and `Outcome.holds` folds the crash
scenario's invariants — acked writes byte-identical, acked evicts gone,
idempotent replay, deterministic double restore, zero orphaned capacity.
"""

from __future__ import annotations

import pytest

from repro.errors import RecoveryError, SimulatedCrashError
from repro.faults import run_scenario, scenario, sweep_crash_sites
from repro.recovery import CRASH_SITES, CrashPlan, Crashpoints


class TestCrashpoints:
    def test_unknown_site_rejected(self) -> None:
        with pytest.raises(RecoveryError):
            CrashPlan(site="manager.write.nonsense")

    def test_fires_on_the_nth_hit_only(self) -> None:
        cp = Crashpoints(plan=CrashPlan(site="shi.write.pre_put", hit=3))
        cp.reached("shi.write.pre_put")
        cp.reached("shi.write.pre_put")
        cp.reached("shi.write.post_put")  # other sites don't advance the count
        with pytest.raises(SimulatedCrashError):
            cp.reached("shi.write.pre_put")
        assert cp.fired == "shi.write.pre_put"

    def test_unarmed_arbiter_never_fires(self) -> None:
        cp = Crashpoints()
        for site in CRASH_SITES:
            cp.reached(site)
        assert cp.fired is None

    def test_plan_json_roundtrip(self, tmp_path) -> None:
        plan = CrashPlan(site="flusher.post_copy", hit=2, seed=17)
        path = tmp_path / "crash.json"
        plan.save(path)
        assert CrashPlan.load(path) == plan


class TestHarness:
    def test_baseline_without_a_crash_holds(self) -> None:
        outcome = run_scenario(scenario("crash"))
        assert not outcome.crashed
        assert outcome.holds, outcome.summary()
        assert outcome.completed == outcome.config.tasks == 8

    def test_unacked_write_leaves_no_orphaned_capacity(self) -> None:
        # Crash after a piece landed but before the journal: the write was
        # never acknowledged, so recovery must sweep the piece.
        outcome = run_scenario(
            scenario("crash", crash_site="manager.write.piece_placed")
        )
        assert outcome.crashed and outcome.fired_site == "manager.write.piece_placed"
        assert outcome.holds, outcome.summary()
        report = outcome.recovery
        assert report.orphans_evicted + report.duplicates_evicted >= 1
        assert "no_orphan_keys" not in outcome.violated

    def test_torn_sync_recovers_to_last_intact_record(self) -> None:
        outcome = run_scenario(scenario("crash", crash_site="journal.torn_sync"))
        assert outcome.crashed
        assert outcome.recovery.journal_truncated
        assert outcome.holds, outcome.summary()

    def test_flusher_crash_leaves_no_double_copies(self) -> None:
        outcome = run_scenario(scenario("crash", crash_site="flusher.post_copy"))
        assert outcome.crashed
        assert outcome.holds, outcome.summary()
        assert outcome.recovery.duplicates_evicted >= 1  # swept at restore
        assert "no_orphan_keys" not in outcome.violated


def test_sweep_covers_every_site_and_all_invariants_hold() -> None:
    """The headline gate: >= 25 seeded crash points, zero violations."""
    outcomes = sweep_crash_sites()
    assert len(outcomes) >= 25
    fired = [o for o in outcomes if o.crashed]
    # Every site in the matrix must actually be reachable by the workload —
    # a site that never fires is dead instrumentation, not a passing test.
    assert {o.fired_site for o in fired} == set(CRASH_SITES)
    violations = [o.summary() for o in outcomes if not o.holds]
    assert not violations, "\n".join(violations)
    # Replay idempotence and deterministic double restore held everywhere.
    assert not any(
        o.violated & {"idempotent_replay", "identical_double_restore"}
        for o in outcomes
    )
    # The matrix is 26 sites x 2 hits, each site on the preset that
    # reaches it.
    assert len(outcomes) == 2 * len(CRASH_SITES) == 52
    assert {o.config.name for o in outcomes} == {"crash", "failover"}
