"""Mid-migration crash consistency: a kill at any lifecycle site leaves
every acked blob readable at exactly one tier."""

from __future__ import annotations

import pytest

from repro.faults import run_scenario, scenario

LIFECYCLE_SITES = (
    "lifecycle.pre_copy",
    "lifecycle.post_copy",
    "lifecycle.post_journal",
    "lifecycle.post_evict",
)


@pytest.mark.parametrize("site", LIFECYCLE_SITES)
@pytest.mark.parametrize("hit", (1, 2))
def test_kill_mid_migration_holds_invariants(site, hit) -> None:
    """Crash at each window of the copy -> journal -> evict discipline:
    recovery must leave no orphaned capacity, no double copies, and every
    acked write byte-identical (i.e. readable at exactly one tier)."""
    outcome = run_scenario(scenario("crash", crash_site=site, crash_hit=hit))
    assert outcome.crashed and outcome.fired_site == site
    assert outcome.holds, outcome.summary()
    assert "no_orphan_keys" not in outcome.violated
    assert outcome.mismatched == 0


def test_migrated_blobs_survive_the_crash_cycle() -> None:
    """The baseline (no crash) with the daemon on: migrations happened,
    and the post-recovery verification read every blob back intact."""
    outcome = run_scenario(scenario("crash"))
    assert not outcome.crashed
    assert outcome.holds, outcome.summary()
    assert outcome.verified_intact == outcome.completed - outcome.evicted


def test_daemon_off_never_reaches_lifecycle_sites() -> None:
    """With the daemon disabled the workload must never take a lifecycle
    crash site — the instrumentation is dead when the feature is off."""
    outcome = run_scenario(
        scenario("crash", crash_site="lifecycle.pre_copy", lifecycle=False)
    )
    assert not outcome.crashed
    assert outcome.holds, outcome.summary()
