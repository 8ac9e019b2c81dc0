"""Overload storm acceptance: the QoS contract under 2x load + flapping."""

from __future__ import annotations

import pytest

from repro.faults import default_seed, flap_plan, run_scenario, scenario
from repro.qos import QosClass


@pytest.fixture(scope="module")
def storm_seed():
    return default_seed()


@pytest.fixture(scope="module")
def storm(storm_seed):
    return run_scenario(scenario("overload", tasks=32), seed=storm_seed)


class TestContract:
    def test_contract_holds(self, storm) -> None:
        assert storm.holds, storm.summary()

    def test_storm_actually_stressed_the_engine(self, storm) -> None:
        """The fixture parameters must produce a real storm — sheds,
        breaker activity, brownout escalation — or the contract checks
        are vacuous."""
        assert storm.shed > 0
        assert storm.breaker_transitions > 0
        assert storm.brownout_peak >= 1

    def test_only_sub_protected_classes_shed(self, storm) -> None:
        assert storm.shed_by_class
        assert all(
            cls < int(QosClass.INTERACTIVE) for cls in storm.shed_by_class
        )

    def test_every_admitted_task_accounted(self, storm) -> None:
        assert storm.admitted == (
            storm.completed
            + storm.deadline_failures
            + storm.unavailable
        )

    def test_acked_data_survives(self, storm) -> None:
        assert storm.completed > 0
        assert storm.verified_intact == storm.completed
        assert storm.mismatched == 0 and storm.missing_acked == 0

    def test_trace_replays_across_runs(self, storm, storm_seed) -> None:
        twin = run_scenario(scenario("overload", tasks=32), seed=storm_seed)
        assert twin.trace == storm.trace
        assert twin.events == storm.events
        assert twin.shed_by_class == storm.shed_by_class

    def test_different_shed_seed_different_lottery(self, storm,
                                                   storm_seed) -> None:
        other = run_scenario(scenario("overload", tasks=32, rng_seed=99),
                             seed=storm_seed)
        assert other.trace != storm.trace


class TestCrashRestart:
    def test_crash_mid_storm_restores_conservatively(self,
                                                     storm_seed) -> None:
        """Overload + flapping tier + process death: the restored engine
        must hold the durability contract and keep the tripped breaker
        quarantined (conservative restore), not resurrect the tier."""
        outcome = run_scenario(
            scenario(
                "overload",
                tasks=32,
                crash_site="manager.write.post_journal",
                crash_hit=20,
            ),
            seed=storm_seed,
        )
        assert outcome.crashed and outcome.fired_site is not None
        assert outcome.recovered
        assert outcome.holds, outcome.summary()
        assert outcome.breaker_open_after_restore

    def test_crash_before_breaker_checkpoint_still_holds(self,
                                                         storm_seed) -> None:
        """An early crash restores from the bootstrap checkpoint (no
        breaker state yet) — the contract still holds, just without the
        quarantine carry-over."""
        outcome = run_scenario(
            scenario(
                "overload", tasks=32,
                crash_site="manager.write.pre_journal", crash_hit=2,
            ),
            seed=storm_seed,
        )
        assert outcome.crashed and outcome.recovered
        assert outcome.holds, outcome.summary()


class TestKnobs:
    def test_no_overload_no_shedding(self, storm_seed) -> None:
        """At half the drain rate nothing sheds — the storm harness
        does not manufacture sheds out of thin air."""
        calm = run_scenario(
            scenario("overload", tasks=16, load_factor=0.5, plan=flap_plan(0)),
            seed=storm_seed,
        )
        assert calm.shed == 0
        assert calm.completed == calm.offered
        assert calm.holds, calm.summary()

    def test_config_validation(self) -> None:
        from repro.errors import HCompressError

        with pytest.raises(HCompressError):
            scenario("overload", tasks=0)
        with pytest.raises(HCompressError):
            scenario("overload", load_factor=0.0)
        with pytest.raises(HCompressError):
            scenario("overload", deadline=-1.0)
