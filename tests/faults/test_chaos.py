"""Chaos acceptance: NVMe dies mid-workload, HCompress survives.

This is the headline robustness criterion: a seeded fault plan kills the
NVMe tier halfway through a VPIC write workload and the run must prove

(a) every written buffer reads back byte-identical after recovery,
(b) at least one write was failed over or replanned to another tier,
(c) the same seed reproduces the identical retry/failover trace twice.
"""

from __future__ import annotations

import pytest

from repro.errors import HCompressError
from repro.faults import (
    FaultKind,
    default_chaos_plan,
    run_scenario,
    scenario,
)


@pytest.fixture(scope="module")
def hc_outcome():
    return run_scenario(scenario("device"))


class TestPlanShape:
    def test_default_plan_kills_nvme_mid_run(self) -> None:
        config = scenario("device")
        plan = default_chaos_plan(config)
        downs = [
            e for e in plan.events
            if e.kind is FaultKind.TIER_DOWN and e.tier == "nvme"
        ]
        assert len(downs) == 1
        # Strictly inside the workload window: mid-run, not at the edges.
        horizon = config.tasks // config.ranks * config.step_seconds
        assert 0.0 < downs[0].at < horizon
        ups = [
            e for e in plan.events
            if e.kind is FaultKind.TIER_UP and e.tier == "nvme"
        ]
        assert len(ups) == 1
        assert ups[0].at > downs[0].at

    def test_config_validation(self) -> None:
        with pytest.raises(HCompressError):
            scenario("device", ranks=0)
        with pytest.raises(HCompressError):
            scenario("device", tasks=0)
        with pytest.raises(HCompressError):
            scenario("device", step_seconds=0.0)
        with pytest.raises(HCompressError):
            scenario("device", invariants=("acked_read_back", "no_such_check"))

    def test_unknown_backend_rejected(self) -> None:
        with pytest.raises(HCompressError):
            scenario("device", backend="ZFS")


class TestHCompressSurvives:
    def test_completes_under_outage(self, hc_outcome) -> None:
        assert hc_outcome.error is None
        assert hc_outcome.completed == hc_outcome.config.tasks == 12

    def test_every_buffer_byte_identical(self, hc_outcome) -> None:
        # Criterion (a): all buffers read back byte-identical.
        assert hc_outcome.holds, hc_outcome.summary()
        assert hc_outcome.verified_intact == hc_outcome.completed
        assert hc_outcome.mismatched == 0

    def test_writes_failed_over_or_replanned(self, hc_outcome) -> None:
        # Criterion (b): the outage forced at least one write elsewhere.
        rerouted = (
            hc_outcome.failovers
            + hc_outcome.replans
            + hc_outcome.degraded_plans
        )
        assert rerouted >= 1

    def test_transient_errors_were_retried(self, hc_outcome) -> None:
        assert hc_outcome.injected_errors > 0
        assert hc_outcome.retries > 0

    def test_corruption_detected_and_repaired(self, hc_outcome) -> None:
        # Bit-flips are transient (re-read heals), so every detection
        # must have been repaired for the data to verify intact.
        if hc_outcome.injected_corruptions > 0:
            assert hc_outcome.corruption_detected > 0
            assert hc_outcome.read_repairs == hc_outcome.corruption_detected


class TestDeterminism:
    def test_same_seed_identical_trace(self, hc_outcome) -> None:
        # Criterion (c): the full retry/failover/injection trace replays
        # exactly under the same seed.
        replay = run_scenario(scenario("device"))
        assert replay.trace == hc_outcome.trace
        assert replay.retries == hc_outcome.retries
        assert replay.failovers == hc_outcome.failovers
        assert replay.verified_intact == hc_outcome.verified_intact

    def test_different_seed_different_trace(self, hc_outcome) -> None:
        import dataclasses

        reseeded = dataclasses.replace(
            default_chaos_plan(scenario("device")), seed=1337
        )
        other = run_scenario(scenario("device", plan=reseeded))
        assert other.trace != hc_outcome.trace


class TestBaselinesSuffer:
    def test_base_does_not_survive(self) -> None:
        base = run_scenario(scenario("device", backend="BASE"))
        assert not base.holds

    def test_mtnc_does_not_survive(self) -> None:
        mtnc = run_scenario(scenario("device", backend="MTNC"))
        assert not mtnc.holds
