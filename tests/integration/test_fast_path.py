"""Hot-path acceptance: caching + concurrency change nothing but speed.

The PR's contract is that the cross-task plan cache and the piece thread
pool are pure optimizations — a full workload driven with both enabled
produces results identical to the serial/uncached seed behaviour. These
tests run the paper's VPIC kernel, a mixed compress/decompress session,
and the chaos acceptance workload in both modes and diff the outcomes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ExecutorConfig, HCompress, HCompressConfig, PlanCacheConfig
from repro.datagen import synthetic_buffer
from repro.experiments.fig7_vpic import (
    WRITE_PRIORITY,
    fig7_hierarchy,
    fig7_vpic_config,
)
from repro.faults import run_scenario, scenario
from repro.tiers import ares_hierarchy
from repro.units import GiB, KiB, MiB
from repro.workloads import HCompressBackend, run_vpic


def _config(fast: bool, **kw) -> HCompressConfig:
    return HCompressConfig(
        plan_cache=PlanCacheConfig(enabled=fast),
        executor=ExecutorConfig(enabled=fast),
        **kw,
    )


class TestVpicDeterminism:
    def _run(self, seed, fast: bool):
        config = fig7_vpic_config(64, scale=64)
        hierarchy = fig7_hierarchy(64)
        engine = HCompress(
            hierarchy,
            _config(fast, priority=WRITE_PRIORITY),
            seed=seed,
        )
        result = run_vpic(
            HCompressBackend(engine), config, hierarchy,
            rng=np.random.default_rng(0),
        )
        return result, engine

    def test_fig7_workload_identical(self, seed) -> None:
        baseline, _ = self._run(seed, fast=False)
        cached, engine = self._run(seed, fast=True)
        assert cached.elapsed_seconds == baseline.elapsed_seconds
        assert cached.stored_bytes == baseline.stored_bytes
        assert (
            cached.compression_seconds_total
            == baseline.compression_seconds_total
        )
        assert cached.footprint_by_tier == baseline.footprint_by_tier
        # The fast path actually engaged while changing nothing above.
        assert engine.engine.stats.plan_cache_hits > 0


class TestSessionDeterminism:
    """A mixed materialised/modeled write + read session, diffed piecewise."""

    def _run(self, seed, fast: bool):
        hierarchy = ares_hierarchy(2 * MiB, 4 * MiB, 1 * GiB, nodes=2)
        engine = HCompress(hierarchy, _config(fast), seed=seed)
        rng = np.random.default_rng(42)
        fingerprints = []
        buffers = {
            "gamma": synthetic_buffer("float64", "gamma", 256 * KiB, rng),
            "uniform": synthetic_buffer("float64", "uniform", 128 * KiB, rng),
        }
        for round_ in range(3):
            for name, data in buffers.items():
                task_id = f"{name}-{round_}"
                write = engine.compress(data, task_id=task_id)
                fingerprints.append(
                    [
                        (p.key, p.tier, p.plan.codec, p.stored_size,
                         p.actual_ratio, p.compress_seconds, p.io_seconds)
                        for p in write.pieces
                    ]
                )
            modeled = engine.compress(
                buffers["gamma"], modeled_size=8 * MiB,
                task_id=f"modeled-{round_}",
            )
            fingerprints.append(
                [(p.tier, p.stored_size) for p in modeled.pieces]
            )
        for round_ in range(3):
            for name, data in buffers.items():
                read = engine.decompress(f"{name}-{round_}")
                assert read.data == data
                fingerprints.append(
                    (read.decompress_seconds, read.io_seconds, read.pieces)
                )
        stats = engine.engine.stats
        engine.finalize()
        return fingerprints, stats

    def test_session_identical(self, seed) -> None:
        baseline, base_stats = self._run(seed, fast=False)
        cached, fast_stats = self._run(seed, fast=True)
        assert cached == baseline
        assert base_stats.plan_cache_hits == 0
        assert fast_stats.plan_cache_hits > 0


@pytest.mark.slow
class TestChaosDeterminism:
    def test_chaos_outcome_identical(self) -> None:
        config = scenario("device", ranks=2, tasks=8, task_kib=16)
        baseline = run_scenario(
            config,
            plan_cache=PlanCacheConfig(enabled=False),
            executor=ExecutorConfig(enabled=False),
        )
        cached = run_scenario(config)
        assert cached.trace == baseline.trace
        assert cached.summary() == baseline.summary()
        assert cached.holds == baseline.holds
        assert cached.degraded_plans == baseline.degraded_plans
