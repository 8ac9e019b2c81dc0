"""QoS overhead + latency bench: disabled must be free, admitted must be fast.

Two gates (docs/RESILIENCE.md):

* **Disabled is (near) free.** With ``QosConfig.enabled`` False — the
  default — the request path pays only ``qos is None`` / ``deadline is
  None`` identity checks. There is no pre-QoS code path left to A/B
  against, so the bench bounds it from above: an *enabled but idle*
  governor (huge backlog, no faults, brownout off) does strictly more
  work per call than the disabled path, and its measured overhead over
  the disabled engine on the fig-7-style compress burst must stay small.
  Whatever the disabled checks cost, it is less than that.

* **Admitted tasks stay fast under overload.** At 2x the drain rate with
  a flapping tier, every task the admission controller accepts either
  completes or fails typed — and the completed ones must be *quick*: the
  p99 of modeled service time (compress + I/O) stays within the per-task
  deadline budget. Load shedding is only worth its sheds if the survivors
  keep their latency.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from repro.core import HCompress, HCompressConfig
from repro.faults import run_scenario, scenario
from repro.qos import QosConfig
from repro.tiers import ares_hierarchy
from repro.units import GiB, KiB, MiB
from repro.workloads import vpic_sample

#: Idle-enabled overhead gate; the disabled path does strictly less.
MAX_IDLE_ENABLED_OVERHEAD = 0.30

BURSTS = 3
RANKS = 32


def _burst_seconds(seed, qos: QosConfig) -> float:
    """One fig-7-style repeated burst (32 ranks x 3 steps, 8 MiB modeled
    tasks); returns wall seconds for the compress loop."""
    engine = HCompress(
        ares_hierarchy(64 * MiB, 128 * MiB, 4 * GiB, nodes=2),
        HCompressConfig(qos=qos),
        seed=seed,
    )
    data = vpic_sample(64 * KiB, np.random.default_rng(0))
    wall = time.perf_counter()
    for step in range(BURSTS):
        for rank in range(RANKS):
            engine.compress(
                data, modeled_size=8 * MiB, task_id=f"qos.{step}.{rank}"
            )
    return time.perf_counter() - wall


def _median_burst(seed, qos: QosConfig, rounds: int = 5) -> float:
    return statistics.median(_burst_seconds(seed, qos) for _ in range(rounds))


def _idle_qos() -> QosConfig:
    """Enabled governor that never interferes: the backlog bound dwarfs
    the burst, nothing flaps, the ladder is off."""
    return QosConfig(
        enabled=True,
        max_backlog_bytes=1 << 50,
        drain_bytes_per_s=1e12,
        brownout_enabled=False,
    )


def test_disabled_overhead_is_negligible(benchmark, seed) -> None:
    """Idle-enabled vs disabled on the compress burst — an upper bound on
    what the disabled identity checks can possibly cost."""
    idle = _median_burst(seed, _idle_qos())
    disabled = benchmark.pedantic(
        lambda: _median_burst(seed, QosConfig()),
        rounds=1, iterations=1,
    )
    overhead = idle / disabled - 1.0
    benchmark.extra_info.update(
        {
            "disabled_seconds": round(disabled, 6),
            "idle_enabled_seconds": round(idle, 6),
            "idle_enabled_overhead": round(overhead, 4),
        }
    )
    assert overhead < MAX_IDLE_ENABLED_OVERHEAD, (
        f"an idle QoS governor costs {overhead:.1%} on the compress burst "
        f"(gate: <{MAX_IDLE_ENABLED_OVERHEAD:.0%}); the disabled path "
        f"must be cheaper still"
    )


def test_disabled_engine_has_no_governor(seed) -> None:
    engine = HCompress(
        ares_hierarchy(64 * MiB, 128 * MiB, 4 * GiB, nodes=2), seed=seed
    )
    assert engine.qos is None


def test_p99_latency_budget_under_2x_load(benchmark, seed) -> None:
    """2x offered load + flapping tier: admitted-and-completed tasks keep
    their modeled p99 within the per-task deadline budget."""
    config = scenario("overload", tasks=64, load_factor=2.0, deadline=8.0)
    outcome = benchmark.pedantic(
        lambda: run_scenario(config, seed=seed), rounds=1, iterations=1
    )
    assert outcome.holds, outcome.summary()
    assert outcome.completed >= 16, outcome.summary()
    ordered = sorted(outcome.latencies)
    p99 = ordered[min(len(ordered) - 1, int(len(ordered) * 0.99))]
    benchmark.extra_info.update(
        {
            "completed": outcome.completed,
            "shed": outcome.shed,
            "p50_modeled_s": round(ordered[len(ordered) // 2], 6),
            "p99_modeled_s": round(p99, 6),
            "deadline_s": config.deadline,
        }
    )
    assert p99 <= config.deadline, (
        f"p99 modeled latency {p99:.3f}s blew the {config.deadline}s "
        f"deadline budget — shedding is not protecting the survivors"
    )
