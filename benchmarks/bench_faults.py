"""Chaos bench: a VPIC-style checkpoint workload under fault injection.

The experiment the resilience layer exists for: the fault plan kills the
NVMe tier mid-run (recovering later), makes NVMe/burst-buffer/PFS devices
flaky, and corrupts burst-buffer reads. HC completes the workload with
every buffer byte-identical — riding on retry, write-failover,
degraded-mode planning, and checksum read-repair — while the no-retry
BASE and MTNC baselines die on their first transient error.
"""

from __future__ import annotations

from repro.faults import run_scenario, scenario


def test_chaos_vpic_outage(benchmark, seed) -> None:
    outcomes = benchmark.pedantic(
        lambda: {
            backend: run_scenario(
                scenario("device", backend=backend), seed=seed
            )
            for backend in ("HC", "BASE", "MTNC")
        },
        rounds=1,
        iterations=1,
    )
    print()
    for outcome in outcomes.values():
        print(outcome.summary())
    benchmark.extra_info["summaries"] = [
        o.summary() for o in outcomes.values()
    ]

    hc, base, mtnc = outcomes["HC"], outcomes["BASE"], outcomes["MTNC"]
    # HC survives the outage with every buffer intact...
    assert hc.holds
    assert hc.completed == hc.config.tasks
    # ...and actually exercised the resilient paths to do it.
    assert hc.retries > 0
    assert hc.failovers + hc.replans + hc.degraded_plans > 0
    assert hc.read_repairs > 0 or hc.corruption_detected == 0
    # The baselines have no retry/failover/checksum story: first transient
    # error kills them.
    assert not base.holds
    assert not mtnc.holds
