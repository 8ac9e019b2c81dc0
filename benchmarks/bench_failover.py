"""Replication cost/recovery bench: write overhead and time-to-recovery.

Two questions gate the replication subsystem (ISSUE 9):

* **Write overhead** — synchronous WAL shipping persists every journal
  record on K standbys before the ack. The same write burst runs over
  two identical deployments, replication off and on, and the committed
  ceiling is a <= 30% wall-clock overhead at K=1 (the overhead is a
  *ratio* of the same machine's two runs, so the gate is
  machine-independent to first order).
* **Time-to-recovery** — one kill-and-promote storm on the modeled
  clock. The DOWN -> UP window is fully deterministic (promotion window
  + one arrival for the next dispatch to notice), so the committed
  baseline gates it exactly, on any runner.

Usage::

    python benchmarks/bench_failover.py --output BENCH_failover.json
    python benchmarks/bench_failover.py --check BENCH_failover.json \
        --tolerance 0.3
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from repro.ccp import SeedData
from repro.core import HCompressConfig, HCompressProfiler
from repro.core.config import RecoveryConfig
from repro.faults import run_scenario, scenario
from repro.replication import ReplicationConfig
from repro.shard import ShardConfig, ShardedHCompress
from repro.tiers import ares_specs
from repro.units import KiB, MiB
from repro.workloads import vpic_sample

__all__ = [
    "DEFAULT_WORKLOAD",
    "MAX_WRITE_OVERHEAD",
    "check_report",
    "generate_report",
    "run_write_burst",
]

DEFAULT_WORKLOAD = {
    "shards": 2,
    "tasks": 96,
    "tenants": 16,
    "sample_kib": 16,
    "replicas": 1,
    "fsync_every": 8,
    "promotion_seconds": 0.25,
}

#: Acceptance ceiling (ISSUE 9): replication-on wall seconds per write
#: must stay within this multiple of replication-off.
MAX_WRITE_OVERHEAD = 1.30


def _bench_seed() -> SeedData:
    profiler = HCompressProfiler(rng=np.random.default_rng(0))
    return profiler.quick_seed(sizes=(8 * KiB, 32 * KiB))


def run_write_burst(
    seed: SeedData, workload: dict, replicated: bool, rounds: int = 1
) -> dict:
    """One directory-backed deployment per round, one write burst each;
    wall metrics of the best round.

    Both arms journal durably (recovery on, group commit); the only
    difference is synchronous shipping to K standbys, so the wall delta
    is the price of replication alone. ``rounds > 1`` takes the fastest
    round, shedding first-run import/allocator warm-up that would
    otherwise swamp the ~10% shipping cost being measured.
    """
    runs = [
        _one_write_burst(seed, workload, replicated)
        for _ in range(max(1, rounds))
    ]
    return min(runs, key=lambda run: run["wall_seconds"])


def _one_write_burst(
    seed: SeedData, workload: dict, replicated: bool
) -> dict:
    shards = workload["shards"]
    replication = (
        ReplicationConfig(
            enabled=True,
            replicas=workload["replicas"],
            promotion_seconds=workload["promotion_seconds"],
        )
        if replicated
        else ReplicationConfig()
    )
    sample = vpic_sample(
        workload["sample_kib"] * KiB, np.random.default_rng(0)
    )
    with tempfile.TemporaryDirectory(prefix="hcompress-bench-repl-") as tmp:
        sharded = ShardedHCompress(
            ares_specs(64 * MiB, 128 * MiB, 4096 * MiB, nodes=shards),
            HCompressConfig(
                recovery=RecoveryConfig(
                    fsync=False, fsync_every=workload["fsync_every"]
                ),
            ),
            ShardConfig(shards=shards, directory=tmp,
                        replication=replication),
            seed=seed,
        )
        wall = time.perf_counter()
        for index in range(workload["tasks"]):
            sharded.compress(
                sample,
                task_id=f"bench/t{index}",
                tenant=f"tenant-{index % workload['tenants']}",
            )
        wall = time.perf_counter() - wall
        shipped = (
            sum(sharded.replication.shipped_records.values())
            if sharded.replication is not None
            else 0
        )
        sharded.close()
    return {
        "replicated": replicated,
        "tasks": workload["tasks"],
        "wall_seconds": round(wall, 6),
        "wall_us_per_task": round(wall / workload["tasks"] * 1e6, 1),
        "shipped_records": shipped,
    }


def run_recovery(workload: dict) -> dict:
    """One kill-and-promote storm; the modeled-clock recovery metrics."""
    outcome = run_scenario(scenario(
        "failover",
        shards=workload["shards"],
        tasks=workload["tasks"] // 2,
        tenants=workload["tenants"],
        task_kib=workload["sample_kib"],
        kill_shard=0,
        kill_after=workload["tasks"] // 6,
        checkpoint_after=workload["tasks"] // 12,
        replicas=workload["replicas"],
        promotion_seconds=workload["promotion_seconds"],
        fsync_every=workload["fsync_every"],
    ))
    if not outcome.holds:
        raise RuntimeError(
            f"failover contract violated in bench: {outcome.summary()}"
        )
    return {
        "recovery_seconds": round(outcome.unavailability_seconds, 6),
        "recovery_bound_seconds": round(outcome.unavailability_bound, 6),
        "promotion_seconds": workload["promotion_seconds"],
        "failovers": outcome.promotions,
        "lost_local_tail": outcome.lost_local_tail,
        "missing_acked": outcome.missing_acked,
        "mismatched": outcome.mismatched,
    }


def generate_report(workload: dict | None = None) -> dict:
    workload = dict(DEFAULT_WORKLOAD if workload is None else workload)
    seed = _bench_seed()
    # Warm-up: the first deployment ever constructed pays import and
    # allocator costs that would otherwise be charged to the "off" arm.
    run_write_burst(seed, dict(workload, tasks=8), replicated=True)
    off = run_write_burst(seed, workload, replicated=False, rounds=3)
    on = run_write_burst(seed, workload, replicated=True, rounds=3)
    overhead = (
        on["wall_seconds"] / off["wall_seconds"]
        if off["wall_seconds"]
        else None
    )
    return {
        "benchmark": "replication_failover",
        "workload": workload,
        "write_burst": {"off": off, "on": on},
        "write_overhead": round(overhead, 3) if overhead else None,
        "max_write_overhead": MAX_WRITE_OVERHEAD,
        "recovery": run_recovery(workload),
    }


def check_report(
    report: dict, baseline: dict | None, tolerance: float
) -> list[str]:
    """Return regression errors (empty list = pass)."""
    errors = []
    overhead = float(report["write_overhead"] or 0.0)
    if overhead > MAX_WRITE_OVERHEAD:
        errors.append(
            f"replication write overhead {overhead:.2f}x exceeds the "
            f"{MAX_WRITE_OVERHEAD:.2f}x acceptance ceiling"
        )
    recovery = report["recovery"]
    if recovery["recovery_seconds"] > recovery["recovery_bound_seconds"]:
        errors.append(
            f"time-to-recovery {recovery['recovery_seconds']:.3f}s exceeds "
            f"the modeled bound {recovery['recovery_bound_seconds']:.3f}s"
        )
    if recovery["missing_acked"] or recovery["mismatched"]:
        errors.append(
            f"acked-write loss in the recovery storm: "
            f"{recovery['missing_acked']} missing, "
            f"{recovery['mismatched']} mismatched"
        )
    if baseline is not None:
        base = baseline["recovery"]["recovery_seconds"]
        # Modeled clock: deterministic, so any drift is a real change.
        if abs(recovery["recovery_seconds"] - base) > 1e-6:
            errors.append(
                f"modeled recovery window drifted: "
                f"{recovery['recovery_seconds']:.6f}s vs committed "
                f"{base:.6f}s"
            )
        base_overhead = float(baseline.get("write_overhead") or 0.0)
        if base_overhead and overhead > base_overhead * (1.0 + tolerance):
            errors.append(
                f"write overhead regressed: {overhead:.2f}x vs baseline "
                f"{base_overhead:.2f}x (+{tolerance:.0%} allowed)"
            )
    return errors


# -- pytest-benchmark wrappers ------------------------------------------------

SMOKE_WORKLOAD = dict(DEFAULT_WORKLOAD, tasks=48)


@pytest.mark.parametrize("replicated", (False, True))
def test_write_burst(benchmark, seed, replicated) -> None:
    """Wall cost of one write burst, with and without shipping."""
    run = benchmark.pedantic(
        run_write_burst,
        args=(seed, SMOKE_WORKLOAD, replicated),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info.update(
        {k: run[k] for k in ("wall_us_per_task", "shipped_records")}
    )
    if replicated:
        assert run["shipped_records"] > 0
    else:
        assert run["shipped_records"] == 0


def test_recovery_window(benchmark) -> None:
    """The acceptance criterion: bounded modeled time-to-recovery."""
    recovery = benchmark.pedantic(
        run_recovery, args=(SMOKE_WORKLOAD,), rounds=1, iterations=1
    )
    benchmark.extra_info["recovery_seconds"] = recovery["recovery_seconds"]
    assert recovery["recovery_seconds"] \
        <= recovery["recovery_bound_seconds"]
    assert recovery["missing_acked"] == 0
    assert recovery["mismatched"] == 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output", type=Path, default=None,
        help="write the JSON report here (e.g. BENCH_failover.json)",
    )
    parser.add_argument(
        "--check", type=Path, default=None,
        help="baseline JSON to gate against (fails on >tolerance regression)",
    )
    parser.add_argument("--tolerance", type=float, default=0.3)
    parser.add_argument(
        "--tasks", type=int, default=DEFAULT_WORKLOAD["tasks"]
    )
    parser.add_argument(
        "--replicas", type=int, default=DEFAULT_WORKLOAD["replicas"]
    )
    args = parser.parse_args(argv)

    workload = dict(
        DEFAULT_WORKLOAD, tasks=args.tasks, replicas=args.replicas
    )
    report = generate_report(workload)
    text = json.dumps(report, indent=2)
    print(text)
    if args.output is not None:
        args.output.write_text(text + "\n")
        print(f"wrote {args.output}", file=sys.stderr)

    baseline = None
    if args.check is not None:
        baseline = json.loads(args.check.read_text())
    errors = check_report(report, baseline, args.tolerance)
    for error in errors:
        print(f"REGRESSION: {error}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
