"""Lifecycle tiering bench: modeled TCO bill vs write-time placement.

Replays the seeded zipfian trace of :mod:`repro.lifecycle.workload`
twice — once with write-time HCDP placement alone (the baseline) and
once with the background lifecycle daemon stepping on the simulated
clock — and compares the **empirical bill** (storage + access +
migration dollars) and the modeled hot-read wait. Both runs share one
profiling seed and one seeded trace, so the only difference is the
daemon's migrations.

The acceptance gate (ISSUE 8) is two-sided: the lifecycle run's total
bill must come in *strictly below* the baseline's, and its mean hot-read
wait must be *no worse*. Everything is modeled seconds and modeled
dollars, so the committed baseline in ``BENCH_lifecycle.json`` gates CI
on any runner.

Usage::

    python benchmarks/bench_lifecycle.py --output BENCH_lifecycle.json
    python benchmarks/bench_lifecycle.py --check BENCH_lifecycle.json \
        --tolerance 0.3   # fail if the cost saving regressed > 30%
    python benchmarks/bench_lifecycle.py --check BENCH_lifecycle.json \
        --exact           # CI: every modeled number equal to the baseline's
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.ccp import SeedData
from repro.core import HCompressProfiler
from repro.lifecycle.workload import ZipfTraceConfig, ZipfTraceResult, run_zipf_trace
from repro.units import KiB

__all__ = [
    "DEFAULT_WORKLOAD",
    "check_report",
    "generate_report",
    "run_trace_pair",
]

#: The committed trace: 48 blobs, zipf(1.4) reads — hot ranks absorb
#: most reads while write-time placement (seeded-shuffled write order)
#: has parked them wherever capacity allowed.
DEFAULT_WORKLOAD = {
    "tasks": 48,
    "task_kib": 4,
    "reads": 384,
    "zipf_s": 1.4,
    "rng_seed": 0,
}


def _bench_seed() -> SeedData:
    profiler = HCompressProfiler(rng=np.random.default_rng(0))
    return profiler.quick_seed(sizes=(4 * KiB, 16 * KiB))


def _run_record(result: ZipfTraceResult) -> dict:
    record = {
        "lifecycle": result.lifecycle_enabled,
        "total_dollars": round(result.total_dollars, 6),
        "storage_dollars": round(result.storage_dollars, 6),
        "access_dollars": round(result.access_dollars, 6),
        "migration_dollars": round(result.migration_dollars, 6),
        "mean_hot_read_seconds": round(result.mean_hot_read_seconds, 9),
        "mean_read_seconds": round(result.mean_read_seconds, 9),
        "tier_residency": result.tier_residency,
    }
    if result.status is not None:
        record["promotions"] = result.promotions
        record["demotions"] = result.demotions
        record["bytes_moved"] = result.status["bytes_moved"]
    return record


def run_trace_pair(seed: SeedData, workload: dict) -> dict:
    """Baseline and lifecycle runs over the same seeded trace."""
    config = ZipfTraceConfig(**workload)
    wall = time.perf_counter()
    baseline = run_zipf_trace(config, lifecycle=False, seed=seed)
    lifecycle = run_zipf_trace(config, lifecycle=True, seed=seed)
    wall = time.perf_counter() - wall
    return {
        "wall_seconds": round(wall, 6),
        "baseline": _run_record(baseline),
        "lifecycle": _run_record(lifecycle),
    }


def generate_report(workload: dict | None = None) -> dict:
    """Run the trace pair and build the cost/latency report."""
    workload = dict(DEFAULT_WORKLOAD if workload is None else workload)
    runs = run_trace_pair(_bench_seed(), workload)
    base = runs["baseline"]
    life = runs["lifecycle"]
    saving = (
        1.0 - life["total_dollars"] / base["total_dollars"]
        if base["total_dollars"]
        else 0.0
    )
    return {
        "benchmark": "lifecycle_zipf_trace",
        "workload": workload,
        "runs": runs,
        "cost_saving": round(saving, 4),
        "hot_read_speedup": (
            round(
                base["mean_hot_read_seconds"] / life["mean_hot_read_seconds"],
                3,
            )
            if life["mean_hot_read_seconds"]
            else None
        ),
    }


def check_report(
    report: dict, baseline: dict | None, tolerance: float, exact: bool = False
) -> list[str]:
    """Return regression errors (empty list = pass).

    ``exact`` additionally holds every modeled number of both runs (the
    bill, its parts, the read waits, what moved where) equal to the
    baseline's: they are machine-independent, so a change that claims not
    to alter behaviour must reproduce them to the last printed digit.
    """
    errors = []
    base = report["runs"]["baseline"]
    life = report["runs"]["lifecycle"]
    if life["total_dollars"] >= base["total_dollars"]:
        errors.append(
            f"lifecycle bill ${life['total_dollars']:.4f} not below the "
            f"baseline's ${base['total_dollars']:.4f}"
        )
    if life["mean_hot_read_seconds"] > base["mean_hot_read_seconds"] * (
        1.0 + 1e-9
    ):
        errors.append(
            f"hot-read wait regressed: {life['mean_hot_read_seconds']:.3e}s "
            f"vs baseline {base['mean_hot_read_seconds']:.3e}s"
        )
    if baseline is not None:
        committed = float(baseline["cost_saving"])
        floor = committed * (1.0 - tolerance)
        if float(report["cost_saving"]) < floor:
            errors.append(
                f"cost saving regressed: {report['cost_saving']:.1%} vs "
                f"committed {committed:.1%} (floor {floor:.1%} at "
                f"tolerance {tolerance:.0%})"
            )
        for name in ("baseline", "lifecycle") if exact else ():
            run, committed_run = report["runs"][name], baseline["runs"][name]
            if run != committed_run:
                moved = sorted(k for k in run if run[k] != committed_run.get(k))
                errors.append(f"{name} run moved off the baseline: {moved}")
    return errors


# -- pytest-benchmark wrappers ------------------------------------------------


def test_lifecycle_trace_pair(benchmark, seed) -> None:
    """Wall clock of the committed trace, both runs."""
    runs = benchmark.pedantic(
        run_trace_pair,
        args=(seed, dict(DEFAULT_WORKLOAD)),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info.update(
        {
            "baseline_dollars": runs["baseline"]["total_dollars"],
            "lifecycle_dollars": runs["lifecycle"]["total_dollars"],
        }
    )
    assert runs["lifecycle"]["total_dollars"] < runs["baseline"]["total_dollars"]


def test_lifecycle_acceptance_gate(benchmark) -> None:
    """The ISSUE 8 gate: cost strictly lower, hot reads no worse."""
    report = benchmark.pedantic(
        generate_report, rounds=1, iterations=1
    )
    benchmark.extra_info["cost_saving"] = report["cost_saving"]
    assert check_report(report, None, 0.3) == []


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output", type=Path, default=None,
        help="write the JSON report here (e.g. BENCH_lifecycle.json)",
    )
    parser.add_argument(
        "--check", type=Path, default=None,
        help="baseline JSON to gate against (fails on >tolerance regression)",
    )
    parser.add_argument("--tolerance", type=float, default=0.3)
    parser.add_argument(
        "--exact", action="store_true",
        help="with --check: every modeled number must equal the baseline's",
    )
    parser.add_argument(
        "--tasks", type=int, default=DEFAULT_WORKLOAD["tasks"]
    )
    parser.add_argument(
        "--reads", type=int, default=DEFAULT_WORKLOAD["reads"]
    )
    args = parser.parse_args(argv)

    workload = dict(DEFAULT_WORKLOAD, tasks=args.tasks, reads=args.reads)
    report = generate_report(workload)
    text = json.dumps(report, indent=2)
    print(text)
    if args.output is not None:
        args.output.write_text(text + "\n")
        print(f"wrote {args.output}", file=sys.stderr)

    baseline = None
    if args.check is not None:
        baseline = json.loads(args.check.read_text())
    errors = check_report(report, baseline, args.tolerance, args.exact)
    for error in errors:
        print(f"FAIL: {error}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
