"""Command-line interface: ``hcompress <subcommand>``.

Subcommands:

* ``profile``  — run the HCompress Profiler and write a JSON seed
  (the paper's HP-before-application step).
* ``codecs``   — measure the codec pool on a synthetic buffer.
* ``report``   — regenerate the paper's evaluation tables
  (``--fast`` for the smoke profile).
* ``demo``     — one compress/decompress round trip with the schema shown.
* ``chaos``    — run a workload under fault injection (tier outage,
  transient errors, corruption) and print the recovery report; with
  ``--crash-at`` run the crash-consistency harness instead (``all``
  sweeps every crash site); with ``--overload`` run the QoS overload
  storm (load above the drain rate plus a flapping tier); with
  ``--kill-shard`` run the shard-failover harness: kill one shard of a
  sharded deployment mid-storm and verify failure-domain isolation;
  with ``--scrub`` run the crash harness with latent at-rest corruption
  planted between writes and the background scrubber healing it
  (pairs with ``--crash-at scrub.*`` to die mid-repair).
* ``fsck``     — offline integrity check of a recovery directory or
  sharded deployment root: snapshot/journal structure, LSN continuity,
  catalog reconstruction, shard manifest and replica directories
  (``--repair`` fixes the safe subset: torn journal tails and stale
  temp files).
* ``checkpoint`` — run a journaled workload and snapshot the engine into
  a recovery directory.
* ``recover``  — crash a journaled workload at a chosen site, restore
  from the recovery directory, and verify the durability invariants.
* ``lifecycle`` — replay a seeded zipfian access trace with the
  background lifecycle daemon stepping on the simulated clock, against
  the write-time-placement baseline: per-run modeled TCO bill (storage +
  access + migration dollars), hot-read latency, tier residency, and the
  daemon's status counters (``--json`` for the raw dicts).
* ``stats``    — drive a repeated-burst workload and print the engine's
  hot-path counters (plan cache, DP memo, sample-ratio cache, executor);
  ``--shards N`` drives a sharded deployment and sums the counters.
* ``metrics``  — run an instrumented VPIC checkpoint workload and export
  the full metrics registry (human table or ``--json``); ``--shards N``
  runs a multi-tenant burst over N shards and exports one merged
  registry with a ``shard`` label per series.
* ``trace``    — same workload; export the span trace (per-span rollup,
  or Chrome ``chrome://tracing`` JSON via ``--json`` / ``--output``);
  ``--shards N`` exports each shard's spans as its own trace process.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .units import GiB, KiB, MiB, fmt_bytes

__all__ = ["main"]


def _cmd_profile(args: argparse.Namespace) -> int:
    from .ccp import save_seed
    from .core import HCompressProfiler
    from .tiers import ares_hierarchy

    profiler = HCompressProfiler(
        mode=args.mode, rng=np.random.default_rng(args.rng_seed)
    )
    hierarchy = ares_hierarchy() if args.signature else None
    sizes = tuple(int(s) * KiB for s in args.sizes)
    seed = profiler.generate_seed(hierarchy=hierarchy, sizes=sizes)
    save_seed(seed, args.output)
    print(
        f"wrote {len(seed.observations)} observations to {args.output}",
        file=sys.stderr,
    )
    return 0


def _cmd_codecs(args: argparse.Namespace) -> int:
    from .codecs import CompressionLibraryPool
    from .datagen import synthetic_buffer

    pool = CompressionLibraryPool()
    data = synthetic_buffer(
        args.dtype, args.distribution, args.kib * KiB,
        np.random.default_rng(args.rng_seed),
    )
    print(
        f"{args.kib} KiB of {args.dtype}/{args.distribution} data "
        f"(measured wall-clock; the simulator uses nominal profiles)\n"
    )
    print(f"{'codec':10s} {'ratio':>7s} {'comp MB/s':>10s} {'decomp MB/s':>12s}")
    for name in pool.names[1:]:
        cost = pool.measure(name, data)
        print(
            f"{name:10s} {cost.ratio:7.2f} {cost.compress_mbps:10.1f} "
            f"{cost.decompress_mbps:12.1f}"
        )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .experiments.report import main as report_main

    argv = []
    if args.fast:
        argv.append("--fast")
    if args.output:
        argv += ["--output", str(args.output)]
    return report_main(argv)


def _cmd_demo(args: argparse.Namespace) -> int:
    from .core import HCompress
    from .datagen import synthetic_buffer
    from .tiers import ares_hierarchy

    hierarchy = ares_hierarchy(
        ram_capacity=2 * MiB, nvme_capacity=4 * MiB, bb_capacity=1 * GiB,
        nodes=2,
    )
    print("bootstrapping engine (inline profiling)...", file=sys.stderr)
    engine = HCompress(hierarchy)
    data = synthetic_buffer(
        args.dtype, args.distribution, args.kib * KiB,
        np.random.default_rng(args.rng_seed),
    )
    result = engine.compress(data, task_id="demo")
    print(f"input {fmt_bytes(len(data))}; schema:")
    for piece in result.pieces:
        print(
            f"  {piece.tier:<12} {piece.plan.codec:<8} "
            f"stored={fmt_bytes(piece.stored_size)} "
            f"ratio={piece.actual_ratio:.2f}"
        )
    assert engine.decompress("demo").data == data
    print("round-trip OK")
    return 0


def _chaos_scenario(args: argparse.Namespace):
    """The scenario the ``chaos`` / ``recover`` flags select (the crash
    site of a ``--crash-at all`` sweep is filled in per point)."""
    from .errors import HCompressError
    from .faults import FaultPlan, scenario

    site = None if args.crash_at in (None, "all") else args.crash_at
    faults = dict(crash_site=site, crash_hit=args.crash_hit)
    if args.failover or args.kill_shard is not None:
        target = args.kill_shard if args.kill_shard is not None else "auto"
        if target == "auto":
            faults["kill_owner_of"] = "tenant-0"
        elif target != "none":
            if not target.isdigit():
                raise HCompressError(
                    f"--kill-shard must be a shard id, 'auto', or 'none', "
                    f"not {target!r}"
                )
            faults["kill_shard"] = int(target)
        if args.failover:
            faults.update(
                replicas=args.replicas,
                promotion_seconds=args.promotion_seconds,
            )
        return scenario(
            "failover" if args.failover else "shard_kill",
            shards=args.shards,
            tasks=args.shard_tasks,
            tenants=args.tenants,
            # Keep the default 24/64 kill point and 12/64 checkpoint point
            # proportional when the storm is resized.
            kill_after=max(1, args.shard_tasks * 3 // 8),
            checkpoint_after=max(1, args.shard_tasks * 3 // 16),
            rng_seed=args.rng_seed,
            **faults,
        )
    if args.overload:
        return scenario(
            "overload", tasks=args.overload_tasks,
            load_factor=args.load_factor, rng_seed=args.rng_seed, **faults,
        )
    # Arming a scrub.* site implies the scrub scenario — the site can only
    # fire while the scrubber is repairing planted rot.
    if args.scrub or (site is not None and site.startswith("scrub.")):
        config = scenario(
            "scrub", corrupt_every=args.corrupt_every,
            rng_seed=args.rng_seed, **faults,
        )
    elif args.crash_at is not None:
        config = scenario("crash", rng_seed=args.rng_seed, **faults)
    else:
        return scenario(
            "device",
            tasks=args.ranks * args.steps,
            ranks=args.ranks,
            task_kib=args.step_kib,
            rng_seed=args.rng_seed,
            plan=FaultPlan.from_json(args.plan) if args.plan else None,
        )
    return replace(config, plan=replace(config.plan, seed=args.rng_seed))


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Every ``chaos`` mode and ``recover``: one scenario, or a sweep."""
    from .errors import HCompressError
    from collections import Counter

    from .faults import run_scenario, sweep_crash_sites
    from .faults.scenario import BACKENDS
    from .recovery import CRASH_SITES

    try:
        config = _chaos_scenario(args)
    except HCompressError as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.crash_at == "all":
        if config.qos or config.shards is not None:
            # A storm dies at every site it can reach, at --crash-hit.
            outcomes = sweep_crash_sites(
                hits=(args.crash_hit,), base=config, sites=tuple(
                    s for s in CRASH_SITES
                    if config.shards is None or s.startswith("replication.")
                ),
            )
        else:
            outcomes = sweep_crash_sites(hits=(1,) if args.quick else (1, 2))
        for outcome in outcomes:
            c = outcome.config
            status = "ok  " if outcome.holds else "FAIL"
            fired = "crashed" if outcome.crashed else "not reached"
            print(f"{status} {c.crash_site}@{c.crash_hit}: {fired}")
            if not outcome.holds:
                print(f"      {outcome.summary()}")
        violations = sum(not outcome.holds for outcome in outcomes)
        print(
            f"\n{len(outcomes)} crash points: "
            f"{sum(o.crashed for o in outcomes)} fired, "
            f"{violations} contract violations"
        )
        return 0 if violations == 0 else 1
    configs = [config]
    if config.name == "chaos":
        plan = config.fault_plan
        print(
            f"fault plan: {len(plan.events)} events over {plan.horizon:.1f}s "
            f"(seed {plan.seed}); workload: {args.ranks} ranks x "
            f"{args.steps} steps x {args.step_kib} KiB\n"
        )
        configs = [
            replace(config, backend=backend) for backend in BACKENDS
            if args.backend in (backend, "all")
        ]
    failed = 0
    for config in configs:
        outcome = run_scenario(config, root_dir=args.dir)
        print(outcome.summary())
        if args.verbose and config.shards is not None:
            per_shard = Counter((e.shard, e.status) for e in outcome.events)
            for (shard_id, status), count in sorted(per_shard.items()):
                print(f"      shard {shard_id}: {count} {status}")
        # A crash-free scrub run that planted nothing, or left a plant
        # unhealed, proved nothing about the scrubber.
        healed = not config.scrub or config.crash_site is not None or (
            0 < outcome.corruptions_planted <= outcome.scrub_repairs
        )
        failed += not (outcome.holds and healed)
    # Comparison mode: the baselines failing is the expected result.
    return int(failed > 0 and len(configs) == 1)


def _cmd_replication(args: argparse.Namespace) -> int:
    """The ``replication`` demo: ship WAL, kill a primary, auto-promote."""
    import tempfile

    from .core import HCompressConfig
    from .core.config import RecoveryConfig
    from .datagen import synthetic_buffer
    from .replication import ReplicationConfig
    from .shard import ShardConfig, ShardedHCompress
    from .sim import SimClock
    from .tiers import ares_specs

    shards = args.shards
    specs = ares_specs(
        64 * MiB * shards, 128 * MiB * shards, 4 * GiB * shards,
        nodes=2 * shards,
    )
    clock = SimClock()
    print(
        "bootstrapping replicated shards (one shared profiling pass)...",
        file=sys.stderr,
    )
    data = synthetic_buffer(
        "float64", "gamma", args.kib * KiB,
        np.random.default_rng(args.rng_seed),
    )
    tenants = max(4, 2 * shards)
    with tempfile.TemporaryDirectory(prefix="hcompress-repl-") as root:
        sharded = ShardedHCompress(
            specs,
            HCompressConfig(recovery=RecoveryConfig(fsync=False)),
            ShardConfig(
                shards=shards,
                directory=root,
                replication=ReplicationConfig(
                    enabled=True,
                    replicas=args.replicas,
                    promotion_seconds=args.promotion_seconds,
                ),
            ),
            clock=lambda: clock.now,
        )
        task_ids = []
        for i in range(args.tasks):
            clock.advance(0.05)
            result = sharded.compress(
                data, task_id=f"repl-{i}", tenant=f"tenant-{i % tenants}"
            )
            task_ids.append(result.task.task_id)
        target = args.kill_shard
        killed = None
        if target != "none":
            killed = (
                sharded.ring.route("tenant-0")
                if target == "auto"
                else int(target)
            )
            sharded.kill_shard(killed)
            # The next dispatch triggers the promotion; while the modeled
            # window runs, the shard sheds retryably — run the clock out,
            # then verify.
            from .errors import FailoverInProgressError

            try:
                sharded.decompress(task_ids[0])
            except FailoverInProgressError:
                pass
            clock.advance_to(
                sharded.supervisor.health[killed].promote_ready_at + 0.01
            )
            verified = sum(
                1 for tid in task_ids
                if sharded.decompress(tid).data == data
            )
        else:
            verified = len(task_ids)
        status = sharded.replication_status()
        manifest_version = sharded.manifest.version
        sharded.close()
    if args.json:
        report = {
            "shards": shards,
            "replicas": args.replicas,
            "killed_shard": killed,
            "verified": verified,
            "tasks": len(task_ids),
            "manifest_version": manifest_version,
            "replication": {str(k): v for k, v in status.items()},
        }
        print(json.dumps(report, indent=2))
        return 0 if verified == len(task_ids) else 1
    print(
        f"{'shard':>5s} {'primary_lsn':>11s} {'shipped':>8s} "
        f"{'failovers':>9s} {'catch_ups':>9s}  replicas (id: lsn/lag @ dir)"
    )
    for shard_id, entry in sorted(status.items()):
        replicas = " ".join(
            f"r{rid}: {r['applied_lsn']}/{r['lag']} @ {r['directory']}"
            for rid, r in sorted(entry["replicas"].items())
        )
        print(
            f"{shard_id:5d} {entry['primary_lsn']:11d} "
            f"{entry['shipped_records']:8d} {entry['failovers']:9d} "
            f"{entry['catch_ups']:9d}  {replicas}"
        )
    kill_note = (
        f"killed shard {killed}, auto-promoted its standby; "
        if killed is not None
        else ""
    )
    print(
        f"\n{kill_note}{verified}/{len(task_ids)} acked writes read back "
        f"byte-identical; manifest v{manifest_version}"
    )
    return 0 if verified == len(task_ids) else 1


def _cmd_fsck(args: argparse.Namespace) -> int:
    """The offline ``fsck`` driver (docs/INTEGRITY.md)."""
    from .scrub import fsck_store

    report = fsck_store(args.dir, repair=args.repair)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
        return report.exit_code
    print(
        f"fsck {report.store}: {report.tasks} tasks, {report.pieces} "
        f"pieces, {report.digests_checked} digests checked"
    )
    for finding in report.findings:
        fixed = " [repaired]" if finding.repaired else ""
        print(f"  {finding.severity:7s} {finding.check}: "
              f"{finding.detail}{fixed}")
    verdict = (
        "clean" if report.clean
        else f"{report.count('fatal')} fatal, {report.count('error')} "
             f"errors, {report.count('warning')} warnings"
    )
    print(f"verdict: {verdict} (exit {report.exit_code})")
    return report.exit_code


def _cmd_checkpoint(args: argparse.Namespace) -> int:
    from .core import HCompress, HCompressConfig, RecoveryConfig
    from .datagen import synthetic_buffer
    from .tiers import ares_hierarchy

    hierarchy = ares_hierarchy(
        ram_capacity=4 * MiB, nvme_capacity=64 * MiB, bb_capacity=1 * GiB,
        nodes=1,
    )
    config = HCompressConfig(
        recovery=RecoveryConfig(
            enabled=True, directory=str(args.dir), fsync=not args.no_fsync
        )
    )
    print("bootstrapping engine (inline profiling)...", file=sys.stderr)
    engine = HCompress(hierarchy, config)
    rng = np.random.default_rng(args.rng_seed)
    for index in range(args.tasks):
        data = synthetic_buffer(
            args.dtype, args.distribution, args.kib * KiB, rng
        )
        engine.compress(data, task_id=f"ckpt-{index}")
    path = engine.checkpoint()
    journal = engine.journal
    report = {
        "snapshot": str(path),
        "snapshot_bytes": path.stat().st_size,
        "tasks": args.tasks,
        "journal_records": journal.records_appended,
        "journal_syncs": journal.syncs,
        "durable_lsn": journal.durable_lsn,
    }
    engine.close()
    if args.json:
        print(json.dumps(report, indent=2))
        return 0
    print(
        f"checkpointed {args.tasks} tasks to {path} "
        f"({fmt_bytes(report['snapshot_bytes'])})"
    )
    print(
        f"journal: {report['journal_records']} records in "
        f"{report['journal_syncs']} syncs, durable LSN "
        f"{report['durable_lsn']} (compacted into the snapshot)"
    )
    return 0


def _stats_report(engines, config, args, wall: float, sharded=None) -> dict:
    """Build the ``stats`` report over one engine or every live shard.

    Counters are summed, rates recomputed from the sums — an unsharded run
    is a list of one — and a sharded run appends a ``shards`` section with
    the deployment shape and how the catalog distributed; the rest of the
    document is one schema, so downstream tooling reads both. Well-formed
    at any task count — including zero, where every counter is simply 0
    and the throughput is reported as 0 rather than dividing by a
    degenerate wall time.
    """

    def total(get) -> float:
        return sum(get(engine) for engine in engines)

    def rate(hits, misses) -> float:
        return hits / (hits + misses) if hits + misses else 0.0

    pc_hits = total(lambda e: e.engine.stats.plan_cache_hits)
    pc_misses = total(lambda e: e.engine.stats.plan_cache_misses)
    memo_hits = total(lambda e: e.engine.stats.memo_hits)
    memo_misses = total(lambda e: e.engine.stats.memo_misses)
    accuracies = [
        accuracy
        for engine in engines
        if (accuracy := engine.accuracy()) is not None
    ]
    report = {
        "burst": {
            "tasks": args.tasks,
            "batch_size": args.batch_size,
            "modeled_bytes_per_task": args.modeled_kib * KiB,
            "sample_bytes": args.kib * KiB,
            "wall_seconds": wall,
            "tasks_per_second": (args.tasks / wall) if wall > 0 else 0.0,
        },
        "plan_cache": {
            "enabled": config.plan_cache.enabled,
            "hits": pc_hits,
            "misses": pc_misses,
            "invalidations": total(
                lambda e: e.engine.stats.plan_cache_invalidations
            ),
            "hit_rate": rate(pc_hits, pc_misses),
        },
        "dp_memo": {
            "hits": memo_hits,
            "misses": memo_misses,
            "hit_rate": rate(memo_hits, memo_misses),
        },
        "plans": {
            "tasks_planned": total(lambda e: e.engine.stats.tasks_planned),
            "pieces_emitted": total(lambda e: e.engine.stats.pieces_emitted),
            "degraded": total(lambda e: e.engine.stats.degraded_plans),
            "replans": total(lambda e: e.replans),
        },
        "sample_cache": {
            "hits": total(lambda e: e.manager.sample_cache_hits),
            "misses": total(lambda e: e.manager.sample_cache_misses),
        },
        "executor": {
            "enabled": config.executor.enabled,
            "parallel_pieces": total(lambda e: e.manager.parallel_pieces),
            "spills": total(lambda e: e.manager.spill_events),
        },
        "cost_model": {
            "version": engines[0].predictor.model_version,
            "accuracy": (
                sum(accuracies) / len(accuracies) if accuracies else None
            ),
            "monitor_epoch": max(e.monitor.state_epoch for e in engines),
        },
    }
    if sharded is not None:
        report["shards"] = {
            "count": sharded.shards,
            "tasks_by_shard": sharded.task_count_by_shard(),
        }
    return report


def _print_stats_report(report: dict) -> None:
    burst = report["burst"]
    plan_cache = report["plan_cache"]
    memo = report["dp_memo"]
    plans = report["plans"]
    batch = (
        f" batch={burst['batch_size']}" if burst.get("batch_size", 1) > 1 else ""
    )
    print(
        f"burst: {burst['tasks']} x "
        f"{fmt_bytes(burst['modeled_bytes_per_task'])} modeled "
        f"tasks ({fmt_bytes(burst['sample_bytes'])} sample){batch} in "
        f"{burst['wall_seconds']:.3f}s "
        f"({burst['tasks_per_second']:,.0f} tasks/s)"
    )
    print(
        f"plan cache  : {'on' if plan_cache['enabled'] else 'off'}  "
        f"hits={plan_cache['hits']} misses={plan_cache['misses']} "
        f"invalidations={plan_cache['invalidations']} "
        f"hit-rate={plan_cache['hit_rate']:.1%}"
    )
    print(
        f"DP memo     : hits={memo['hits']} misses={memo['misses']} "
        f"hit-rate={memo['hit_rate']:.1%}"
    )
    print(
        f"plans       : tasks={plans['tasks_planned']} "
        f"pieces={plans['pieces_emitted']} degraded={plans['degraded']} "
        f"replans={plans['replans']}"
    )
    print(
        f"sample cache: hits={report['sample_cache']['hits']} "
        f"misses={report['sample_cache']['misses']}"
    )
    print(
        f"executor    : {'on' if report['executor']['enabled'] else 'off'}  "
        f"parallel pieces={report['executor']['parallel_pieces']} "
        f"spills={report['executor']['spills']}"
    )
    accuracy = report["cost_model"]["accuracy"]
    print(
        f"cost model  : version={report['cost_model']['version']} "
        f"accuracy={'n/a' if accuracy is None else f'{accuracy:.1%}'} "
        f"monitor epoch={report['cost_model']['monitor_epoch']}"
    )


def _cmd_lifecycle(args: argparse.Namespace) -> int:
    from .core import HCompressProfiler
    from .lifecycle import LifecycleConfig
    from .lifecycle.workload import ZipfTraceConfig, run_zipf_trace

    config = ZipfTraceConfig(
        tasks=args.tasks,
        task_kib=args.kib,
        reads=args.reads,
        zipf_s=args.zipf_s,
        rng_seed=args.rng_seed,
        lifecycle=LifecycleConfig(
            enabled=True,
            scan_interval=args.scan_interval,
            storage_price=args.storage_price,
            access_price=args.access_price,
        ),
    )
    print("bootstrapping engines (quick profiling seed)...", file=sys.stderr)
    profiler = HCompressProfiler(rng=np.random.default_rng(args.rng_seed))
    seed = profiler.quick_seed(
        sizes=(args.kib * KiB, 4 * args.kib * KiB)
    )
    runs = [run_zipf_trace(config, lifecycle=False, seed=seed)]
    if not args.baseline_only:
        runs.append(run_zipf_trace(config, lifecycle=True, seed=seed))

    if args.json:
        print(json.dumps([
            {
                "lifecycle": run.lifecycle_enabled,
                "total_dollars": run.total_dollars,
                "storage_dollars": run.storage_dollars,
                "access_dollars": run.access_dollars,
                "migration_dollars": run.migration_dollars,
                "mean_hot_read_seconds": run.mean_hot_read_seconds,
                "mean_read_seconds": run.mean_read_seconds,
                "tier_residency": run.tier_residency,
                "status": run.status,
            }
            for run in runs
        ], indent=2))
        return 0
    print(
        f"{config.tasks} blobs x {config.task_kib} KiB, {config.reads} "
        f"zipf(s={config.zipf_s}) reads, daemon scan every "
        f"{config.lifecycle.scan_interval}s\n"
    )
    print(
        f"{'run':12s} {'total $':>9s} {'storage $':>10s} {'access $':>9s} "
        f"{'migr $':>8s} {'hot read':>9s} {'all reads':>10s}"
    )
    for run in runs:
        name = "lifecycle" if run.lifecycle_enabled else "baseline"
        print(
            f"{name:12s} {run.total_dollars:9.4f} "
            f"{run.storage_dollars:10.4f} {run.access_dollars:9.4f} "
            f"{run.migration_dollars:8.4f} "
            f"{run.mean_hot_read_seconds * 1e3:7.3f}ms "
            f"{run.mean_read_seconds * 1e3:8.3f}ms"
        )
    for run in runs:
        name = "lifecycle" if run.lifecycle_enabled else "baseline"
        residency = ", ".join(
            f"{tier}={count}" for tier, count in run.tier_residency.items()
        )
        print(f"\n{name}: blobs by tier: {residency}")
        if run.status is not None:
            status = run.status
            print(
                f"  daemon: {status['scans']} scans, "
                f"{status['promotions']} promotions, "
                f"{status['demotions']} demotions, "
                f"{status['bytes_moved']} bytes moved "
                f"(codecs up={status['promote_codec']} "
                f"down={status['demote_codec']})"
            )
    if len(runs) == 2 and runs[0].total_dollars > 0:
        saving = 1.0 - runs[1].total_dollars / runs[0].total_dollars
        print(f"\nlifecycle tiering saves {saving:.1%} of the modeled bill")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    """The ``stats`` driver: one burst over one engine or ``--shards N``."""
    import time

    from .core import HCompress, HCompressConfig, PlanCacheConfig
    from .datagen import synthetic_buffer
    from .shard import ShardConfig, ShardedHCompress
    from .tiers import ares_hierarchy, ares_specs

    shards = max(args.shards, 1)  # anything below 2 is the unsharded engine
    config = HCompressConfig(
        plan_cache=PlanCacheConfig(enabled=not args.no_cache)
    )
    # A sharded deployment is scaled so each shard's slice matches the
    # budgets the single-engine burst runs against.
    budgets = (64 * MiB * shards, 128 * MiB * shards, 4 * GiB * shards)
    if shards > 1:
        print(
            "bootstrapping shards (one shared profiling pass)...",
            file=sys.stderr,
        )
        target = sharded = ShardedHCompress(
            ares_specs(*budgets, nodes=2 * shards), config,
            ShardConfig(shards=shards),
        )
    else:
        print("bootstrapping engine (inline profiling)...", file=sys.stderr)
        target = HCompress(ares_hierarchy(*budgets, nodes=2), config)
        sharded = None
    tenants = max(8, 2 * shards)

    def route(i: int) -> dict:
        """Sharded tasks are routed by tenant; one engine takes none."""
        return {} if sharded is None else {"tenant": f"tenant-{i % tenants}"}

    data = synthetic_buffer(
        args.dtype, args.distribution, args.kib * KiB,
        np.random.default_rng(args.rng_seed),
    )
    wall = time.perf_counter()
    if args.batch_size > 1:
        # Per-item tenants route each task exactly like the per-task loop.
        items = [
            {
                "data": data, "modeled_size": args.modeled_kib * KiB,
                "task_id": f"stats-{i}", **route(i),
            }
            for i in range(args.tasks)
        ]
        for start in range(0, args.tasks, args.batch_size):
            target.compress_batch(items[start:start + args.batch_size])
    else:
        for i in range(args.tasks):
            target.compress(
                data, modeled_size=args.modeled_kib * KiB,
                task_id=f"stats-{i}", **route(i),
            )
    wall = time.perf_counter() - wall
    engines = [target] if sharded is None else [
        engine
        for _, engine in sorted(sharded.engines.items())
        if engine is not None
    ]
    report = _stats_report(engines, config, args, wall, sharded)
    target.close()
    if args.json:
        print(json.dumps(report, indent=2))
        return 0
    _print_stats_report(report)
    if sharded is not None:
        by_shard = report["shards"]["tasks_by_shard"]
        print(
            f"shards      : {report['shards']['count']}  tasks by shard: "
            + " ".join(
                f"{sid}:{count}" for sid, count in sorted(by_shard.items())
            )
        )
    return 0


def _instrumented_vpic(args: argparse.Namespace):
    """Run a scaled fig7 VPIC checkpoint workload with telemetry enabled.

    Returns ``(engine, run_result)`` — the engine's ``obs`` holds the
    synced registry and the span trace of the whole run. The engine
    journals into a scratch recovery directory and the run ends with one
    checkpoint + restore cycle, so the ``recovery.*`` spans and
    ``hcompress_recovery_*`` metric families are populated in the export.
    """
    import tempfile
    from dataclasses import replace

    from .core import HCompress, HCompressConfig, ObservabilityConfig, RecoveryConfig
    from .experiments.fig7_vpic import (
        WRITE_PRIORITY,
        fig7_hierarchy,
        fig7_vpic_config,
    )
    from .hermes.flusher import TierFlusher
    from .workloads import HCompressBackend, run_vpic

    config = fig7_vpic_config(args.nprocs, args.scale)
    config = replace(
        config,
        timesteps=args.steps,
        # Deep shrinks push the modeled task below the default 64 KiB
        # representative sample; the sample may never exceed the task.
        sample_bytes=min(config.sample_bytes, config.bytes_per_rank_per_step),
    )
    hierarchy = fig7_hierarchy(args.scale)
    print(
        f"instrumented VPIC run: {args.nprocs} ranks x {args.steps} steps x "
        f"{fmt_bytes(config.bytes_per_rank_per_step)} (scale 1/{args.scale})",
        file=sys.stderr,
    )
    with tempfile.TemporaryDirectory(prefix="hcompress-obs-") as recovery_dir:
        engine = HCompress(
            hierarchy,
            HCompressConfig(
                priority=WRITE_PRIORITY,
                observability=ObservabilityConfig(enabled=True),
                recovery=RecoveryConfig(
                    enabled=True, directory=recovery_dir, fsync=False
                ),
            ),
        )
        flusher = TierFlusher(hierarchy, obs=engine.obs, qos=engine.qos)
        result = run_vpic(
            HCompressBackend(engine),
            config,
            hierarchy,
            rng=np.random.default_rng(args.rng_seed),
            flusher=flusher,
        )
        # One checkpoint/restore cycle under the same telemetry sinks.
        engine.checkpoint()
        restored = HCompress.restore(
            recovery_dir, hierarchy, seed=engine.seed, obs=engine.obs
        )
        restored.close()
        engine.sync_telemetry()
        engine.obs.mirror(flusher.stats, flusher.stats.METRICS)
    return engine, result


def _instrumented_shards(args: argparse.Namespace):
    """Run a multi-tenant burst over a sharded deployment with telemetry.

    Returns ``(observabilities, info)``: shard id -> synced
    :class:`~repro.obs.Observability` for every live shard, plus run
    facts for the human report. Every shard runs exactly the
    single-engine instrumentation, so the per-shard registries merge
    into one ``hcompress.metrics.v1`` document with a ``shard`` label
    (:func:`~repro.obs.merge_registries`) and the per-shard span traces
    export as separate Chrome trace processes.
    """
    import tempfile

    from .core import HCompressConfig, ObservabilityConfig, RecoveryConfig
    from .shard import ShardConfig, ShardedHCompress
    from .tiers import ares_specs
    from .workloads.vpic import vpic_sample

    shards = args.shards
    tenants = max(8, 2 * shards)
    tasks = args.steps * tenants
    task_bytes = 64 * KiB
    specs = ares_specs(
        2 * tasks * task_bytes, 2 * tasks * task_bytes,
        2 * tasks * task_bytes, nodes=max(8, shards),
    )
    print(
        f"instrumented sharded burst: {tasks} x {fmt_bytes(task_bytes)} "
        f"tasks over {shards} shards, {tenants} tenants",
        file=sys.stderr,
    )
    rng = np.random.default_rng(args.rng_seed)
    with tempfile.TemporaryDirectory(prefix="hcompress-shard-obs-") as root:
        sharded = ShardedHCompress(
            specs,
            HCompressConfig(
                observability=ObservabilityConfig(enabled=True),
                recovery=RecoveryConfig(fsync=False),
            ),
            ShardConfig(shards=shards, directory=root),
        )
        for index in range(tasks):
            payload = vpic_sample(task_bytes, rng)
            sharded.compress(
                payload,
                task_id=f"burst/t{index}",
                tenant=f"tenant-{index % tenants}",
            )
        # One deployment-wide checkpoint so the recovery telemetry the
        # single-engine export carries shows up per shard too.
        sharded.checkpoint()
        observabilities = sharded.observabilities()
        info = {
            "tasks": tasks,
            "tenants": tenants,
            "task_bytes": task_bytes,
            "by_shard": sharded.task_count_by_shard(),
        }
        sharded.close()
    return observabilities, info


def _cmd_metrics_sharded(args: argparse.Namespace) -> int:
    """The ``metrics --shards N`` driver: one merged registry export."""
    from .obs import merge_registries

    observabilities, info = _instrumented_shards(args)
    merged = merge_registries(
        [
            (str(shard_id), obs.registry)
            for shard_id, obs in sorted(observabilities.items())
        ]
    )
    if args.output is not None:
        args.output.write_text(merged.to_json() + "\n")
        print(f"wrote merged metrics to {args.output}", file=sys.stderr)
    if args.json:
        print(merged.to_json())
        return 0
    by_shard = info["by_shard"]
    print(
        f"run: {info['tasks']} tasks over {len(observabilities)} shards "
        f"({info['tenants']} tenants); tasks by shard: "
        + " ".join(
            f"{sid}:{count}" for sid, count in sorted(by_shard.items())
        )
        + "\n"
    )
    families = merged.collect()["metrics"]
    series = sum(len(entry["series"]) for entry in families.values())
    print(
        f"{len(families)} metric families, {series} series "
        f"(every series labeled shard=<id>; --json for the full export)"
    )
    return 0


def _cmd_trace_sharded(args: argparse.Namespace) -> int:
    """The ``trace --shards N`` driver: one trace, one process per shard.

    Shard ``k``'s wall/modeled Chrome trace processes keep the 1/2 pid
    split but shifted to ``2k+1``/``2k+2`` and renamed ``shardK/...``,
    so shard 0 of a one-shard run matches the unsharded export layout.
    """
    observabilities, info = _instrumented_shards(args)
    events = []
    spans = 0
    for shard_id, obs in sorted(observabilities.items()):
        trace = obs.export_chrome_trace()
        for event in trace["traceEvents"]:
            event = dict(event)
            event["pid"] = 2 * shard_id + event.get("pid", 1)
            if event.get("ph") == "M" and event.get("name") == "process_name":
                event["args"] = {
                    "name": f"shard{shard_id}/" + event["args"]["name"]
                }
            events.append(event)
        spans += len(obs.tracer.spans)
    merged = {"traceEvents": events, "displayTimeUnit": "ms"}
    if args.output is not None:
        args.output.write_text(json.dumps(merged) + "\n")
        print(
            f"wrote {len(events)} trace events to {args.output} "
            f"(load in chrome://tracing or ui.perfetto.dev)",
            file=sys.stderr,
        )
    if args.json:
        print(json.dumps(merged))
        return 0
    print(
        f"run: {info['tasks']} tasks over {len(observabilities)} shards; "
        f"{spans} spans recorded\n"
    )
    for shard_id, obs in sorted(observabilities.items()):
        print(f"-- shard {shard_id} --")
        print(obs.span_summary())
    if args.output is None:
        print("\n(use --output trace.json to export for chrome://tracing)")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    if args.shards > 1:
        return _cmd_metrics_sharded(args)
    engine, result = _instrumented_vpic(args)
    obs = engine.obs
    if args.output is not None:
        args.output.write_text(obs.registry.to_json() + "\n")
        print(f"wrote metrics to {args.output}", file=sys.stderr)
    if args.json:
        print(obs.registry.to_json())
        return 0
    print(
        f"run: {result.tasks_written} tasks, "
        f"{fmt_bytes(result.bytes_written)} written, "
        f"{fmt_bytes(result.stored_bytes)} stored "
        f"(ratio {result.achieved_ratio:.2f}), "
        f"{result.elapsed_seconds:.2f}s simulated\n"
    )
    print(obs.summary())
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.shards > 1:
        return _cmd_trace_sharded(args)
    engine, result = _instrumented_vpic(args)
    obs = engine.obs
    trace = obs.export_chrome_trace()
    if args.output is not None:
        args.output.write_text(json.dumps(trace) + "\n")
        print(
            f"wrote {len(trace['traceEvents'])} trace events to "
            f"{args.output} (load in chrome://tracing or ui.perfetto.dev)",
            file=sys.stderr,
        )
    if args.json:
        print(json.dumps(trace))
        return 0
    print(
        f"run: {result.tasks_written} tasks in {result.elapsed_seconds:.2f}s "
        f"simulated; {len(obs.tracer.spans)} spans recorded "
        f"({obs.tracer.dropped} dropped)\n"
    )
    print(obs.span_summary())
    if args.output is None:
        print(
            "\n(use --output trace.json to export for chrome://tracing)"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    from .recovery import CRASH_SITES

    parser = argparse.ArgumentParser(
        prog="hcompress", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="generate a JSON profiler seed")
    p.add_argument("--output", type=Path, default=Path("hcompress_seed.json"))
    p.add_argument("--mode", choices=("nominal", "measured"), default="nominal")
    p.add_argument("--sizes", nargs="+", default=["8", "32"],
                   help="corpus buffer sizes in KiB (need >= 2 distinct)")
    p.add_argument("--signature", action="store_true",
                   help="include the default Ares system signature")
    p.add_argument("--rng-seed", type=int, default=0)
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("codecs", help="measure the codec pool")
    p.add_argument("--dtype", default="float64")
    p.add_argument("--distribution", default="gamma")
    p.add_argument("--kib", type=int, default=256)
    p.add_argument("--rng-seed", type=int, default=0)
    p.set_defaults(func=_cmd_codecs)

    p = sub.add_parser("report", help="regenerate the paper's evaluation")
    p.add_argument("--fast", action="store_true")
    p.add_argument("--output", type=Path, default=None)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("demo", help="one compress/decompress round trip")
    p.add_argument("--dtype", default="float64")
    p.add_argument("--distribution", default="gamma")
    p.add_argument("--kib", type=int, default=1024)
    p.add_argument("--rng-seed", type=int, default=0)
    p.set_defaults(func=_cmd_demo)

    p = sub.add_parser(
        "chaos", help="run a workload under fault injection"
    )
    p.add_argument(
        "--plan", type=Path, default=None,
        help="JSON FaultPlan (default: mid-run NVMe outage + flaky tiers)",
    )
    p.add_argument(
        "--backend", choices=("HC", "BASE", "MTNC", "all"), default="all",
        help="engine(s) to drive through the faulty hierarchy",
    )
    p.add_argument("--ranks", type=int, default=2)
    p.add_argument("--steps", type=int, default=6)
    p.add_argument("--step-kib", type=int, default=16)
    p.add_argument("--rng-seed", type=int, default=7)
    p.add_argument(
        "--crash-at", choices=CRASH_SITES + ("all",), default=None,
        metavar="SITE",
        help="run the crash-consistency harness instead: kill the engine "
             "at this crash site and verify recovery ('all' sweeps every "
             "site; see docs/RECOVERY.md for the site list)",
    )
    p.add_argument("--crash-hit", type=int, default=1,
                   help="fire on the Nth visit to the crash site")
    p.add_argument("--quick", action="store_true",
                   help="with --crash-at all: sweep first hits only")
    p.add_argument(
        "--overload", action="store_true",
        help="run the QoS overload storm instead: writes offered above "
             "the admission drain rate while a tier flaps, checking the "
             "shed/deadline/breaker contract (docs/RESILIENCE.md); "
             "combine with --crash-at to also die mid-storm and verify "
             "the restored engine",
    )
    p.add_argument("--overload-tasks", type=int, default=48,
                   help="with --overload: writes offered during the storm")
    p.add_argument("--load-factor", type=float, default=2.0,
                   help="with --overload: offered load as a multiple of "
                        "the admission drain rate")
    p.add_argument(
        "--kill-shard", default=None, metavar="SHARD",
        help="run the shard-failover harness instead: kill this shard of "
             "a sharded deployment mid-storm ('auto' kills the shard "
             "owning live traffic, 'none' runs the undisturbed baseline) "
             "and verify failure-domain isolation (docs/SHARDING.md)",
    )
    p.add_argument("--shards", type=int, default=4,
                   help="with --kill-shard: shard count of the deployment")
    p.add_argument("--tenants", type=int, default=8,
                   help="with --kill-shard: distinct tenants in the storm")
    p.add_argument("--shard-tasks", type=int, default=64,
                   help="with --kill-shard: writes offered during the storm")
    p.add_argument(
        "--failover", action="store_true",
        help="run the replicated failover harness instead: every shard "
             "ships its WAL to standbys, the killed primary's standby is "
             "promoted automatically (--kill-shard picks the victim, "
             "default 'auto'), and the zero-acked-loss / bounded-window "
             "contract is verified (docs/SHARDING.md); combine with "
             "--crash-at replication.* (or 'all') to also die mid-"
             "promotion and verify the retried failover converges",
    )
    p.add_argument("--replicas", type=int, default=1,
                   help="with --failover: standby replicas per shard")
    p.add_argument("--promotion-seconds", type=float, default=0.25,
                   help="with --failover: modeled promotion window during "
                        "which the shard sheds retryably")
    p.add_argument(
        "--scrub", action="store_true",
        help="run the scrub scenario instead: plant seeded latent "
             "corruption between writes and fail unless the background "
             "scrubber detects and heals every plant (docs/INTEGRITY.md); "
             "crash-free unless --crash-at is given, and implied by arming "
             "a scrub.* crash site",
    )
    p.add_argument("--corrupt-every", type=int, default=2,
                   help="with --scrub: plant one at-rest byte flip after "
                        "every Nth write")
    p.add_argument("-v", "--verbose", action="store_true")
    p.set_defaults(func=_cmd_chaos, dir=None)

    p = sub.add_parser(
        "fsck",
        help="offline integrity check of a recovery directory or "
             "deployment root",
    )
    p.add_argument("dir", type=Path,
                   help="recovery directory (snapshot + journal) or a "
                        "sharded deployment root (shard-map.json)")
    p.add_argument("--repair", action="store_true",
                   help="fix the safe subset: truncate torn journal "
                        "tails, remove stale temp files")
    p.add_argument("--json", action="store_true",
                   help="emit the report as JSON instead of text")
    p.set_defaults(func=_cmd_fsck)

    p = sub.add_parser(
        "checkpoint",
        help="run a journaled workload and snapshot the engine",
    )
    p.add_argument("--dir", type=Path, required=True,
                   help="recovery directory (snapshot + journal)")
    p.add_argument("--tasks", type=int, default=16)
    p.add_argument("--kib", type=int, default=64)
    p.add_argument("--dtype", default="float64")
    p.add_argument("--distribution", default="gamma")
    p.add_argument("--no-fsync", action="store_true",
                   help="skip os.fsync on journal/snapshot writes")
    p.add_argument("--rng-seed", type=int, default=0)
    p.add_argument("--json", action="store_true",
                   help="emit the report as JSON instead of text")
    p.set_defaults(func=_cmd_checkpoint)

    p = sub.add_parser(
        "recover",
        help="crash a journaled workload and verify restore invariants",
    )
    p.add_argument(
        "--crash-at", choices=CRASH_SITES + ("all",),
        default="manager.write.piece_placed", metavar="SITE",
        help="crash site to arm ('all' sweeps every site)",
    )
    p.add_argument("--crash-hit", type=int, default=1,
                   help="fire on the Nth visit to the crash site")
    p.add_argument("--dir", type=Path, default=None,
                   help="recovery directory to use (default: temp dir)")
    p.add_argument("--quick", action="store_true",
                   help="with --crash-at all: sweep first hits only")
    p.add_argument("--rng-seed", type=int, default=7)
    p.set_defaults(
        func=_cmd_chaos, failover=False, kill_shard=None, overload=False,
        scrub=False, corrupt_every=2, verbose=False,
    )

    p = sub.add_parser(
        "lifecycle",
        help="zipfian trace: lifecycle tiering vs write-time placement",
    )
    p.add_argument("--tasks", type=int, default=48, help="blob population")
    p.add_argument("--kib", type=int, default=4, help="blob size in KiB")
    p.add_argument("--reads", type=int, default=384, help="trace length")
    p.add_argument("--zipf-s", type=float, default=1.4,
                   help="zipf skew exponent of the read trace")
    p.add_argument("--scan-interval", type=float, default=2.0,
                   help="simulated seconds between daemon scans")
    p.add_argument("--storage-price", type=float, default=1.0,
                   help="TCO $/GiB-s on the slowest tier")
    p.add_argument("--access-price", type=float, default=1.0,
                   help="TCO $ per modeled second of read wait")
    p.add_argument("--baseline-only", action="store_true",
                   help="run only the write-time-placement baseline")
    p.add_argument("--rng-seed", type=int, default=0)
    p.add_argument("--json", action="store_true",
                   help="emit both runs' bills and status as JSON")
    p.set_defaults(func=_cmd_lifecycle)

    p = sub.add_parser(
        "replication",
        help="replicated demo: WAL shipping, kill a primary, auto-failover",
    )
    p.add_argument("--shards", type=int, default=2)
    p.add_argument("--replicas", type=int, default=1,
                   help="standby replicas per shard")
    p.add_argument("--tasks", type=int, default=12)
    p.add_argument("--kib", type=int, default=64)
    p.add_argument("--promotion-seconds", type=float, default=0.25,
                   help="modeled promotion window after the kill")
    p.add_argument(
        "--kill-shard", default="auto", metavar="SHARD",
        help="primary to kill after the writes ('auto' kills the shard "
             "owning tenant-0, 'none' skips the kill and just reports "
             "shipping status)",
    )
    p.add_argument("--rng-seed", type=int, default=0)
    p.add_argument("--json", action="store_true",
                   help="emit the status report as JSON instead of text")
    p.set_defaults(func=_cmd_replication)

    p = sub.add_parser(
        "stats", help="hot-path counters over a repeated-burst workload"
    )
    p.add_argument("--tasks", type=int, default=256)
    p.add_argument("--kib", type=int, default=64, help="sample buffer KiB")
    p.add_argument("--modeled-kib", type=int, default=1024,
                   help="modeled task size in KiB")
    p.add_argument("--dtype", default="float64")
    p.add_argument("--distribution", default="gamma")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the plan cache (seed behaviour)")
    p.add_argument("--batch-size", type=int, default=1,
                   help="submit the burst through compress_batch in chunks "
                        "of this many tasks (1: the per-task path)")
    p.add_argument("--shards", type=int, default=1,
                   help="drive a sharded deployment and sum the counters "
                        "(1: the unsharded engine, byte-identical output)")
    p.add_argument("--rng-seed", type=int, default=0)
    p.add_argument("--json", action="store_true",
                   help="emit the report as JSON instead of text")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser(
        "metrics",
        help="run an instrumented VPIC workload and export the registry",
    )
    p.add_argument("--nprocs", type=int, default=320, help="MPI rank count")
    p.add_argument("--steps", type=int, default=10, help="checkpoint steps")
    p.add_argument("--scale", type=int, default=4096,
                   help="shrink divisor on the paper's Fig. 7 sizes")
    p.add_argument("--shards", type=int, default=1,
                   help="run a multi-tenant burst over N shards and export "
                        "one merged registry with a shard label per series "
                        "(1: the unsharded VPIC run, byte-identical output)")
    p.add_argument("--rng-seed", type=int, default=0)
    p.add_argument("--json", action="store_true",
                   help="emit the hcompress.metrics.v1 JSON snapshot")
    p.add_argument("--output", type=Path, default=None,
                   help="also write the JSON snapshot to a file")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser(
        "trace",
        help="run an instrumented VPIC workload and export the span trace",
    )
    p.add_argument("--nprocs", type=int, default=320, help="MPI rank count")
    p.add_argument("--steps", type=int, default=10, help="checkpoint steps")
    p.add_argument("--scale", type=int, default=4096,
                   help="shrink divisor on the paper's Fig. 7 sizes")
    p.add_argument("--shards", type=int, default=1,
                   help="run a multi-tenant burst over N shards and export "
                        "each shard's spans as its own trace process "
                        "(1: the unsharded VPIC run, byte-identical output)")
    p.add_argument("--rng-seed", type=int, default=0)
    p.add_argument("--json", action="store_true",
                   help="emit Chrome trace-event JSON to stdout")
    p.add_argument("--output", type=Path, default=None,
                   help="write Chrome trace-event JSON to a file")
    p.set_defaults(func=_cmd_trace)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
