"""Crash-consistency harness: kill the engine mid-flight, then prove recovery.

Complements `chaos` (which injects *device* faults the engine survives in
place) by modeling *process death*: a seeded
:class:`~repro.recovery.CrashPlan` arms one of the named
:data:`~repro.recovery.CRASH_SITES` and the run dies there with
:class:`~repro.errors.SimulatedCrashError` — no cleanup, no close, exactly
the state ``kill -9`` leaves. The harness then restores a fresh engine from
the recovery directory (snapshot + journal) and checks the durability
invariants from docs/RECOVERY.md:

* every **acknowledged** write reads back byte-identical;
* every **acknowledged** evict stays evicted;
* replaying the journal a second time changes nothing (idempotence);
* a second restore from the same directory is bit-identical to the first;
* no tier holds capacity the restored catalog does not reference
  (unacknowledged writes leak nothing), and no key survives on two tiers.

The workload mixes spilled writes, evictions, flusher drains, a mid-run
tier outage (so SHI failover paths carry live traffic), a mid-run
checkpoint, and an aggressively-tuned lifecycle daemon (so the
``lifecycle.*`` migration sites carry real re-tiering traffic) — enough
traffic that every crash site is actually reached.
:func:`sweep_crash_sites` runs the full site x hit matrix; it backs the
``crash-consistency`` CI job and ``hcompress chaos --crash-at``.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..ccp import SeedData
from ..core import HCompress, HCompressConfig
from ..core.config import LifecycleConfig, RecoveryConfig, ScrubConfig
from ..errors import HCompressError, SimulatedCrashError
from ..hermes.flusher import TierFlusher
from ..recovery import CRASH_SITES, CrashPlan, Crashpoints
from ..scrub import fsck_engine
from ..sim import Delay
from ..sim.clock import SimClock
from ..tiers import StorageHierarchy, ares_hierarchy
from ..units import KiB
from ..workloads.vpic import vpic_sample
from .chaos import _advance, default_seed
from .injector import FaultInjector
from .latent import LatentCorruptionInjector
from .plan import FaultPlan

__all__ = [
    "CrashConfig",
    "CrashOutcome",
    "run_crash_recovery",
    "sweep_crash_sites",
]

#: The oldest live task is evicted after every Nth write, exercising the
#: evict journal sites.
EVICT_EVERY = 3
#: Simulated-time window during which ``OUTAGE_TIER`` is down. It is RAM —
#: the tier the stale plans keep targeting — so SHI failover carries real
#: traffic (a down *lower* tier would be bypassed by the manager's
#: capacity-spill path instead).
OUTAGE_TIER = "ram"
OUTAGE_WINDOW = (1.2, 3.4)


@dataclass(frozen=True)
class CrashConfig:
    """Shape of the crash workload.

    Attributes:
        tasks: Buffers written (one compress call each).
        task_kib: Buffer size in KiB.
        step_seconds: Simulated seconds between writes.
        rng_seed: Workload data generator seed.
        monitor_interval: Monitor refresh period; kept *longer* than the
            write cadence so stale plans keep landing on the faulted tier
            and the SHI failover crash sites see real traffic.
        checkpoint_after: Take a mid-run checkpoint once this many writes
            are acknowledged (0: bootstrap checkpoint only).
        fsync: Forwarded to :class:`~repro.core.config.RecoveryConfig`;
            the harness defaults to False (flush-only) because the crash
            model is process-level, and sweeps run dozens of engines.
        lifecycle: Run the lifecycle daemon (one ``step()`` after every
            write), tuned storage-heavy so demotions fire from the first
            scan and the ``lifecycle.*`` crash sites see several real
            migrations per run.
        scrub: Run the integrity subsystem: content digests + digest
            verification on read + one scrubber ``step()`` after every
            write, with the manager's ``on_corrupt`` hook wired to a
            pristine mirror of every stored blob (the stand-in for a
            standby's shipped state), so the ``scrub.*`` repair crash
            sites carry real self-healing traffic.
        corrupt_every: With ``scrub``, plant one seeded latent (at-rest)
            byte flip into a stored blob after every Nth write
            (0 disables planting).
    """

    tasks: int = 8
    task_kib: int = 16
    step_seconds: float = 1.0
    rng_seed: int = 7
    monitor_interval: float = 4.0
    checkpoint_after: int = 4
    fsync: bool = False
    lifecycle: bool = True
    scrub: bool = False
    corrupt_every: int = 0

    def __post_init__(self) -> None:
        if self.tasks < 1 or self.task_kib < 1:
            raise HCompressError("tasks and task_kib must be >= 1")
        if self.step_seconds <= 0:
            raise HCompressError("step_seconds must be positive")
        if self.checkpoint_after < 0:
            raise HCompressError("checkpoint_after must be >= 0")
        if self.corrupt_every < 0:
            raise HCompressError("corrupt_every must be >= 0")
        if self.corrupt_every and not self.scrub:
            raise HCompressError(
                "corrupt_every needs scrub=True (nothing would repair "
                "the planted rot)"
            )


@dataclass
class CrashOutcome:
    """What one crash/recover cycle did and whether the invariants held."""

    plan: CrashPlan | None
    crashed: bool = False
    fired_site: str | None = None
    error: str | None = None
    tasks_acked: int = 0
    evicts_acked: int = 0
    checkpoints: int = 0
    recovered: bool = False
    journal_truncated: bool = False
    records_replayed: int = 0
    orphans_evicted: int = 0
    duplicates_evicted: int = 0
    missing_keys: int = 0
    verified_intact: int = 0
    mismatched: int = 0
    missing_acked: int = 0
    evicted_still_present: int = 0
    orphan_keys_after: int = 0
    duplicate_keys_after: int = 0
    replay_idempotent: bool = False
    double_restore_identical: bool = False
    corruptions_planted: int = 0
    scrub_repairs: int = 0
    quarantined_after: int = 0
    fsck_errors_after: int = 0

    @property
    def holds(self) -> bool:
        """The durability contract, as one predicate (see module docstring)."""
        return (
            self.recovered
            and self.error is None
            and self.mismatched == 0
            and self.missing_acked == 0
            and self.evicted_still_present == 0
            and self.missing_keys == 0
            and self.orphan_keys_after == 0
            and self.duplicate_keys_after == 0
            and self.replay_idempotent
            and self.double_restore_identical
            and self.quarantined_after == 0
            and self.fsck_errors_after == 0
        )

    def summary(self) -> str:
        where = (
            f"crashed at {self.fired_site}"
            if self.crashed
            else "ran to completion"
        )
        verdict = "invariants hold" if self.holds else "INVARIANTS VIOLATED"
        return (
            f"{where}; {self.tasks_acked} acked / {self.evicts_acked} evicted; "
            f"recovery replayed {self.records_replayed} records "
            f"(truncated={self.journal_truncated}), swept "
            f"{self.orphans_evicted} orphans + {self.duplicates_evicted} dups; "
            f"{self.verified_intact} intact, {self.mismatched} mismatched — "
            f"{verdict}"
        )


def _crash_hierarchy(config: CrashConfig) -> StorageHierarchy:
    """RAM holds ~1.5 buffers so writes spill and the flusher has work;
    NVMe is the spill target so the outage window forces SHI failover."""
    buffer_bytes = config.task_kib * KiB
    total = buffer_bytes * config.tasks
    return ares_hierarchy(
        ram_capacity=buffer_bytes * 3 // 2,
        nvme_capacity=total * 2,
        bb_capacity=total * 2,
        nodes=1,
    )


def _task_buffers(config: CrashConfig) -> dict[str, bytes]:
    rng = np.random.default_rng(config.rng_seed)
    return {
        f"crash/t{index}": vpic_sample(config.task_kib * KiB, rng)
        for index in range(config.tasks)
    }


def _drive_flusher(proc, clock: SimClock, injector: FaultInjector) -> None:
    """Step the drain generator through one poll (ends at its Delay yield).

    I/O yields are treated as instantaneous — the harness measures
    crash-consistency, not drain throughput — but the poll delay still
    advances the simulated clock so fault-plan events keep landing.
    """
    for _ in range(256):
        event = next(proc)
        if isinstance(event, Delay):
            _advance(clock, injector, clock.now + event.seconds)
            return


def run_crash_recovery(
    plan: CrashPlan | None = None,
    config: CrashConfig | None = None,
    recovery_dir: str | Path | None = None,
    seed: SeedData | None = None,
) -> CrashOutcome:
    """One crash/recover cycle; returns the invariant report.

    Deterministic: the same ``(plan, config, seed)`` reproduces the same
    crash state and the same recovery. With ``plan=None`` the workload
    runs to completion and recovery restores from the mid-run checkpoint
    plus the journal suffix — the no-crash baseline of the same checks.
    """
    config = config if config is not None else CrashConfig()
    if recovery_dir is None:
        with tempfile.TemporaryDirectory(prefix="hcompress-crash-") as tmp:
            return run_crash_recovery(plan, config, tmp, seed)
    recovery_dir = Path(recovery_dir)
    if seed is None:
        seed = default_seed()
    hierarchy = _crash_hierarchy(config)
    clock = SimClock()
    fault_plan = FaultPlan(seed=plan.seed if plan is not None else 0).outage(
        OUTAGE_TIER, start=OUTAGE_WINDOW[0], end=OUTAGE_WINDOW[1]
    )
    injector = FaultInjector(fault_plan, hierarchy)
    injector.arm()
    crashpoints = Crashpoints(plan)
    buffers = _task_buffers(config)
    outcome = CrashOutcome(plan=plan)

    engine_config = HCompressConfig(
        monitor_interval=config.monitor_interval,
        recovery=RecoveryConfig(
            enabled=True, directory=str(recovery_dir), fsync=config.fsync
        ),
        # Storage-heavy pricing + zero hysteresis: write-once-never-read
        # buffers demote from the first scan, so every lifecycle.* crash
        # site carries several real migrations per run.
        lifecycle=LifecycleConfig(
            enabled=config.lifecycle,
            scan_interval=0.0,
            storage_price=1000.0,
            access_price=0.001,
            max_migrations_per_step=2,
        ),
        scrub=ScrubConfig(
            enabled=config.scrub,
            content_digests=config.scrub,
            verify_reads=config.scrub,
            scan_interval=0.0,
            max_repairs_per_step=config.tasks,
        ),
    )
    engine = HCompress(
        hierarchy, engine_config, seed=seed, clock=lambda: clock.now,
        crashpoints=crashpoints,
    )
    engine.shi.on_wait = lambda seconds: _advance(
        clock, injector, clock.now + seconds
    )
    # The scrub workload's repair-of-last-resort: a pristine mirror of
    # every stored blob, captured at ack time — the stand-in for a
    # standby's shipped state. Latent rot is planted *after* the mirror
    # refresh each round, so the mirror is corruption-free by invariant.
    mirror: dict[str, bytes] = {}
    rot = LatentCorruptionInjector(
        hierarchy, seed=plan.seed if plan is not None else 0
    )

    def _refresh_mirror(live) -> None:
        manager = live.manager
        for tid in manager.task_ids():
            for entry in manager.task_entries(tid):
                if entry.key in mirror:
                    continue
                tier = hierarchy.find(entry.key)
                if tier is None or not tier.available:
                    continue  # captured on a later refresh, like the rot
                if tier.extent(entry.key).has_payload:
                    device = getattr(tier.device, "inner", tier.device)
                    mirror[entry.key] = device.load(entry.key)

    if config.scrub:
        engine.manager.on_corrupt = lambda key, blob: mirror.get(key)
    flusher = TierFlusher(
        hierarchy, high_water=0.5, low_water=0.25, crashpoints=crashpoints
    )
    drain = flusher.process()

    acked: list[str] = []
    evicted: set[str] = set()
    # The evict in flight when the crash fires: its fate is the journal's
    # call (logged -> gone, not logged -> still readable) — both outcomes
    # are legal, like a write crashed past its journal commit.
    pending_evict: str | None = None
    try:
        # Bootstrap checkpoint: the recovery directory is restorable from
        # the first instant, whatever the crash plan does later.
        engine.checkpoint()
        outcome.checkpoints += 1
        for index, (task_id, payload) in enumerate(buffers.items()):
            _advance(clock, injector, max(clock.now, index * config.step_seconds))
            result = engine.compress(payload, task_id=task_id)
            _advance(
                clock, injector,
                clock.now + result.io_seconds + result.compress_seconds,
            )
            acked.append(task_id)
            outcome.tasks_acked += 1
            _drive_flusher(drain, clock, injector)
            if engine.lifecycle is not None:
                engine.lifecycle.step()
            if config.scrub:
                _refresh_mirror(engine)
                if config.corrupt_every and (
                    (index + 1) % config.corrupt_every == 0
                ):
                    planted = rot.corrupt(count=1, keys=set(mirror))
                    outcome.corruptions_planted += len(planted)
                repaired = engine.scrub.step(force=True)
                outcome.scrub_repairs += len(repaired)
            if (index + 1) % EVICT_EVERY == 0:
                victim = next(
                    (t for t in acked if t not in evicted and t != task_id),
                    None,
                )
                if victim is not None:
                    pending_evict = victim
                    engine.manager.evict_task(victim)
                    pending_evict = None
                    evicted.add(victim)
                    outcome.evicts_acked += 1
            if config.checkpoint_after and len(acked) == config.checkpoint_after:
                engine.checkpoint()
                outcome.checkpoints += 1
    except SimulatedCrashError:
        # Process death: abandon the engine object mid-flight. No close(),
        # no journal sync — unsynced journal records are lost, exactly as
        # the kernel would lose a dead process's user-space buffers.
        outcome.crashed = True
    except HCompressError as exc:  # unexpected: the invariants demand none
        outcome.error = f"{type(exc).__name__}: {exc}"
    outcome.fired_site = crashpoints.fired

    # -- recovery: devices are back, a fresh process restores ----------------
    _advance(clock, injector, max(clock.now, fault_plan.horizon) + 1.0)
    try:
        restored = HCompress.restore(
            recovery_dir, hierarchy,
            config=engine_config if config.scrub else None,
            seed=seed, clock=lambda: clock.now,
        )
    except HCompressError as exc:
        outcome.error = f"restore failed: {type(exc).__name__}: {exc}"
        return outcome
    outcome.recovered = True
    report = restored.recovery_report
    outcome.journal_truncated = report.journal_truncated
    outcome.records_replayed = report.records_replayed
    outcome.orphans_evicted = report.orphans_evicted
    outcome.duplicates_evicted = report.duplicates_evicted
    outcome.missing_keys = report.missing_keys

    # Idempotence: applying the whole surviving journal a second time must
    # leave the catalog byte-identical.
    before = restored.manager.catalog_snapshot()
    for record in restored.journal.recovered.records:
        restored.manager.apply_journal_record(record)
    outcome.replay_idempotent = restored.manager.catalog_snapshot() == before

    # Determinism: a second independent restore must land in the same
    # state and find nothing left to repair.
    twin = HCompress.restore(
        recovery_dir, hierarchy, seed=seed, clock=lambda: clock.now
    )
    outcome.double_restore_identical = (
        twin.manager.catalog_snapshot() == before
        and twin.predictor.model_version == restored.predictor.model_version
        and twin.recovery_report.orphans_evicted == 0
        and twin.recovery_report.duplicates_evicted == 0
    )
    twin.close()

    # Capacity hygiene: post-recovery, every tier extent belongs to the
    # catalog and no key is double-held.
    referenced = {
        entry[0]
        for entries in before.values()
        for entry in entries
    }
    tier_keys: list[str] = []
    for tier in hierarchy:
        tier_keys.extend(tier.keys())
    outcome.orphan_keys_after = sum(
        1 for key in tier_keys if key not in referenced
    )
    outcome.duplicate_keys_after = len(tier_keys) - len(set(tier_keys))

    # Scrub mode: the restored patrol must find whatever rot the crash
    # left behind (including a repair it died in the middle of) and heal
    # it from the mirror before — and independently of — the acked reads.
    if config.scrub:
        restored.manager.on_corrupt = lambda key, blob: mirror.get(key)
        for _ in range(3):
            outcome.scrub_repairs += len(restored.scrub.step(force=True))

    # Acked-durability: acknowledged writes read back byte-identical,
    # acknowledged evicts stay gone. Tasks the journal committed past the
    # ack point (a crash at manager.write.post_journal) are verified too —
    # journal-durable means committed.
    for task_id in evicted:
        if task_id in restored.manager:
            outcome.evicted_still_present += 1
    ambiguous = {pending_evict} if pending_evict is not None else set()
    must_read = [t for t in acked if t not in evicted and t not in ambiguous]
    must_read += [
        t for t in buffers
        if t not in must_read and t not in evicted and t in restored.manager
    ]
    for task_id in must_read:
        if task_id not in restored.manager:
            outcome.missing_acked += 1
            continue
        read = restored.decompress(task_id)
        if read.data == buffers[task_id]:
            outcome.verified_intact += 1
        else:
            outcome.mismatched += 1

    # Final hygiene: nothing quarantined, and a live fsck pass agrees the
    # store is consistent (catalog ↔ extents ↔ ledger ↔ digests).
    outcome.quarantined_after = len(restored.manager.quarantined)
    fsck = fsck_engine(restored, digest_samples=len(buffers))
    outcome.fsck_errors_after = fsck.count("error") + fsck.count("fatal")
    restored.close()
    return outcome


def sweep_crash_sites(
    hits: tuple[int, ...] = (1, 2),
    config: CrashConfig | None = None,
    sites: tuple[str, ...] = CRASH_SITES,
    seed: SeedData | None = None,
) -> list[CrashOutcome]:
    """Run every (site, hit) combination; returns all outcomes.

    The default matrix is 22 sites x 2 hits = 44 seeded crash points. One
    profiling seed is shared across the sweep so each cycle costs only the
    workload, not a re-profile. Engine sites run the single-engine
    crash/recover cycle; the ``replication.*`` promotion sites run the
    replicated kill-and-promote storm
    (:func:`~repro.faults.failover_chaos.run_failover_crash`), whose
    failover contract maps onto the same outcome fields.
    """
    import dataclasses

    config = config if config is not None else CrashConfig()
    # The scrub.* repair sites need the integrity workload: digests on,
    # latent rot planted every other write, scrubber stepping. The
    # lifecycle daemon stays off there so piece keys are stable for the
    # rot mirror; the lifecycle.* sites keep their own dedicated runs.
    scrub_config = dataclasses.replace(
        config, scrub=True, corrupt_every=1, lifecycle=False
    )
    if seed is None:
        seed = default_seed()
    outcomes = []
    for index, site in enumerate(sites):
        for hit in hits:
            plan = CrashPlan(site=site, hit=hit, seed=index * 100 + hit)
            if site.startswith("replication."):
                from .failover_chaos import run_failover_crash

                outcomes.append(run_failover_crash(plan, seed=seed))
            elif site.startswith("scrub."):
                outcomes.append(
                    run_crash_recovery(
                        plan=plan, config=scrub_config, seed=seed
                    )
                )
            else:
                outcomes.append(
                    run_crash_recovery(plan=plan, config=config, seed=seed)
                )
    return outcomes
