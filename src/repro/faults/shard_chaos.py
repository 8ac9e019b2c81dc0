"""Shard chaos harness: kill one shard mid-storm, isolate the blast.

`chaos` breaks devices, `crash` kills the whole process, `overload`
breaks the load assumption; this harness kills one *shard* of a
:class:`~repro.shard.ShardedHCompress` deployment mid-storm and checks
the failure-domain contract from docs/SHARDING.md:

* only tasks whose routing key (tenant) hashes to the killed shard ever
  observe :class:`~repro.errors.ShardUnavailableError` — every other
  tenant's traffic completes exactly as in an undisturbed run;
* the surviving shards' event streams are byte-identical to the same
  seed run with no kill (their engines never learn the failure
  happened);
* every write acked by a surviving shard reads back byte-identical
  after the storm;
* the killed shard restores from its *own* journal + checkpoint, after
  which every write it ever acked reads back byte-identical too.

Determinism discipline: the sim clock advances only to each task's
scheduled arrival (never by per-result durations), so killing shard
``k`` cannot perturb the operation sequence any surviving shard
observes — which is what makes the survivor-trace comparison exact.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..ccp import SeedData
from ..core import HCompressConfig
from ..core.config import RecoveryConfig
from ..errors import HCompressError, ShardUnavailableError
from ..shard import ShardConfig, ShardedHCompress
from ..sim.clock import SimClock
from ..tiers import ares_specs
from ..units import KiB
from ..workloads.vpic import vpic_sample
from .chaos import default_seed

__all__ = ["ShardChaosConfig", "ShardChaosOutcome", "run_shard_chaos"]

#: Modeled seconds between offered writes.
INTERARRIVAL = 0.05


@dataclass(frozen=True)
class ShardChaosConfig:
    """Shape of one shard-kill storm.

    Attributes:
        shards: Shard count of the deployment under test.
        tasks: Writes offered, one per arrival tick.
        tenants: Distinct tenants; task ``i`` belongs to tenant
            ``i % tenants``, so every tenant's traffic recurs across the
            whole storm (tasks offered after the kill probe every
            tenant's shard).
        task_kib: Buffer size in KiB.
        kill_shard: Shard to kill, or ``None`` for the undisturbed
            baseline run the survivor traces are compared against.
        kill_owner_of: Alternative kill target: the shard that owns this
            tenant's routing key (so the kill is guaranteed to hit live
            traffic regardless of the ring layout). Mutually exclusive
            with ``kill_shard``.
        kill_after: Offered tasks before the kill fires.
        checkpoint_after: Acked writes before a deployment-wide
            checkpoint (0: bootstrap checkpoint only) — the killed
            shard's restore then replays checkpoint + journal suffix.
        rng_seed: Workload payload generator seed.
        hash_seed: Ring hash seed (routing layout).
        fsync: Forwarded to RecoveryConfig (False: flush-only for CI).
    """

    shards: int = 4
    tasks: int = 64
    tenants: int = 8
    task_kib: int = 16
    kill_shard: int | None = None
    kill_owner_of: str | None = None
    kill_after: int = 24
    checkpoint_after: int = 12
    rng_seed: int = 11
    hash_seed: int = 0
    fsync: bool = False

    def __post_init__(self) -> None:
        if self.shards < 1 or self.tasks < 1 or self.tenants < 1:
            raise HCompressError("shards, tasks, and tenants must be >= 1")
        if self.task_kib < 1:
            raise HCompressError("task_kib must be >= 1")
        if self.kill_shard is not None and not (
            0 <= self.kill_shard < self.shards
        ):
            raise HCompressError("kill_shard out of range")
        if self.kill_shard is not None and self.kill_owner_of is not None:
            raise HCompressError(
                "pass kill_shard or kill_owner_of, not both"
            )
        if self.kill_after < 0 or self.checkpoint_after < 0:
            raise HCompressError(
                "kill_after and checkpoint_after must be >= 0"
            )


@dataclass
class ShardChaosOutcome:
    """What one storm did and whether the failure-domain contract held."""

    config: ShardChaosConfig
    offered: int = 0
    completed: int = 0
    unavailable: int = 0
    killed_shard: int | None = None
    affected_tenants: set = field(default_factory=set)
    expected_tenants: set = field(default_factory=set)
    restored: bool = False
    restore_replayed: int = 0
    verified_intact: int = 0
    mismatched: int = 0
    missing_acked: int = 0
    manifest_version: int = 0
    error: str | None = None
    #: Every per-task event, in arrival order:
    #: ``("task", task_id, tenant, shard_id, outcome)``.
    events: tuple = ()
    #: Modeled busy seconds per shard at storm end.
    busy_seconds: dict = field(default_factory=dict)

    def survivor_events(self, killed: int | None = None) -> tuple:
        """Events of every shard except ``killed`` (default: the one this
        run killed) — the cross-run determinism comparand."""
        if killed is None:
            killed = self.killed_shard
        return tuple(e for e in self.events if e[3] != killed)

    @property
    def holds(self) -> bool:
        """The failure-domain contract, as one predicate."""
        return (
            self.error is None
            and self.offered == self.completed + self.unavailable
            and (self.killed_shard is not None or self.unavailable == 0)
            and self.affected_tenants <= self.expected_tenants
            and self.mismatched == 0
            and self.missing_acked == 0
            and (self.killed_shard is None or self.restored)
        )

    def summary(self) -> str:
        verdict = "contract holds" if self.holds else "CONTRACT VIOLATED"
        kill = (
            f"shard {self.killed_shard} killed, "
            f"{len(self.affected_tenants)}/{len(self.expected_tenants)} "
            f"owned tenants affected, restored={self.restored} "
            f"(+{self.restore_replayed} journal records)"
            if self.killed_shard is not None
            else "undisturbed"
        )
        return (
            f"{self.offered} offered over {self.config.shards} shards: "
            f"{self.completed} completed, {self.unavailable} unavailable; "
            f"{kill}; {self.verified_intact} intact / "
            f"{self.mismatched} mismatched / {self.missing_acked} missing; "
            f"manifest v{self.manifest_version} — {verdict}"
        )


def _storm_specs(config: ShardChaosConfig):
    """Budgets that comfortably fit the storm in every shard's slice."""
    total = config.tasks * config.task_kib * KiB
    return ares_specs(
        ram_capacity=total * 2,
        nvme_capacity=total * 2,
        bb_capacity=total * 2,
        nodes=max(8, config.shards),
    )


def run_shard_chaos(
    config: ShardChaosConfig | None = None,
    root_dir: str | Path | None = None,
    seed: SeedData | None = None,
) -> ShardChaosOutcome:
    """One shard-kill storm; returns the contract report.

    Deterministic: the same ``(config, seed)`` reproduces the same
    routing, outcomes, and events, and ``survivor_events()`` compares
    equal between a kill run and the undisturbed run of the same seed.
    """
    config = config if config is not None else ShardChaosConfig()
    if root_dir is None:
        with tempfile.TemporaryDirectory(prefix="hcompress-shard-") as tmp:
            return run_shard_chaos(config, tmp, seed)
    if seed is None:
        seed = default_seed()
    clock = SimClock()
    sharded = ShardedHCompress(
        _storm_specs(config),
        HCompressConfig(
            recovery=RecoveryConfig(fsync=config.fsync),
        ),
        ShardConfig(
            shards=config.shards,
            hash_seed=config.hash_seed,
            directory=root_dir,
        ),
        seed=seed,
        clock=lambda: clock.now,
    )
    outcome = ShardChaosOutcome(config=config)
    kill_shard = config.kill_shard
    if config.kill_owner_of is not None:
        kill_shard = sharded.ring.route(config.kill_owner_of)
    if kill_shard is not None:
        outcome.expected_tenants = {
            f"tenant-{t}"
            for t in range(config.tenants)
            if sharded.ring.route(f"tenant-{t}") == kill_shard
        }
    rng = np.random.default_rng(config.rng_seed)
    buffers: dict[str, bytes] = {}
    acked: list[tuple[str, int]] = []
    events: list[tuple] = []
    try:
        sharded.checkpoint()  # bootstrap: every shard has a snapshot
        for index in range(config.tasks):
            if kill_shard is not None and index == config.kill_after:
                sharded.kill_shard(kill_shard)
                outcome.killed_shard = kill_shard
            clock.advance_to(max(clock.now, index * INTERARRIVAL))
            task_id = f"shard/t{index}"
            tenant = f"tenant-{index % config.tenants}"
            shard_id = sharded.shard_of(task_id, tenant)
            payload = vpic_sample(config.task_kib * KiB, rng)
            buffers[task_id] = payload
            outcome.offered += 1
            try:
                sharded.compress(payload, task_id=task_id, tenant=tenant)
            except ShardUnavailableError:
                outcome.unavailable += 1
                outcome.affected_tenants.add(tenant)
                events.append(
                    ("task", task_id, tenant, shard_id, "unavailable")
                )
            else:
                outcome.completed += 1
                acked.append((task_id, shard_id))
                events.append(
                    ("task", task_id, tenant, shard_id, "completed")
                )
            if (
                config.checkpoint_after
                and len(acked) == config.checkpoint_after
            ):
                sharded.checkpoint()
    except HCompressError as exc:  # untyped escape: a contract violation
        outcome.error = f"{type(exc).__name__}: {exc}"
    outcome.events = tuple(events)
    outcome.busy_seconds = dict(sharded.busy_seconds)

    # -- after the storm: survivors' acked data must read back -------------
    for task_id, shard_id in acked:
        if shard_id == outcome.killed_shard:
            continue
        read = sharded.decompress(task_id)
        if read.data == buffers[task_id]:
            outcome.verified_intact += 1
        else:
            outcome.mismatched += 1

    # -- failover: the killed shard restores from its own WAL + checkpoint -
    if outcome.killed_shard is not None:
        try:
            engine = sharded.restore_shard(outcome.killed_shard)
        except HCompressError as exc:
            outcome.error = f"restore failed: {type(exc).__name__}: {exc}"
        else:
            outcome.restored = True
            outcome.restore_replayed = (
                engine.recovery_report.records_replayed
            )
            for task_id, shard_id in acked:
                if shard_id != outcome.killed_shard:
                    continue
                if task_id not in engine.manager:
                    outcome.missing_acked += 1
                    continue
                read = sharded.decompress(task_id)
                if read.data == buffers[task_id]:
                    outcome.verified_intact += 1
                else:
                    outcome.mismatched += 1
    if sharded.manifest is not None:
        outcome.manifest_version = sharded.manifest.version
    sharded.close()
    return outcome
