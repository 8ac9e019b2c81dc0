"""Failover chaos harness: kill a replicated primary mid-storm, promote.

`shard_chaos` proves the failure-domain contract *without* replication:
a killed shard's tenants go dark until an operator restores it. This
harness runs the same storm with replication enabled and proves the
failover contract from docs/SHARDING.md:

* killing any primary mid-storm promotes its most-caught-up standby
  automatically on the very next dispatch — no operator, no restore
  call;
* **zero acked-write loss**: every write acknowledged before the kill —
  including the group-commit tail the dead primary never fsynced —
  reads back byte-identical from the promoted standby (synchronous WAL
  shipping persisted each record on the standby before the ack);
* the modeled unavailability window is bounded: DOWN -> UP in at most
  the configured promotion window plus one arrival of traffic;
* the surviving shards' event streams are byte-identical to the same
  seed run with no kill (their engines never learn the failure
  happened);
* a seeded crash at any of the four ``replication.*`` promotion sites
  leaves a state that one retried :meth:`failover` call repairs, after
  which all of the above still holds.

Determinism discipline matches `shard_chaos`: the sim clock advances
only to each task's scheduled arrival, never by per-result durations,
so the kill cannot perturb the operation sequence any surviving shard
observes.

:func:`run_failover_crash` adapts one armed ``replication.*`` crash plan
to the :class:`~repro.faults.crash.CrashOutcome` shape so
:func:`~repro.faults.crash.sweep_crash_sites` covers the promotion
sites in the same matrix as the engine sites.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..ccp import SeedData
from ..core import HCompressConfig
from ..core.config import RecoveryConfig
from ..errors import (
    FailoverInProgressError,
    HCompressError,
    ShardStateError,
    ShardUnavailableError,
    SimulatedCrashError,
)
from ..recovery import CrashPlan, Crashpoints
from ..replication import ReplicationConfig
from ..shard import ShardConfig, ShardedHCompress
from ..shard.manifest import read_manifest
from ..sim.clock import SimClock
from ..units import KiB
from ..workloads.vpic import vpic_sample
from .chaos import default_seed
from .crash import CrashOutcome
from .shard_chaos import _storm_specs

__all__ = [
    "FailoverChaosConfig",
    "FailoverChaosOutcome",
    "run_failover_chaos",
    "run_failover_crash",
]

#: Modeled seconds between offered writes.
INTERARRIVAL = 0.05


@dataclass(frozen=True)
class FailoverChaosConfig:
    """Shape of one replicated kill-and-promote storm.

    Attributes:
        shards: Shard count of the deployment under test.
        tasks: Writes offered, one per arrival tick.
        tenants: Distinct tenants; task ``i`` belongs to tenant
            ``i % tenants`` so every tenant's traffic recurs across the
            whole storm.
        task_kib: Buffer size in KiB.
        kill_shard: Primary to kill, or ``None`` for the undisturbed
            baseline run the survivor traces are compared against.
        kill_owner_of: Alternative kill target: the shard owning this
            tenant's routing key. Mutually exclusive with ``kill_shard``.
        kill_after: Offered tasks before the kill fires (must leave
            traffic after it, or nothing would trigger the promotion).
        checkpoint_after: Acked writes before a deployment-wide
            checkpoint + ship (0: bootstrap shipping only).
        replicas: Standbys per shard.
        promotion_seconds: Modeled promotion window (the shard sheds
            retryably while it runs).
        fsync_every: Group-commit cadence of every primary journal.
            Kept > 1 deliberately: the kill then genuinely loses the
            primary's locally-buffered tail, so a zero-loss readback
            proves the *shipping* preserved it, not the local disk.
        crash_site: Arm one ``replication.*`` promotion crash site
            (``None``: no crash). The harness catches the simulated
            death and retries :meth:`failover` once, which must
            converge.
        crash_hit: Fire on the Nth visit of ``crash_site``.
        rng_seed: Workload payload generator seed.
        hash_seed: Ring hash seed (routing layout).
        fsync: Real per-frame fsync on journals and standbys (False:
            flush-only for CI).
    """

    shards: int = 4
    tasks: int = 64
    tenants: int = 8
    task_kib: int = 16
    kill_shard: int | None = None
    kill_owner_of: str | None = None
    kill_after: int = 24
    checkpoint_after: int = 12
    replicas: int = 1
    promotion_seconds: float = 0.25
    fsync_every: int = 8
    crash_site: str | None = None
    crash_hit: int = 1
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
            raise HCompressError("pass kill_shard or kill_owner_of, not both")
        if not 0 <= self.kill_after < self.tasks:
            raise HCompressError(
                "kill_after must leave offered traffic after the kill"
            )
        if self.replicas < 1 or self.fsync_every < 1:
            raise HCompressError("replicas and fsync_every must be >= 1")
        if self.promotion_seconds < 0:
            raise HCompressError("promotion_seconds must be >= 0")
        if self.crash_site is not None and not self.crash_site.startswith(
            "replication."
        ):
            raise HCompressError(
                "failover harness arms replication.* sites only"
            )


@dataclass
class FailoverChaosOutcome:
    """What one storm did and whether the failover contract held."""

    config: FailoverChaosConfig
    offered: int = 0
    completed: int = 0
    #: Tasks shed retryably while their shard's promotion window ran.
    deferred: int = 0
    #: Tasks that saw ShardUnavailableError — the contract demands zero
    #: (failover must beat the routing gate on the very next dispatch).
    unavailable: int = 0
    killed_shard: int | None = None
    failovers: int = 0
    #: Journal records the promoted standby replayed at restore.
    promoted_replayed: int = 0
    #: Acked records the dead primary's own journal never made durable
    #: (its group-commit tail) — what restore-from-primary would have
    #: lost and shipping must not.
    lost_local_tail: int = 0
    crash_fired: str | None = None
    #: The retried failover() call converged after the simulated crash.
    crash_retried: bool = False
    #: A further failover() after convergence is refused (ShardStateError)
    #: and leaves the manifest version unchanged.
    failover_idempotent: bool = True
    #: On-disk manifest agrees with the router's fenced in-memory view.
    fence_consistent: bool = True
    #: Modeled seconds from the DOWN transition to the promoted UP.
    unavailability_seconds: float = 0.0
    #: Config-derived ceiling the window must stay under.
    unavailability_bound: float = 0.0
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
        """The failover contract, as one predicate (see module docstring)."""
        return (
            self.error is None
            and self.offered
            == self.completed + self.deferred + self.unavailable
            and self.unavailable == 0
            and self.mismatched == 0
            and self.missing_acked == 0
            and self.failover_idempotent
            and self.fence_consistent
            and (self.killed_shard is None or self.failovers >= 1)
            and (
                self.killed_shard is None
                or self.unavailability_seconds <= self.unavailability_bound
            )
            and (
                self.config.crash_site is None
                or (self.crash_fired is not None and self.crash_retried)
            )
        )

    def summary(self) -> str:
        verdict = "contract holds" if self.holds else "CONTRACT VIOLATED"
        kill = (
            f"shard {self.killed_shard} killed -> {self.failovers} "
            f"promotion(s), window {self.unavailability_seconds:.3f}s "
            f"(bound {self.unavailability_bound:.3f}s), "
            f"local tail lost {self.lost_local_tail}"
            if self.killed_shard is not None
            else "undisturbed"
        )
        crash = (
            f"; crashed at {self.crash_fired}, retry converged="
            f"{self.crash_retried}"
            if self.config.crash_site is not None
            else ""
        )
        return (
            f"{self.offered} offered over {self.config.shards} shards "
            f"x{self.config.replicas} replicas: {self.completed} completed, "
            f"{self.deferred} deferred, {self.unavailable} unavailable; "
            f"{kill}{crash}; {self.verified_intact} intact / "
            f"{self.mismatched} mismatched / {self.missing_acked} missing "
            f"acked; manifest v{self.manifest_version} — {verdict}"
        )


def run_failover_chaos(
    config: FailoverChaosConfig | None = None,
    root_dir: str | Path | None = None,
    seed: SeedData | None = None,
) -> FailoverChaosOutcome:
    """One replicated kill-and-promote storm; returns the contract report.

    Deterministic: the same ``(config, seed)`` reproduces the same
    routing, outcomes, and events, and ``survivor_events()`` compares
    equal between a kill run and the undisturbed run of the same seed.
    """
    config = config if config is not None else FailoverChaosConfig()
    if root_dir is None:
        with tempfile.TemporaryDirectory(prefix="hcompress-failover-") as tmp:
            return run_failover_chaos(config, tmp, seed)
    if seed is None:
        seed = default_seed()
    clock = SimClock()
    crashpoints = (
        Crashpoints(CrashPlan(site=config.crash_site, hit=config.crash_hit))
        if config.crash_site is not None
        else None
    )
    sharded = ShardedHCompress(
        _storm_specs(config),
        HCompressConfig(
            recovery=RecoveryConfig(
                fsync=config.fsync, fsync_every=config.fsync_every
            ),
        ),
        ShardConfig(
            shards=config.shards,
            hash_seed=config.hash_seed,
            directory=root_dir,
            replication=ReplicationConfig(
                enabled=True,
                replicas=config.replicas,
                promotion_seconds=config.promotion_seconds,
            ),
        ),
        seed=seed,
        clock=lambda: clock.now,
        crashpoints=crashpoints,
    )
    outcome = FailoverChaosOutcome(config=config)
    kill_shard = config.kill_shard
    if config.kill_owner_of is not None:
        kill_shard = sharded.ring.route(config.kill_owner_of)
    # DOWN -> UP within the modeled promotion window plus the one arrival
    # it takes the next dispatch to notice, with float headroom.
    outcome.unavailability_bound = (
        config.promotion_seconds + 2 * INTERARRIVAL + 1e-6
    )
    rng = np.random.default_rng(config.rng_seed)
    buffers: dict[str, bytes] = {}
    acked: list[tuple[str, int]] = []
    events: list[tuple] = []

    def offer(task_id: str, tenant: str, shard_id: int, payload) -> None:
        try:
            sharded.compress(payload, task_id=task_id, tenant=tenant)
        except FailoverInProgressError:
            outcome.deferred += 1
            events.append(("task", task_id, tenant, shard_id, "deferred"))
        except ShardUnavailableError:
            outcome.unavailable += 1
            events.append(("task", task_id, tenant, shard_id, "unavailable"))
        else:
            outcome.completed += 1
            acked.append((task_id, shard_id))
            events.append(("task", task_id, tenant, shard_id, "completed"))

    try:
        sharded.checkpoint()  # bootstrap: every standby holds a snapshot
        for index in range(config.tasks):
            if kill_shard is not None and index == config.kill_after:
                # Count the acked records the primary's group-commit buffer
                # still holds: its local journal dies without them.
                victim = sharded.engines[kill_shard]
                outcome.lost_local_tail = victim.journal.pending
                sharded.kill_shard(kill_shard)
                outcome.killed_shard = kill_shard
            clock.advance_to(max(clock.now, index * INTERARRIVAL))
            task_id = f"failover/t{index}"
            tenant = f"tenant-{index % config.tenants}"
            shard_id = sharded.shard_of(task_id, tenant)
            payload = vpic_sample(config.task_kib * KiB, rng)
            buffers[task_id] = payload
            outcome.offered += 1
            try:
                offer(task_id, tenant, shard_id, payload)
            except SimulatedCrashError:
                # Process died mid-promotion at the armed site. A new
                # incarnation repairs by simply retrying the failover
                # (every stage is idempotent), then re-offers the task.
                outcome.crash_fired = crashpoints.fired
                sharded.failover(kill_shard)
                outcome.crash_retried = True
                offer(task_id, tenant, shard_id, payload)
            if (
                config.checkpoint_after
                and len(acked) == config.checkpoint_after
            ):
                sharded.checkpoint()
    except HCompressError as exc:  # untyped escape: a contract violation
        outcome.error = f"{type(exc).__name__}: {exc}"
    outcome.events = tuple(events)
    outcome.busy_seconds = dict(sharded.busy_seconds)

    # -- after the storm: run out the promotion window, then verify ---------
    if outcome.killed_shard is not None:
        record = sharded.supervisor.health[outcome.killed_shard]
        clock.advance_to(max(clock.now, record.promote_ready_at))
        engine = sharded.engines[outcome.killed_shard]
        if engine is not None:
            outcome.promoted_replayed = (
                engine.recovery_report.records_replayed
                if engine.recovery_report is not None
                else 0
            )
        outcome.failovers = sharded.replication.failovers[
            outcome.killed_shard
        ]
        # Idempotence: with nothing in flight a further failover() must be
        # refused as a typed state error and change no durable state.
        version_before = sharded.manifest.version
        try:
            sharded.failover(outcome.killed_shard)
            outcome.failover_idempotent = False
        except ShardStateError:
            outcome.failover_idempotent = (
                sharded.manifest.version == version_before
            )

    # Zero acked-write loss: every acknowledged write — whichever shard
    # acked it, killed or survivor — reads back byte-identical.
    for task_id, shard_id in acked:
        try:
            read = sharded.decompress(task_id)
        except HCompressError:
            outcome.missing_acked += 1
            continue
        if read.data == buffers[task_id]:
            outcome.verified_intact += 1
        else:
            outcome.mismatched += 1

    # Bounded unavailability: DOWN -> UP from the supervisor's own trace.
    if outcome.killed_shard is not None:
        down = [
            t
            for status, t, shard_id, _ in sharded.supervisor.trace
            if status == "DOWN" and shard_id == outcome.killed_shard
        ]
        up = [
            t
            for status, t, shard_id, _ in sharded.supervisor.trace
            if status == "UP" and shard_id == outcome.killed_shard
        ]
        if down and up:
            outcome.unavailability_seconds = up[-1] - down[0]
        else:  # never came back: fail the bound loudly
            outcome.unavailability_seconds = float("inf")

    # Fencing consistency: the durable manifest must match the fenced
    # in-memory view (same version, same shard homes).
    if sharded.manifest is not None:
        outcome.manifest_version = sharded.manifest.version
        disk = read_manifest(sharded.root, min_version=1)
        outcome.fence_consistent = (
            disk.version == sharded.manifest.version
            and disk.directories == sharded.manifest.directories
        )
    sharded.close()
    return outcome


def run_failover_crash(
    plan: CrashPlan,
    config: FailoverChaosConfig | None = None,
    seed: SeedData | None = None,
) -> CrashOutcome:
    """One armed promotion-site crash, reported as a ``CrashOutcome``.

    This is the adapter :func:`~repro.faults.crash.sweep_crash_sites`
    uses for the ``replication.*`` sites, mapping the failover contract
    onto the crash matrix's invariant fields:

    * ``recovered`` — the retried failover converged and the storm
      finished without an untyped escape;
    * ``replay_idempotent`` — a further ``failover()`` after convergence
      is refused without touching the manifest (the failover analogue of
      re-applying the journal);
    * ``double_restore_identical`` — the durable manifest matches the
      fenced in-memory layout at the end of the run;
    * ``missing_acked`` / ``mismatched`` — the zero-acked-loss readback
      over every shard, promoted one included.

    A plan whose hit count the single promotion never reaches simply
    runs the storm crash-free; the outcome then reports the same
    invariants with ``crashed=False``.
    """
    if config is None:
        # Small deployment: the sweep runs this once per (site, hit).
        config = FailoverChaosConfig(
            shards=2,
            tasks=24,
            tenants=4,
            kill_shard=0,
            kill_after=8,
            checkpoint_after=6,
            promotion_seconds=0.0,
            crash_site=plan.site,
            crash_hit=plan.hit,
        )
    outcome = run_failover_chaos(config, seed=seed)
    crash = CrashOutcome(plan=plan)
    crash.crashed = outcome.crash_fired is not None
    crash.fired_site = outcome.crash_fired
    crash.error = outcome.error
    crash.tasks_acked = outcome.completed
    crash.records_replayed = outcome.promoted_replayed
    crash.recovered = (
        outcome.error is None
        and outcome.failovers >= 1
        and (outcome.crash_fired is None or outcome.crash_retried)
    )
    crash.verified_intact = outcome.verified_intact
    crash.mismatched = outcome.mismatched
    crash.missing_acked = outcome.missing_acked
    crash.replay_idempotent = outcome.failover_idempotent
    crash.double_restore_identical = outcome.fence_consistent
    return crash
