"""ShardedHCompress: consistent-hash scale-out over independent engines.

One front-end object owns ``N`` fully independent :class:`HCompress`
shards. Each shard gets its own slice of the tier budgets
(:func:`~repro.shard.config.split_tier_specs`), its own catalog, plan
cache, QoS governor, and — when a deployment directory is configured —
its own write-ahead journal and checkpoints under ``shard-NN/``, tied
together by the versioned shard-map manifest at the root. Requests
route by a *routing key* (the tenant when given, else the task id)
through the seeded consistent-hash ring, so a tenant's entire working
set lands on one shard: a failure domain is a shard, and a shard's
blast radius is exactly the tenants hashed onto it.

The :class:`~repro.shard.supervisor.ShardSupervisor` gates every
dispatch. Traffic for a DOWN shard fails in O(1) with
:class:`~repro.errors.ShardUnavailableError` — before any analysis or
planning — while the other shards keep serving with byte-identical
behavior to an undisturbed run (their engines never observe the
failure). A killed shard restores from its own journal + checkpoint via
the ordinary :meth:`HCompress.restore` path and re-enters the ring
exactly where it was: consistent hashing means nobody else's keys
moved.

With replication enabled (:class:`~repro.replication.ReplicationConfig`
on the shard config) shard death is survivable without an operator:
every shard's journal ships synchronously to K standby directories, and
when the supervisor marks a shard DOWN the router promotes the
most-caught-up standby — restore over the standby directory, manifest
re-homed with a version bump that fences the old primary, owner map
rebuilt, supervisor flipped to a bounded PROMOTING window during which
the shard sheds retryably with
:class:`~repro.errors.FailoverInProgressError` — then recycles the dead
primary's directory as a new standby and reseeds the set from a fresh
checkpoint. Promotion is staged across the four
``replication.pre_promote/post_manifest/post_reroute/post_demote``
crash sites and each stage is idempotent, so a crash mid-failover is
repaired by simply calling :meth:`failover` again.

``shards=1`` is the feature-off shape: the single shard receives the
unsplit tier specs and every call delegates straight through, producing
schemas and a catalog byte-identical to an unsharded engine.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from typing import Callable, Sequence

from ..core.config import HCompressConfig
from ..core.hcompress import HCompress
from ..core.manager import ReadResult, WriteResult
from ..errors import (
    HCompressError,
    QosError,
    ShardManifestError,
    ShardStateError,
    SimulatedCrashError,
    TierError,
)
from ..hcdp import IOTask, next_task_id
from ..qos import QosClass
from ..replication import ReplicationCoordinator
from ..tiers import StorageHierarchy, TierSpec
from .config import ShardConfig, split_tier_specs
from .hashring import ConsistentHashRing
from .manifest import ShardManifest, read_manifest, write_manifest
from .supervisor import ShardSupervisor

__all__ = ["ShardedHCompress"]


class ShardedHCompress:
    """Consistent-hash router over ``N`` independent HCompress shards.

    Args:
        specs: Description of the *whole* deployment's hierarchy; each
            shard is constructed over its
            :func:`~repro.shard.config.split_tier_specs` slice.
        config: Engine config applied to every shard. With a deployment
            directory, each shard's recovery config is redirected to its
            own ``shard-NN/`` subdirectory.
        shard_config: Shard layout (count, ring parameters, health
            policy, deployment directory).
        seed: Profiler seed shared by all shards. ``None`` runs one
            quick profiling pass and shares the result (identical to
            what each engine would derive on its own).
        clock: Modeled time source threaded into every shard and the
            supervisor.
        device_factory: Forwarded to each shard's hierarchy build.
        crashpoints: Optional :class:`~repro.recovery.Crashpoints`
            arbiter threaded into every shard engine and the failover
            path, so the crash harness can kill the deployment at any
            instrumented site (including the four ``replication.*``
            promotion sites).
    """

    def __init__(
        self,
        specs: Sequence[TierSpec],
        config: HCompressConfig | None = None,
        shard_config: ShardConfig | None = None,
        seed=None,
        clock: Callable[[], float] | None = None,
        device_factory=None,
        crashpoints=None,
    ) -> None:
        self.config = config if config is not None else HCompressConfig()
        self.shard_config = (
            shard_config if shard_config is not None else ShardConfig()
        )
        self.specs = tuple(specs)
        self._clock = clock
        self._device_factory = device_factory
        self.crashpoints = crashpoints
        self.ring = ConsistentHashRing(
            self.shard_config.shards,
            self.shard_config.virtual_nodes,
            self.shard_config.hash_seed,
        )
        self.supervisor = ShardSupervisor(
            self.shard_config, clock=clock, on_transition=self._persist_status
        )
        # The root directory ties the deployment together: the manifest at
        # its top, one recovery directory per shard beneath it. Falls back
        # to the engine config's recovery directory so a caller who already
        # configured recovery gets sharded durability without a second knob.
        root = self.shard_config.directory
        if root is None and self.config.recovery.enabled:
            root = self.config.recovery.directory
        self.root = None if root is None else Path(root)
        if self.shard_config.replication.enabled and self.root is None:
            raise HCompressError(
                "replication needs a deployment directory: construct with "
                "ShardConfig(directory=...) or recovery enabled"
            )
        if seed is None:
            # One shared profiling pass. The profiler is a pure function of
            # the codec pool and a fixed rng, so this is byte-identical to
            # the seed each engine would have derived independently.
            from ..codecs.pool import CompressionLibraryPool
            from ..core.profiler import HCompressProfiler
            import numpy as np

            seed = HCompressProfiler(
                CompressionLibraryPool(self.config.libraries),
                rng=np.random.default_rng(0),
            ).quick_seed()
        self.seed = seed
        self.manifest: ShardManifest | None = None
        if self.root is not None:
            self.manifest = ShardManifest.initial(
                self.shard_config.shards,
                self.shard_config.virtual_nodes,
                self.shard_config.hash_seed,
            )
            write_manifest(
                self.root, self.manifest, fsync=self.config.recovery.fsync
            )
        # Per-shard hierarchies outlive their engines: tiers model durable
        # external services, so a killed shard's data survives for restore.
        self.hierarchies: dict[int, StorageHierarchy] = {}
        self.engines: dict[int, HCompress | None] = {}
        for shard_id in range(self.shard_config.shards):
            hierarchy = StorageHierarchy.from_specs(
                split_tier_specs(
                    self.specs, shard_id, self.shard_config.shards
                ),
                device_factory=device_factory,
            )
            self.hierarchies[shard_id] = hierarchy
            self.engines[shard_id] = HCompress(
                hierarchy,
                self._engine_config(shard_id),
                seed=self.seed,
                clock=clock,
                crashpoints=crashpoints,
            )
        # task id -> owning shard, so reads route to where the write went
        # even when the write was routed by tenant. Rebuilt from each
        # shard's restored catalog after a failover.
        self._owners: dict[str, int] = {}
        #: Cumulative modeled service seconds per shard (compress/decompress
        #: + I/O). The scale-out bench's makespan is the max over shards.
        self.busy_seconds: dict[int, float] = {
            shard_id: 0.0 for shard_id in range(self.shard_config.shards)
        }
        # Replication: standby sets + synchronous WAL shipping. Built after
        # the engines so every shard's journal exists to observe; the
        # bootstrap checkpoint gives every standby a restorable snapshot
        # from modeled time zero.
        self.replication: ReplicationCoordinator | None = None
        self._pending_failovers: set[int] = set()
        self._pending_demote: dict[int, str] = {}
        if self.shard_config.replication.enabled:
            self.replication = ReplicationCoordinator(
                self.shard_config.shards,
                self.shard_config.replication,
                self.root,
                fsync=self.config.recovery.fsync,
            )
            for shard_id in sorted(self.engines):
                engine = self.engines[shard_id]
                path = engine.checkpoint()
                self.replication.attach(shard_id, engine.journal)
                self.replication.ship_checkpoint(shard_id, path.parent)
        self._closed = False

    # -- construction helpers ------------------------------------------------

    def _engine_config(self, shard_id: int) -> HCompressConfig:
        """One shard's engine config: shared knobs, private recovery dir."""
        if self.root is None:
            return self.config
        return replace(
            self.config,
            recovery=replace(
                self.config.recovery,
                enabled=True,
                directory=self.root / self.manifest.directories[shard_id]
                if self.manifest is not None
                else self.shard_config.shard_directory(shard_id),
            ),
        )

    def _persist_status(
        self, status: str, now: float, shard_id: int, reason: str
    ) -> None:
        """Supervisor transition hook: bump + rewrite the manifest, and
        queue an automatic failover when a replicated shard goes DOWN."""
        if status == "DOWN" and self.replication is not None:
            self._pending_failovers.add(shard_id)
        if self.manifest is None:
            return
        self.manifest = self.manifest.with_status(shard_id, status)
        write_manifest(
            self.root, self.manifest, fsync=self.config.recovery.fsync
        )

    def _service_failovers(self) -> None:
        """Run queued automatic promotions (deterministic shard order).

        Invoked at the top of every dispatch, right after the heartbeat
        sweep — so a DOWN transition from any source (explicit kill,
        failure threshold, expired heartbeat) is serviced on the very
        next operation, on the modeled clock, before any routing gate.
        """
        if self.replication is None or not self._pending_failovers:
            return
        for shard_id in sorted(self._pending_failovers):
            self._pending_failovers.discard(shard_id)
            if (
                self.engines[shard_id] is None
                and self.supervisor.health[shard_id].status == "DOWN"
            ):
                self.failover(shard_id)

    # -- routing -------------------------------------------------------------

    @property
    def shards(self) -> int:
        return self.shard_config.shards

    def route_key(self, task_id: str, tenant: str | None = None) -> str:
        """The routing key: the tenant (so one tenant = one failure
        domain) when given, else the task id."""
        return tenant if tenant is not None else task_id

    def shard_of(self, task_id: str, tenant: str | None = None) -> int:
        return self.ring.route(self.route_key(task_id, tenant))

    def engine(self, shard_id: int) -> HCompress:
        """The live engine of one shard (DOWN shards have none)."""
        engine = self.engines[shard_id]
        if engine is None:
            self.supervisor.ensure_up(shard_id)  # raises with the reason
            raise HCompressError(f"shard {shard_id} has no engine")
        return engine

    # -- paper API, routed ---------------------------------------------------

    def compress(
        self,
        data: bytes | None = None,
        *,
        task: IOTask | None = None,
        hints=None,
        modeled_size: int | None = None,
        task_id: str | None = None,
        deadline: float | None = None,
        qos_class: QosClass | None = None,
        tenant: str | None = None,
    ) -> WriteResult:
        """Route one write to its owning shard (see
        :meth:`HCompress.compress` for the operation semantics).

        The task id is fixed *before* routing (generated here when the
        caller passes none) so the routing key is stable; ``tenant``
        overrides it as the key, pinning all of a tenant's tasks to one
        shard and scoping QoS admission to that tenant on that shard.
        """
        item = {
            "data": data, "task": task, "hints": hints,
            "modeled_size": modeled_size, "task_id": task_id,
        }
        return self.compress_batch(
            [item], deadline=deadline, qos_class=qos_class, tenant=tenant
        )[0]

    def _dispatch(self, shard_id: int, call, *args, **kwargs):
        """Run one engine call, mapping its failure to the shard's health."""
        try:
            return call(*args, **kwargs)
        except QosError:
            # Policy rejection: the shard's machinery worked correctly.
            self.supervisor.record_outcome(shard_id, ok=True)
            raise
        except SimulatedCrashError:
            # Crash-point death is process death for this shard only.
            self._abandon(shard_id, "crashed")
            raise
        except TierError:
            self.supervisor.record_outcome(shard_id, ok=False)
            raise

    def decompress(
        self,
        task_id: str,
        offset: int | None = None,
        length: int | None = None,
        deadline: float | None = None,
    ) -> ReadResult:
        """Route one read to the shard that owns ``task_id``."""
        self._check_open()
        shard_id = self._owners.get(task_id)
        if shard_id is None:
            shard_id = self.ring.route(task_id)
        self.supervisor.sweep()
        self._service_failovers()
        self.supervisor.ensure_up(shard_id)
        result = self._dispatch(
            shard_id, self.engine(shard_id).decompress,
            task_id, offset, length, deadline,
        )
        self.supervisor.record_outcome(shard_id, ok=True)
        self.busy_seconds[shard_id] += (
            result.decompress_seconds + result.io_seconds
        )
        return result

    def compress_batch(
        self,
        items,
        *,
        deadline: float | None = None,
        qos_class: QosClass | None = None,
        tenant: str | None = None,
    ) -> list[WriteResult]:
        """Route a batch of writes, one sub-batch per owning shard.

        Task ids are fixed up front in item order (exactly the ids a
        per-item :meth:`compress` loop would have assigned), each item
        routes by its key through the ring (a dict item's own ``tenant``
        overrides the call-level one), and every shard receives its
        items as one :meth:`HCompress.compress_batch` call in their
        original relative order — so each shard's catalog, schemas, and
        telemetry are byte-identical to the per-task loop's. Results
        return in submission order. Availability is checked for every
        involved shard before any work: a DOWN shard fails the whole
        batch in O(1) with nothing placed anywhere.
        """
        self._check_open()
        specs: list[dict] = []
        keys: list[str] = []
        for item in items:
            # Validated here so a malformed item fails the whole batch
            # before any shard has written anything.
            spec = dict(HCompress._write_spec(item))
            task = spec.get("task")
            if task is not None:
                tid = task.task_id
            else:
                tid = spec["task_id"] = spec.get("task_id") or next_task_id()
            # A dict item may carry its own tenant, routing exactly
            # like the per-task loop's compress(..., tenant=...).
            keys.append(self.route_key(tid, spec.get("tenant", tenant)))
            specs.append(spec)
        route = self.ring.route
        groups: dict[int, list[int]] = {}
        for index, key in enumerate(keys):
            groups.setdefault(route(key), []).append(index)
        self.supervisor.sweep()
        self._service_failovers()
        for shard_id in groups:
            self.supervisor.ensure_up(shard_id)
        results: list[WriteResult | None] = [None] * len(specs)
        for shard_id, indices in groups.items():
            shard_results = self._dispatch(
                shard_id, self.engine(shard_id).compress_batch,
                [specs[i] for i in indices],
                deadline=deadline, qos_class=qos_class, tenant=tenant,
            )
            owners = self._owners
            busy = self.busy_seconds[shard_id]
            for index, result in zip(indices, shard_results):
                results[index] = result
                owners[result.task.task_id] = shard_id
                # one addition per task: bit-identical to the per-task
                # router's accumulation order
                busy += result.compress_seconds + result.io_seconds
            self.busy_seconds[shard_id] = busy
            for _ in indices:
                self.supervisor.record_outcome(shard_id, ok=True)
        return results

    def decompress_batch(
        self, task_ids, *, deadline: float | None = None
    ) -> list[ReadResult]:
        """Route a batch of reads to their owning shards.

        Grouping mirrors :meth:`compress_batch`: order within each shard
        is preserved, results return in submission order, and every
        involved shard must be UP before any read is issued.
        """
        self._check_open()
        task_ids = list(task_ids)
        owners = self._owners
        route = self.ring.route
        groups: dict[int, list[int]] = {}
        for index, tid in enumerate(task_ids):
            shard_id = owners.get(tid)
            if shard_id is None:
                shard_id = route(tid)
            groups.setdefault(shard_id, []).append(index)
        self.supervisor.sweep()
        self._service_failovers()
        for shard_id in groups:
            self.supervisor.ensure_up(shard_id)
        results: list[ReadResult | None] = [None] * len(task_ids)
        for shard_id, indices in groups.items():
            shard_results = self._dispatch(
                shard_id, self.engine(shard_id).decompress_batch,
                [task_ids[i] for i in indices], deadline=deadline,
            )
            busy = self.busy_seconds[shard_id]
            for index, result in zip(indices, shard_results):
                results[index] = result
                busy += result.decompress_seconds + result.io_seconds
            self.busy_seconds[shard_id] = busy
            for _ in indices:
                self.supervisor.record_outcome(shard_id, ok=True)
        return results

    # -- failure domains -----------------------------------------------------

    def _require_shard(self, shard_id: int) -> None:
        """Typed rejection of shard ids outside the deployment."""
        if shard_id not in self.engines:
            raise ShardStateError(
                f"unknown shard id {shard_id} (deployment has shards "
                f"0..{self.shards - 1})",
                shard_id=shard_id,
                state="UNKNOWN",
            )

    def kill_shard(self, shard_id: int, reason: str = "killed") -> None:
        """Crash one shard: abandon its engine mid-flight.

        Models abrupt process death — the journal is *not* synced or
        closed (buffered records die with the process, exactly what
        restore must cope with); only the piece thread pool is joined,
        because in-process simulation must not leak OS threads. The
        shard's tiers survive (durable external services) and its
        tenants start seeing :class:`~repro.errors.ShardUnavailableError`
        on the next dispatch. Other shards are untouched.

        Raises :class:`~repro.errors.ShardStateError` for an unknown
        shard id or one that is already DOWN — killing a corpse is an
        operator error, not a no-op.
        """
        self._check_open()
        self._require_shard(shard_id)
        status = self.supervisor.health[shard_id].status
        if status == "DOWN":
            raise ShardStateError(
                f"cannot kill shard {shard_id}: already DOWN "
                f"({self.supervisor.health[shard_id].reason})",
                shard_id=shard_id,
                state=status,
            )
        self._abandon(shard_id, reason)

    def _abandon(self, shard_id: int, reason: str) -> None:
        engine = self.engines[shard_id]
        if engine is not None:
            engine.manager.shutdown()  # thread hygiene; journal left un-synced
            self.engines[shard_id] = None
            if self.replication is not None:
                self.replication.detach(shard_id)
        self.supervisor.mark_down(shard_id, reason)

    def restore_shard(self, shard_id: int) -> HCompress:
        """Bring a DOWN shard back from its own journal + checkpoint.

        Replays the shard's recovery directory through the ordinary
        :meth:`HCompress.restore` path against the surviving hierarchy
        slice, re-registers the shard's tasks in the owner map, and
        marks it UP (bumping the manifest). Requires a deployment
        directory — an in-memory shard has nothing to restore from.

        Raises :class:`~repro.errors.ShardStateError` for an unknown
        shard id or one that is not DOWN (restoring a serving shard
        would silently fork its state), and
        :class:`~repro.errors.ShardManifestError` when the on-disk
        manifest has moved past the version this router holds — a
        concurrent actor re-wrote the layout and blindly bumping would
        clobber it.
        """
        self._check_open()
        self._require_shard(shard_id)
        status = self.supervisor.health[shard_id].status
        if status != "DOWN":
            raise ShardStateError(
                f"cannot restore shard {shard_id}: currently {status}",
                shard_id=shard_id,
                state=status,
            )
        if self.root is None:
            raise HCompressError(
                "restore_shard needs a deployment directory: construct "
                "with ShardConfig(directory=...) or recovery enabled"
            )
        if self.manifest is not None:
            # Idempotence under concurrent bumps: re-read before writing.
            # read_manifest rejects rollback (stale version); a *newer*
            # version means someone else won the race — refuse to clobber.
            disk = read_manifest(self.root, min_version=self.manifest.version)
            if disk.version > self.manifest.version:
                raise ShardManifestError(
                    f"shard manifest advanced to v{disk.version} while this "
                    f"router holds v{self.manifest.version}: a concurrent "
                    "actor re-wrote the layout; re-sync before restoring"
                )
        self._pending_failovers.discard(shard_id)
        old = self.engines[shard_id]
        if old is not None:
            old.manager.shutdown()
        engine = HCompress.restore(
            self._engine_config(shard_id).recovery.directory,
            self.hierarchies[shard_id],
            config=self.config,
            seed=self.seed,
            clock=self._clock,
            crashpoints=self.crashpoints,
        )
        self.engines[shard_id] = engine
        for tid in engine.manager.catalog_snapshot():
            self._owners[tid] = shard_id
        if self.replication is not None:
            self.replication.attach(shard_id, engine.journal)
        self.supervisor.mark_up(shard_id)
        return engine

    # -- failover (repro.replication) ----------------------------------------

    def failover(self, shard_id: int) -> HCompress:
        """Promote the most-caught-up standby of a DOWN shard.

        The promotion is staged and every stage is idempotent, so a
        crash at any of the four ``replication.*`` sites is repaired by
        calling :meth:`failover` again:

        1. **pre_promote** — candidate chosen (max applied LSN, ties to
           the lowest replica id); nothing has changed yet.
        2. Fence + re-home: the on-disk manifest is re-read with
           ``min_version`` (adopting a newer layout, rejecting rollback)
           and rewritten with the shard pointed at the standby's
           directory — **post_manifest**. Any actor holding the old
           version now fails its next manifest read.
        3. The standby directory restores through
           :meth:`HCompress.restore`, the engine is swapped in, the
           owner map rebuilt, shipping re-attached, and the supervisor
           enters the modeled PROMOTING window — **post_reroute**.
           Tenants shed retryably until the window elapses.
        4. The dead primary's directory is recycled as a new standby and
           the whole standby set reseeds from a fresh checkpoint
           (anti-entropy) — **post_demote**.

        Returns the promoted engine. Requires replication; raises
        :class:`~repro.errors.ShardStateError` for an unknown shard or
        one with nothing to fail over.
        """
        self._check_open()
        self._require_shard(shard_id)
        if self.replication is None:
            raise ShardStateError(
                f"shard {shard_id} has no standbys: replication is disabled",
                shard_id=shard_id,
                state=self.supervisor.health[shard_id].status,
            )
        if self.engines[shard_id] is None:
            self._promote(shard_id)
        elif shard_id not in self._pending_demote:
            status = self.supervisor.health[shard_id].status
            raise ShardStateError(
                f"cannot fail over shard {shard_id}: currently {status} "
                "with no promotion in flight",
                shard_id=shard_id,
                state=status,
            )
        self._finish_failover(shard_id)
        return self.engines[shard_id]

    def _promote(self, shard_id: int) -> None:
        """Stages 1-3: fence, re-home, restore, re-route."""
        coordinator = self.replication
        candidate = coordinator.promotion_candidate(shard_id)
        if self.crashpoints is not None:
            self.crashpoints.reached("replication.pre_promote")
        # Remember the dying primary's directory before re-homing: stage 4
        # recycles it as a standby.
        self._pending_demote.setdefault(
            shard_id, self.manifest.directories[shard_id]
        )
        # The fence: adopt the newest on-disk layout (>= ours; rollback is
        # rejected as stale), then bump past it with the shard re-homed.
        disk = read_manifest(self.root, min_version=self.manifest.version)
        window = self.shard_config.replication.promotion_seconds
        self.manifest = disk.with_promotion(
            shard_id,
            candidate.directory.name,
            status="PROMOTING" if window > 0 else "UP",
        )
        write_manifest(
            self.root, self.manifest, fsync=self.config.recovery.fsync
        )
        if self.crashpoints is not None:
            self.crashpoints.reached("replication.post_manifest")
        engine = HCompress.restore(
            candidate.directory,
            self.hierarchies[shard_id],
            config=self.config,
            seed=self.seed,
            clock=self._clock,
            crashpoints=self.crashpoints,
        )
        coordinator.promote(shard_id, candidate)
        self.engines[shard_id] = engine
        for tid in engine.manager.catalog_snapshot():
            self._owners[tid] = shard_id
        coordinator.attach(shard_id, engine.journal)
        self.supervisor.mark_promoting(
            shard_id, self.supervisor.now() + window
        )
        if self.crashpoints is not None:
            self.crashpoints.reached("replication.post_reroute")

    def _finish_failover(self, shard_id: int) -> None:
        """Stage 4: recycle the dead primary, reseed the standby set."""
        coordinator = self.replication
        engine = self.engines[shard_id]
        old_dirname = self._pending_demote.get(shard_id)
        if old_dirname is not None:
            coordinator.demote(shard_id, self.root / old_dirname)
        # Anti-entropy reseed: fresh checkpoint from the new primary,
        # installed on every standby (including the recycled one), then
        # the journal tail from each standby's own applied LSN.
        path = engine.checkpoint()
        coordinator.ship_checkpoint(shard_id, path.parent)
        coordinator.catch_up(shard_id, path.parent)
        if self.crashpoints is not None:
            self.crashpoints.reached("replication.post_demote")
        self._pending_demote.pop(shard_id, None)
        coordinator.failovers[shard_id] += 1
        if engine.obs is not None:
            with engine.obs.region(
                "replication.promote", shard=shard_id
            ) as span:
                span.set_attr("applied_lsn", engine.journal.durable_lsn)

    def replication_status(self) -> dict[int, dict]:
        """Per-shard replication state: primary LSN, shipped counts, and
        each standby's applied LSN + lag (the CLI's status table)."""
        self._check_open()
        if self.replication is None:
            raise HCompressError(
                "replication is disabled: enable it with "
                "ShardConfig(replication=ReplicationConfig(enabled=True))"
            )
        return self.replication.status()

    def verify_manifest(self) -> ShardManifest:
        """Re-read the on-disk manifest, rejecting stale versions."""
        if self.root is None or self.manifest is None:
            raise HCompressError("no deployment directory, no manifest")
        return read_manifest(self.root, min_version=self.manifest.version)

    # -- lifecycle tiering ---------------------------------------------------

    def lifecycle_step(self, force: bool = False) -> dict[int, list]:
        """Step every UP shard's lifecycle daemon once, in shard order.

        Each shard's daemon scans only that shard's own catalog and
        migrates within that shard's hierarchy slice — per-shard journals
        keep the WAL discipline local. Returns the migrations executed
        per shard id (shards without a daemon are omitted).
        """
        self._check_open()
        out: dict[int, list] = {}
        for shard_id in sorted(self.engines):
            engine = self.engines[shard_id]
            if (
                engine is not None
                and engine.lifecycle is not None
                and self.supervisor.is_up(shard_id)
            ):
                out[shard_id] = engine.lifecycle.step(force=force)
        return out

    def lifecycle_status(self) -> dict[int, dict]:
        """Per-shard daemon status for every live shard with one."""
        self._check_open()
        return {
            shard_id: engine.lifecycle.status()
            for shard_id, engine in sorted(self.engines.items())
            if engine is not None and engine.lifecycle is not None
        }

    # -- aggregate views -----------------------------------------------------

    def checkpoint(self) -> tuple[Path, ...]:
        """Checkpoint every live shard; returns the snapshot paths.

        With replication enabled each fresh snapshot also ships to the
        shard's standbys (periodic checkpoint shipping: a standby's
        restore cost stays bounded by the journal tail since the last
        checkpoint, not its whole history).
        """
        self._check_open()
        paths = []
        for shard_id in sorted(self.engines):
            engine = self.engines[shard_id]
            if engine is not None and self.supervisor.is_up(shard_id):
                path = engine.checkpoint()
                paths.append(path)
                if self.replication is not None:
                    self.replication.ship_checkpoint(shard_id, path.parent)
        return tuple(paths)

    def footprint_by_tier(self) -> dict[str, int]:
        """Accounted bytes per tier name, summed across shards."""
        totals: dict[str, int] = {}
        for shard_id in sorted(self.hierarchies):
            for name, used in self.hierarchies[shard_id].footprint_by_tier().items():
                totals[name] = totals.get(name, 0) + used
        return totals

    def task_count_by_shard(self) -> dict[int, int]:
        """Catalog size per live shard (distribution diagnostics)."""
        counts = {}
        for shard_id in sorted(self.engines):
            engine = self.engines[shard_id]
            if engine is not None:
                counts[shard_id] = len(engine.manager.catalog_snapshot())
        return counts

    def observabilities(self) -> dict[int, object]:
        """Shard id -> synced Observability for every live shard with
        telemetry enabled (the CLI's multi-registry aggregation input).
        A replicated deployment adds the coordinator's view of each shard
        to that shard's registry."""
        replication = (
            self.replication.status() if self.replication is not None else {}
        )
        out = {}
        for shard_id in sorted(self.engines):
            engine = self.engines[shard_id]
            if engine is not None and engine.obs is not None:
                obs = engine.sync_telemetry()
                if shard_id in replication:
                    obs.mirror(
                        replication[shard_id], ReplicationCoordinator.METRICS,
                        shard=shard_id,
                    )
                out[shard_id] = obs
        return out

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Close every live shard deterministically (idempotent).

        Joins each shard's piece thread pool and syncs + closes each
        journal via :meth:`HCompress.close`; the supervisor and router
        own no threads of their own. Safe to call repeatedly.
        """
        if self.replication is not None:
            for shard_id in sorted(self.engines):
                self.replication.detach(shard_id)
        for shard_id in sorted(self.engines):
            engine = self.engines[shard_id]
            if engine is not None:
                engine.close()
        if self.replication is not None:
            self.replication.close()
        self._closed = True

    def __enter__(self) -> "ShardedHCompress":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise HCompressError("sharded engine already closed")
