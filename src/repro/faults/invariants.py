"""The chaos runner's invariant table: every contract, by name.

Each entry of :data:`INVARIANTS` is one check over a finished
:class:`~repro.faults.scenario.ScenarioRun` — its outcome counters and
the live post-recovery state — returning ``None`` when the invariant
holds or a one-line detail when it is broken. A scenario selects rows by
name; :meth:`ScenarioRun.audit` evaluates the selected ones in table
order (the restore audits first: they must see the restored catalog
before any scrub heal or read touches it). The contracts are promised in
docs/RECOVERY.md (durability), docs/INTEGRITY.md, docs/RESILIENCE.md
(overload) and docs/SHARDING.md (failure domains, failover).
"""

from __future__ import annotations

from ..errors import ShardStateError
from ..qos import QosClass
from ..scrub import fsck_engine
from ..shard.manifest import read_manifest

__all__ = ["INVARIANTS", "RESTORE_AUDIT"]


def _idempotent_replay(run) -> str | None:
    """Applying the whole surviving journal a second time leaves the
    restored catalog byte-identical."""
    restored = run.reader
    before = restored.manager.catalog_snapshot()
    for record in restored.journal.recovered.records:
        restored.manager.apply_journal_record(record)
    if restored.manager.catalog_snapshot() != before:
        return "re-applying the journal changed the restored catalog"
    return None


def _identical_double_restore(run) -> str | None:
    """A second independent restore lands in the same state and finds
    nothing left to repair."""
    twin = run.restore()
    try:
        report = twin.recovery_report
        same = (
            twin.manager.catalog_snapshot() == run.reader.manager.catalog_snapshot()
            and twin.predictor.model_version == run.reader.predictor.model_version
            and report.orphans_evicted == 0
            and report.duplicates_evicted == 0
        )
    finally:
        twin.close()
    return None if same else "a second restore differs from the first"


def _no_orphan_keys(run) -> str | None:
    """Capacity hygiene: every tier extent belongs to the catalog
    (unacknowledged writes leak nothing), no key is double-held, and the
    restore found every key the catalog references."""
    referenced = {
        entry[0]
        for entries in run.reader.manager.catalog_snapshot().values()
        for entry in entries
    }
    tier_keys = [key for tier in run.hierarchy for key in tier.keys()]
    orphans = sum(key not in referenced for key in tier_keys)
    duplicates = len(tier_keys) - len(set(tier_keys))
    missing = run.outcome.recovery.missing_keys
    if orphans or duplicates or missing:
        return f"{orphans} orphan, {duplicates} duplicate, {missing} missing keys"
    return None


def _failover_idempotent(run) -> str | None:
    """With nothing in flight a further ``failover()`` is refused as a
    typed state error and changes no durable state."""
    killed = run.outcome.killed_shard
    if killed is None:
        return None
    version = run.sharded.manifest.version
    try:
        run.sharded.failover(killed)
    except ShardStateError:
        if run.sharded.manifest.version == version:
            return None
        return "a refused failover() still bumped the manifest"
    return "a further failover() was not refused"


def _evicted_stay_gone(run) -> str | None:
    back = sorted(t for t in run.evicted if run.present(t))
    return f"acked evicts came back: {back}" if back else None


def _acked_read_back(run) -> str | None:
    out = run.outcome
    run.read_back()
    if out.mismatched or out.missing_acked:
        unreadable = f" ({run.read_error})" if run.read_error else ""
        return (
            f"{out.missing_acked} acked writes missing or unreadable"
            f"{unreadable}, {out.mismatched} not byte-identical"
        )
    return None


def _fsck_clean(run) -> str | None:
    """Nothing quarantined, and a live fsck pass agrees the store is
    consistent (catalog <-> extents <-> ledger <-> digests)."""
    quarantined = len(run.reader.manager.quarantined)
    report = fsck_engine(run.reader, digest_samples=len(run.buffers))
    errors = report.count("error") + report.count("fatal")
    if quarantined or errors:
        return f"{quarantined} pieces quarantined, {errors} fsck errors"
    return None


def _only_low_classes_shed(run) -> str | None:
    protected = int(QosClass.INTERACTIVE)
    shed = sorted(c for c in run.outcome.shed_by_class if c >= protected)
    return f"protected classes shed: {shed}" if shed else None


def _admitted_accounted(run) -> str | None:
    """Every admitted task completed or failed with a typed error —
    nothing vanishes silently. Only the write in flight when a crash
    fired may go without a verdict."""
    out = run.outcome
    typed = out.deadline_failures + out.unavailable + out.deferred
    if out.admitted != out.completed + typed:
        return (
            f"{out.admitted} admitted != {out.completed} completed + "
            f"{typed} typed failures"
        )
    if out.offered - len(out.events) > out.crashed:
        return f"{out.offered} offered but only {len(out.events)} verdicts"
    return None


def _kill_recorded(run) -> str | None:
    """A scenario that asked for a kill must have killed (and, without
    standbys, restored) a shard — or it proved nothing."""
    out = run.outcome
    if run.config.kills and out.killed_shard is None:
        return "a kill was requested but none was recorded"
    if out.killed_shard is not None and not out.recovered:
        return f"shard {out.killed_shard} was killed and never came back"
    return None


def _blast_radius(run) -> str | None:
    """Only tenants homed on a killed shard *without* standbys may ever see
    it unavailable; replicated (failover must beat the routing gate) or
    undisturbed, nobody may."""
    out = run.outcome
    allowed = set() if run.config.replicas else out.expected_tenants
    leaked = sorted(out.affected_tenants - allowed)
    return f"unavailability leaked to {leaked}" if leaked else None


def _survivors_undisturbed(run) -> str | None:
    disturbed = [
        e.task_id for e in run.outcome.survivor_events()
        if e.status != "completed"
    ]
    return f"survivor tasks did not complete: {disturbed}" if disturbed else None


def _unavailability_bounded(run) -> str | None:
    """DOWN -> UP, from the supervisor's own trace, within the modeled
    promotion window plus the one arrival it takes the next dispatch to
    notice (with float headroom)."""
    out, c = run.outcome, run.config
    if out.killed_shard is None:
        return None
    out.unavailability_bound = c.promotion_seconds + 2 * c.interarrival + 1e-6
    at = {
        status: [
            t for s, t, shard, _ in run.sharded.supervisor.trace
            if s == status and shard == out.killed_shard
        ]
        for status in ("DOWN", "UP")
    }
    out.unavailability_seconds = (
        at["UP"][-1] - at["DOWN"][0]
        if at["DOWN"] and at["UP"]
        else float("inf")  # never came back: fail the bound loudly
    )
    if out.promotions < 1:
        return "the killed primary's standby was never promoted"
    if out.unavailability_seconds > out.unavailability_bound:
        return (
            f"window {out.unavailability_seconds:.3f}s exceeds the "
            f"{out.unavailability_bound:.3f}s bound"
        )
    return None


def _fence_consistent(run) -> str | None:
    """The durable manifest matches the router's fenced in-memory view
    (same version, same shard homes)."""
    manifest = run.sharded.manifest
    disk = read_manifest(run.sharded.root, min_version=1)
    if (disk.version, disk.directories) != (
        manifest.version, manifest.directories
    ):
        return f"disk manifest v{disk.version} != fenced v{manifest.version}"
    return None


#: name -> check, in evaluation order.
INVARIANTS = {
    "idempotent_replay": _idempotent_replay,
    "identical_double_restore": _identical_double_restore,
    "no_orphan_keys": _no_orphan_keys,
    "failover_idempotent": _failover_idempotent,
    "evicted_stay_gone": _evicted_stay_gone,
    "acked_read_back": _acked_read_back,
    "fsck_clean": _fsck_clean,
    "only_low_classes_shed": _only_low_classes_shed,
    "admitted_accounted": _admitted_accounted,
    "kill_recorded": _kill_recorded,
    "blast_radius": _blast_radius,
    "survivors_undisturbed": _survivors_undisturbed,
    "unavailability_bounded": _unavailability_bounded,
    "fence_consistent": _fence_consistent,
}
#: Checks of a single engine's *restore*; selecting one makes the scenario
#: restore (see ``ScenarioConfig.invariants``).
RESTORE_AUDIT = frozenset(
    {"idempotent_replay", "identical_double_restore", "no_orphan_keys"}
)
