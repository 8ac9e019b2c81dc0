"""``hcompress fsck``: offline and live integrity checking of a store.

The scrubber patrols a *running* engine; fsck is the complement for
everything else — a crashed deployment before restore, a directory of
unknown provenance, a CI gate after a chaos run. It cross-checks every
durable artifact against the others:

* **snapshot ↔ journal** — both parse, LSNs are monotone, the journal
  suffix continues exactly where the snapshot's ``journal_lsn`` left off
  (a gap means lost mutations), and a torn tail is reported (and cut
  back with ``--repair``: the same durable
  :func:`~repro.recovery.journal.repair_tail` opening a ``Journal``
  performs).
* **catalog** — reconstructed by the
  :func:`~repro.recovery.journal.replay_catalog` restore itself runs; a
  piece key claimed by two tasks is corruption no replay can hide.
* **shard manifest ↔ shard/replica directories** (sharded roots) — the
  manifest parses, every directory it names exists, and each shard's and
  standby replica's recovery directory passes the single-store checks.
* **catalog ↔ tier extents** (live engines) — orphaned extents,
  duplicated keys, missing referenced keys, and per-tier capacity-ledger
  drift (the sum of accounted extents vs the ledger's ``used``).
* **digest spot-checks** (live engines) — a bounded sample of
  payload-bearing pieces is re-read and validated end to end.

Findings are machine-readable (:meth:`FsckReport.to_dict`); the CLI maps
:attr:`FsckReport.exit_code` straight to the process exit status
(0 clean / 1 warnings / 2 errors / 3 store unreadable). ``repair=True``
applies only the conservative subset — truncating torn journal tails,
deleting leftover ``*.tmp`` files, and (live) evicting orphaned or
duplicated extents — never anything that invents data.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from pathlib import Path

from ..codecs.metadata import unwrap_payload
from ..errors import CodecError, RecoveryError, SchemaError, TierError
from ..hashing import content_hash64
from ..recovery.journal import (
    JOURNAL_NAME,
    repair_tail,
    replay_catalog,
    replay_journal,
)
from ..recovery.snapshot import SNAPSHOT_NAME, read_snapshot

__all__ = [
    "Finding",
    "FsckReport",
    "fsck_engine",
    "fsck_store",
    "validate_entry",
]


def validate_entry(entry, blob: bytes) -> bool:
    """Whether a stored blob matches its catalog entry end to end.

    Checks the stored-blob CRC32 first (cheap, catches at-rest rot), then
    — when the entry carries a content digest — decodes the piece and
    compares the digest of the *uncompressed* bytes, which catches what
    the blob CRC cannot: a stale blob whose CRC matches itself but not
    the data the catalog promises.
    """
    crc = entry[3]  # accepts CatalogEntry and raw 4/5-element tuples
    if crc is not None and zlib.crc32(blob) != crc:
        return False
    digest = entry[4] if len(entry) > 4 else None
    if digest is not None:
        try:
            data, _header = unwrap_payload(blob)
        except (SchemaError, CodecError):
            return False
        if content_hash64(data) != digest:
            return False
    return True


@dataclass(frozen=True)
class Finding:
    """One fsck observation.

    ``severity`` is ``"warning"`` (suspicious but the store restores),
    ``"error"`` (the store is inconsistent), or ``"fatal"`` (the store
    cannot even be read). ``repaired`` records that ``repair=True``
    actually fixed it in place.
    """

    check: str
    severity: str
    detail: str
    repaired: bool = False


@dataclass
class FsckReport:
    """Everything one fsck pass found, with the CLI's exit-code mapping."""

    store: str
    findings: list[Finding] = field(default_factory=list)
    tasks: int = 0
    pieces: int = 0
    digests_checked: int = 0

    def add(
        self, check: str, severity: str, detail: str, repaired: bool = False
    ) -> None:
        self.findings.append(Finding(check, severity, detail, repaired))

    def count(self, severity: str) -> int:
        return sum(1 for f in self.findings if f.severity == severity)

    @property
    def clean(self) -> bool:
        return not self.findings

    @property
    def exit_code(self) -> int:
        """0 clean / 1 warnings only / 2 errors / 3 store unreadable.

        A repaired finding still counts: fsck reports what it *found*,
        and a second run proves the repair (exit 0).
        """
        if self.count("fatal"):
            return 3
        if self.count("error"):
            return 2
        if self.count("warning"):
            return 1
        return 0

    def to_dict(self) -> dict:
        return {
            "store": self.store,
            "clean": self.clean,
            "exit_code": self.exit_code,
            "tasks": self.tasks,
            "pieces": self.pieces,
            "digests_checked": self.digests_checked,
            "errors": self.count("error") + self.count("fatal"),
            "warnings": self.count("warning"),
            "findings": [
                {
                    "check": f.check,
                    "severity": f.severity,
                    "detail": f.detail,
                    "repaired": f.repaired,
                }
                for f in self.findings
            ],
        }

    def merge(self, other: "FsckReport", prefix: str) -> None:
        """Fold a sub-store's report in, prefixing its check names."""
        for f in other.findings:
            self.findings.append(
                Finding(f"{prefix}:{f.check}", f.severity, f.detail, f.repaired)
            )
        self.tasks += other.tasks
        self.pieces += other.pieces
        self.digests_checked += other.digests_checked


# -- offline: recovery directories --------------------------------------------


def fsck_store(directory: str | Path, repair: bool = False) -> FsckReport:
    """Check one store on disk: a recovery directory, or a sharded root.

    A directory containing a shard manifest (``shard-map.json``) is
    checked as a deployment: the manifest itself, then every shard
    recovery directory it names, then every standby replica directory
    beside them — each with the full single-store cross-checks, findings
    prefixed with the sub-directory name. Anything else is checked as a
    single engine's recovery directory.
    """
    # Imported lazily: repro.shard pulls the engine package in, and
    # core.config already imports repro.scrub for ScrubConfig.
    from ..shard.manifest import MANIFEST_NAME, ShardManifestError, read_manifest

    directory = Path(directory)
    report = FsckReport(store=str(directory))
    if not directory.is_dir():
        report.add("store", "fatal", f"{directory} is not a directory")
        return report
    if not (directory / MANIFEST_NAME).exists():
        _fsck_recovery_dir(directory, report, repair)
        return report

    try:
        manifest = read_manifest(directory)
    except ShardManifestError as exc:
        report.add("manifest", "fatal", str(exc))
        return report
    for shard_id in range(manifest.shards):
        name = manifest.directories.get(shard_id)
        if name is None:
            report.add(
                "manifest.directories", "error",
                f"shard {shard_id} has no directory entry",
            )
            continue
        shard_dir = directory / name
        if not shard_dir.is_dir():
            report.add(
                "manifest.directories", "error",
                f"shard {shard_id} directory {name!r} is missing",
            )
            continue
        sub = FsckReport(store=str(shard_dir))
        _fsck_recovery_dir(shard_dir, sub, repair)
        report.merge(sub, name)
    # Standby replicas live flat beside the primaries (shard-NN-rK); the
    # manifest does not enumerate them, so discover by naming convention.
    for replica_dir in sorted(directory.glob("shard-*-r*")):
        if not replica_dir.is_dir():
            continue
        sub = FsckReport(store=str(replica_dir))
        _fsck_recovery_dir(replica_dir, sub, repair)
        report.merge(sub, replica_dir.name)
    return report


def _fsck_recovery_dir(
    directory: Path, report: FsckReport, repair: bool
) -> None:
    """The single-store checks: snapshot ↔ journal ↔ reconstructed catalog."""
    snapshot = None
    snapshot_path = directory / SNAPSHOT_NAME
    journal_path = directory / JOURNAL_NAME
    if not snapshot_path.exists() and not journal_path.exists():
        report.add(
            "store", "fatal",
            f"{directory} holds neither {SNAPSHOT_NAME} nor {JOURNAL_NAME}",
        )
        return
    if snapshot_path.exists():
        try:
            snapshot = read_snapshot(directory)
        except RecoveryError as exc:
            report.add("snapshot", "fatal", str(exc))
            return
    else:
        report.add(
            "snapshot", "warning",
            "no snapshot (engine never checkpointed); "
            "catalog reconstructed from the journal alone",
        )

    replay = replay_journal(journal_path)
    if replay.truncated:
        if repair:
            repair_tail(journal_path, replay, fsync=True)
        report.add(
            "journal.tail", "warning",
            f"torn tail ({replay.reason}); "
            f"{replay.valid_bytes} valid bytes keep {len(replay.records)} "
            "records",
            repaired=repair,
        )
    last_lsn = 0
    for record in replay.records:
        if record.lsn <= last_lsn:
            report.add(
                "journal.lsn", "error",
                f"non-monotone LSN {record.lsn} after {last_lsn}",
            )
        last_lsn = record.lsn

    snapshot_lsn = snapshot.journal_lsn if snapshot is not None else 0
    catalog, suffix = replay_catalog(snapshot, replay.records)
    if suffix and suffix[0].lsn > snapshot_lsn + 1:
        report.add(
            "journal.gap", "error",
            f"journal resumes at LSN {suffix[0].lsn} but the snapshot "
            f"covers only {snapshot_lsn}: records "
            f"{snapshot_lsn + 1}..{suffix[0].lsn - 1} are lost",
        )

    report.tasks += len(catalog)
    owners: dict[str, str] = {}
    for task_id, entries in catalog.items():
        for entry in entries:
            report.pieces += 1
            key = entry[0]
            if key in owners:
                report.add(
                    "catalog.duplicate", "error",
                    f"piece key {key!r} claimed by tasks "
                    f"{owners[key]!r} and {task_id!r}",
                )
            else:
                owners[key] = task_id

    for tmp in sorted(directory.glob("*.tmp")):
        if repair:
            tmp.unlink()
        report.add(
            "store.tmp", "warning",
            f"leftover temporary file {tmp.name!r} "
            "(crash mid-atomic-replace)",
            repaired=repair,
        )


# -- live: a running engine ----------------------------------------------------


def fsck_engine(
    engine, digest_samples: int = 8, repair: bool = False
) -> FsckReport:
    """Cross-check a live engine's catalog against its tiers.

    ``digest_samples`` bounds how many payload-bearing pieces are
    re-read and validated end to end (0 disables the spot-check).
    ``repair=True`` evicts orphaned and duplicated extents — the same
    sweep restore performs, safe because no catalog entry references
    them (orphans) or reads resolve elsewhere (duplicates).
    """
    report = FsckReport(store="<engine>")
    manager = engine.manager
    catalog = {
        task_id: manager.task_entries(task_id)
        for task_id in manager.task_ids()
    }
    report.tasks = len(catalog)
    referenced: dict[str, tuple] = {}
    for task_id, entries in catalog.items():
        for entry in entries:
            report.pieces += 1
            if entry.key in referenced:
                report.add(
                    "catalog.duplicate", "error",
                    f"piece key {entry.key!r} claimed by two tasks",
                )
            referenced[entry.key] = entry

    claimed: set[str] = set()
    for tier in engine.hierarchy:
        if not tier.available:
            report.add(
                "tier.down", "warning",
                f"tier {tier.spec.name!r} is unavailable; "
                "its extents were not checked",
            )
            continue
        ledger = 0
        for key in sorted(tier.keys()):
            extent = tier.extent(key)
            ledger += extent.accounted_size
            if key not in referenced:
                if repair:
                    tier.evict(key)
                report.add(
                    "extent.orphan", "error",
                    f"tier {tier.spec.name!r} holds unreferenced key "
                    f"{key!r} ({extent.accounted_size} bytes)",
                    repaired=repair,
                )
            elif key in claimed:
                # find() already resolved this key to an upper tier; the
                # copy here is a stale leftover.
                if repair:
                    tier.evict(key)
                report.add(
                    "extent.duplicate", "warning",
                    f"key {key!r} duplicated on tier {tier.spec.name!r}",
                    repaired=repair,
                )
            else:
                claimed.add(key)
        if not repair and ledger != tier.used:
            # (After repairs the evictions legitimately moved the ledger.)
            report.add(
                "tier.ledger", "error",
                f"tier {tier.spec.name!r} ledger drift: extents sum to "
                f"{ledger} bytes but the ledger says {tier.used}",
            )
    for key in sorted(set(referenced) - claimed):
        report.add(
            "extent.missing", "error",
            f"catalog references key {key!r} but no tier holds it",
        )

    checked = 0
    for key in sorted(referenced):
        if checked >= digest_samples:
            break
        if key in manager.quarantined:
            continue
        tier = engine.hierarchy.find(key)
        if tier is None or not tier.available:
            continue
        if not tier.extent(key).has_payload:
            continue
        try:
            blob = tier.get(key)
        except TierError:
            continue
        checked += 1
        if not validate_entry(referenced[key], blob):
            report.add(
                "digest.mismatch", "error",
                f"piece {key!r} on tier {tier.spec.name!r} fails "
                "end-to-end validation (latent corruption)",
            )
    report.digests_checked = checked
    if manager.quarantined:
        report.add(
            "quarantine", "warning",
            f"{len(manager.quarantined)} piece(s) quarantined: "
            + ", ".join(sorted(manager.quarantined)),
        )
    return report
