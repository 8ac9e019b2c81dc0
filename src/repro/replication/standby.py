"""A standby replica: one shard's warm spare recovery directory.

A standby is deliberately *not* a live engine — it is a recovery
directory kept continuously restorable: the primary's journal frames
land here synchronously (ship-on-append, so every acked mutation is
present even when the primary's own group-commit buffer dies with it)
and each primary checkpoint is installed as the standby's snapshot.
Promotion is then nothing new: :meth:`HCompress.restore` over the
standby directory, the same code path every crash-recovery test already
proves.

Frames are persisted verbatim — same bytes, same LSNs — by the same
:class:`~repro.recovery.journal.Journal` class the primary writes with
(torn-tail repair at open, :meth:`~repro.recovery.journal.Journal.persist`
per shipped frame, ``compact`` under an installed snapshot), so the
standby's directory is interchangeable with the primary's.
"""

from __future__ import annotations

from pathlib import Path

from ..errors import RecoveryError
from ..recovery import (
    JOURNAL_NAME,
    SNAPSHOT_NAME,
    Journal,
    JournalRecord,
    atomic_write,
    read_snapshot,
    scan_frames,
)

__all__ = ["StandbyReplica"]


class StandbyReplica:
    """One shard's standby: a shipped journal + installed snapshots.

    Args:
        shard_id: The shard this standby replicates.
        replica_id: Position within the shard's standby set (0-based);
            ties in promotion break toward the lowest id.
        directory: The standby's recovery directory (created if
            missing). An existing directory is adopted: the applied LSN
            resumes from its snapshot + journal, so a recycled old
            primary starts from whatever state it already holds.
        fsync: Issue real ``os.fsync`` per applied frame. Off still
            flushes (same modeled-durability convention as the journal).
    """

    def __init__(
        self,
        shard_id: int,
        replica_id: int,
        directory: str | Path,
        fsync: bool = True,
    ) -> None:
        self.shard_id = shard_id
        self.replica_id = replica_id
        self.directory = Path(directory)
        self.fsync = fsync
        #: The shipped journal (opening it repairs a torn tail in place).
        self.journal = Journal(self.journal_path, fsync=fsync)
        self.snapshot_lsn = self._read_snapshot_lsn()
        #: Newest LSN this standby holds durably (snapshot or journal).
        self.applied_lsn = max(self.snapshot_lsn, self.journal.last_lsn)
        self.records_applied = 0
        #: Shipped frames rejected for failing CRC/format verification.
        self.frames_rejected = 0
        self._closed = False

    @property
    def journal_path(self) -> Path:
        return self.directory / JOURNAL_NAME

    def _read_snapshot_lsn(self) -> int:
        try:
            return read_snapshot(self.directory).journal_lsn
        except RecoveryError:
            return 0

    # -- shipping ------------------------------------------------------------

    def apply(
        self, record: JournalRecord, frame: bytes | None = None
    ) -> bool:
        """Persist one shipped record; returns False when not applied.

        Idempotent by LSN: re-shipped records (an anti-entropy pass
        overlapping the live stream) are dropped, so the standby journal
        stays strictly monotone and replayable.

        ``frame`` is the record's wire form as it arrived (length prefix
        + CRC32 + payload). When given, it is verified *before* a byte
        reaches the standby journal — frame CRC, decodability, and LSN
        agreement with ``record`` — because a corrupt shipped frame
        persisted verbatim would silently truncate every future replay at
        that point. A bad frame is rejected (``frames_rejected``) without
        advancing ``applied_lsn``, so the next :meth:`~.coordinator.
        ReplicationCoordinator.catch_up` pass re-fetches the record from
        the primary's own journal. With ``frame`` omitted the wire form
        is re-encoded locally (trusted in-process hand-off).
        """
        self._check_open()
        if record.lsn <= self.applied_lsn:
            return False
        if frame is None:
            frame = record.frame()
        elif not self._frame_valid(record, frame):
            self.frames_rejected += 1
            return False
        self.journal.persist(record, frame)
        self.applied_lsn = record.lsn
        self.records_applied += 1
        return True

    @staticmethod
    def _frame_valid(record: JournalRecord, frame: bytes) -> bool:
        """Whether a shipped wire frame is intact and matches ``record``:
        it scans to exactly one record, with that LSN, and no remainder."""
        records, end, _ = scan_frames(frame)
        return end == len(frame) and [r.lsn for r in records] == [record.lsn]

    def install_snapshot(self, source_directory: str | Path) -> int:
        """Adopt the primary's checkpoint; returns its journal LSN.

        Copies ``snapshot.json`` through
        :func:`~repro.recovery.journal.atomic_write`, then compacts the
        standby journal down to the suffix the snapshot does not cover —
        mirroring what the primary's own checkpoint did to its journal,
        so standby and primary stay structurally interchangeable.
        """
        self._check_open()
        blob = (Path(source_directory) / SNAPSHOT_NAME).read_bytes()
        atomic_write(self.directory / SNAPSHOT_NAME, blob, self.fsync)
        self.snapshot_lsn = self._read_snapshot_lsn()
        self.journal.compact(self.snapshot_lsn)
        self.applied_lsn = max(self.applied_lsn, self.snapshot_lsn)
        return self.snapshot_lsn

    def lag(self, primary_lsn: int) -> int:
        """Records the primary has acked that this standby has not."""
        return max(0, primary_lsn - self.applied_lsn)

    def close(self) -> None:
        """Release the journal descriptor (idempotent); state stays on
        disk — exactly what promotion restores from."""
        self.journal.close()
        self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise RecoveryError(
                f"standby {self.directory} is closed (promoted or shut down)"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StandbyReplica(shard={self.shard_id}, r={self.replica_id}, "
            f"applied_lsn={self.applied_lsn})"
        )
