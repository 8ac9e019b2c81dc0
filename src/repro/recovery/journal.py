"""Write-ahead journal of catalog mutations.

The Compression Manager's placement catalog (task id -> 16-byte sub-task
header tuples) is the state that makes acknowledged bytes readable; losing
it to a crash makes every stored piece unreachable. The :class:`Journal`
makes catalog mutations durable *before* they are acknowledged:

* **Framing** — each record is one length-prefixed, CRC32-framed JSON
  payload (``<u32 length><u32 crc32><payload>``). A frame is either wholly
  valid or the journal is cut at that point.
* **fsync-modeled batching** — :meth:`append` buffers records in memory;
  :meth:`sync` writes every buffered frame, flushes, and ``os.fsync``\\ s
  the descriptor. Records are durable only after a sync: a modeled crash
  (abandoning the object) loses exactly the unsynced suffix, which is what
  a real kernel would lose too. ``fsync_every`` batches syncs for
  group-commit write patterns.
* **Replay tolerance** — :func:`replay_journal` stops at the first torn or
  corrupted frame and reports the byte offset of the last intact record,
  so recovery after a mid-sync crash keeps every record that was fully
  synced. :meth:`Journal.open` repairs (truncates) a torn tail in place.
* **Idempotence** — records carry a monotone LSN and describe *state*, not
  deltas: applying a record twice leaves the catalog byte-identical (see
  :meth:`~repro.core.manager.CompressionManager.apply_journal_record`).
* **Shipping** — :meth:`Journal.add_observer` registers a synchronous
  per-record hook fired on every :meth:`append`, *before* the write is
  acknowledged. Replication rides this: a standby that persists each
  observed frame holds a superset of the primary's durable state (the
  primary's group-commit buffer is exactly what a crash loses locally).
  :class:`JournalCursor` is the pull-side complement: a resumable
  streaming reader over the on-disk frames for anti-entropy catch-up.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import JournalCorruptError, RecoveryError
from ..obs import Metric

__all__ = [
    "JOURNAL_NAME",
    "Journal",
    "JournalCursor",
    "JournalRecord",
    "JournalReplay",
    "replay_journal",
]

#: Default journal file name inside a recovery directory.
JOURNAL_NAME = "journal.wal"

#: Frame header: payload length, CRC32 of the payload.
_FRAME = struct.Struct("<II")
FRAME_HEADER_SIZE: int = _FRAME.size

#: Hard bound on one record's payload; a length field beyond this is
#: treated as frame corruption rather than an allocation request.
_MAX_PAYLOAD = 16 * 1024 * 1024

#: Record kinds the catalog understands.
RECORD_KINDS = ("commit", "evict")


@dataclass(frozen=True)
class JournalRecord:
    """One durable catalog mutation.

    Attributes:
        lsn: Monotone log sequence number (1-based, assigned on append).
        kind: ``"commit"`` (a task's pieces are all placed) or ``"evict"``
            (a task's pieces were released).
        task_id: The mutated catalog key.
        entries: For commits: the full catalog entry list, as
            ``(key, length, codec, crc32-or-None)`` tuples — optionally
            carrying a 5th element, the end-to-end content digest
            (``repro.scrub``). Empty for evictions. Digest-less entries
            serialize in the legacy 4-element form so journals written
            with digests off stay byte-identical to pre-digest builds.
    """

    lsn: int
    kind: str
    task_id: str
    entries: tuple[tuple[str, int, str, int | None], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in RECORD_KINDS:
            raise RecoveryError(f"unknown journal record kind {self.kind!r}")
        if self.lsn < 1:
            raise RecoveryError(f"journal LSN must be >= 1, got {self.lsn}")

    def to_payload(self) -> bytes:
        return json.dumps(
            {
                "lsn": self.lsn,
                "kind": self.kind,
                "task": self.task_id,
                "entries": [
                    list(entry[:4])
                    if len(entry) < 5 or entry[4] is None
                    else list(entry)
                    for entry in self.entries
                ],
            },
            separators=(",", ":"),
        ).encode("utf-8")

    @classmethod
    def from_payload(cls, payload: bytes) -> "JournalRecord":
        try:
            raw = json.loads(payload.decode("utf-8"))
            entries = []
            for item in raw.get("entries", ()):
                k, length, codec, crc = item[:4]
                entry = (
                    str(k), int(length), str(codec),
                    None if crc is None else int(crc),
                )
                if len(item) > 4 and item[4] is not None:
                    entry += (int(item[4]),)
                entries.append(entry)
            return cls(
                lsn=int(raw["lsn"]),
                kind=str(raw["kind"]),
                task_id=str(raw["task"]),
                entries=tuple(entries),
            )
        except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
            raise JournalCorruptError(
                f"journal record payload is malformed: {exc}"
            ) from exc

    def frame(self) -> bytes:
        payload = self.to_payload()
        return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


@dataclass
class JournalReplay:
    """Outcome of scanning a journal file.

    Attributes:
        records: Every intact record, in write order.
        valid_bytes: File offset just past the last intact frame.
        truncated: True when the scan stopped before EOF (torn tail or a
            corrupted frame) — everything past ``valid_bytes`` is garbage.
        reason: Human-readable cause when ``truncated``.
    """

    records: list[JournalRecord] = field(default_factory=list)
    valid_bytes: int = 0
    truncated: bool = False
    reason: str | None = None

    @property
    def last_lsn(self) -> int:
        return self.records[-1].lsn if self.records else 0


def replay_journal(path: str | Path) -> JournalReplay:
    """Scan a journal file, tolerating a torn or corrupted tail.

    The scan walks frames from the start and stops at the first problem —
    a truncated frame header, a payload shorter than its length prefix, a
    CRC mismatch, or an undecodable payload. Everything before the bad
    frame is returned; everything at and after it is reported via
    ``truncated``/``reason`` and should be cut with :meth:`Journal.open`
    (or ignored). A missing file replays to an empty journal.
    """
    path = Path(path)
    result = JournalReplay()
    try:
        blob = path.read_bytes()
    except FileNotFoundError:
        return result
    offset = 0
    while offset < len(blob):
        header = blob[offset : offset + FRAME_HEADER_SIZE]
        if len(header) < FRAME_HEADER_SIZE:
            result.truncated = True
            result.reason = f"torn frame header at offset {offset}"
            break
        length, crc = _FRAME.unpack(header)
        if length > _MAX_PAYLOAD:
            result.truncated = True
            result.reason = (
                f"frame at offset {offset} claims {length} bytes "
                f"(> {_MAX_PAYLOAD} cap); treating as corruption"
            )
            break
        start = offset + FRAME_HEADER_SIZE
        payload = blob[start : start + length]
        if len(payload) < length:
            result.truncated = True
            result.reason = f"torn payload at offset {offset}"
            break
        if zlib.crc32(payload) != crc:
            result.truncated = True
            result.reason = f"CRC mismatch at offset {offset}"
            break
        try:
            record = JournalRecord.from_payload(payload)
        except JournalCorruptError as exc:
            result.truncated = True
            result.reason = f"undecodable record at offset {offset}: {exc}"
            break
        result.records.append(record)
        offset = start + length
        result.valid_bytes = offset
    return result


class Journal:
    """Appendable write-ahead journal over one file.

    Args:
        path: Journal file; created if missing. An existing file is
            replayed at open so LSNs continue, and a torn tail (from a
            crash mid-sync) is truncated to the last intact record.
        fsync_every: Group-commit batch: :meth:`commit` forces a sync
            once this many records are buffered (1 = sync every record,
            the strictest durability).
        fsync: When False, skip the real ``os.fsync`` (still flushes).
            Test/bench knob; the durability *model* (buffer lost on
            crash, file kept) is unchanged.
        crashpoints: Optional crash-point arbiter; :meth:`sync` honours
            the ``journal.pre_sync`` and ``journal.torn_sync`` sites
            (the latter writes a *partial* frame before dying, producing
            a genuinely torn tail for recovery to repair).
    """

    #: The families this object exports (``Observability.mirror``).
    METRICS = (
        Metric(
            "hcompress_recovery_journal_records_total",
            "WAL records appended this engine lifetime", "records_appended",
        ),
        Metric(
            "hcompress_recovery_journal_syncs_total",
            "WAL sync batches (write + flush + fsync)", "syncs",
        ),
        Metric(
            "hcompress_recovery_journal_bytes_total", "WAL bytes made durable",
            "bytes_synced",
        ),
        Metric(
            "hcompress_recovery_journal_durable_lsn",
            "newest journal record guaranteed on stable storage", "durable_lsn",
            kind="gauge",
        ),
    )

    def __init__(
        self,
        path: str | Path,
        fsync_every: int = 1,
        fsync: bool = True,
        crashpoints=None,
    ) -> None:
        if fsync_every < 1:
            raise RecoveryError(f"fsync_every must be >= 1, got {fsync_every}")
        self.path = Path(path)
        self.fsync_every = fsync_every
        self.fsync = fsync
        self.crashpoints = crashpoints
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.recovered = replay_journal(self.path)
        if self.recovered.truncated:
            # Repair in place: cut the torn tail so appends extend the
            # last intact record instead of burying garbage mid-file.
            with open(self.path, "r+b") as handle:
                handle.truncate(self.recovered.valid_bytes)
                handle.flush()
                if self.fsync:
                    os.fsync(handle.fileno())
        self._file = open(self.path, "ab")
        self._buffer: list[bytes] = []
        self._next_lsn = self.recovered.last_lsn + 1
        self._durable_lsn = self.recovered.last_lsn
        self.records_appended = 0
        self.syncs = 0
        self.bytes_synced = 0
        self._observers: list = []
        self._closed = False

    # -- shipping ------------------------------------------------------------

    def add_observer(self, callback) -> None:
        """Register a synchronous per-record hook: ``callback(record)``
        fires on every :meth:`append`, before the mutation is acked.

        Every appended record *is* an acknowledged catalog mutation
        (failed writes roll back before journaling), so an observer that
        persists each record sees strictly more than the local file does
        under group commit — the basis of synchronous WAL shipping.
        With no observers registered the append path is unchanged.
        """
        self._observers.append(callback)

    def remove_observer(self, callback) -> None:
        self._observers.remove(callback)

    # -- write path ----------------------------------------------------------

    @property
    def last_lsn(self) -> int:
        """LSN of the newest appended record (durable or not)."""
        return self._next_lsn - 1

    @property
    def durable_lsn(self) -> int:
        """LSN of the newest record guaranteed on stable storage."""
        return self._durable_lsn

    @property
    def pending(self) -> int:
        """Appended-but-unsynced records (lost if the process dies now)."""
        return len(self._buffer)

    def ensure_lsn_floor(self, lsn: int) -> None:
        """Advance the LSN counters past ``lsn`` (no-op if already there).

        After a checkpoint compacts the journal to empty, the file alone
        no longer carries the LSN high-water mark — a reopen would hand
        out LSNs a snapshot already covers, and restore would silently
        skip those records. Restore re-seeds the floor from the
        snapshot's ``journal_lsn``; records at or below it are durable by
        virtue of the snapshot itself.
        """
        self._check_open()
        if lsn >= self._next_lsn:
            self._next_lsn = lsn + 1
        if lsn > self._durable_lsn:
            self._durable_lsn = lsn

    def append(
        self,
        kind: str,
        task_id: str,
        entries: tuple[tuple[str, int, str, int | None], ...] = (),
    ) -> JournalRecord:
        """Buffer one record (not yet durable); returns it with its LSN."""
        self._check_open()
        record = JournalRecord(self._next_lsn, kind, task_id, entries)
        self._buffer.append(record.frame())
        self._next_lsn += 1
        self.records_appended += 1
        if self._observers:
            for callback in self._observers:
                callback(record)
        return record

    def commit(
        self,
        kind: str,
        task_id: str,
        entries: tuple[tuple[str, int, str, int | None], ...] = (),
    ) -> JournalRecord:
        """Append one record and sync if the batch threshold is reached."""
        record = self.append(kind, task_id, entries)
        if len(self._buffer) >= self.fsync_every:
            self.sync()
        return record

    def sync(self) -> None:
        """Make every buffered record durable (write + flush + fsync)."""
        self._check_open()
        if not self._buffer:
            return
        if self.crashpoints is not None:
            self.crashpoints.reached("journal.pre_sync")
        data = b"".join(self._buffer)
        if self.crashpoints is not None and self.crashpoints.trigger(
            "journal.torn_sync"
        ):
            # Model a crash mid-write: half a frame reaches the platter.
            torn = data[: max(len(data) // 2, 1)]
            self._file.write(torn)
            self._file.flush()
            if self.fsync:
                os.fsync(self._file.fileno())
            self._buffer.clear()
            self.crashpoints.die("journal.torn_sync")
        self._file.write(data)
        self._file.flush()
        if self.fsync:
            os.fsync(self._file.fileno())
        self.bytes_synced += len(data)
        self.syncs += 1
        self._durable_lsn = self._next_lsn - 1
        self._buffer.clear()

    def compact(self, keep_after_lsn: int) -> int:
        """Drop records with ``lsn <= keep_after_lsn`` (they are covered by
        a snapshot); returns how many records remain. Atomic: the surviving
        suffix is rewritten to a temp file and renamed over the journal.
        """
        self._check_open()
        self.sync()
        survivors = [
            r for r in replay_journal(self.path).records
            if r.lsn > keep_after_lsn
        ]
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        with open(tmp, "wb") as handle:
            for record in survivors:
                handle.write(record.frame())
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
        self._file.close()
        os.replace(tmp, self.path)
        self._file = open(self.path, "ab")
        return len(survivors)

    def close(self) -> None:
        """Sync outstanding records and release the descriptor (idempotent)."""
        if self._closed:
            return
        self.sync()
        self._file.close()
        self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise RecoveryError(f"journal {self.path} is closed")


class JournalCursor:
    """Resumable streaming reader over a journal file's durable frames.

    Tracks ``(lsn, byte offset)`` across calls so each
    :meth:`read_new` returns only records not yet seen — the pull side
    of anti-entropy: a lagging standby replays the primary's tail from
    its own last-applied LSN. Only what the file holds is visible
    (synced frames; the primary's group-commit buffer is not), which is
    exactly the durable-state contract replay obeys.

    Robust against the two ways the file changes underneath a reader:

    * **Torn tail** — a partially-synced frame at the end stops the scan
      *without* advancing past it; the next call re-reads from the same
      offset and picks the frame up once it is whole.
    * **Compaction / floor re-seed** — :meth:`Journal.compact` rewrites
      the file and :meth:`Journal.ensure_lsn_floor` makes LSNs jump, so
      a remembered offset can point mid-frame or at an already-consumed
      record. The cursor validates the frame at its offset and falls
      back to a full rescan filtered by ``lsn > self.lsn`` whenever the
      offset stops making sense. LSNs are monotone within a file, so the
      filter is exact.

    Args:
        path: The journal file to follow (may not exist yet).
        after_lsn: Resume point — records with ``lsn <= after_lsn`` are
            never returned (a standby passes its last-applied LSN).
    """

    def __init__(self, path: str | Path, after_lsn: int = 0) -> None:
        self.path = Path(path)
        self.lsn = after_lsn
        self.offset = 0
        self._offset_valid = after_lsn == 0

    def read_new(self) -> list[JournalRecord]:
        """Every not-yet-seen intact record, in LSN order.

        Returns an empty list when the file is missing, unchanged, or
        ends in a torn frame right at the cursor. Advances the cursor
        past everything returned.
        """
        try:
            blob = self.path.read_bytes()
        except FileNotFoundError:
            return []
        if not self._offset_valid or self.offset > len(blob):
            return self._rescan(blob)
        records, end, ok = self._scan(blob, self.offset)
        if not ok:
            return self._rescan(blob)
        out = [r for r in records if r.lsn > self.lsn]
        if len(out) != len(records):
            # Frames at the offset replay below our LSN: the file was
            # rewritten (compaction overlap); trust LSNs, not offsets.
            return self._rescan(blob)
        self.offset = end
        if out:
            self.lsn = out[-1].lsn
        return out

    def _rescan(self, blob: bytes) -> list[JournalRecord]:
        records, end, _ = self._scan(blob, 0)
        out = [r for r in records if r.lsn > self.lsn]
        self.offset = end
        self._offset_valid = True
        if out:
            self.lsn = out[-1].lsn
        return out

    @staticmethod
    def _scan(blob: bytes, start: int) -> tuple[list[JournalRecord], int, bool]:
        """Parse frames from ``start``; returns ``(records, end, ok)``.

        ``ok`` is False when ``start`` does not sit on a frame boundary
        (a mid-file parse failure — corruption or a stale offset);
        a clean stop at a *tail* problem (torn frame at EOF region)
        keeps ``ok`` True with ``end`` just before the torn frame.
        """
        records: list[JournalRecord] = []
        offset = start
        while offset < len(blob):
            header = blob[offset : offset + FRAME_HEADER_SIZE]
            if len(header) < FRAME_HEADER_SIZE:
                return records, offset, True  # torn header at the tail
            length, crc = _FRAME.unpack(header)
            if length > _MAX_PAYLOAD:
                return records, offset, offset + FRAME_HEADER_SIZE >= len(blob)
            payload = blob[offset + FRAME_HEADER_SIZE : offset + FRAME_HEADER_SIZE + length]
            if len(payload) < length:
                return records, offset, True  # torn payload at the tail
            if zlib.crc32(payload) != crc:
                # Tail frames may be torn mid-sync; anything earlier means
                # the offset was stale or the file was rewritten.
                return records, offset, offset + FRAME_HEADER_SIZE + length >= len(blob)
            try:
                record = JournalRecord.from_payload(payload)
            except JournalCorruptError:
                return records, offset, False
            if records and record.lsn <= records[-1].lsn:
                return records, offset, False  # LSNs must be monotone
            records.append(record)
            offset += FRAME_HEADER_SIZE + length
        return records, offset, True
