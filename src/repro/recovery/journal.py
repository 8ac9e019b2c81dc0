"""The recovery directory: the one reader and writer of its files.

The Compression Manager's placement catalog (task id -> 16-byte sub-task
header tuples) is the state that makes acknowledged bytes readable; losing
it to a crash makes every stored piece unreachable. A recovery directory
(``journal.wal`` + ``snapshot.json``) keeps it, and this module is the
only code that knows what one looks like on disk — the engine, a standby,
restore and fsck all go through it:

* **Framing** — each record is one length-prefixed, CRC32-framed JSON
  payload (``<u32 length><u32 crc32><payload>``). :func:`scan_frames` is
  the only parser: it stops at the first torn or corrupted frame and
  reports the offset of the last intact one, so recovery after a mid-sync
  crash keeps every record that was fully synced. :func:`replay_journal`
  is a file read plus that scan; :func:`repair_tail` cuts the garbage off.
* **fsync-modeled batching** — :meth:`Journal.append` buffers records in
  memory; :meth:`Journal.sync` writes every buffered frame, flushes, and
  ``os.fsync``\\ s the descriptor. Records are durable only after a sync:
  a modeled crash (abandoning the object) loses exactly the unsynced
  suffix, which is what a real kernel would lose too. ``fsync_every``
  batches syncs for group-commit write patterns.
* **Atomic replace** — :func:`atomic_write` is how a snapshot, a shard
  manifest and a compacted journal reach their final names: a crash
  leaves the old file or the new one, and the rename itself is durable.
* **Idempotence** — records carry a monotone LSN and describe *state*, not
  deltas: :meth:`JournalRecord.apply` is the only interpreter of a record
  kind (applying a record twice leaves the catalog byte-identical) and
  :func:`replay_catalog` the only "snapshot, then the suffix past its
  LSN" fold.
* **Shipping** — :meth:`Journal.add_observer` registers a synchronous
  per-record hook fired on every :meth:`Journal.append`, *before* the
  write is acknowledged. Replication rides this: a standby
  :meth:`Journal.persist`\\ s each observed frame into a journal of its
  own, so it holds a superset of the primary's durable state (the
  primary's group-commit buffer is exactly what a crash loses locally).
  The pull side (anti-entropy) is :func:`replay_journal` over the
  primary's file.
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
    "JournalRecord",
    "JournalReplay",
    "atomic_write",
    "parse_entry",
    "repair_tail",
    "replay_catalog",
    "replay_journal",
    "scan_frames",
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


def parse_entry(item) -> tuple:
    """One catalog entry from its on-disk list form (journal or snapshot).

    Accepts both the legacy 4-element ``[key, length, codec, crc]`` form
    and the 5-element form carrying an end-to-end content digest
    (``repro.scrub``), so files from either build read cleanly.
    """
    k, length, codec, crc = item[:4]
    entry = (str(k), int(length), str(codec), None if crc is None else int(crc))
    if len(item) > 4 and item[4] is not None:
        entry += (int(item[4]),)
    return entry


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
            return cls(
                lsn=int(raw["lsn"]),
                kind=str(raw["kind"]),
                task_id=str(raw["task"]),
                entries=tuple(map(parse_entry, raw.get("entries", ()))),
            )
        except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
            raise JournalCorruptError(
                f"journal record payload is malformed: {exc}"
            ) from exc

    def frame(self) -> bytes:
        payload = self.to_payload()
        return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload

    def apply(self, catalog: dict, entry=tuple) -> None:
        """Fold this mutation into ``catalog`` (task id -> entry list).

        The only interpreter of a record kind. Idempotent by construction:
        a commit carries the task's full entry list and an evict is a
        whole-task delete, so applying the same record — or the same
        journal — twice leaves identical state. ``entry`` builds the
        catalog's entry type from one record tuple.
        """
        if self.kind == "commit":
            catalog[self.task_id] = [entry(item) for item in self.entries]
        else:
            catalog.pop(self.task_id, None)


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


def scan_frames(blob: bytes) -> tuple[list[JournalRecord], int, str | None]:
    """Parse journal frames from the start of ``blob``.

    Returns ``(records, end, reason)``: every intact record in order, the
    offset just past the last intact frame, and why the scan stopped
    short of ``len(blob)`` (``None`` when it did not) — a truncated frame
    header, a payload shorter than its length prefix, a CRC mismatch, or
    an undecodable payload. Everything from ``end`` on is garbage.
    """
    records: list[JournalRecord] = []
    offset = 0
    while offset < len(blob):
        start = offset + FRAME_HEADER_SIZE
        if start > len(blob):
            return records, offset, f"torn frame header at offset {offset}"
        length, crc = _FRAME.unpack_from(blob, offset)
        if length > _MAX_PAYLOAD:
            return records, offset, (
                f"frame at offset {offset} claims {length} bytes "
                f"(> {_MAX_PAYLOAD} cap); treating as corruption"
            )
        payload = blob[start : start + length]
        if len(payload) < length:
            return records, offset, f"torn payload at offset {offset}"
        if zlib.crc32(payload) != crc:
            return records, offset, f"CRC mismatch at offset {offset}"
        try:
            records.append(JournalRecord.from_payload(payload))
        except JournalCorruptError as exc:
            return records, offset, (
                f"undecodable record at offset {offset}: {exc}"
            )
        offset = start + length
    return records, offset, None


def replay_journal(path: str | Path) -> JournalReplay:
    """Scan a journal file, tolerating a torn or corrupted tail.

    Everything before the first bad frame is returned; everything at and
    after it is reported via ``truncated``/``reason`` and should be cut
    with :func:`repair_tail` (or ignored). A missing file replays to an
    empty journal.
    """
    try:
        blob = Path(path).read_bytes()
    except FileNotFoundError:
        return JournalReplay()
    records, end, reason = scan_frames(blob)
    return JournalReplay(records, end, reason is not None, reason)


def repair_tail(path: str | Path, replay: JournalReplay, fsync: bool) -> None:
    """Cut a torn tail off a journal file in place (durably).

    Appends must extend the last intact record instead of burying garbage
    mid-file, where it would truncate every later replay.
    """
    if replay.truncated:
        with open(path, "r+b") as handle:
            handle.truncate(replay.valid_bytes)
            handle.flush()
            if fsync:
                os.fsync(handle.fileno())


def atomic_write(path: str | Path, blob: bytes, fsync: bool) -> Path:
    """Replace ``path`` with ``blob`` atomically; returns ``path``.

    tmp-write + flush + fsync + ``os.replace`` + directory fsync (where
    the platform has directory descriptors): readers see the old file or
    the new one, never a partial one, and once this returns the rename
    itself survives a crash. ``fsync=False`` keeps the rename atomic and
    skips both syncs (the test/bench knob of :class:`Journal`).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(blob)
        handle.flush()
        if fsync:
            os.fsync(handle.fileno())
    os.replace(tmp, path)
    if fsync:
        try:
            dir_fd = os.open(path.parent, os.O_RDONLY)
        except OSError:
            return path  # platform without directory fds
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    return path


def replay_catalog(snapshot, records) -> tuple[dict[str, list], list]:
    """Fold ``snapshot`` (or ``None``), then the records past its LSN.

    Returns ``(catalog, suffix)``: the catalog as plain entry tuples and
    the records that were applied on top of the snapshot — the one
    definition of what a recovery directory *means*, shared by restore,
    a promoted standby and fsck.
    """
    floor = 0
    catalog: dict[str, list] = {}
    if snapshot is not None:
        floor = snapshot.journal_lsn
        catalog = {task: list(es) for task, es in snapshot.catalog.items()}
    suffix = [record for record in records if record.lsn > floor]
    for record in suffix:
        record.apply(catalog)
    return catalog, suffix


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
        repair_tail(self.path, self.recovered, self.fsync)
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
        """Register a synchronous per-record hook: ``callback(record,
        frame)`` fires on every :meth:`append` with the record and its
        wire frame (encoded once, here), before the mutation is acked.

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
        frame = record.frame()
        self._buffer.append(frame)
        self._next_lsn += 1
        self.records_appended += 1
        if self._observers:
            for callback in self._observers:
                callback(record, frame)
        return record

    def persist(self, record: JournalRecord, frame: bytes) -> None:
        """Make one shipped record durable, verbatim: ``frame`` is
        written as it arrived (same bytes and LSN as at the primary) and
        synced at once — a standby's journal never buffers."""
        self._check_open()
        self._write(frame)
        self._next_lsn = record.lsn + 1
        self._durable_lsn = record.lsn

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
            self._write(data[: max(len(data) // 2, 1)])
            self._buffer.clear()
            self.crashpoints.die("journal.torn_sync")
        self._write(data)
        self._durable_lsn = self._next_lsn - 1
        self._buffer.clear()

    def _write(self, data: bytes) -> None:
        """The one durable write: the bytes, a flush, an fsync."""
        self._file.write(data)
        self._file.flush()
        if self.fsync:
            os.fsync(self._file.fileno())
        self.bytes_synced += len(data)
        self.syncs += 1

    def compact(self, keep_after_lsn: int) -> int:
        """Drop records with ``lsn <= keep_after_lsn`` (they are covered by
        a snapshot); returns how many records remain. The surviving suffix
        replaces the file through :func:`atomic_write`.
        """
        self._check_open()
        self.sync()
        survivors = [
            r for r in replay_journal(self.path).records
            if r.lsn > keep_after_lsn
        ]
        self._file.close()
        atomic_write(
            self.path, b"".join(r.frame() for r in survivors), self.fsync
        )
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
