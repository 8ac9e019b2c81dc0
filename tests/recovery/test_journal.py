"""Write-ahead journal: framing, durability batching, torn tails, compaction."""

from __future__ import annotations

import struct
import zlib

import pytest

from repro.errors import JournalCorruptError, RecoveryError
from repro.recovery import (
    Journal,
    JournalRecord,
    replay_journal,
)
from repro.recovery.journal import FRAME_HEADER_SIZE, _MAX_PAYLOAD


@pytest.fixture()
def wal(tmp_path):
    return tmp_path / "journal.wal"


ENTRIES = (("t0/0", 4096, "zlib", 123), ("t0/1", 2048, "none", None))


class TestFraming:
    def test_commit_replay_roundtrip(self, wal) -> None:
        journal = Journal(wal, fsync=False)
        journal.commit("commit", "t0", ENTRIES)
        journal.commit("evict", "t0")
        journal.close()
        replay = replay_journal(wal)
        assert not replay.truncated
        assert [(r.lsn, r.kind, r.task_id) for r in replay.records] == [
            (1, "commit", "t0"), (2, "evict", "t0"),
        ]
        assert replay.records[0].entries == ENTRIES
        assert replay.valid_bytes == wal.stat().st_size

    def test_record_payload_roundtrip(self) -> None:
        record = JournalRecord(7, "commit", "tX", ENTRIES)
        assert JournalRecord.from_payload(record.to_payload()) == record

    def test_unknown_kind_rejected(self) -> None:
        with pytest.raises(RecoveryError):
            JournalRecord(1, "mutate", "t0")

    def test_malformed_payload_is_typed(self) -> None:
        with pytest.raises(JournalCorruptError):
            JournalRecord.from_payload(b"not json at all")

    def test_missing_file_replays_empty(self, wal) -> None:
        replay = replay_journal(wal)
        assert replay.records == [] and not replay.truncated
        assert replay.last_lsn == 0


class TestDurability:
    def test_append_is_not_durable_until_sync(self, wal) -> None:
        journal = Journal(wal, fsync=False)
        journal.append("commit", "t0", ENTRIES)
        assert journal.pending == 1
        assert journal.durable_lsn == 0
        # A crash now (abandon the object) loses the buffered record.
        assert replay_journal(wal).records == []
        journal.sync()
        assert journal.pending == 0
        assert journal.durable_lsn == 1
        assert replay_journal(wal).last_lsn == 1

    def test_fsync_every_group_commits(self, wal) -> None:
        journal = Journal(wal, fsync_every=3, fsync=False)
        journal.commit("commit", "a", ENTRIES)
        journal.commit("commit", "b", ENTRIES)
        assert journal.pending == 2 and journal.durable_lsn == 0
        journal.commit("commit", "c", ENTRIES)
        assert journal.pending == 0 and journal.durable_lsn == 3
        journal.close()

    def test_lsn_continues_across_reopen(self, wal) -> None:
        journal = Journal(wal, fsync=False)
        journal.commit("commit", "a", ENTRIES)
        journal.commit("commit", "b", ENTRIES)
        journal.close()
        reopened = Journal(wal, fsync=False)
        assert reopened.recovered.last_lsn == 2
        record = reopened.commit("evict", "a")
        assert record.lsn == 3
        reopened.close()
        assert replay_journal(wal).last_lsn == 3

    def test_closed_journal_refuses_appends(self, wal) -> None:
        journal = Journal(wal, fsync=False)
        journal.close()
        journal.close()  # idempotent
        with pytest.raises(RecoveryError):
            journal.append("commit", "t0")


class TestTornTails:
    def _write(self, wal, n: int = 3) -> None:
        journal = Journal(wal, fsync=False)
        for i in range(n):
            journal.commit("commit", f"t{i}", ENTRIES)
        journal.close()

    def test_torn_payload_cut_at_last_intact_record(self, wal) -> None:
        self._write(wal)
        wal.write_bytes(wal.read_bytes()[:-5])
        replay = replay_journal(wal)
        assert replay.truncated and "torn" in replay.reason
        assert replay.last_lsn == 2

    def test_torn_header_cut(self, wal) -> None:
        self._write(wal, n=1)
        wal.write_bytes(wal.read_bytes() + b"\x07\x00")  # 2 of 8 header bytes
        replay = replay_journal(wal)
        assert replay.truncated and replay.last_lsn == 1

    def test_crc_mismatch_cut(self, wal) -> None:
        self._write(wal)
        blob = bytearray(wal.read_bytes())
        blob[-1] ^= 0xFF  # flip a bit in the last payload
        wal.write_bytes(bytes(blob))
        replay = replay_journal(wal)
        assert replay.truncated and "CRC" in replay.reason
        assert replay.last_lsn == 2

    def test_oversize_length_field_is_corruption(self, wal) -> None:
        self._write(wal, n=1)
        bogus = struct.pack("<II", _MAX_PAYLOAD + 1, 0)
        wal.write_bytes(wal.read_bytes() + bogus + b"x" * 64)
        replay = replay_journal(wal)
        assert replay.truncated and "cap" in replay.reason
        assert replay.last_lsn == 1

    def test_valid_frame_with_garbage_payload_cut(self, wal) -> None:
        self._write(wal, n=1)
        payload = b"{broken json"
        frame = struct.pack("<II", len(payload), zlib.crc32(payload)) + payload
        wal.write_bytes(wal.read_bytes() + frame)
        replay = replay_journal(wal)
        assert replay.truncated and "undecodable" in replay.reason
        assert replay.last_lsn == 1

    def test_open_repairs_torn_tail_in_place(self, wal) -> None:
        self._write(wal)
        torn = wal.read_bytes()[:-5]
        wal.write_bytes(torn)
        journal = Journal(wal, fsync=False)
        assert journal.recovered.truncated
        assert wal.stat().st_size == journal.recovered.valid_bytes
        # Appends extend the last intact record, not the garbage.
        record = journal.commit("evict", "t0")
        assert record.lsn == 3
        journal.close()
        replay = replay_journal(wal)
        assert not replay.truncated
        assert [r.lsn for r in replay.records] == [1, 2, 3]


class TestCompaction:
    def test_compact_drops_covered_prefix(self, wal) -> None:
        journal = Journal(wal, fsync=False)
        for i in range(4):
            journal.commit("commit", f"t{i}", ENTRIES)
        remaining = journal.compact(keep_after_lsn=2)
        assert remaining == 2
        replay = replay_journal(wal)
        assert [r.lsn for r in replay.records] == [3, 4]
        # LSNs keep counting from the pre-compaction high-water mark.
        assert journal.commit("evict", "t0").lsn == 5
        journal.sync()
        assert replay_journal(wal).last_lsn == 5
        journal.close()

    def test_compact_everything_leaves_empty_journal(self, wal) -> None:
        journal = Journal(wal, fsync=False)
        journal.commit("commit", "t0", ENTRIES)
        assert journal.compact(keep_after_lsn=1) == 0
        assert replay_journal(wal).records == []
        journal.close()

    def test_lsn_floor_survives_compaction_across_reopen(self, wal) -> None:
        # A compacted-to-empty file carries no LSN high-water mark; a
        # snapshot does. Reopen + re-seed must keep LSNs monotone so a
        # restore never sees a new record wearing a covered LSN.
        journal = Journal(wal, fsync=False)
        journal.commit("commit", "t0", ENTRIES)
        journal.compact(keep_after_lsn=1)  # snapshot covers LSN 1
        journal.close()
        reopened = Journal(wal, fsync=False)
        assert reopened.recovered.last_lsn == 0  # the file forgot
        reopened.ensure_lsn_floor(1)
        assert reopened.durable_lsn == 1
        assert reopened.commit("commit", "t1", ENTRIES).lsn == 2
        reopened.ensure_lsn_floor(1)  # lowering is a no-op
        assert reopened.commit("commit", "t2", ENTRIES).lsn == 3
        reopened.close()


def test_frame_header_size_is_eight_bytes() -> None:
    assert FRAME_HEADER_SIZE == 8
