"""One frame scanner, checked against the three parsers it replaced.

``tests/golden/journal_scan.txt`` was recorded at the parent of the PR
that introduced :func:`repro.recovery.scan_frames`, when the WAL frame
format was still parsed in three places. For a fixed 4-record journal
(a 4- and a 5-element entry, an evict, an LSN jump) under every
truncation length and every single-byte flip (``^0xff`` and ``^0x01``) it
holds the verdict of each of them:

* ``replay=<records>,<valid_bytes>,<truncated>`` — ``replay_journal``;
* ``cursor0=`` / ``cursor2=`` — the LSNs a fresh
  ``JournalCursor(after_lsn=0 / 2).read_new()`` returned (the class and
  its resumable offsets are gone; ``catch_up`` was its only caller and
  built a fresh one per call);
* ``frame <i> ... valid=`` — ``StandbyReplica._frame_valid`` on record
  ``i``'s frame damaged the same ways, shipped against every other
  record's frame, and followed by a second frame.

The scanner must reproduce the first and third columns exactly, and the
cursor column must equal ``replay_journal`` filtered by LSN on every row:
the witness that deleting the cursor changed nothing ``catch_up`` can
see. The file is a recording, not a regenerable golden — never edit it.
"""

from __future__ import annotations

from pathlib import Path

from repro.recovery import JournalRecord, replay_journal, scan_frames
from repro.replication import StandbyReplica

GOLDEN = Path(__file__).resolve().parent.parent / "golden/journal_scan.txt"

RECORDS = (
    JournalRecord(
        1, "commit", "t0",
        (("t0/0", 4096, "zlib", 123), ("t0/1", 2048, "none", None)),
    ),
    JournalRecord(2, "commit", "t1", (("t1/0", 512, "lz4", 77, 1234567890123),)),
    JournalRecord(3, "evict", "t0"),
    JournalRecord(5, "commit", "t2", (("t2/g1/0", 65536, "snappy", 4294967295),)),
)
FLIPS = (0xFF, 0x01)


def _damages(blob: bytes):
    for n in range(len(blob) + 1):
        yield f"cut {n}", blob[:n]
    for mask in FLIPS:
        for i in range(len(blob)):
            bad = bytearray(blob)
            bad[i] ^= mask
            yield f"flip {mask:02x} {i}", bytes(bad)


def _lsns(records, after: int = 0) -> str:
    return ",".join(str(r.lsn) for r in records if r.lsn > after)


def _flag(value: bool) -> str:
    return "T" if value else "F"


def _golden_rows(prefix: str) -> list[str]:
    return [
        line for line in GOLDEN.read_text().splitlines()
        if line.startswith(prefix)
    ]


def test_scan_reproduces_replay_and_the_cursor_saw_nothing_else() -> None:
    blob = b"".join(record.frame() for record in RECORDS)
    lines = []
    for label, bad in _damages(blob):
        records, end, reason = scan_frames(bad)
        assert records == list(RECORDS[: len(records)])
        assert (reason is None) == (end == len(bad))
        lines.append(
            f"{label} replay={len(records)},{end},{_flag(reason is not None)}"
            f" cursor0={_lsns(records)} cursor2={_lsns(records, after=2)}"
        )
    assert lines == _golden_rows("cut ") + _golden_rows("flip ")


def test_replay_journal_is_a_file_read_plus_the_scan(tmp_path) -> None:
    wal = tmp_path / "journal.wal"
    blob = b"".join(record.frame() for record in RECORDS)
    for _label, bad in _damages(blob[: len(RECORDS[0].frame()) + 30]):
        wal.write_bytes(bad)
        replay = replay_journal(wal)
        records, end, reason = scan_frames(bad)
        assert (replay.records, replay.valid_bytes) == (records, end)
        assert (replay.truncated, replay.reason) == (reason is not None, reason)


def test_shipped_frame_validity_matches_the_recording() -> None:
    lines = []
    for index, record in enumerate(RECORDS):
        frame = record.frame()
        cases = [*_damages(frame)]
        cases += [
            (f"against {other}", shipped.frame())
            for other, shipped in enumerate(RECORDS)
        ]
        cases.append(("doubled", frame + RECORDS[0].frame()))
        lines += [
            f"frame {index} {label} "
            f"valid={_flag(StandbyReplica._frame_valid(record, bad))}"
            for label, bad in cases
        ]
    assert lines == _golden_rows("frame ")
