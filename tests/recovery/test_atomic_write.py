"""Every rename and every truncate in a recovery directory is durable.

Five files reach their final name by tmp-write + rename (the snapshot,
the shard manifest, a compacted journal, and both of those again on a
standby) and two call sites cut a torn journal tail. All of them go
through :func:`repro.recovery.atomic_write` / :func:`repro.recovery.
repair_tail`; this pins the syscall order each one must produce — file
fsync, rename, directory fsync — and that ``fsync=False`` issues neither
sync. Before the helpers existed only two of the five renames synced the
directory (a standby could keep an old snapshot beside a journal suffix
that starts past it: fsck's ``journal.gap``) and ``fsck --repair``
truncated without syncing at all.
"""

from __future__ import annotations

import os
import stat

import pytest

from repro.recovery import (
    EngineSnapshot,
    Journal,
    JournalRecord,
    write_snapshot,
)
from repro.replication import StandbyReplica
from repro.scrub import fsck_store
from repro.shard.manifest import ShardManifest, write_manifest

ENTRIES = (("t0/0", 4096, "zlib", 123),)


@pytest.fixture()
def syscalls(monkeypatch) -> list[tuple[str, str]]:
    """Log of ``("fsync", "file" | "dir")`` and ``("replace", name)``."""
    events: list[tuple[str, str]] = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd) -> None:
        is_dir = stat.S_ISDIR(os.fstat(fd).st_mode)
        events.append(("fsync", "dir" if is_dir else "file"))
        real_fsync(fd)

    def replace(src, dst) -> None:
        events.append(("replace", os.path.basename(dst)))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    return events


# Each site sets its directory up, then returns the call to observe and
# the names it must replace, in order.


def _snapshot(tmp_path, fsync: bool):
    snapshot = EngineSnapshot(journal_lsn=2, catalog={})
    return lambda: write_snapshot(tmp_path, snapshot, fsync), ["snapshot.json"]


def _manifest(tmp_path, fsync: bool):
    manifest = ShardManifest.initial(2, 16, 0)
    return lambda: write_manifest(tmp_path, manifest, fsync), ["shard-map.json"]


def _compaction(tmp_path, fsync: bool):
    journal = Journal(tmp_path / "journal.wal", fsync=fsync)
    for i in range(3):
        journal.commit("commit", f"t{i}", ENTRIES)
    return lambda: journal.compact(keep_after_lsn=2), ["journal.wal"]


def _standby_install(tmp_path, fsync: bool):
    primary = tmp_path / "primary"
    write_snapshot(primary, EngineSnapshot(journal_lsn=2, catalog={}), fsync)
    standby = StandbyReplica(0, 0, tmp_path / "shard-00-r0", fsync=fsync)
    for lsn in (1, 2, 3):
        standby.apply(JournalRecord(lsn, "commit", f"t{lsn}", ENTRIES))
    return (
        lambda: standby.install_snapshot(primary),
        ["snapshot.json", "journal.wal"],
    )


@pytest.mark.parametrize("fsync", [True, False], ids=["fsync", "no-fsync"])
@pytest.mark.parametrize(
    "site", [_snapshot, _manifest, _compaction, _standby_install],
    ids=lambda site: site.__name__.lstrip("_"),
)
def test_every_replace_syncs_file_then_directory(
    tmp_path, syscalls, site, fsync
) -> None:
    action, replaced = site(tmp_path, fsync)
    syscalls.clear()
    action()
    expected = []
    for name in replaced:
        expected += (
            [("fsync", "file"), ("replace", name), ("fsync", "dir")]
            if fsync
            else [("replace", name)]
        )
    assert syscalls == expected


@pytest.mark.parametrize("opener", ["journal", "fsck"])
def test_cutting_a_torn_tail_is_synced(tmp_path, syscalls, opener) -> None:
    journal = Journal(tmp_path / "journal.wal", fsync=False)
    journal.commit("commit", "t0", ENTRIES)
    journal.close()
    intact = journal.path.read_bytes()
    journal.path.write_bytes(intact + intact[: len(intact) // 2])
    if opener == "journal":
        Journal(journal.path, fsync=True).close()
    else:
        report = fsck_store(tmp_path, repair=True)
        assert [f.check for f in report.findings if f.repaired] == [
            "journal.tail"
        ]
    assert journal.path.read_bytes() == intact
    assert ("fsync", "file") in syscalls
