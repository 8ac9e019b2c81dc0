"""ReplicationCoordinator: shipping, anti-entropy, promotion bookkeeping."""

from __future__ import annotations

import pytest

from repro.errors import ShardError
from repro.recovery import (
    EngineSnapshot,
    Journal,
    JournalRecord,
    replay_journal,
    write_snapshot,
)
from repro.replication import ReplicationConfig, ReplicationCoordinator

ENTRIES = (("t0/0", 4096, "zlib", 123),)


def _coordinator(tmp_path, shards: int = 1,
                 replicas: int = 2) -> ReplicationCoordinator:
    return ReplicationCoordinator(
        shards,
        ReplicationConfig(enabled=True, replicas=replicas),
        tmp_path,
        fsync=False,
    )


@pytest.fixture()
def primary_journal(tmp_path) -> Journal:
    return Journal(tmp_path / "primary" / "journal.wal", fsync=False)


class TestConstruction:
    def test_requires_enabled_config(self, tmp_path) -> None:
        with pytest.raises(ShardError):
            ReplicationCoordinator(1, ReplicationConfig(), tmp_path)

    def test_builds_flat_standby_directories(self, tmp_path) -> None:
        coordinator = _coordinator(tmp_path, shards=2, replicas=2)
        for name in ("shard-00-r0", "shard-00-r1",
                     "shard-01-r0", "shard-01-r1"):
            assert (tmp_path / name).is_dir()
        coordinator.close()


class TestShipping:
    def test_attach_ships_each_append_to_every_standby(
        self, tmp_path, primary_journal
    ) -> None:
        coordinator = _coordinator(tmp_path)
        coordinator.attach(0, primary_journal)
        primary_journal.append("commit", "t0", ENTRIES)
        primary_journal.append("commit", "t1", ENTRIES)
        # Shipped before any sync: the standbys hold what the primary's
        # group-commit buffer would lose.
        assert primary_journal.pending == 2
        assert coordinator.primary_lsn[0] == 2
        assert coordinator.shipped_records[0] == 4  # 2 records x 2 standbys
        for replica in coordinator.standbys[0]:
            assert replica.applied_lsn == 2
        assert coordinator.lag(0) == {0: 0, 1: 0}
        coordinator.close()

    def test_detach_stops_shipping_and_is_idempotent(
        self, tmp_path, primary_journal
    ) -> None:
        coordinator = _coordinator(tmp_path)
        coordinator.attach(0, primary_journal)
        primary_journal.append("commit", "t0", ENTRIES)
        coordinator.detach(0)
        coordinator.detach(0)
        primary_journal.append("commit", "t1", ENTRIES)
        assert coordinator.shipped_records[0] == 2  # only the first record
        for replica in coordinator.standbys[0]:
            assert replica.applied_lsn == 1
        coordinator.close()


class TestAntiEntropy:
    def test_catch_up_replays_tail_from_applied_lsn(
        self, tmp_path, primary_journal
    ) -> None:
        coordinator = _coordinator(tmp_path, replicas=1)
        # The primary journaled 3 records while nothing was attached.
        for task in ("t0", "t1", "t2"):
            primary_journal.commit("commit", task, ENTRIES)
        applied = coordinator.catch_up(0, primary_journal.path.parent)
        assert applied == 3
        assert coordinator.standbys[0][0].applied_lsn == 3
        assert coordinator.catch_ups[0] == 1
        # A second pass is a no-op: applies are idempotent by LSN.
        assert coordinator.catch_up(0, primary_journal.path.parent) == 0
        coordinator.close()

    def test_ship_checkpoint_installs_on_every_standby(
        self, tmp_path
    ) -> None:
        coordinator = _coordinator(tmp_path, replicas=2)
        primary = tmp_path / "primary"
        write_snapshot(
            primary, EngineSnapshot(journal_lsn=9, catalog={}), fsync=False
        )
        coordinator.ship_checkpoint(0, primary)
        for replica in coordinator.standbys[0]:
            assert replica.snapshot_lsn == 9
            assert replica.applied_lsn == 9
        coordinator.close()


# What the deleted ``JournalCursor`` tests pinned, on the only caller it
# had: each scenario prepares the primary's directory, then yields
# ``(LSNs the next catch_up must apply, the standby's applied LSN after)``.


def _unseen_only_on_a_second_call(primary):
    journal = Journal(primary / "journal.wal", fsync=False)
    journal.commit("commit", "t0", ENTRIES)
    journal.commit("commit", "t1", ENTRIES)
    yield [1, 2], 2
    yield [], 2  # unchanged file: nothing new
    journal.commit("evict", "t0")
    yield [3], 3
    journal.close()


def _torn_primary_tail_completes_on_the_next_call(primary):
    """A frame torn mid-sync is neither applied nor skipped: the pass
    stops at the last intact record and the next one picks it up."""
    journal = Journal(primary / "journal.wal", fsync=False)
    journal.commit("commit", "t0", ENTRIES)
    yield [1], 1
    frame = JournalRecord(2, "commit", "t1", ENTRIES).frame()
    intact = journal.path.read_bytes()
    journal.path.write_bytes(intact + frame[: len(frame) // 2])
    yield [], 1
    journal.path.write_bytes(intact + frame)  # the sync completes
    yield [2], 2
    journal.close()


def _snapshot_floor_skips_covered_records(primary):
    journal = Journal(primary / "journal.wal", fsync=False)
    for i in range(4):
        journal.commit("commit", f"t{i}", ENTRIES)
    write_snapshot(
        primary, EngineSnapshot(journal_lsn=2, catalog={}), fsync=False
    )
    yield [3, 4], 4
    journal.close()


def _floor_beyond_a_compacted_to_empty_file(primary):
    # The snapshot covers more than the file holds: an empty tail, no error.
    journal = Journal(primary / "journal.wal", fsync=False)
    journal.commit("commit", "t0", ENTRIES)
    journal.compact(keep_after_lsn=1)
    assert journal.path.stat().st_size == 0
    write_snapshot(
        primary, EngineSnapshot(journal_lsn=9, catalog={}), fsync=False
    )
    yield [], 9
    journal.close()


def _missing_journal_file(primary):
    primary.mkdir()
    yield [], 0


def _compaction_between_two_calls(primary):
    """Compaction rewrites the file between passes; LSNs, not offsets,
    decide what is new."""
    journal = Journal(primary / "journal.wal", fsync=False)
    for i in range(4):
        journal.commit("commit", f"t{i}", ENTRIES)
    yield [1, 2, 3, 4], 4
    journal.compact(keep_after_lsn=3)  # file now holds only LSN 4
    journal.commit("commit", "t4", ENTRIES)
    yield [5], 5
    journal.close()


@pytest.mark.parametrize(
    "scenario",
    [
        _unseen_only_on_a_second_call,
        _torn_primary_tail_completes_on_the_next_call,
        _snapshot_floor_skips_covered_records,
        _floor_beyond_a_compacted_to_empty_file,
        _missing_journal_file,
        _compaction_between_two_calls,
    ],
    ids=lambda scenario: scenario.__name__.lstrip("_"),
)
def test_catch_up_applies_exactly_the_unseen_intact_tail(
    tmp_path, scenario
) -> None:
    coordinator = _coordinator(tmp_path, replicas=1)
    standby = coordinator.standbys[0][0]
    primary = tmp_path / "primary"
    for expected, applied_lsn in scenario(primary):
        assert coordinator.catch_up(0, primary) == len(expected)
        assert standby.applied_lsn == applied_lsn
        held = [r.lsn for r in replay_journal(standby.journal_path).records]
        assert held[len(held) - len(expected):] == expected
    coordinator.close()


class TestPromotion:
    def test_candidate_is_most_caught_up_lowest_id(
        self, tmp_path, primary_journal
    ) -> None:
        coordinator = _coordinator(tmp_path, replicas=3)
        r0, r1, r2 = coordinator.standbys[0]
        coordinator.attach(0, primary_journal)
        primary_journal.append("commit", "t0", ENTRIES)
        # All equal: ties break toward the lowest replica id.
        assert coordinator.promotion_candidate(0) is r0
        # A strictly more caught-up standby wins regardless of id.
        r2.apply(JournalRecord(2, "commit", "t1", ENTRIES))
        assert coordinator.promotion_candidate(0) is r2
        coordinator.close()

    def test_promote_removes_candidate_from_standby_set(
        self, tmp_path
    ) -> None:
        coordinator = _coordinator(tmp_path, replicas=2)
        candidate = coordinator.promotion_candidate(0)
        directory = coordinator.promote(0, candidate)
        assert directory == candidate.directory
        assert candidate not in coordinator.standbys[0]
        assert len(coordinator.standbys[0]) == 1
        coordinator.close()

    def test_promote_empty_set_is_typed(self, tmp_path) -> None:
        coordinator = _coordinator(tmp_path, replicas=1)
        coordinator.promote(0, coordinator.promotion_candidate(0))
        with pytest.raises(ShardError):
            coordinator.promotion_candidate(0)
        coordinator.close()

    def test_demote_recycles_directory_with_fresh_id(self, tmp_path) -> None:
        coordinator = _coordinator(tmp_path, replicas=2)
        candidate = coordinator.promotion_candidate(0)
        old_primary_dir = tmp_path / "shard-00"
        old_primary_dir.mkdir()
        coordinator.promote(0, candidate)
        replica = coordinator.demote(0, old_primary_dir)
        # Ids restart after the highest survivor, so they stay unique.
        assert replica.replica_id == 2
        assert replica.directory == old_primary_dir
        assert len(coordinator.standbys[0]) == 2
        # Idempotent: demoting the same directory replaces, not duplicates
        # (the stale enrolment is dropped before ids are renumbered).
        again = coordinator.demote(0, old_primary_dir)
        assert len(coordinator.standbys[0]) == 2
        assert again.replica_id == 2
        coordinator.close()


class TestStatus:
    def test_status_shape(self, tmp_path, primary_journal) -> None:
        coordinator = _coordinator(tmp_path, replicas=1)
        coordinator.attach(0, primary_journal)
        primary_journal.append("commit", "t0", ENTRIES)
        status = coordinator.status()
        assert status[0]["primary_lsn"] == 1
        assert status[0]["shipped_records"] == 1
        assert status[0]["failovers"] == 0
        assert status[0]["replicas"][0]["applied_lsn"] == 1
        assert status[0]["replicas"][0]["lag"] == 0
        assert status[0]["replicas"][0]["directory"] == "shard-00-r0"
        coordinator.close()
