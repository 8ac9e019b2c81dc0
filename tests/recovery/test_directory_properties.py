"""Four readers of a recovery directory, one verdict.

A recovery directory is read by the journal that reopens it, by a standby
that adopts it, by ``fsck`` and by ``HCompress.restore``. They used to
parse frames and fold "snapshot, then the suffix past its LSN" separately;
now all four sit on :func:`repro.recovery.scan_frames` and
:func:`repro.recovery.replay_catalog`. This drives them with random
record sequences (commits with 4- and 5-element entries, evicts, reopens
that re-seed the LSN floor the way restore does), an optional snapshot
(compacted under or not) and a random cut or byte flip, and holds each to
a model that knows only the frame boundaries. Derandomised: the same
examples every run.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro import HCompress, HCompressConfig, RecoveryConfig, ares_hierarchy
from repro.faults import default_seed
from repro.recovery import (
    JOURNAL_NAME,
    EngineSnapshot,
    Journal,
    replay_catalog,
    replay_journal,
    write_snapshot,
)
from repro.replication import (
    ReplicationConfig,
    ReplicationCoordinator,
    StandbyReplica,
)
from repro.scrub import fsck_store
from repro.units import MiB

TASKS = ("a", "b", "c", "d")


@st.composite
def _entries(draw, task: str) -> tuple:
    out = []
    for i in range(draw(st.integers(1, 3))):
        entry = (
            f"{task}/{i}",
            draw(st.integers(0, 2**40)),
            draw(st.sampled_from(("none", "zlib", "lz4"))),
            draw(st.none() | st.integers(0, 2**32 - 1)),
        )
        if draw(st.booleans()):
            entry += (draw(st.integers(0, 2**64 - 1)),)
        out.append(entry)
    return tuple(out)


_OPS = st.lists(
    st.one_of(
        st.sampled_from(TASKS).flatmap(
            lambda task: st.tuples(
                st.just("commit"), st.just(task), _entries(task)
            )
        ),
        st.tuples(st.just("evict"), st.sampled_from(TASKS), st.just(())),
        st.just(("reopen", "", ())),
    ),
    min_size=1, max_size=10,
)


def _fold(model: dict, kind: str, task: str, entries) -> None:
    if kind == "commit":
        model[task] = list(entries)
    else:
        model.pop(task, None)


def _run(journal: Journal, op, floor: int) -> Journal:
    """Run one op; returns the journal to continue with. A reopen
    continues LSNs past ``floor`` (the snapshot's) even when compaction
    left the file empty — what restore does."""
    kind, task, entries = op
    if kind != "reopen":
        journal.commit(kind, task, entries)
        return journal
    journal.close()
    journal = Journal(journal.path, journal.fsync_every, fsync=False)
    journal.ensure_lsn_floor(floor)
    return journal


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(
    ops=_OPS,
    snapshot_after=st.none() | st.integers(0, 9),
    compact=st.booleans(),
    damage=st.sampled_from(("none", "cut", "flip")),
    where=st.integers(0, 10**6),
)
def test_the_four_readers_agree(
    ops, snapshot_after, compact, damage, where
) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        source = Path(tmp) / "source"
        journal = Journal(source / JOURNAL_NAME, fsync=False)
        model: dict[str, list] = {}
        snapshot = None
        for index, op in enumerate(ops):
            if index == snapshot_after:
                snapshot = EngineSnapshot(journal.last_lsn, dict(model))
                write_snapshot(source, snapshot, fsync=False)
                if compact:
                    journal.compact(snapshot.journal_lsn)
            floor = snapshot.journal_lsn if snapshot is not None else 0
            journal = _run(journal, op, floor)
            if op[0] != "reopen":
                _fold(model, *op)
        journal.close()

        # The model: whole frames before the damage survive, nothing else.
        wal = source / JOURNAL_NAME
        blob = wal.read_bytes()
        written = replay_journal(wal).records
        ends, offset = [], 0
        for record in written:
            offset += len(record.frame())
            ends.append(offset)
        assert offset == len(blob)
        limit = len(blob)
        if damage == "cut":
            limit = where % (len(blob) + 1)
            wal.write_bytes(blob[:limit])
        elif damage == "flip" and blob:
            limit = where % len(blob)
            wal.write_bytes(
                blob[:limit] + bytes([blob[limit] ^ 0xFF]) + blob[limit + 1:]
            )
        intact = [r for r, end in zip(written, ends) if end <= limit]
        valid_bytes = ends[len(intact) - 1] if intact else 0
        torn = limit < len(blob) and (damage == "flip" or limit != valid_bytes)
        floor = snapshot.journal_lsn if snapshot is not None else 0
        last_lsn = max([floor] + [r.lsn for r in intact])
        catalog = dict(snapshot.catalog) if snapshot is not None else {}
        for record in intact:
            if record.lsn > floor:
                _fold(catalog, record.kind, record.task_id, record.entries)

        def fresh(name: str) -> Path:
            return Path(shutil.copytree(source, Path(tmp) / name))

        report = fsck_store(fresh("fsck"))
        checks = [finding.check for finding in report.findings]
        assert report.tasks == len(catalog)
        assert ("journal.tail" in checks) == torn
        assert "journal.gap" not in checks and "journal.lsn" not in checks

        reopened = Journal(fresh("journal") / JOURNAL_NAME, fsync=False)
        assert reopened.recovered.records == intact
        assert reopened.recovered.truncated == torn
        assert reopened.path.read_bytes() == blob[:valid_bytes]  # repaired
        assert replay_catalog(snapshot, intact)[0] == catalog
        reopened.close()

        standby = StandbyReplica(0, 0, fresh("standby"), fsync=False)
        assert standby.applied_lsn == last_lsn
        assert standby.journal_path.read_bytes() == blob[:valid_bytes]
        standby.close()

        if snapshot is not None:  # restore needs one
            directory = fresh("restore")
            config = HCompressConfig(
                recovery=RecoveryConfig(
                    enabled=True, directory=directory, fsync=False
                )
            )
            engine = HCompress.restore(
                directory, ares_hierarchy(4 * MiB, 8 * MiB, 64 * MiB, nodes=1),
                config, seed=default_seed(),
            )
            assert engine.manager.catalog_snapshot() == catalog
            assert engine.journal.last_lsn == last_lsn
            assert engine.recovery_report.journal_truncated == torn
            engine.close()


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(
    ops=_OPS,
    fsync_every=st.integers(1, 4),
    checkpoint_after=st.none() | st.integers(0, 9),
)
def test_a_shipped_journal_is_the_primarys_bytes(
    ops, fsync_every, checkpoint_after
) -> None:
    """The standby holds the primary's synced prefix plus the tail the
    primary has only buffered — same frames, same LSNs — and once
    promoted reopens to the same records."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        primary = Journal(
            root / "shard-00" / JOURNAL_NAME, fsync_every, fsync=False
        )
        coordinator = ReplicationCoordinator(
            1, ReplicationConfig(enabled=True, replicas=1), root, fsync=False
        )
        coordinator.attach(0, primary)
        standby = coordinator.standbys[0][0]
        floor = 0
        for index, op in enumerate(ops):
            if index == checkpoint_after:
                floor = primary.last_lsn
                snapshot = EngineSnapshot(floor, {})
                write_snapshot(primary.path.parent, snapshot, fsync=False)
                primary.compact(floor)
                coordinator.ship_checkpoint(0, primary.path.parent)
            primary = _run(primary, op, floor)
            if op[0] == "reopen":
                coordinator.attach(0, primary)
        shipped = standby.journal_path.read_bytes()
        assert shipped.startswith(primary.path.read_bytes())
        assert coordinator.lag(0) == {0: 0}
        primary.sync()
        assert shipped == primary.path.read_bytes()
        promoted = Journal(coordinator.promote(0, standby) / JOURNAL_NAME)
        assert promoted.recovered.records == replay_journal(primary.path).records
        assert not promoted.recovered.truncated
        promoted.close()
        primary.close()
        coordinator.close()
