"""ReplicationCoordinator: WAL shipping, checkpoints, and anti-entropy.

One coordinator per sharded deployment owns every shard's standby set
and the two data flows that keep them promotable:

* **Synchronous shipping** — :meth:`attach` hooks the primary journal's
  append observer; each record is persisted by every standby *before*
  the write is acknowledged (ship-on-append rides the WAL-before-ack
  discipline, so a standby always holds a superset of what the primary
  could lose in its group-commit buffer).
* **Checkpoint shipping + anti-entropy** — :meth:`ship_checkpoint`
  installs the primary's fresh snapshot on each standby;
  :meth:`catch_up` brings a fresh or lagging standby current by
  installing the latest snapshot and offering it every record of the
  primary's journal file (:func:`~repro.recovery.journal.replay_journal`);
  :meth:`StandbyReplica.apply` drops what the standby already holds.

The coordinator never touches routing or engines — promotion lives on
the router, which asks :meth:`promotion_candidate` for the most-caught-
up standby and :meth:`demote` to recycle the dead primary's directory
into the standby set afterwards.
"""

from __future__ import annotations

from pathlib import Path

from ..errors import ShardError
from ..obs import Metric
from ..recovery import JOURNAL_NAME, SNAPSHOT_NAME, replay_journal
from .config import ReplicationConfig, replica_dirname
from .standby import StandbyReplica

__all__ = ["ReplicationCoordinator"]


class ReplicationCoordinator:
    """Standby sets and shipping state for every shard of a deployment.

    Args:
        shards: Shard count of the deployment.
        config: Replication policy (``enabled`` must be True).
        root: Deployment root directory — standbys live beside the
            primaries as ``shard-NN-rK/``.
        fsync: Forwarded to every standby (real fsync per frame or
            flush-only).
    """

    #: The families one shard's entry of :meth:`status` exports. The
    #: deployment mirrors it into that shard's registry under a leading
    #: ``shard`` label: ``obs.mirror(status[k], METRICS, shard=k)``.
    METRICS = (
        Metric(
            "hcompress_replication_shipped_records_total",
            "journal records shipped to standbys",
            lambda shard: shard["shipped_records"],
        ),
        Metric(
            "hcompress_replication_catchups_total",
            "anti-entropy catch-up passes over a standby set",
            lambda shard: shard["catch_ups"],
        ),
        Metric(
            "hcompress_replication_promotions_total",
            "standby promotions completed (failovers)",
            lambda shard: shard["failovers"],
        ),
        Metric(
            "hcompress_replication_lag_records",
            "records the standby trails the primary by",
            lambda shard: {
                (replica_id,): replica["lag"]
                for replica_id, replica in shard["replicas"].items()
            },
            ("replica",), "gauge",
        ),
    )

    def __init__(
        self,
        shards: int,
        config: ReplicationConfig,
        root: str | Path,
        fsync: bool = True,
    ) -> None:
        self.config = config
        if not self.config.enabled:
            raise ShardError("ReplicationCoordinator needs replication enabled")
        self.root = Path(root)
        self.fsync = fsync
        self.standbys: dict[int, list[StandbyReplica]] = {
            shard_id: [
                StandbyReplica(
                    shard_id,
                    replica_id,
                    self.root / replica_dirname(shard_id, replica_id),
                    fsync=fsync,
                )
                for replica_id in range(self.config.replicas)
            ]
            for shard_id in range(shards)
        }
        #: Per-shard count of records shipped synchronously.
        self.shipped_records: dict[int, int] = {
            shard_id: 0 for shard_id in self.standbys
        }
        #: Per-shard count of completed standby promotions.
        self.failovers: dict[int, int] = {
            shard_id: 0 for shard_id in self.standbys
        }
        #: Per-shard count of anti-entropy catch-up passes.
        self.catch_ups: dict[int, int] = {
            shard_id: 0 for shard_id in self.standbys
        }
        #: Newest LSN observed from each shard's primary journal.
        self.primary_lsn: dict[int, int] = {
            shard_id: 0 for shard_id in self.standbys
        }
        self._detach: dict[int, tuple] = {}

    # -- synchronous shipping ------------------------------------------------

    def attach(self, shard_id: int, journal) -> None:
        """Ship every future append of ``journal`` to the shard's
        standbys (replacing any previous attachment)."""
        self.detach(shard_id)
        self.primary_lsn[shard_id] = journal.last_lsn

        def ship(record, frame, _shard_id=shard_id):
            self.primary_lsn[_shard_id] = record.lsn
            # ``frame`` is the wire form the journal just buffered; each
            # standby verifies it (CRC + decode + LSN) before persisting —
            # a frame corrupted in shipping is rejected and re-fetched by
            # catch_up, never buried in a standby journal where it would
            # truncate replay.
            for replica in self.standbys[_shard_id]:
                if replica.apply(record, frame):
                    self.shipped_records[_shard_id] += 1

        journal.add_observer(ship)
        self._detach[shard_id] = (journal, ship)

    def detach(self, shard_id: int) -> None:
        """Stop shipping from the shard's current primary (idempotent)."""
        pair = self._detach.pop(shard_id, None)
        if pair is not None:
            journal, ship = pair
            try:
                journal.remove_observer(ship)
            except ValueError:  # journal already replaced/closed
                pass

    # -- checkpoint shipping & anti-entropy ----------------------------------

    def ship_checkpoint(self, shard_id: int, primary_directory: Path) -> None:
        """Install the primary's current snapshot on every standby."""
        for replica in self.standbys[shard_id]:
            replica.install_snapshot(primary_directory)

    def catch_up(self, shard_id: int, primary_directory: Path) -> int:
        """Anti-entropy: bring every standby of one shard current.

        Installs the primary's snapshot (when one exists) and offers
        each standby every intact record of the primary's journal file.
        Returns the number of records applied across standbys. Applies
        are idempotent by LSN, so a standby takes only the tail past its
        last-applied LSN and the overlap with live synchronous shipping
        deduplicates.
        """
        primary_directory = Path(primary_directory)
        records = replay_journal(primary_directory / JOURNAL_NAME).records
        applied = 0
        for replica in self.standbys[shard_id]:
            if (primary_directory / SNAPSHOT_NAME).exists():
                replica.install_snapshot(primary_directory)
            for record in records:
                if replica.apply(record):
                    applied += 1
        self.catch_ups[shard_id] += 1
        return applied

    # -- promotion support (the router drives the actual failover) -----------

    def promotion_candidate(self, shard_id: int) -> StandbyReplica:
        """The most-caught-up standby: max applied LSN, ties toward the
        lowest replica id (deterministic)."""
        replicas = self.standbys.get(shard_id)
        if not replicas:
            raise ShardError(
                f"shard {shard_id} has no standby replicas to promote"
            )
        return max(replicas, key=lambda r: (r.applied_lsn, -r.replica_id))

    def promote(self, shard_id: int, replica: StandbyReplica) -> Path:
        """Remove ``replica`` from the standby set (its directory becomes
        the shard's primary); returns that directory."""
        self.detach(shard_id)
        if replica in self.standbys[shard_id]:
            replica.close()
            self.standbys[shard_id].remove(replica)
        return replica.directory

    def demote(self, shard_id: int, directory: Path) -> StandbyReplica:
        """Recycle a directory (the dead primary's) as a new standby.

        The new standby adopts whatever snapshot + journal the directory
        already holds — anti-entropy from the new primary then overwrites
        it with current state. Replica ids restart the numbering after
        the highest survivor, keeping ids unique within the shard.
        Idempotent: demoting an already-enrolled directory replaces that
        standby with a fresh one over the same state.
        """
        survivors = self.standbys[shard_id]
        for existing in list(survivors):
            if existing.directory == Path(directory):
                existing.close()
                survivors.remove(existing)
        replica_id = 1 + max(
            (r.replica_id for r in survivors),
            default=self.config.replicas - 1,
        )
        replica = StandbyReplica(
            shard_id, replica_id, directory, fsync=self.fsync
        )
        survivors.append(replica)
        return replica

    # -- status --------------------------------------------------------------

    def lag(self, shard_id: int) -> dict[int, int]:
        """Replica id -> records behind the shard's primary."""
        primary = self.primary_lsn.get(shard_id, 0)
        return {
            r.replica_id: r.lag(primary) for r in self.standbys[shard_id]
        }

    def status(self) -> dict[int, dict]:
        """Per-shard replication state (the CLI's status table)."""
        return {
            shard_id: {
                "primary_lsn": self.primary_lsn[shard_id],
                "shipped_records": self.shipped_records[shard_id],
                "failovers": self.failovers[shard_id],
                "catch_ups": self.catch_ups[shard_id],
                "replicas": {
                    r.replica_id: {
                        "directory": r.directory.name,
                        "applied_lsn": r.applied_lsn,
                        "lag": r.lag(self.primary_lsn[shard_id]),
                        "frames_rejected": r.frames_rejected,
                    }
                    for r in sorted(
                        self.standbys[shard_id], key=lambda r: r.replica_id
                    )
                },
            }
            for shard_id in sorted(self.standbys)
        }

    def close(self) -> None:
        """Detach every observer and close every standby (idempotent)."""
        for shard_id in list(self._detach):
            self.detach(shard_id)
        for replicas in self.standbys.values():
            for replica in replicas:
                replica.close()
