"""Replication policy: standby count, shipping, and failover knobs.

Like every opt-in subsystem config, :class:`ReplicationConfig` is
frozen, validated at construction, and defaults to the feature-off
shape — ``enabled=False`` keeps a sharded deployment byte-identical to
one built without replication (no standby directories, no journal
observers, no promotion machinery).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ReplicationConfig", "replica_dirname"]


def replica_dirname(shard_id: int, replica_id: int) -> str:
    """A standby's recovery directory name (``shard-03-r1``) — flat
    beside the primaries so promotion just re-points the manifest."""
    return f"shard-{shard_id:02d}-r{replica_id}"


@dataclass(frozen=True)
class ReplicationConfig:
    """Per-shard standby replication and automatic failover policy.

    Attributes:
        enabled: Master switch. Off (the default) builds no standbys and
            leaves every code path byte-identical to an unreplicated
            deployment. Requires the shard deployment to have a root
            directory (standbys are durable state).
        replicas: Standby replicas per shard (K). Every one receives the
            primary's journal frames synchronously — before the write is
            acked — and a copy of each checkpoint.
        promotion_seconds: Modeled unavailability window of a failover:
            after a standby is promoted, the shard answers
            :class:`~repro.errors.FailoverInProgressError` (retryable)
            until this much modeled time has passed, then serves. ``0``
            promotes instantly.

    Promotion is automatic: when the supervisor marks a replicated shard
    DOWN, the next dispatch promotes its most-caught-up standby
    (:meth:`~repro.shard.ShardedHCompress.failover` stays callable).
    """

    enabled: bool = False
    replicas: int = 1
    promotion_seconds: float = 0.25

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
        if self.promotion_seconds < 0:
            raise ValueError("promotion_seconds must be >= 0")
