"""The shard-map manifest: one durable description of the shard layout.

A sharded deployment's per-shard state (journal + snapshot under
``shard-NN/``) is tied together by a single ``shard-map.json`` at the
root directory: shard count, ring parameters, each shard's directory
and last-known status, and a monotone version bumped on every layout
change (construction, a shard marked DOWN, a shard restored). Restore
reads the manifest first — it is the authority on how many shards exist
and where their recovery state lives; a missing or malformed manifest
is a :class:`~repro.errors.ShardManifestError`.

Writes go through the same
:func:`~repro.recovery.journal.atomic_write` as engine snapshots: a crash
mid-write leaves the previous manifest or the new one, never a torn
file. Stale-version protection is the reader's job: the version only
moves forward, so a manifest read back with a smaller version than one
previously observed signals split-brain and is rejected.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import ShardManifestError
from ..recovery.journal import atomic_write
from .config import shard_dirname

__all__ = ["MANIFEST_NAME", "ShardManifest", "read_manifest", "write_manifest"]

#: Manifest file name inside a sharded deployment's root directory.
MANIFEST_NAME = "shard-map.json"

#: Current on-disk format version.
MANIFEST_FORMAT = 1


@dataclass(frozen=True)
class ShardManifest:
    """One sharded deployment's durable layout description.

    Attributes:
        version: Monotone layout version; bumped on every status or
            membership change. A reader that has seen version ``v`` must
            reject any manifest with a smaller version.
        shards: Number of engine shards.
        virtual_nodes: Ring points per shard (routing parameter).
        hash_seed: Seed of the ring's stable hash (routing parameter).
        statuses: Shard id -> ``"UP"`` / ``"DOWN"`` / ``"PROMOTING"``
            (a standby mid-promotion) as last persisted.
        directories: Shard id -> recovery directory name, relative to
            the manifest's own directory. Failover re-homes a shard here:
            after a promotion the entry names the promoted standby's
            directory, and the version bump fences the old primary — a
            process still holding the previous version fails its next
            ``min_version`` read instead of double-serving.
    """

    version: int
    shards: int
    virtual_nodes: int
    hash_seed: int
    statuses: dict[int, str] = field(default_factory=dict)
    directories: dict[int, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.version < 1:
            raise ShardManifestError("manifest version must be >= 1")
        if self.shards < 1:
            raise ShardManifestError("manifest shard count must be >= 1")
        for shard_id, status in self.statuses.items():
            if not 0 <= shard_id < self.shards:
                raise ShardManifestError(
                    f"manifest status for unknown shard {shard_id}"
                )
            if status not in ("UP", "DOWN", "PROMOTING"):
                raise ShardManifestError(
                    f"shard {shard_id} has invalid status {status!r}"
                )

    @classmethod
    def initial(
        cls, shards: int, virtual_nodes: int, hash_seed: int
    ) -> "ShardManifest":
        """Fresh version-1 layout: every shard UP, default directories."""
        return cls(
            version=1,
            shards=shards,
            virtual_nodes=virtual_nodes,
            hash_seed=hash_seed,
            statuses={s: "UP" for s in range(shards)},
            directories={s: shard_dirname(s) for s in range(shards)},
        )

    def with_status(self, shard_id: int, status: str) -> "ShardManifest":
        """Next layout version with one shard's status changed."""
        statuses = dict(self.statuses)
        statuses[shard_id] = status
        return ShardManifest(
            version=self.version + 1,
            shards=self.shards,
            virtual_nodes=self.virtual_nodes,
            hash_seed=self.hash_seed,
            statuses=statuses,
            directories=dict(self.directories),
        )

    def with_promotion(
        self, shard_id: int, directory: str, status: str = "PROMOTING"
    ) -> "ShardManifest":
        """Next layout version with one shard re-homed to a promoted
        standby's directory.

        The version bump is the failover fence: any process that
        observed an older version (the dead primary's owner, a stale
        router) fails its next ``min_version`` manifest read instead of
        acting on the superseded layout.
        """
        statuses = dict(self.statuses)
        statuses[shard_id] = status
        directories = dict(self.directories)
        directories[shard_id] = directory
        return ShardManifest(
            version=self.version + 1,
            shards=self.shards,
            virtual_nodes=self.virtual_nodes,
            hash_seed=self.hash_seed,
            statuses=statuses,
            directories=directories,
        )

    def to_dict(self) -> dict:
        return {
            "format": MANIFEST_FORMAT,
            "version": self.version,
            "shards": self.shards,
            "virtual_nodes": self.virtual_nodes,
            "hash_seed": self.hash_seed,
            "statuses": {str(k): v for k, v in sorted(self.statuses.items())},
            "directories": {
                str(k): v for k, v in sorted(self.directories.items())
            },
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "ShardManifest":
        try:
            fmt = int(raw["format"])
            if fmt != MANIFEST_FORMAT:
                raise ShardManifestError(
                    f"unsupported manifest format {fmt} "
                    f"(this build reads {MANIFEST_FORMAT})"
                )
            return cls(
                version=int(raw["version"]),
                shards=int(raw["shards"]),
                virtual_nodes=int(raw["virtual_nodes"]),
                hash_seed=int(raw["hash_seed"]),
                statuses={
                    int(k): str(v) for k, v in raw.get("statuses", {}).items()
                },
                directories={
                    int(k): str(v)
                    for k, v in raw.get("directories", {}).items()
                },
            )
        except ShardManifestError:
            raise
        except (KeyError, ValueError, TypeError) as exc:
            raise ShardManifestError(
                f"shard manifest is malformed: {exc}"
            ) from exc


def write_manifest(
    directory: str | Path, manifest: ShardManifest, fsync: bool = True
) -> Path:
    """Atomically persist the manifest into ``directory``; returns its path."""
    blob = json.dumps(manifest.to_dict(), separators=(",", ":")).encode("utf-8")
    return atomic_write(Path(directory) / MANIFEST_NAME, blob, fsync)


def read_manifest(
    directory: str | Path, min_version: int = 1
) -> ShardManifest:
    """Load the manifest from a deployment root.

    ``min_version`` rejects stale manifests: callers that have already
    observed version ``v`` pass ``v`` so a rolled-back file (split
    brain, restored backup) fails loudly instead of silently re-routing.
    Raises :class:`~repro.errors.ShardManifestError` when the file is
    absent, malformed, or older than ``min_version``.
    """
    path = Path(directory) / MANIFEST_NAME
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError:
        raise ShardManifestError(f"no shard manifest at {path}") from None
    except (OSError, ValueError) as exc:
        raise ShardManifestError(
            f"shard manifest {path} is unreadable: {exc}"
        ) from exc
    manifest = ShardManifest.from_dict(raw)
    if manifest.version < min_version:
        raise ShardManifestError(
            f"stale shard manifest: version {manifest.version} < "
            f"already-observed {min_version}"
        )
    return manifest
