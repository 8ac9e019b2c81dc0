"""Engine checkpoints: atomic snapshots of recoverable state.

A snapshot captures everything a crashed engine cannot rebuild from the
tiers alone: the placement catalog, the CCP's learned parameters and
``model_version``, the System Monitor's ``state_epoch``, cumulative
resilience counters, the named-file manifests, and the tier capacity
ledger as the engine last saw it (for drift reporting at restore). The
journal LSN the snapshot covers is recorded so restore replays exactly
the suffix written after the checkpoint.

The file is replaced through :func:`~repro.recovery.journal.atomic_write`:
a crash during checkpointing leaves either the previous snapshot or the
new one, never a torn file. The payload is JSON with a version field;
unknown versions are rejected rather than misread.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import RecoveryError
from .journal import atomic_write, parse_entry

__all__ = ["SNAPSHOT_NAME", "EngineSnapshot", "read_snapshot", "write_snapshot"]

#: Snapshot file name inside a recovery directory.
SNAPSHOT_NAME = "snapshot.json"

#: Current on-disk format version.
SNAPSHOT_VERSION = 1


@dataclass(frozen=True)
class EngineSnapshot:
    """One engine's recoverable state at a checkpoint instant.

    Attributes:
        journal_lsn: Highest journal LSN this snapshot already includes;
            restore applies only records with a larger LSN.
        catalog: ``task_id -> [(key, length, codec, crc32-or-None), ...]``
            — entries may carry a 5th element, the end-to-end content
            digest (``repro.scrub``); digest-less entries stay in the
            legacy 4-element form so feature-off snapshots are
            byte-identical to pre-digest builds.
        file_manifests: The interception facade's name -> task-id lists.
        ccp_theta: Exported regression parameters per head.
        ccp_model_version: The CCP's monotone version at checkpoint.
        ccp_observations: Observations folded into the model so far.
        monitor_epoch: The System Monitor's ``state_epoch``.
        monitor_samples: Snapshots the monitor had taken.
        resilience: Cumulative ``ResilienceStats`` counters (trace
            excluded: it is diagnostic, unbounded, and rebuildable).
        tier_used: ``tier name -> accounted bytes`` as the engine last saw
            the ledger — restore compares this against the live tiers and
            reports drift instead of trusting it blindly.
        replans: The engine's degraded-mode replan counter.
        qos: QoS governor state (admission counters/backlog, per-tier
            breaker states, brownout level) when the engine runs with
            QoS enabled; empty otherwise. Optional in the on-disk format
            so version-1 snapshots written before the field read cleanly.
    """

    journal_lsn: int
    catalog: dict[str, list[tuple]]
    file_manifests: dict[str, list[str]] = field(default_factory=dict)
    ccp_theta: dict[str, list[float]] = field(default_factory=dict)
    ccp_model_version: int = 0
    ccp_observations: int = 0
    monitor_epoch: int = 0
    monitor_samples: int = 0
    resilience: dict[str, float] = field(default_factory=dict)
    tier_used: dict[str, int] = field(default_factory=dict)
    replans: int = 0
    qos: dict = field(default_factory=dict)

    def referenced_keys(self) -> set[str]:
        """Every piece key the catalog points at."""
        return {
            entry[0] for entries in self.catalog.values() for entry in entries
        }

    def to_dict(self) -> dict:
        return {
            "version": SNAPSHOT_VERSION,
            "journal_lsn": self.journal_lsn,
            "catalog": {
                task: [list(entry) for entry in entries]
                for task, entries in self.catalog.items()
            },
            "file_manifests": {
                name: list(tasks) for name, tasks in self.file_manifests.items()
            },
            "ccp": {
                "theta": self.ccp_theta,
                "model_version": self.ccp_model_version,
                "observations_seen": self.ccp_observations,
            },
            "monitor": {
                "state_epoch": self.monitor_epoch,
                "samples": self.monitor_samples,
            },
            "resilience": dict(self.resilience),
            "tier_used": dict(self.tier_used),
            "replans": self.replans,
            "qos": dict(self.qos),
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "EngineSnapshot":
        try:
            version = int(raw["version"])
            if version != SNAPSHOT_VERSION:
                raise RecoveryError(
                    f"unsupported snapshot version {version} "
                    f"(this build reads {SNAPSHOT_VERSION})"
                )
            ccp = raw.get("ccp", {})
            monitor = raw.get("monitor", {})
            return cls(
                journal_lsn=int(raw["journal_lsn"]),
                catalog={
                    str(task): [parse_entry(entry) for entry in entries]
                    for task, entries in raw["catalog"].items()
                },
                file_manifests={
                    str(name): [str(t) for t in tasks]
                    for name, tasks in raw.get("file_manifests", {}).items()
                },
                ccp_theta={
                    str(t): [float(v) for v in vec]
                    for t, vec in ccp.get("theta", {}).items()
                },
                ccp_model_version=int(ccp.get("model_version", 0)),
                ccp_observations=int(ccp.get("observations_seen", 0)),
                monitor_epoch=int(monitor.get("state_epoch", 0)),
                monitor_samples=int(monitor.get("samples", 0)),
                resilience={
                    str(k): float(v)
                    for k, v in raw.get("resilience", {}).items()
                },
                tier_used={
                    str(k): int(v) for k, v in raw.get("tier_used", {}).items()
                },
                replans=int(raw.get("replans", 0)),
                qos=dict(raw.get("qos", {})),
            )
        except RecoveryError:
            raise
        except (KeyError, ValueError, TypeError) as exc:
            raise RecoveryError(f"snapshot file is malformed: {exc}") from exc


def write_snapshot(
    directory: str | Path, snapshot: EngineSnapshot, fsync: bool = True
) -> Path:
    """Atomically persist a snapshot into ``directory``; returns its path."""
    blob = json.dumps(snapshot.to_dict(), separators=(",", ":")).encode("utf-8")
    return atomic_write(Path(directory) / SNAPSHOT_NAME, blob, fsync)


def read_snapshot(directory: str | Path) -> EngineSnapshot:
    """Load the snapshot from a recovery directory.

    Raises :class:`RecoveryError` when the file is absent or malformed.
    """
    path = Path(directory) / SNAPSHOT_NAME
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError:
        raise RecoveryError(f"no snapshot at {path}") from None
    except (OSError, ValueError) as exc:
        raise RecoveryError(f"snapshot {path} is unreadable: {exc}") from exc
    return EngineSnapshot.from_dict(raw)
