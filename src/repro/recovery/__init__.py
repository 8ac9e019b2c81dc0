"""Crash recovery & durability: write-ahead journal, checkpoints, crash sites.

Three pieces give the engine the acked-write-survives-crash discipline:

* :mod:`~repro.recovery.journal` — a CRC32-framed write-ahead journal of
  catalog mutations; records are durable before a write is acknowledged,
  and replay tolerates torn/corrupted tails. It is also the one reader
  and writer of a recovery directory's files (frame scan, tail repair,
  atomic replace, snapshot-then-suffix catalog fold).
* :mod:`~repro.recovery.snapshot` — atomic engine checkpoints (catalog,
  CCP parameters, monitor epoch, resilience counters, tier ledger) that
  bound how much journal a restore must replay.
* :mod:`~repro.recovery.crashpoints` — named crash sites threaded through
  the write/flush/failover paths, armed by a seeded :class:`CrashPlan`
  so the chaos runner (:mod:`repro.faults.scenario`) can kill the engine at
  any instrumented moment and prove recovery's invariants.

See docs/RECOVERY.md for the format/invariant reference.
"""

from .crashpoints import CRASH_SITES, CrashPlan, Crashpoints
from .journal import (
    JOURNAL_NAME,
    Journal,
    JournalRecord,
    JournalReplay,
    atomic_write,
    repair_tail,
    replay_catalog,
    replay_journal,
    scan_frames,
)
from .snapshot import SNAPSHOT_NAME, EngineSnapshot, read_snapshot, write_snapshot

__all__ = [
    "CRASH_SITES",
    "CrashPlan",
    "Crashpoints",
    "EngineSnapshot",
    "JOURNAL_NAME",
    "Journal",
    "JournalRecord",
    "JournalReplay",
    "SNAPSHOT_NAME",
    "atomic_write",
    "read_snapshot",
    "repair_tail",
    "replay_catalog",
    "replay_journal",
    "scan_frames",
    "write_snapshot",
]
