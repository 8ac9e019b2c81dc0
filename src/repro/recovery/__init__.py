"""Crash recovery & durability: write-ahead journal, checkpoints, crash sites.

Three pieces give the engine the acked-write-survives-crash discipline:

* :mod:`~repro.recovery.journal` — a CRC32-framed write-ahead journal of
  catalog mutations; records are durable before a write is acknowledged,
  and replay tolerates torn/corrupted tails.
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
    JournalCursor,
    JournalRecord,
    JournalReplay,
    replay_journal,
)
from .snapshot import SNAPSHOT_NAME, EngineSnapshot, read_snapshot, write_snapshot

__all__ = [
    "CRASH_SITES",
    "CrashPlan",
    "Crashpoints",
    "EngineSnapshot",
    "JOURNAL_NAME",
    "Journal",
    "JournalCursor",
    "JournalRecord",
    "JournalReplay",
    "SNAPSHOT_NAME",
    "read_snapshot",
    "replay_journal",
    "write_snapshot",
]
