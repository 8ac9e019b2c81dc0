"""The background scrubber: walk the catalog, re-read blobs, self-heal.

Foreground reads only verify what they touch; a bit that rots in a cold
blob between operations goes unnoticed until the data is needed — and
compressed tiers amplify the blast radius, because one flipped stored
byte loses the whole logical extent behind it. The :class:`Scrubber`
closes that window: a cooperative daemon (the ``LifecycleDaemon`` mold —
off by default, stepped on the modeled clock, paused under QoS brownout,
one per shard) walks the catalog at a bounded bytes/step budget,
re-reads every payload-bearing piece, and verifies the stored CRC plus
the end-to-end content digest.

On a mismatch it repairs in escalating order (docs/INTEGRITY.md):

1. **re-read** — bounded re-reads of the home tier; transient in-flight
   corruption heals without touching stored state.
2. **surviving copy** — another tier still holding the same key (a
   flusher/lifecycle copy the crash sweeps have not reclaimed yet) whose
   bytes validate.
3. **replica hook** — the manager's ``on_corrupt`` hook, the pluggable
   replica source (the scrub-chaos harness wires it to a mirror of the
   standby's shipped state).

A blob healed from rung 2/3 is rewritten under a *new* generation key by
:meth:`CompressionManager.relocate
<repro.core.manager.CompressionManager.relocate>` — the same copy ->
journal re-point -> evict choreography as a lifecycle migration, pinned
by the swept ``scrub.pre_repair`` (here) / ``scrub.post_copy`` /
``scrub.post_journal`` / ``scrub.post_evict`` (inside ``relocate``)
crash sites, so a crash at any instant leaves exactly one readable copy.
Only when every rung is exhausted is the piece quarantined: further
reads fail fast with :class:`~repro.errors.IntegrityError` instead of
burning retry budget on unhealable data.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field

from ..errors import TierError
from ..obs import Metric
from .config import READ_REPAIR_RETRIES, ScrubConfig
from .fsck import validate_entry

__all__ = ["Repair", "ScrubStats", "Scrubber"]


@dataclass(frozen=True)
class Repair:
    """One detected corruption and what the escalation ladder did."""

    task_id: str
    key: str           # the corrupt piece key
    new_key: str       # healed rewrite key ("" when no rewrite was needed)
    tier: str          # tier the corruption was found on
    source: str        # "reread" | "survivor" | "hook" | "" (none worked)
    outcome: str       # "healed" | "quarantined"
    modeled_seconds: float


@dataclass
class ScrubStats:
    """Cumulative scrubber counters (exported via ``Scrubber.METRICS``)."""

    scans: int = 0            # full catalog passes started
    steps: int = 0
    paused: int = 0
    tasks_scanned: int = 0
    pieces_scanned: int = 0
    bytes_scanned: int = 0
    corruptions: int = 0      # validation failures detected by the walk
    repairs: int = 0          # healed (any rung)
    rewrites: int = 0         # healed via a WAL-disciplined rewrite
    quarantined: int = 0
    failed: int = 0           # repair attempts lost to races/capacity
    last_scan: float = 0.0
    repair_log: list[Repair] = field(default_factory=list)


_HELP = "mirror of the scrubber counters"


class Scrubber:
    """Per-engine background integrity scrubber.

    Constructed by :class:`~repro.core.hcompress.HCompress` when
    ``ScrubConfig.enabled`` — engines with the subsystem off hold
    ``None`` and stay byte-identical. Reads go through the public
    :class:`~repro.tiers.Tier` API (so injected faults apply to scrub
    traffic like any other) and placement mutates exclusively through
    the manager's ``relocate``.
    """

    #: The families this object exports (``Observability.mirror``).
    METRICS = (
        Metric(
            "hcompress_scrub_steps_total", "background scrubber steps executed",
            "stats.steps",
        ),
        Metric(
            "hcompress_scrub_corruptions_total",
            "latent corruptions detected by the scrubber's walk",
            "stats.corruptions",
        ),
        Metric(
            "hcompress_scrub_repairs_total",
            "scrubber repair outcomes by healing source",
            lambda scrubber: Counter(
                (repair.outcome, repair.source or "none")
                for repair in scrubber.stats.repair_log
            ),
            ("outcome", "source"),
        ),
        Metric("hcompress_scrub_scans_total", _HELP, "stats.scans"),
        Metric("hcompress_scrub_paused_total", _HELP, "stats.paused"),
        Metric(
            "hcompress_scrub_pieces_scanned_total", _HELP, "stats.pieces_scanned"
        ),
        Metric(
            "hcompress_scrub_bytes_scanned_total", _HELP, "stats.bytes_scanned"
        ),
        Metric("hcompress_scrub_rewrites_total", _HELP, "stats.rewrites"),
        Metric("hcompress_scrub_quarantined_total", _HELP, "stats.quarantined"),
        Metric("hcompress_scrub_failed_total", _HELP, "stats.failed"),
    )

    def __init__(self, engine, config: ScrubConfig) -> None:
        self.engine = engine
        self.config = config
        self.clock = (
            engine._clock if engine._clock is not None else time.monotonic
        )
        self.stats = ScrubStats()
        self._next_scan = float("-inf")
        self._pending: list[str] = []  # task ids left in the current pass
        self._step_seconds = 0.0  # modeled I/O charged by the last step

    # -- the daemon step ------------------------------------------------------

    def step(self, force: bool = False) -> list[Repair]:
        """One scrub tick: walk a budget's worth of catalog, heal what rots.

        Self-rate-limited to ``scan_interval`` unless ``force``; returns
        the corruptions handled this step (empty on a skipped or paused
        tick). Never raises for a piece it cannot heal — exhausted pieces
        are quarantined and counted; the typed error surfaces on the next
        foreground read.
        """
        now = self.clock()
        if not force and now < self._next_scan:
            return []
        qos = self.engine.qos
        if (
            qos is not None
            and int(qos.brownout.level) > self.config.max_brownout_level
        ):
            # Overloaded: background re-reads yield to foreground traffic.
            # The scan clock still advances so a long brownout does not
            # queue a burst of back-to-back scans when pressure lifts.
            self.stats.paused += 1
            self._next_scan = now + self.config.scan_interval
            return []
        obs = self.engine.obs
        if obs is None:
            return self._step(now)
        with obs.region("scrub.step") as sp:
            repairs = self._step(now)
            sp.set_attr("repairs", len(repairs))
            sp.charge_modeled(self._step_seconds)
        return repairs

    def _step(self, now: float) -> list[Repair]:
        self.stats.steps += 1
        self.stats.last_scan = now
        self._next_scan = now + self.config.scan_interval
        self._step_seconds = 0.0
        manager = self.engine.manager
        if not self._pending:
            self._pending = manager.task_ids()
            if self._pending:
                self.stats.scans += 1
        budget = self.config.bytes_per_step
        handled: list[Repair] = []
        while self._pending and budget > 0:
            if len(handled) >= self.config.max_repairs_per_step:
                break
            task_id = self._pending.pop(0)
            repairs, nbytes = self._scrub_task(task_id)
            budget -= max(nbytes, 1)
            handled.extend(repairs)
        self.stats.repair_log.extend(handled)
        return handled

    # -- one task's walk ------------------------------------------------------

    def _scrub_task(self, task_id: str) -> tuple[list[Repair], int]:
        """Verify every payload-bearing piece of one task; returns the
        repairs performed and the accounted bytes re-read."""
        engine = self.engine
        manager = engine.manager
        hierarchy = engine.hierarchy
        try:
            entries = manager.task_entries(task_id)
        except TierError:
            return [], 0  # evicted between steps
        self.stats.tasks_scanned += 1
        repairs: list[Repair] = []
        nbytes = 0
        for index, entry in enumerate(entries):
            tier = hierarchy.find(entry.key)
            if tier is None or not tier.available:
                # Lost pieces are the foreground read path's typed error;
                # a dark tier is scrubbed once it comes back.
                continue
            extent = tier.extent(entry.key)
            if not extent.has_payload:
                continue  # accounting-only modeled piece: nothing to read
            if entry.key in manager.quarantined:
                # Known-bad: re-reading teaches nothing. But quarantine
                # is a holding state, not a verdict — when a repair
                # source may have appeared since (a replica hook wired
                # up, a copy landed on another tier), climb the ladder
                # again; healing lifts the quarantine.
                if manager.on_corrupt is None and not any(
                    other is not tier
                    and other.available
                    and entry.key in other
                    for other in hierarchy
                ):
                    continue
                repair = self._repair(task_id, index, entry, tier, extent)
                if repair is not None:
                    repairs.append(repair)
                    entries = manager.task_entries(task_id)
                continue
            self.stats.pieces_scanned += 1
            nbytes += extent.accounted_size
            self._step_seconds += tier.io_seconds(extent.accounted_size)
            try:
                blob = tier.get(entry.key)
            except TierError:
                self.stats.failed += 1
                continue  # transient read fault; next pass retries
            if self._validate(entry, blob):
                continue
            self.stats.corruptions += 1
            repair = self._repair(task_id, index, entry, tier, extent)
            if repair is not None:
                repairs.append(repair)
                # Entries may have been re-pointed; reload for later pieces.
                entries = manager.task_entries(task_id)
        self.stats.bytes_scanned += nbytes
        return repairs, nbytes

    @staticmethod
    def _validate(entry, blob: bytes) -> bool:
        """Whether a blob matches its catalog entry end to end."""
        return validate_entry(entry, blob)

    # -- the repair ladder ----------------------------------------------------

    def _repair(self, task_id, index, entry, tier, extent) -> Repair | None:
        """Escalate through the repair sources for one corrupt piece.

        ``SimulatedCrashError`` deliberately propagates from the crash
        sites: it models process death, and recovery's sweeps must clean
        up whatever it strands.
        """
        engine = self.engine
        manager = engine.manager
        crashpoints = engine.crashpoints
        if crashpoints is not None:
            crashpoints.reached("scrub.pre_repair")
        seconds = 0.0

        # Rung 1: bounded re-reads — in-flight corruption heals without
        # touching stored state (the stored bytes were never wrong).
        for _attempt in range(READ_REPAIR_RETRIES):
            seconds += tier.io_seconds(extent.accounted_size)
            try:
                blob = tier.get(entry.key)
            except TierError:
                continue
            if self._validate(entry, blob):
                self.stats.repairs += 1
                self._step_seconds += seconds
                manager.clear_quarantine(entry.key)
                return Repair(
                    task_id, entry.key, "", tier.spec.name, "reread",
                    "healed", seconds,
                )

        # Rung 2: a surviving copy of the same key on another tier
        # (interrupted flusher/lifecycle copies recovery has not swept).
        good: bytes | None = None
        source = ""
        for other in engine.hierarchy:
            if other is tier or not other.available or entry.key not in other:
                continue
            try:
                blob = other.get(entry.key)
            except TierError:
                continue
            seconds += other.io_seconds(len(blob))
            if self._validate(entry, blob):
                good, source = blob, "survivor"
                break

        # Rung 3: the replica hook — the engine's pluggable corruption
        # source (a standby's shipped state, erasure reconstruction, ...).
        if good is None and manager.on_corrupt is not None:
            replacement = manager.on_corrupt(entry.key, b"")
            if replacement is not None and self._validate(entry, replacement):
                good, source = replacement, "hook"

        if good is None:
            # Every source exhausted: quarantine. Reads fail fast and
            # typed from here on instead of re-burning retry budget.
            # Idempotent: a retried-and-still-unhealable key stays one
            # quarantine event, not a new one per pass.
            if entry.key not in manager.quarantined:
                manager.quarantined.add(entry.key)
                manager.quarantine_events += 1
                self.stats.quarantined += 1
            self._step_seconds += seconds
            return Repair(
                task_id, entry.key, "", tier.spec.name, "", "quarantined",
                seconds,
            )

        # Persist the healed bytes under a new key. Prefer healing in
        # place (same tier); fall back to any tier with room — data
        # safety outranks placement, and the lifecycle daemon can re-tier
        # the blob later.
        from ..core.manager import Move  # core.config imports ScrubConfig

        targets = (tier, *(t for t in engine.hierarchy if t is not tier))
        done = manager.relocate(
            task_id, [Move(index, targets, blob=good)], cause="scrub"
        )
        if done is None:
            self.stats.failed += 1
            self._step_seconds += seconds
            return None
        seconds += done.modeled_seconds
        self.stats.repairs += 1
        self.stats.rewrites += 1
        self._step_seconds += seconds
        return Repair(
            task_id, entry.key, done.keys[0], done.tiers[0], source,
            "healed", seconds,
        )

    # -- status ---------------------------------------------------------------

    def status(self) -> dict:
        """JSON-friendly scrubber state for the CLI and the shard router."""
        stats = self.stats
        return {
            "enabled": True,
            "scans": stats.scans,
            "steps": stats.steps,
            "paused": stats.paused,
            "tasks_scanned": stats.tasks_scanned,
            "pieces_scanned": stats.pieces_scanned,
            "bytes_scanned": stats.bytes_scanned,
            "corruptions": stats.corruptions,
            "repairs": stats.repairs,
            "rewrites": stats.rewrites,
            "quarantined": stats.quarantined,
            "failed": stats.failed,
            "pending_tasks": len(self._pending),
        }
