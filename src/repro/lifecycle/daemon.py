"""The background lifecycle daemon: track temperature, re-decide placement.

Write-time placement (the HCDP plan) is the paper's contribution; this
daemon is the arc beyond it: placement should *follow* data temperature
over its lifetime. The daemon keeps a per-task access record (decayed
exponentially on the simulated clock), scores every cataloged blob
against the :class:`~repro.lifecycle.cost.TierCostModel` objective, and
migrates the biggest savers — hot blobs up, re-encoded with a fast codec;
cold blobs down, re-encoded with a heavy one.

Migrations ride the engine's existing durability machinery: the daemon
only decides *what* moves *where*; the copy -> journal re-point -> evict
choreography, its rollback and its crash argument are
:meth:`CompressionManager.relocate
<repro.core.manager.CompressionManager.relocate>` (docs/LIFECYCLE.md).
Four crash sites (``lifecycle.pre_copy`` here, ``post_copy`` /
``post_journal`` / ``post_evict`` inside ``relocate``) pin the windows
for the ``sweep_crash_sites`` harness.

The daemon is strictly cooperative: it runs only when :meth:`step` is
called, self-rate-limits to ``scan_interval``, caps migrations per step,
pauses when the QoS brownout ladder climbs past its configured rung, and
skips destinations a circuit breaker has quarantined — background
re-placement must never starve foreground deadlines.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, field, replace

from ..codecs.metadata import HEADER_SIZE
from ..errors import TierError
# Unused here since relocate() verifies; benchmarks/e2e/tracing.py wraps the name.
from ..hashing import content_hash64  # noqa: F401
from ..obs import Metric
from .config import LifecycleConfig
from .cost import TierCostModel

__all__ = ["AccessRecord", "LifecycleDaemon", "LifecycleStats", "Migration"]


@dataclass
class AccessRecord:
    """Exponentially-decayed access temperature of one task.

    ``temperature`` counts recent accesses, halving every
    ``half_life`` modeled seconds of idleness; ``touched_at`` is the
    modeled time of the last update. The expected read rate the
    objective consumes is ``temperature / half_life``.
    """

    temperature: float
    touched_at: float

    def decayed(self, now: float, half_life: float) -> float:
        idle = max(now - self.touched_at, 0.0)
        return self.temperature * math.pow(2.0, -idle / half_life)


#: Codec preference for blobs moving *up* — the first roster member wins
#: (cache-line codecs when the engine runs ``EXTENDED_LIBRARIES``, byte-LZ
#: otherwise) — and for blobs moving *down* (heavy, ratio-first codecs).
PROMOTE_CODECS = ("bdi", "fpc", "lz4", "snappy")
DEMOTE_CODECS = ("lzma", "bsc", "bzip2")


@dataclass(frozen=True)
class Migration:
    """One executed (or scheduled) migration, for status/tests."""

    task_id: str
    src_tier: str
    dst_tier: str
    old_codec: str
    new_codec: str
    direction: str  # "promote" | "demote"
    bytes_moved: int
    modeled_seconds: float
    saving_rate: float  # modeled $/s the move earns


@dataclass
class LifecycleStats:
    """Cumulative daemon counters (exported via ``LifecycleDaemon.METRICS``)."""

    scans: int = 0
    paused: int = 0
    promotions: int = 0
    demotions: int = 0
    failed: int = 0
    skipped_quarantined: int = 0
    bytes_moved: int = 0
    migration_seconds: float = 0.0
    saved_rate: float = 0.0  # cumulative modeled $/s earned by migrations
    cost_rate: float = 0.0   # catalog-wide modeled $/s at the last scan
    last_scan: float = 0.0
    migrations: list[Migration] = field(default_factory=list)


def _by_direction(weigh, *always: str):
    """A ``Metric`` reader: ``{(direction,): sum of weigh(migration)}`` over
    a daemon's executed migrations, in first-seen order; ``always``
    directions export 0 until one runs."""

    def read(daemon: "LifecycleDaemon") -> Counter:
        totals: Counter = Counter()
        for done in daemon.stats.migrations:
            totals[done.direction,] += weigh(done)
        totals.update({(direction,): 0 for direction in always})
        return totals

    return read


_HELP = "mirror of the lifecycle daemon counters"


class LifecycleDaemon:
    """Per-engine background recompression/re-tiering daemon.

    Constructed by :class:`~repro.core.hcompress.HCompress` when
    ``LifecycleConfig.enabled`` — engines with the subsystem off hold
    ``None`` and stay byte-identical. The daemon only reads the engine's
    public surfaces (catalog helpers, hierarchy, pool, QoS governor
    read-only) and mutates placement exclusively through the manager's
    :meth:`~repro.core.manager.CompressionManager.relocate`.
    """

    #: The families this object exports (``Observability.mirror``).
    METRICS = (
        Metric(
            "hcompress_lifecycle_scans_total", "lifecycle daemon catalog scans",
            "stats.scans",
        ),
        Metric(
            "hcompress_lifecycle_migrations_total",
            "blobs re-tiered by the lifecycle daemon",
            _by_direction(lambda done: 1, "promote", "demote"), ("direction",),
        ),
        Metric(
            "hcompress_lifecycle_bytes_moved_total",
            "stored bytes placed by lifecycle migrations",
            _by_direction(lambda done: done.bytes_moved), ("direction",),
        ),
        Metric(
            "hcompress_lifecycle_migration_seconds_total",
            "modeled seconds of migration I/O + transcode",
            "stats.migration_seconds",
        ),
        Metric(
            "hcompress_lifecycle_cost_rate",
            "catalog-wide modeled TCO rate ($/s) at the last scan",
            "stats.cost_rate", kind="gauge",
        ),
        Metric("hcompress_lifecycle_paused_total", _HELP, "stats.paused"),
        Metric("hcompress_lifecycle_failed_total", _HELP, "stats.failed"),
        Metric(
            "hcompress_lifecycle_skipped_quarantined_total", _HELP,
            "stats.skipped_quarantined",
        ),
        Metric(
            "hcompress_lifecycle_tracked_tasks",
            "tasks with a live access-temperature record",
            lambda daemon: len(daemon.access), kind="gauge",
        ),
        Metric(
            "hcompress_lifecycle_saved_rate",
            "cumulative modeled $/s earned by executed migrations",
            "stats.saved_rate", kind="gauge",
        ),
    )

    def __init__(self, engine, config: LifecycleConfig) -> None:
        self.engine = engine
        self.config = config
        self.clock = engine._clock if engine._clock is not None else time.monotonic
        self.cost = TierCostModel(
            engine.hierarchy,
            storage_price=config.storage_price,
            access_price=config.access_price,
        )
        self.stats = LifecycleStats()
        self.access: dict[str, AccessRecord] = {}
        self._next_scan = float("-inf")
        # Codec preference resolved once against the engine's roster.
        pool = engine.pool
        self.promote_codec = next(
            (c for c in PROMOTE_CODECS if c in pool), "none"
        )
        self.demote_codec = next(
            (c for c in DEMOTE_CODECS if c in pool), "none"
        )

    # -- access tracking (called from the engine's read/write paths) ---------

    def note_write(self, task_id: str) -> None:
        """Record a write: a fresh blob starts warm (one access)."""
        self._touch(task_id)

    def note_read(self, task_id: str) -> None:
        """Record a read against the task's decayed temperature."""
        self._touch(task_id)

    def _touch(self, task_id: str) -> None:
        now = self.clock()
        record = self.access.get(task_id)
        if record is None:
            self.access[task_id] = AccessRecord(1.0, now)
        else:
            record.temperature = (
                record.decayed(now, self.config.half_life) + 1.0
            )
            record.touched_at = now

    def read_rate(self, task_id: str, now: float | None = None) -> float:
        """Expected reads per modeled second for a task (0 if untracked)."""
        record = self.access.get(task_id)
        if record is None:
            return 0.0
        if now is None:
            now = self.clock()
        return (
            record.decayed(now, self.config.half_life) / self.config.half_life
        )

    # -- the daemon step ------------------------------------------------------

    def step(self, force: bool = False) -> list[Migration]:
        """One daemon tick: scan, score, migrate the best candidates.

        Self-rate-limited to ``scan_interval`` unless ``force``; returns
        the migrations executed this step (empty on a skipped or paused
        tick). Raises nothing the engine's callers don't already handle —
        a migration that loses a race with capacity rolls itself back and
        is counted in ``stats.failed``.
        """
        now = self.clock()
        if not force and now < self._next_scan:
            return []
        qos = self.engine.qos
        if (
            qos is not None
            and int(qos.brownout.level) > self.config.max_brownout_level
        ):
            # Overloaded: background I/O yields to foreground traffic. The
            # scan clock still advances so a long brownout does not queue
            # up a burst of back-to-back scans when pressure lifts.
            self.stats.paused += 1
            self._next_scan = now + self.config.scan_interval
            return []
        obs = self.engine.obs
        if obs is None:
            return self._step(now)
        with obs.region("lifecycle.step") as sp:
            migrations = self._step(now)
            sp.set_attr("migrations", len(migrations))
            modeled = sum(m.modeled_seconds for m in migrations)
            sp.charge_modeled(modeled)
        return migrations

    def _step(self, now: float) -> list[Migration]:
        self.stats.scans += 1
        self.stats.last_scan = now
        self._next_scan = now + self.config.scan_interval

        candidates = self._scan(now)
        executed: list[Migration] = []
        for plan in candidates[: self.config.max_migrations_per_step]:
            done = self._migrate(plan)
            if done is None:
                self.stats.failed += 1
                continue
            executed.append(done)
            self.stats.migrations.append(done)
            self.stats.bytes_moved += done.bytes_moved
            self.stats.migration_seconds += done.modeled_seconds
            self.stats.saved_rate += done.saving_rate
            if done.direction == "promote":
                self.stats.promotions += 1
            else:
                self.stats.demotions += 1
        return executed

    # -- scan + score ---------------------------------------------------------

    def _scan(self, now: float) -> list[Migration]:
        """Score every cataloged task; return migrations worth executing,
        best saver first. Also drops access records of evicted tasks and
        refreshes the catalog-wide cost rate."""
        engine = self.engine
        manager = engine.manager
        hierarchy = engine.hierarchy
        cost = self.cost
        config = self.config
        qos = engine.qos
        live = manager.task_ids()
        live_set = set(live)
        for task_id in [t for t in self.access if t not in live_set]:
            del self.access[task_id]

        total_rate = 0.0
        candidates: list[Migration] = []
        for task_id in live:
            entries = manager.task_entries(task_id)
            if not entries:
                continue
            src = hierarchy.find(entries[0].key)
            if src is None:
                continue
            src_level = hierarchy.level_of(src.spec.name)
            rate = self.read_rate(task_id, now)
            old_codec = entries[0].codec
            stored = 0
            length = 0
            for entry in entries:
                tier = hierarchy.find(entry.key)
                if tier is None:
                    stored = -1
                    break
                stored += tier.extent(entry.key).accounted_size
                length += entry.length
            if stored < 0:
                continue
            current = cost.cost_rate(src, stored, old_codec, length, rate)
            total_rate += current

            best: Migration | None = None
            for level, dst in enumerate(hierarchy):
                if level == src_level or not dst.available:
                    continue
                direction = "promote" if level < src_level else "demote"
                new_codec = (
                    self.promote_codec
                    if direction == "promote"
                    else self.demote_codec
                )
                new_stored = self._estimate_stored(
                    entries, stored, old_codec, new_codec
                )
                if not dst.fits(new_stored):
                    continue
                if qos is not None and qos.tier_quarantined(dst.spec.name):
                    self.stats.skipped_quarantined += 1
                    continue
                saving = current - cost.cost_rate(
                    dst, new_stored, new_codec, length, rate
                )
                payoff = saving * config.horizon - cost.migration_dollars(
                    src, dst, stored, new_stored, old_codec, new_codec, length
                )
                if payoff <= 0.0:  # the move must pay for itself
                    continue
                if best is None or saving > best.saving_rate:
                    best = Migration(
                        task_id=task_id,
                        src_tier=src.spec.name,
                        dst_tier=dst.spec.name,
                        old_codec=old_codec,
                        new_codec=new_codec,
                        direction=direction,
                        bytes_moved=new_stored,
                        modeled_seconds=0.0,
                        saving_rate=saving,
                    )
            if best is not None:
                candidates.append(best)
        self.stats.cost_rate = total_rate
        candidates.sort(key=lambda m: (-m.saving_rate, m.task_id))
        return candidates

    def _estimate_stored(
        self, entries, stored: int, old_codec: str, new_codec: str
    ) -> int:
        """The scan's *ranking* estimate of the footprint after re-encoding
        with ``new_codec``: the blob's actual current size scaled by the
        codecs' relative profile ratios.

        For a same-codec move (the common promote) it is exact, which is
        what kills promote/demote ping-pong: the post-migration rescoring
        sees the same numbers the scan did. For a re-encode it is a
        profile mean that has not seen the blob and can be far off (lzma:
        20.96 against 1.2-7.0 measured on ``real_mixed``) — it orders
        candidates; whether the move can land is sized inside
        ``relocate`` by the engine's cost predictor, on the decoded bytes.
        """
        if new_codec == old_codec:
            return stored
        headers = len(entries) * HEADER_SIZE
        payload = max(stored - headers, 1)
        scale = self.cost.expected_ratio(old_codec) / max(
            self.cost.expected_ratio(new_codec), 1e-9
        )
        return headers + max(1, math.ceil(payload * scale))

    # -- migration executor ---------------------------------------------------

    def _migrate(self, plan: Migration) -> Migration | None:
        """Hand one planned migration to ``relocate``: every piece to the
        destination tier, re-encoded with the planned codec.

        Returns the realized migration (actual bytes/seconds), or ``None``
        when the move was sized out by the cost predictor, lost a race
        (capacity changed, piece vanished) or hit corruption —
        ``relocate`` rolled back whatever it had placed, counted the
        reason (``status()["refused"]``) and the blob stays where it was.
        """
        # Imported here, not at module scope: core.config carries a
        # LifecycleConfig field, so a top-level import would be circular.
        from ..core.manager import Move

        engine = self.engine
        try:
            entries = engine.manager.task_entries(plan.task_id)
        except TierError:
            return None
        dst = (engine.hierarchy.by_name(plan.dst_tier),)
        moves = []
        for index, entry in enumerate(entries):
            src = engine.hierarchy.find(entry.key)
            extent = src.extent(entry.key) if src is not None else None
            accounted = None
            if extent is not None and not extent.has_payload:
                # Modeled piece (no payload to transcode): re-size by
                # the same relative-ratio estimate the scan used.
                accounted = self._estimate_stored(
                    [entry], extent.accounted_size, entry.codec,
                    plan.new_codec,
                )
            # A piece already in the planned codec is copied, not transcoded.
            codec = plan.new_codec if entry.codec != plan.new_codec else None
            moves.append(Move(index, dst, codec, accounted=accounted))
        if engine.crashpoints is not None:
            engine.crashpoints.reached("lifecycle.pre_copy")
        done = engine.manager.relocate(plan.task_id, moves, cause="lifecycle")
        if done is None:
            return None
        return replace(
            plan, bytes_moved=done.bytes_moved,
            modeled_seconds=done.modeled_seconds,
        )

    # -- status ---------------------------------------------------------------

    def status(self) -> dict:
        """JSON-friendly daemon state for the CLI and the shard router."""
        stats = self.stats
        return {
            "enabled": True,
            "scans": stats.scans,
            "paused": stats.paused,
            "promotions": stats.promotions,
            "demotions": stats.demotions,
            "failed": stats.failed,
            "refused": dict(sorted(self.engine.manager.relocations_refused.items())),
            "skipped_quarantined": stats.skipped_quarantined,
            "bytes_moved": stats.bytes_moved,
            "migration_seconds": round(stats.migration_seconds, 9),
            "saved_rate": round(stats.saved_rate, 9),
            "cost_rate": round(stats.cost_rate, 9),
            "tracked_tasks": len(self.access),
            "promote_codec": self.promote_codec,
            "demote_codec": self.demote_codec,
        }
