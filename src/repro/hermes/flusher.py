"""Asynchronous tier draining (Hermes's buffering core).

Multi-tiered buffering works because the upper tiers are *emptied* while
the application computes: a background flusher moves the oldest extents of
any tier that crosses its high-water mark down the hierarchy, paying real
(simulated) I/O on both ends. Both the Hermes baseline and HCompress run on
top of this mechanism — for HCompress, the flushed bytes are the compressed
footprint, which is precisely why compression multiplies the value of the
hierarchy (the paper's central claim).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import TierError, TierUnavailableError, TransientIOError
from ..obs import Metric
from ..sim import IO, Delay
from ..tiers import StorageHierarchy, Tier

__all__ = ["TierFlusher", "FlushStats"]

_HELP = "mirror of the TierFlusher counters"


@dataclass
class FlushStats:
    """Cumulative flusher counters."""

    moves: int = 0
    bytes_moved: int = 0
    polls: int = 0
    failed_moves: int = 0  # transient failures; the move is retried later
    skipped_unavailable: int = 0  # polls that skipped a down source tier

    #: The families these counters export. A flusher belongs to no engine,
    #: so its owner mirrors it: ``obs.mirror(stats, FlushStats.METRICS)``.
    METRICS = (
        Metric("hcompress_flusher_moves_total", _HELP, "moves"),
        Metric("hcompress_flusher_bytes_moved_total", _HELP, "bytes_moved"),
        Metric("hcompress_flusher_polls_total", _HELP, "polls"),
        Metric("hcompress_flusher_failed_moves_total", _HELP, "failed_moves"),
        Metric(
            "hcompress_flusher_skipped_unavailable_total", _HELP,
            "skipped_unavailable",
        ),
    )


class TierFlusher:
    """Background drain process over a hierarchy.

    Args:
        hierarchy: The managed tier stack. Only bounded tiers are drained;
            the terminal (unbounded) tier is the sink.
        high_water: Fill fraction that triggers draining.
        low_water: Fill fraction draining stops at.
        poll_seconds: Sleep between checks when nothing needs draining.
        batch_moves: Max extents moved per wake-up (bounds event pressure).
        obs: Optional :class:`~repro.obs.Observability` sink; each poll
            fires the ``flusher.poll`` profiling hooks; the cumulative
            ``FlushStats`` are exported through ``FlushStats.METRICS``.
        crashpoints: Optional crash-point arbiter
            (:class:`~repro.recovery.Crashpoints`); the move step honours
            the ``flusher.pre_copy``/``post_copy``/``post_evict`` sites.
            A crash between copy and evict leaves the key on two tiers —
            recovery's duplicate sweep reclaims the stale copy.
        qos: Optional :class:`~repro.qos.QosGovernor`; destination
            selection skips tiers whose circuit breaker currently
            quarantines them (via the non-mutating ``tier_quarantined``
            check, so the flusher never consumes a half-open probe slot
            that foreground writes should spend).
    """

    def __init__(
        self,
        hierarchy: StorageHierarchy,
        high_water: float = 0.7,
        low_water: float = 0.4,
        poll_seconds: float = 0.05,
        batch_moves: int = 8,
        obs=None,
        crashpoints=None,
        qos=None,
    ) -> None:
        if not 0.0 < low_water < high_water <= 1.0:
            raise TierError(
                f"need 0 < low_water < high_water <= 1, got "
                f"{low_water}/{high_water}"
            )
        if poll_seconds <= 0:
            raise TierError("poll_seconds must be positive")
        if batch_moves < 1:
            raise TierError("batch_moves must be >= 1")
        self.hierarchy = hierarchy
        self.high_water = high_water
        self.low_water = low_water
        self.poll_seconds = poll_seconds
        self.batch_moves = batch_moves
        self.obs = obs
        self.crashpoints = crashpoints
        self.qos = qos
        self.stats = FlushStats()
        # FIFO order per tier: first-placed extents flush first (they are
        # the least likely to be re-read while still hot).
        self._fifo: dict[str, list[str]] = {}

    def _fill(self, tier: Tier) -> float:
        if tier.spec.capacity in (None, 0):
            return 0.0
        return tier.used / tier.spec.capacity

    def _next_victim(self, tier: Tier) -> str | None:
        queue = self._fifo.setdefault(tier.spec.name, [])
        # Lazily refresh from the tier's extents, preserving FIFO for keys
        # we have already seen.
        seen = set(queue)
        for key in tier.keys():
            if key not in seen:
                queue.append(key)
        while queue:
            key = queue[0]
            if key in tier:
                return key
            queue.pop(0)  # evicted/moved by someone else
        return None

    def _destination(self, level: int, nbytes: int) -> Tier | None:
        for lower in range(level + 1, len(self.hierarchy)):
            tier = self.hierarchy[lower]
            if not tier.available or not tier.fits(nbytes):
                continue
            if self.qos is not None and self.qos.tier_quarantined(
                tier.spec.name
            ):
                continue
            return tier
        return None

    def _defer(self, tier: Tier, key: str) -> None:
        """Rotate a key whose move failed to the back of the FIFO so the
        next poll retries it instead of hot-looping on the same victim."""
        queue = self._fifo.setdefault(tier.spec.name, [])
        try:
            queue.remove(key)
        except ValueError:
            pass
        queue.append(key)
        self.stats.failed_moves += 1

    def process(self):
        """The daemon generator: run via ``sim.add_process(..., daemon=True)``.

        Resilient by construction: a down source tier is skipped until it
        recovers, and a move that fails mid-flight (transient device error,
        destination outage, destination filled by a foreground writer) is
        deferred and retried on a later poll — the drain loop itself never
        crashes on tier faults.
        """
        while True:
            moved = 0
            if self.obs is not None:
                self.obs.hooks.enter("flusher.poll")
            for level in range(len(self.hierarchy) - 1):
                tier = self.hierarchy[level]
                if not tier.spec.bounded:
                    continue
                if not tier.available:
                    # Outage: nothing can be read off this tier right now.
                    self.stats.skipped_unavailable += 1
                    continue
                while (
                    self._fill(tier) > self.high_water
                    and moved < self.batch_moves
                ):
                    key = self._next_victim(tier)
                    if key is None:
                        break
                    try:
                        extent = tier.extent(key)
                        dst = self._destination(level, extent.accounted_size)
                        if dst is None:
                            break
                        payload = tier.get(key) if extent.has_payload else None
                    except (TransientIOError, TierUnavailableError):
                        self._defer(tier, key)
                        break  # retry on the next poll
                    nbytes = extent.accounted_size
                    yield IO(tier.spec.name, nbytes, "read")
                    yield IO(dst.spec.name, nbytes, "write")
                    # Re-check: a foreground writer may have claimed the
                    # destination's room (or a fault may have hit either
                    # end) while our I/O was in flight.
                    if key not in tier:
                        continue
                    if not dst.fits(nbytes):
                        self._defer(tier, key)
                        continue
                    if self.crashpoints is not None:
                        self.crashpoints.reached("flusher.pre_copy")
                    try:
                        # Copy before evict: if the destination write fails
                        # the source extent is untouched and no data is
                        # ever lost (both tiers briefly hold the key; the
                        # top-down ``find`` keeps reads on the source).
                        dst.put(key, payload, accounted_size=nbytes)
                    except (TransientIOError, TierUnavailableError, TierError):
                        self._defer(tier, key)
                        break
                    if self.crashpoints is not None:
                        self.crashpoints.reached("flusher.post_copy")
                    tier.evict(key)
                    if self.crashpoints is not None:
                        self.crashpoints.reached("flusher.post_evict")
                    try:
                        self._fifo[tier.spec.name].remove(key)
                    except ValueError:
                        pass
                    self.stats.moves += 1
                    self.stats.bytes_moved += nbytes
                    moved += 1
                    if self._fill(tier) <= self.low_water:
                        break
            self.stats.polls += 1
            if self.obs is not None:
                self.obs.hooks.exit("flusher.poll", moved=moved)
            yield Delay(self.poll_seconds)
