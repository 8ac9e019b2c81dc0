"""The System Monitor (paper §IV-E).

Reports the status of the storage hierarchy — availability (boolean), load
(queue size) and remaining capacity (bytes) per tier — to the HCDP engine.
The paper implements this as a background thread shelling out to ``du`` and
``iostat``; against our simulated hierarchy the same three signals are read
directly from the tier runtimes, throttled by a sampling interval so the
engine sees periodically-refreshed (slightly stale) data exactly as it
would in the real system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..obs import Metric
from ..tiers import StorageHierarchy

__all__ = ["TierStatus", "SystemStatus", "SystemMonitor"]


@dataclass(frozen=True)
class TierStatus:
    """One tier's monitored signals at a sample instant."""

    name: str
    level: int
    available: bool
    load: int
    remaining: int | None
    used: int
    queued_bytes: int = 0

    def effective_remaining(self) -> int | None:
        """Remaining bytes, zeroed when the tier is down."""
        if not self.available:
            return 0
        return self.remaining


@dataclass(frozen=True)
class SystemStatus:
    """Snapshot of the whole hierarchy."""

    time: float
    tiers: tuple[TierStatus, ...]

    def tier(self, name: str) -> TierStatus:
        for status in self.tiers:
            if status.name == name:
                return status
        raise KeyError(f"no tier named {name!r} in snapshot")

    def pressure(self) -> float:
        """Worst bounded-tier fill fraction in [0, 1].

        Unbounded tiers (the PFS) contribute nothing; a downed bounded
        tier counts as full, since its bytes cannot drain anywhere. This
        is the scalar the QoS brownout ladder consumes.
        """
        worst = 0.0
        for status in self.tiers:
            if status.remaining is None:
                continue
            if not status.available:
                worst = max(worst, 1.0)
                continue
            capacity = status.used + status.remaining
            if capacity > 0:
                worst = max(worst, min(status.used / capacity, 1.0))
        return worst


class SystemMonitor:
    """Periodic sampler over a :class:`StorageHierarchy`.

    :meth:`sample` is the one place planning reads tier state, through
    the tiers' public properties; every consumer — the HCDP engine, the
    QoS governor, the batch planner's run-lane ledger — works from the
    :class:`SystemStatus` it returns.

    Args:
        hierarchy: The monitored tier stack.
        clock: Zero-argument callable returning the current time (simulated
            or wall). Defaults to a monotonically increasing call counter so
            the monitor works standalone.
        interval: Minimum time between fresh samples; queries inside the
            interval return the cached snapshot (the staleness the paper's
            periodic thread would exhibit).
        capacity_bands: Quantization of the fill-level signal that feeds
            :attr:`state_epoch`: each bounded tier's used fraction is
            bucketed into this many bands, and the epoch bumps whenever any
            tier crosses a band boundary (or flips availability). Consumers
            holding state derived from a snapshot — the HCDP plan cache —
            invalidate on epoch change.
    """

    #: The families this object exports (``Observability.mirror``).
    METRICS = (
        Metric(
            "hcompress_monitor_samples_total", "fresh hierarchy snapshots",
            "samples_taken",
        ),
        Metric(
            "hcompress_monitor_state_epoch",
            "planning-relevant state transitions observed", "state_epoch",
            kind="gauge",
        ),
    )

    def __init__(
        self,
        hierarchy: StorageHierarchy,
        clock: Callable[[], float] | None = None,
        interval: float = 0.0,
        capacity_bands: int = 32,
    ) -> None:
        if interval < 0:
            raise ValueError(f"interval must be >= 0, got {interval}")
        if capacity_bands < 1:
            raise ValueError(f"capacity_bands must be >= 1, got {capacity_bands}")
        self._hierarchy = hierarchy
        self._interval = interval
        self._capacity_bands = capacity_bands
        if clock is None:
            counter = iter(range(1 << 62))
            clock = lambda: float(next(counter))  # noqa: E731
        self._clock = clock
        self._cached: SystemStatus | None = None
        self._samples = 0
        self._epoch = 0
        self._signature: tuple | None = None

    @property
    def hierarchy(self) -> StorageHierarchy:
        return self._hierarchy

    @property
    def samples_taken(self) -> int:
        return self._samples

    @property
    def interval(self) -> float:
        return self._interval

    @property
    def capacity_bands(self) -> int:
        return self._capacity_bands

    @property
    def state_epoch(self) -> int:
        """Monotone counter of *planning-relevant* state transitions.

        Bumps when a sample observes any tier changing availability or
        crossing a capacity band (used fraction quantized into
        ``capacity_bands`` buckets). Load/queue churn does not bump it —
        those signals are carried exactly in the snapshot itself.
        """
        return self._epoch

    def band(self, status: TierStatus) -> int:
        """Quantized fill level of one tier (-1 for unbounded tiers): the
        signal whose change bumps :attr:`state_epoch`."""
        if status.remaining is None:
            return -1
        capacity = status.used + status.remaining
        if capacity <= 0:
            return 0
        fraction = min(max(status.used / capacity, 0.0), 1.0)
        return min(int(fraction * self._capacity_bands), self._capacity_bands - 1)

    def sample(self) -> SystemStatus:
        """Take a fresh snapshot unconditionally."""
        now = self._clock()
        tiers = tuple(
            TierStatus(
                name=tier.spec.name,
                level=level,
                available=tier.available,
                load=tier.queue_depth,
                remaining=tier.remaining,
                used=tier.used,
                queued_bytes=tier.queued_bytes,
            )
            for level, tier in enumerate(self._hierarchy)
        )
        signature = tuple((t.available, self.band(t)) for t in tiers)
        if self._signature is not None and signature != self._signature:
            self._epoch += 1
        self._signature = signature
        self._cached = SystemStatus(time=now, tiers=tiers)
        self._samples += 1
        return self._cached

    def restore_state(self, state_epoch: int, samples: int = 0) -> None:
        """Adopt a checkpointed epoch/sample count (crash recovery).

        Keeps :attr:`state_epoch` monotone across an engine restart so
        consumers keyed on it (the HCDP plan cache) can never observe an
        epoch moving backwards. The cached snapshot and band signature are
        dropped — the next sample re-baselines against the live hierarchy
        without a spurious epoch bump.
        """
        if state_epoch < 0 or samples < 0:
            raise ValueError("state_epoch and samples must be >= 0")
        self._epoch = max(self._epoch, state_epoch)
        self._samples = max(self._samples, samples)
        self._signature = None
        self._cached = None

    def invalidate(self) -> None:
        """Drop the cached snapshot so the next :meth:`status` resamples.

        Used by degraded-mode replanning: after an I/O failure the engine
        must not trust a pre-outage sample, whatever the interval says.
        """
        self._cached = None

    def status(self) -> SystemStatus:
        """Current snapshot, refreshed only when the interval has elapsed."""
        now = self._clock()
        if self._cached is None or now - self._cached.time >= self._interval:
            return self.sample()
        return self._cached
