"""Lifecycle-tiering policy: the knobs of the background recompression daemon.

One frozen dataclass, hanging off
:class:`~repro.core.config.HCompressConfig` like the QoS/recovery
policies: **off by default**, and when disabled the engine constructs no
daemon at all, so behavior is byte-identical to a build without the
subsystem (the access-note hooks pay one ``is None`` check).

The objective the daemon optimizes is a TCO-style modeled cost rate
(docs/LIFECYCLE.md): storage dollars per byte-second on each tier —
derived from the tier's :class:`~repro.tiers.TierSpec` — plus an access
penalty that prices every expected second a reader waits. The prices are
modeled currency; only their *ratios* matter, and the defaults are tuned
so hot blobs earn DRAM while cold blobs pay their way down to the PFS.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["LifecycleConfig"]


@dataclass(frozen=True)
class LifecycleConfig:
    """Policy of the background lifecycle daemon (docs/LIFECYCLE.md).

    Attributes:
        enabled: Master switch. When off the engine holds no daemon and
            every code path is byte-identical to the pre-lifecycle build.
        scan_interval: Modeled seconds between catalog scans; a
            :meth:`~repro.lifecycle.daemon.LifecycleDaemon.step` call
            before the interval elapses is a no-op (0 scans every step).
        half_life: Exponential-decay half-life, in modeled seconds, of
            the per-blob access temperature. A blob's temperature halves
            after this much idle time; the expected read rate used by the
            objective is ``temperature / half_life``.
        storage_price: Modeled dollars per GB·second on the *slowest*
            tier. Faster tiers scale this by
            ``sqrt(latency_slowest / latency_tier)`` (see
            :class:`~repro.lifecycle.cost.TierCostModel`).
        access_price: Modeled dollars per second of expected reader wait
            (tier I/O plus codec decode). This is the term that pulls hot
            data up; storage_price is the term that pushes cold data down.
        horizon: Amortization window in modeled seconds: a migration pays
            off when its one-time cost is recovered within this long.
        max_migrations_per_step: Cap on migrations executed per scan, so
            a cold catalog drains over several steps instead of stalling
            foreground traffic behind one giant sweep.
        max_brownout_level: Highest QoS brownout rung at which the daemon
            still runs; above it every step pauses (0 = pause at the
            first sign of overload). Ignored without a QoS governor.
    """

    enabled: bool = False
    scan_interval: float = 4.0
    half_life: float = 16.0
    storage_price: float = 1.0
    access_price: float = 1.0
    horizon: float = 32.0
    max_migrations_per_step: int = 4
    max_brownout_level: int = 0

    def __post_init__(self) -> None:
        if self.scan_interval < 0:
            raise ValueError("scan_interval must be >= 0")
        if self.half_life <= 0:
            raise ValueError("half_life must be positive")
        if self.storage_price < 0 or self.access_price < 0:
            raise ValueError("storage_price and access_price must be >= 0")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.max_migrations_per_step < 1:
            raise ValueError("max_migrations_per_step must be >= 1")
        if self.max_brownout_level < 0:
            raise ValueError("max_brownout_level must be >= 0")
