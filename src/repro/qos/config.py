"""QoS policy configuration: admission, breakers, deadlines, brownout.

One frozen dataclass (:class:`QosConfig`) gathers every overload-protection
knob, mirroring the shape of :class:`~repro.core.config.ResilienceConfig`.
The master ``enabled`` switch defaults to off, and a disabled config keeps
the engine byte-identical to a build without the subsystem.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

from ..hcdp.priorities import ARCHIVAL_IO, ASYNC_IO, READ_AFTER_WRITE, Priority
from ..units import MiB

__all__ = ["QosClass", "QosConfig", "qos_class_for_priority"]


class QosClass(IntEnum):
    """Task service classes, ordered by importance (lowest sheds first).

    The paper's Table II priority presets map onto these classes:
    archival traffic is best-effort, async I/O is batch, read-after-write
    is interactive. ``CRITICAL`` is reserved for callers that must never
    be shed (metadata, recovery traffic).
    """

    BEST_EFFORT = 0
    BATCH = 1
    INTERACTIVE = 2
    CRITICAL = 3


#: Tasks of this class or higher are never shed by the admission
#: controller, and brownout level 3 sheds strictly *below* it.
PROTECTED_CLASS = QosClass.INTERACTIVE


def qos_class_for_priority(priority: Priority) -> QosClass:
    """Default QoS class of a Table II priority preset.

    Unknown/custom priorities map to ``BATCH`` — the neutral middle class.
    """
    if priority == ARCHIVAL_IO:
        return QosClass.BEST_EFFORT
    if priority == ASYNC_IO:
        return QosClass.BATCH
    if priority == READ_AFTER_WRITE:
        return QosClass.INTERACTIVE
    return QosClass.BATCH


@dataclass(frozen=True)
class QosConfig:
    """Overload-protection policy for an HCompress engine.

    Attributes:
        enabled: Master switch. When off the engine constructs no
            governor and every request path behaves byte-identically to
            a build without QoS.
        max_backlog_bytes: Admission backlog bound. Intake bytes above
            this are shed outright (fill > 1); between ``shed_soft_fill``
            and 1 the controller sheds probabilistically, lowest classes
            first.
        shed_soft_fill: Backlog fill fraction where probabilistic
            shedding of sub-protected classes begins.
        drain_bytes_per_s: Modeled rate at which the admission backlog
            drains. ``None`` derives it from the hierarchy sink tier's
            aggregate bandwidth.
        shed_seed: Seed of the shed-decision RNG, so overload traces are
            replayable.
        breaker_failure_threshold: Failures inside ``breaker_window``
            that trip a closed breaker open.
        breaker_window: Sliding failure-count window in modeled seconds.
        breaker_open_seconds: Initial quarantine after tripping; each
            failed half-open probe multiplies it by
            ``breaker_backoff_factor`` up to ``breaker_open_cap``.
        breaker_backoff_factor: Reopen backoff multiplier (deterministic,
            no jitter — breaker traces must replay exactly).
        breaker_open_cap: Upper bound on a single quarantine period.
        breaker_probes: Probe writes admitted in half-open before the
            breaker either closes (all succeed) or reopens (any fails).
        breaker_latency_threshold: Optional modeled-seconds bound; a
            *successful* tier operation slower than this still counts as
            a breaker failure (a crawling tier is quarantined like a
            failing one). ``None`` disables latency feedback.
        default_deadline: Optional deadline (modeled seconds) applied to
            every operation that does not pass one explicitly.
        brownout_enabled: Pressure-driven degradation ladder on/off.
        brownout_high: Pressure at/above which the ladder escalates one
            level (prefer fastest codec -> skip compression -> shed).
        brownout_low: Pressure at/below which it recovers one level;
            the gap against ``brownout_high`` provides hysteresis.
        brownout_dwell: Minimum modeled seconds between ladder moves.
        default_class: QoS class assumed for tasks submitted without one.
        tenant_classes: Tenant-scoped service classes: ``(tenant, class)``
            pairs consulted when a task arrives with a ``tenant`` but no
            explicit ``qos_class``. Tenants not listed fall back to
            ``default_class``. A tuple of pairs (not a dict) keeps the
            config hashable/frozen.
        tenant_quota_fraction: Per-tenant cap on the admission backlog,
            as a fraction of ``max_backlog_bytes``. A sub-protected task
            whose tenant already holds more than this share of the
            backlog is shed with reason ``"tenant-quota"`` — one noisy
            tenant cannot monopolise the shed lottery's survivors.
            ``None`` (default) disables per-tenant accounting entirely.
    """

    enabled: bool = False
    max_backlog_bytes: int = 64 * MiB
    shed_soft_fill: float = 0.75
    drain_bytes_per_s: float | None = None
    shed_seed: int = 0
    breaker_failure_threshold: int = 3
    breaker_window: float = 1.0
    breaker_open_seconds: float = 0.25
    breaker_backoff_factor: float = 2.0
    breaker_open_cap: float = 8.0
    breaker_probes: int = 1
    breaker_latency_threshold: float | None = None
    default_deadline: float | None = None
    brownout_enabled: bool = True
    brownout_high: float = 0.85
    brownout_low: float = 0.60
    brownout_dwell: float = 0.25
    default_class: QosClass = QosClass.BATCH
    tenant_classes: tuple[tuple[str, QosClass], ...] = ()
    tenant_quota_fraction: float | None = None

    def class_for_tenant(self, tenant: str | None) -> QosClass:
        """Service class of ``tenant`` (``default_class`` when unmapped)."""
        if tenant is not None:
            for name, qos_class in self.tenant_classes:
                if name == tenant:
                    return QosClass(qos_class)
        return self.default_class

    def __post_init__(self) -> None:
        if self.max_backlog_bytes < 1:
            raise ValueError("max_backlog_bytes must be >= 1")
        if not 0.0 < self.shed_soft_fill <= 1.0:
            raise ValueError("shed_soft_fill must be in (0, 1]")
        if self.drain_bytes_per_s is not None and self.drain_bytes_per_s <= 0:
            raise ValueError("drain_bytes_per_s must be positive (or None)")
        if self.breaker_failure_threshold < 1:
            raise ValueError("breaker_failure_threshold must be >= 1")
        if self.breaker_window <= 0:
            raise ValueError("breaker_window must be positive")
        if self.breaker_open_seconds <= 0:
            raise ValueError("breaker_open_seconds must be positive")
        if self.breaker_backoff_factor < 1.0:
            raise ValueError("breaker_backoff_factor must be >= 1")
        if self.breaker_open_cap < self.breaker_open_seconds:
            raise ValueError("breaker_open_cap must be >= breaker_open_seconds")
        if self.breaker_probes < 1:
            raise ValueError("breaker_probes must be >= 1")
        if (
            self.breaker_latency_threshold is not None
            and self.breaker_latency_threshold <= 0
        ):
            raise ValueError("breaker_latency_threshold must be positive")
        if self.default_deadline is not None and self.default_deadline <= 0:
            raise ValueError("default_deadline must be positive (or None)")
        if not 0.0 <= self.brownout_low < self.brownout_high <= 1.0:
            raise ValueError("need 0 <= brownout_low < brownout_high <= 1")
        if self.brownout_dwell < 0:
            raise ValueError("brownout_dwell must be >= 0")
        seen = set()
        for entry in self.tenant_classes:
            if len(entry) != 2 or not entry[0]:
                raise ValueError(
                    "tenant_classes entries must be (tenant, QosClass) pairs"
                )
            if entry[0] in seen:
                raise ValueError(f"tenant {entry[0]!r} mapped twice")
            seen.add(entry[0])
            QosClass(entry[1])  # raises ValueError on an unknown class
        if self.tenant_quota_fraction is not None and not (
            0.0 < self.tenant_quota_fraction <= 1.0
        ):
            raise ValueError("tenant_quota_fraction must be in (0, 1]")
