"""Admission control: bounded intake backlog with class-aware shedding.

The controller models the engine's intake as a byte backlog that fills on
every admitted task and drains at a modeled rate (defaulting to the sink
tier's aggregate bandwidth). Shedding is class-aware and monotone in
severity:

* fill <= ``shed_soft_fill``      -> everything admitted
* soft band (soft < fill <= 1)    -> sub-protected classes shed with
  probability ``excess ** (1 + class)`` — lower classes shed first, drawn
  from a seeded RNG so the trace replays exactly
* fill > 1                        -> every sub-protected class shed

Protected classes (``PROTECTED_CLASS`` and above) are never shed by the
controller; the brownout ladder may additionally impose a shed *floor*
that deterministically rejects classes below it.

With ``QosConfig.tenant_quota_fraction`` set the controller additionally
tracks each tenant's live share of the backlog (drained proportionally
with the whole queue) and sheds a sub-protected task whose tenant would
exceed its quota with reason ``"tenant-quota"`` — the fair-sharding leg
of the shed lottery: one storming tenant saturates only its own slice,
not every tenant's admission odds.
"""

from __future__ import annotations

import random

from ..errors import TaskShedError
from .config import PROTECTED_CLASS, QosClass, QosConfig

__all__ = ["AdmissionController"]


class AdmissionController:
    """Bounded-backlog intake gate with seeded, replayable shed decisions."""

    def __init__(self, config: QosConfig, drain_bytes_per_s: float):
        if drain_bytes_per_s <= 0:
            raise ValueError("drain_bytes_per_s must be positive")
        self.config = config
        self.drain_bytes_per_s = float(drain_bytes_per_s)
        self.backlog_bytes = 0.0
        self.admitted = 0
        self.shed = 0
        self.shed_by_class: dict[int, int] = {}
        self.shed_by_tenant: dict[str, int] = {}
        self.tenant_bytes: dict[str, float] = {}
        self.trace: list[tuple] = []
        self._rng = random.Random(config.shed_seed)
        self._last_drain: float | None = None

    def _drain(self, now: float) -> None:
        if self._last_drain is not None and now > self._last_drain:
            before = self.backlog_bytes
            self.backlog_bytes = max(
                0.0,
                before - (now - self._last_drain) * self.drain_bytes_per_s,
            )
            if self.tenant_bytes:
                # Per-tenant shares drain proportionally with the queue
                # (the drain model has no notion of per-tenant ordering).
                if self.backlog_bytes <= 0.0:
                    self.tenant_bytes.clear()
                elif before > 0.0:
                    factor = self.backlog_bytes / before
                    for tenant in self.tenant_bytes:
                        self.tenant_bytes[tenant] *= factor
        self._last_drain = now

    def fill(self, now: float) -> float:
        """Current backlog fill fraction (drains lazily to ``now``)."""
        self._drain(now)
        return self.backlog_bytes / self.config.max_backlog_bytes

    def admit(
        self,
        task_id: int,
        size: int,
        qos_class: QosClass,
        now: float,
        floor: QosClass | None = None,
        tenant: str | None = None,
    ) -> None:
        """Admit the task into the backlog or raise :class:`TaskShedError`.

        ``floor`` is the brownout shed floor: classes strictly below it
        are rejected outright regardless of fill. ``tenant`` scopes the
        task to a per-tenant quota when one is configured.
        """
        self._drain(now)
        fill = (self.backlog_bytes + size) / self.config.max_backlog_bytes
        quota = self.config.tenant_quota_fraction
        reason = None
        if floor is not None and qos_class < floor:
            reason = "brownout"
        elif qos_class >= PROTECTED_CLASS:
            pass  # protected classes are never shed
        elif (
            quota is not None
            and tenant is not None
            and (self.tenant_bytes.get(tenant, 0.0) + size)
            / self.config.max_backlog_bytes
            > quota
        ):
            reason = "tenant-quota"
        elif fill > 1.0:
            reason = "overload"
        elif fill > self.config.shed_soft_fill:
            excess = (fill - self.config.shed_soft_fill) / (
                1.0 - self.config.shed_soft_fill
            )
            # Lower classes get a larger shed probability (excess < 1, so a
            # higher exponent shrinks it); the draw order is deterministic.
            if self._rng.random() < excess ** (1 + int(qos_class)):
                reason = "pressure"
        if reason is not None:
            self.shed += 1
            self.shed_by_class[int(qos_class)] = (
                self.shed_by_class.get(int(qos_class), 0) + 1
            )
            if tenant is not None:
                self.shed_by_tenant[tenant] = (
                    self.shed_by_tenant.get(tenant, 0) + 1
                )
            self.trace.append(
                ("shed", round(now, 9), task_id, int(qos_class), reason,
                 round(fill, 6))
            )
            raise TaskShedError(
                f"task {task_id} (class {QosClass(qos_class).name}) shed: "
                f"{reason} (backlog fill {fill:.3f})",
                qos_class=int(qos_class),
                reason=reason,
            )
        self.backlog_bytes += size
        if quota is not None and tenant is not None:
            self.tenant_bytes[tenant] = (
                self.tenant_bytes.get(tenant, 0.0) + size
            )
        self.admitted += 1

    def export_state(self) -> dict:
        return {
            "backlog_bytes": self.backlog_bytes,
            "admitted": self.admitted,
            "shed": self.shed,
            "shed_by_class": dict(self.shed_by_class),
            "shed_by_tenant": dict(self.shed_by_tenant),
            "tenant_bytes": dict(self.tenant_bytes),
        }

    def restore_state(self, raw: dict, now: float) -> None:
        self.backlog_bytes = float(raw.get("backlog_bytes", 0.0))
        self.admitted = int(raw.get("admitted", 0))
        self.shed = int(raw.get("shed", 0))
        self.shed_by_class = {
            int(k): int(v) for k, v in raw.get("shed_by_class", {}).items()
        }
        self.shed_by_tenant = {
            str(k): int(v) for k, v in raw.get("shed_by_tenant", {}).items()
        }
        self.tenant_bytes = {
            str(k): float(v) for k, v in raw.get("tenant_bytes", {}).items()
        }
        self._last_drain = now
