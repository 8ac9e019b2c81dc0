"""The QoS governor: one facade over admission, breakers, and brownout.

``HCompress`` constructs a governor when ``QosConfig.enabled`` and
threads it through the request path:

* ``observe`` feeds monitor pressure into the brownout ladder,
* ``admit`` gates intake (raising :class:`~repro.errors.TaskShedError`),
* ``codec_filter`` / ``quarantined_tiers`` constrain HCDP planning,
* ``breaker_allow`` / ``record_tier_outcome`` are the SHI's write gate
  and outcome feed,
* ``tier_quarantined`` is the flusher's non-mutating destination check.

All timing runs on the engine clock (simulated seconds when a SimClock
is wired, a deterministic call counter otherwise), and every decision is
appended to a replayable event trace.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Callable

from ..obs import Metric
from .admission import AdmissionController
from .breaker import HALF_OPEN, OPEN, BreakerBoard
from .brownout import BrownoutController, BrownoutLevel
from .config import QosClass, QosConfig

if TYPE_CHECKING:  # pragma: no cover
    from ..monitor.system_monitor import SystemStatus
    from ..tiers import StorageHierarchy

__all__ = ["QosGovernor"]

_BREAKER_STATE_CODE = {OPEN: 2, HALF_OPEN: 1}  # anything else is closed, 0


class QosGovernor:
    """Engine-lifetime QoS state: one admission controller, one breaker
    per tier, one brownout ladder, one merged event trace."""

    #: The families the three controllers export (``Observability.mirror``).
    #: Admission decisions and deadline outcomes are pushed per task by the
    #: governor itself, under other names.
    METRICS = (
        Metric(
            "hcompress_qos_backlog_bytes",
            "admission backlog (modeled bytes awaiting drain)",
            "admission.backlog_bytes", kind="gauge",
        ),
        Metric(
            "hcompress_qos_admission_admitted_total",
            "mirror of the admission controller", "admission.admitted",
        ),
        Metric(
            "hcompress_qos_admission_shed_total",
            "mirror of the admission controller", "admission.shed",
        ),
        Metric(
            "hcompress_qos_brownout_level",
            "current brownout ladder rung (0 normal .. 3 shed)",
            "brownout.level", kind="gauge",
        ),
        Metric(
            "hcompress_qos_brownout_transitions_total",
            "brownout ladder moves (either direction)",
            # No series until the ladder first moves, as when each move
            # pushed the count (tests/golden/armed_telemetry.txt).
            lambda qos: (
                {(): qos.brownout.transitions} if qos.brownout.transitions else {}
            ),
        ),
        Metric(
            "hcompress_qos_breaker_state",
            "circuit-breaker state per tier (0 closed, 1 half-open, 2 open)",
            lambda qos: {
                (tier,): _BREAKER_STATE_CODE.get(breaker.state, 0)
                for tier, breaker in qos.breakers.breakers.items()
            },
            ("tier",), "gauge",
        ),
        Metric(
            "hcompress_qos_breaker_transitions_total",
            "circuit-breaker state changes per tier",
            lambda qos: {
                (tier,): breaker.transitions
                for tier, breaker in qos.breakers.breakers.items()
            },
            ("tier",),
        ),
    )

    def __init__(
        self,
        config: QosConfig,
        hierarchy: "StorageHierarchy",
        clock: Callable[[], float] | None = None,
        obs=None,
    ):
        self.config = config
        self.obs = obs
        if clock is None:
            counter = itertools.count()
            clock = lambda: float(next(counter)) * 1e-6  # noqa: E731
        self._clock = clock
        drain = config.drain_bytes_per_s
        if drain is None:
            drain = hierarchy[len(hierarchy) - 1].spec.bandwidth
        self.admission = AdmissionController(config, drain)
        self.breakers = BreakerBoard(hierarchy.names, config)
        self.brownout = BrownoutController(config)
        self.deadline_exceeded = 0

    def now(self) -> float:
        return self._clock()

    # -- monitor feedback --------------------------------------------------

    def observe(self, status: "SystemStatus") -> BrownoutLevel:
        """Feed monitor pressure (combined with admission backlog fill)
        into the brownout ladder."""
        now = self.now()
        pressure = max(status.pressure(), min(1.0, self.admission.fill(now)))
        return self.brownout.update(pressure, now)

    # -- admission ---------------------------------------------------------

    def admit(
        self,
        task_id: int,
        size: int,
        qos_class: QosClass | None,
        tenant: str | None = None,
    ) -> None:
        """Gate one task's intake; an explicit ``qos_class`` wins, else the
        tenant's configured class, else the config default."""
        if qos_class is None:
            cls = self.config.class_for_tenant(tenant)
        else:
            cls = QosClass(qos_class)
        now = self.now()
        try:
            self.admission.admit(
                task_id, size, cls, now, floor=self.brownout.shed_floor(),
                tenant=tenant,
            )
        except Exception:
            if self.obs is not None:
                self.obs.record_qos_shed(cls.name)
            raise
        if self.obs is not None:
            self.obs.record_qos_admitted(cls.name)

    # -- planning constraints ----------------------------------------------

    def codec_filter(self) -> str | None:
        return self.brownout.codec_filter()

    def quarantined_tiers(self) -> tuple[str, ...]:
        return self.breakers.quarantined(self.now())

    # -- SHI gate and outcome feed -----------------------------------------

    def breaker_allow(self, tier: str) -> bool:
        return self.breakers.allow(tier, self.now())

    def tier_quarantined(self, tier: str) -> bool:
        return self.breakers.blocked(tier, self.now())

    def record_tier_outcome(self, tier: str, ok: bool, seconds: float = 0.0) -> None:
        threshold = self.config.breaker_latency_threshold
        if ok and threshold is not None and seconds > threshold:
            ok = False  # a crawling tier counts as a failing one
        self.breakers.record(tier, ok, self.now())

    # -- bookkeeping -------------------------------------------------------

    def record_deadline_exceeded(self, operation: str) -> None:
        self.deadline_exceeded += 1
        if self.obs is not None:
            self.obs.record_deadline_exceeded(operation)

    def event_trace(self) -> tuple:
        """Deterministic merged trace: admission sheds, breaker
        transitions, brownout moves (each stream internally ordered)."""
        return (
            tuple(self.admission.trace),
            tuple(self.breakers.trace),
            tuple(self.brownout.trace),
        )

    # -- checkpoint/restore ------------------------------------------------

    def export_state(self) -> dict:
        return {
            "admission": self.admission.export_state(),
            "brownout": self.brownout.export_state(),
            "deadline_exceeded": self.deadline_exceeded,
            "breakers": self.breakers.export_state(),
        }

    def restore_state(self, raw: dict) -> None:
        now = self.now()
        self.admission.restore_state(raw.get("admission", {}), now)
        self.brownout.restore_state(raw.get("brownout", {}), now)
        self.deadline_exceeded = int(raw.get("deadline_exceeded", 0))
        if "breakers" in raw:
            self.breakers.restore_state(raw["breakers"], now)
