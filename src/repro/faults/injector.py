"""The FaultInjector: executes a FaultPlan against a live hierarchy.

Deterministic by construction: scheduled events are applied in plan order
as the *simulated* clock passes their timestamps (:meth:`advance_to` for
clock-driven runs, :meth:`process` as a daemon inside the discrete-event
simulator), and all probabilistic faults draw from one ``random.Random``
seeded from the plan — operation order fully determines the fault
sequence, so the same (plan, workload) replays the identical trace.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field

from ..errors import HCompressError, TransientIOError
from ..obs import Metric
from ..sim.event import Delay
from ..tiers import StorageHierarchy
from .device import FaultyDevice
from .plan import FaultEvent, FaultKind, FaultPlan

__all__ = ["FaultInjector", "InjectorStats"]

_HELP = "mirror of the FaultInjector counters"


@dataclass
class InjectorStats:
    """What the injector actually did, plus its deterministic event log."""

    events_applied: int = 0
    outages: int = 0
    recoveries: int = 0
    transient_errors: int = 0
    corruptions: int = 0
    log: list[tuple] = field(default_factory=list)

    def record(self, *entry) -> None:
        self.log.append(tuple(entry))

    #: The families this structure exports; whoever owns the injector
    #: mirrors it: ``obs.mirror(stats, InjectorStats.METRICS)``.
    METRICS = (
        Metric("hcompress_faults_applied_total", _HELP, "events_applied"),
        Metric("hcompress_faults_outages_total", _HELP, "outages"),
        Metric("hcompress_faults_recoveries_total", _HELP, "recoveries"),
        Metric(
            "hcompress_faults_transient_errors_total", _HELP, "transient_errors"
        ),
        Metric("hcompress_faults_corruptions_total", _HELP, "corruptions"),
        Metric(
            "hcompress_fault_log_events_total", "injector log entries by kind",
            lambda stats: dict(
                sorted(Counter((str(entry[0]),) for entry in stats.log).items())
            ),
            ("kind",),
        ),
    )


class FaultInjector:
    """Binds a :class:`FaultPlan` to a hierarchy and a simulated clock.

    Args:
        plan: The fault schedule and RNG seed.
        hierarchy: The tier stack to break.

    Usage::

        injector = FaultInjector(plan, hierarchy)
        injector.arm()                    # wrap devices for per-op faults
        injector.advance_to(t)            # apply events due by time t
        # or, inside a Simulation:
        sim.add_process(injector.process(), daemon=True)
    """

    def __init__(self, plan: FaultPlan, hierarchy: StorageHierarchy) -> None:
        unknown = plan.tiers() - set(hierarchy.names)
        if unknown:
            raise HCompressError(
                f"fault plan targets unknown tiers: {sorted(unknown)}"
            )
        self.plan = plan
        self.hierarchy = hierarchy
        self.stats = InjectorStats()
        self._rng = random.Random(plan.seed)
        self._pending: list[FaultEvent] = list(plan.events)
        self._now = 0.0
        self._armed = False
        self._write_p: dict[str, float] = {}
        self._read_p: dict[str, float] = {}
        self._corrupt_p: dict[str, float] = {}

    @property
    def now(self) -> float:
        return self._now

    # -- device wiring -------------------------------------------------------

    def arm(self) -> None:
        """Interpose a :class:`FaultyDevice` in front of every tier's
        backing store (idempotent)."""
        if self._armed:
            return
        for tier in self.hierarchy:
            tier.device = FaultyDevice(tier.device, self, tier.spec.name)
        self._armed = True

    def disarm(self) -> None:
        """Remove the device wrappers, leaving stored blobs untouched."""
        if not self._armed:
            return
        for tier in self.hierarchy:
            if isinstance(tier.device, FaultyDevice):
                tier.device = tier.device.inner
        self._armed = False

    # -- scheduled events ----------------------------------------------------

    def advance_to(self, t: float) -> int:
        """Apply every scheduled event with ``at <= t``; returns how many
        fired. Time never moves backwards."""
        if t < self._now:
            raise HCompressError(
                f"injector clock moving backwards: {self._now} -> {t}"
            )
        fired = 0
        while self._pending and self._pending[0].at <= t:
            self._apply(self._pending.pop(0))
            fired += 1
        self._now = t
        return fired

    def process(self):
        """Daemon generator for the discrete-event simulator: sleeps until
        each event's timestamp and applies it."""
        elapsed = 0.0
        for event in list(self._pending):
            if event.at > elapsed:
                yield Delay(event.at - elapsed)
                elapsed = event.at
            # advance_to keeps _pending/_now consistent for mixed use.
            self.advance_to(max(self._now, elapsed))

    def _apply(self, event: FaultEvent) -> None:
        tier = self.hierarchy.by_name(event.tier)
        kind = event.kind
        if kind is FaultKind.TIER_DOWN:
            tier.set_available(False)
            self.stats.outages += 1
        elif kind is FaultKind.TIER_UP:
            tier.set_available(True)
            self.stats.recoveries += 1
        elif kind is FaultKind.SLOWDOWN:
            tier.set_slowdown(float(event.value))
        elif kind is FaultKind.CAPACITY_LIMIT:
            tier.set_capacity_limit(
                None if event.value is None else int(event.value)
            )
        elif kind is FaultKind.WRITE_ERROR_RATE:
            self._write_p[event.tier] = float(event.value)
        elif kind is FaultKind.READ_ERROR_RATE:
            self._read_p[event.tier] = float(event.value)
        elif kind is FaultKind.CORRUPT_RATE:
            self._corrupt_p[event.tier] = float(event.value)
        else:  # pragma: no cover - exhaustive over FaultKind
            raise HCompressError(f"unhandled fault kind {kind!r}")
        self.stats.events_applied += 1
        self.stats.record("event", event.at, kind.value, event.tier, event.value)

    # -- per-operation hooks (called by FaultyDevice) ------------------------

    def check_store(self, tier: str, key: str) -> None:
        p = self._write_p.get(tier, 0.0)
        if p and self._rng.random() < p:
            self.stats.transient_errors += 1
            self.stats.record("transient", "store", tier, key)
            raise TransientIOError(f"{tier}: injected store failure for {key!r}")

    def check_load(self, tier: str, key: str) -> None:
        p = self._read_p.get(tier, 0.0)
        if p and self._rng.random() < p:
            self.stats.transient_errors += 1
            self.stats.record("transient", "load", tier, key)
            raise TransientIOError(f"{tier}: injected load failure for {key!r}")

    def filter_load(self, tier: str, key: str, blob: bytes) -> bytes:
        """Possibly hand back a bit-flipped copy (never persisted)."""
        p = self._corrupt_p.get(tier, 0.0)
        if p and blob and self._rng.random() < p:
            flipped = bytearray(blob)
            position = self._rng.randrange(len(flipped))
            flipped[position] ^= 1 << self._rng.randrange(8)
            self.stats.corruptions += 1
            self.stats.record("corrupt", tier, key, position)
            return bytes(flipped)
        return blob
