"""Overload chaos harness: saturating load plus a flapping tier, under QoS.

`chaos` breaks devices and `crash` kills the process; this harness breaks
the *load assumption* instead: it offers writes at a configurable multiple
of the admission drain rate (2x by default) while a seeded
:class:`~repro.faults.FaultPlan` flaps one tier up and down, and checks
the overload contract from docs/RESILIENCE.md:

* only the lowest QoS classes are shed, each with a typed
  :class:`~repro.errors.TaskShedError` (protected classes never shed);
* every admitted task either completes or fails with a typed error
  (:class:`~repro.errors.DeadlineExceededError` or a tier-exhaustion
  error) — nothing vanishes silently;
* every acknowledged write reads back byte-identical after the storm;
* the merged event trace (admission sheds, breaker transitions, brownout
  moves, per-task outcomes) is identical across two same-seed runs.

With ``crash_site`` set the storm additionally dies at a seeded crash
point and restores from the recovery directory, composing overload with
the `crash` harness's durability checks — the acked-readback pass then
runs against the *restored* engine, and the breaker quarantine must
survive the restart conservatively (an open breaker restores open).
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..ccp import SeedData
from ..core import HCompress, HCompressConfig
from ..core.config import RecoveryConfig
from ..errors import (
    AllTiersUnavailableError,
    DeadlineExceededError,
    HCompressError,
    RetryExhaustedError,
    SimulatedCrashError,
    TaskShedError,
)
from ..qos import QosClass, QosConfig
from ..recovery import CrashPlan, Crashpoints
from ..sim.clock import SimClock
from ..tiers import StorageHierarchy, ares_hierarchy
from ..units import KiB
from ..workloads.vpic import vpic_sample
from .chaos import default_seed
from .injector import FaultInjector
from .plan import FaultPlan

__all__ = ["OverloadConfig", "OverloadOutcome", "run_overload"]

#: Admission drain model rate (KiB/s), kept small so the storm fits in a
#: few simulated seconds, and the admission queue bound: with 2x load the
#: backlog crosses the soft-shed band roughly a third of the way in.
DRAIN_KIB_PER_S = 64
MAX_BACKLOG_KIB = 96
#: The flapping tier's FaultPlan seed and shape. RAM flaps — the tier
#: plans target first — so SHI failover and the breaker see real traffic:
#: ``FLAP_ON`` seconds down per cycle, ``FLAP_OFF`` up between cycles (the
#: first outage starts at ``FLAP_OFF``, so the storm opens healthy).
FAULT_SEED = 3
FLAP_TIER = "ram"
FLAP_ON = 0.5
FLAP_OFF = 0.7


@dataclass(frozen=True)
class OverloadConfig:
    """Shape of the overload storm.

    Attributes:
        tasks: Writes offered (one compress call each), round-robined
            across the four QoS classes.
        task_kib: Buffer size in KiB.
        load_factor: Offered-load multiple of the admission drain rate;
            the interarrival gap is ``task_bytes / (load_factor * drain)``
            so 2.0 means bytes arrive twice as fast as they drain.
        deadline: Per-task budget in modeled seconds (None: no deadline).
        rng_seed: Workload data generator *and* shed-lottery seed.
        flap_count: Down/up cycles of the flapping tier.
        monitor_interval: Kept *longer* than the write cadence so stale
            plans keep targeting the flapped tier — SHI failover and the
            circuit breaker see real failures instead of the planner
            quietly routing around a tier the monitor already marked
            down (the same trick the crash harness uses).
        crash_site: Optional crash-point name; the storm dies there and
            the harness restores from the recovery directory.
        crash_hit: Which hit of the crash site fires.
        checkpoint_after: Mid-storm checkpoint once this many writes are
            acked (0: bootstrap checkpoint only) — captures live breaker
            state so restore exercises the conservative reopen path.
        fsync: Forwarded to RecoveryConfig (False: flush-only, storms
            run dozens of engines in CI).
    """

    tasks: int = 48
    task_kib: int = 16
    load_factor: float = 2.0
    deadline: float | None = 8.0
    rng_seed: int = 11
    flap_count: int = 3
    monitor_interval: float = 2.0
    crash_site: str | None = None
    crash_hit: int = 1
    checkpoint_after: int = 12
    fsync: bool = False

    def __post_init__(self) -> None:
        if self.tasks < 1 or self.task_kib < 1:
            raise HCompressError("tasks and task_kib must be >= 1")
        if self.load_factor <= 0:
            raise HCompressError("load_factor must be positive")
        if self.flap_count < 0:
            raise HCompressError("flap_count must be >= 0")
        if self.deadline is not None and self.deadline <= 0:
            raise HCompressError("deadline must be positive (or None)")

    @property
    def interarrival(self) -> float:
        """Seconds between offered writes at the configured load factor."""
        return (self.task_kib * KiB) / (
            self.load_factor * DRAIN_KIB_PER_S * KiB
        )


@dataclass
class OverloadOutcome:
    """What one storm did and whether the overload contract held."""

    config: OverloadConfig
    offered: int = 0
    admitted: int = 0
    shed: int = 0
    shed_by_class: dict[int, int] = field(default_factory=dict)
    completed: int = 0
    deadline_failures: int = 0
    unavailable_failures: int = 0
    breaker_transitions: int = 0
    brownout_peak: int = 0
    crashed: bool = False
    fired_site: str | None = None
    recovered: bool = False
    breaker_open_after_restore: bool = False
    verified_intact: int = 0
    mismatched: int = 0
    missing_acked: int = 0
    error: str | None = None
    trace: tuple = ()
    #: Modeled service seconds (compress + I/O) per *completed* task, in
    #: completion order — the p99-latency gate in benchmarks/bench_qos.py.
    latencies: list[float] = field(default_factory=list)

    @property
    def holds(self) -> bool:
        """The overload contract, as one predicate (module docstring)."""
        protected = int(QosClass.INTERACTIVE)
        return (
            self.error is None
            and all(cls < protected for cls in self.shed_by_class)
            and self.admitted
            == self.completed
            + self.deadline_failures
            + self.unavailable_failures
            and self.mismatched == 0
            and self.missing_acked == 0
            and (not self.crashed or self.recovered)
        )

    def summary(self) -> str:
        verdict = "contract holds" if self.holds else "CONTRACT VIOLATED"
        where = (
            f"; crashed at {self.fired_site}, recovered={self.recovered}"
            if self.crashed
            else ""
        )
        sheds = ", ".join(
            f"class{cls}={count}"
            for cls, count in sorted(self.shed_by_class.items())
        ) or "none"
        return (
            f"{self.offered} offered: {self.admitted} admitted / "
            f"{self.shed} shed ({sheds}); {self.completed} completed, "
            f"{self.deadline_failures} deadline, "
            f"{self.unavailable_failures} unavailable; "
            f"{self.breaker_transitions} breaker transitions, "
            f"brownout peak {self.brownout_peak}; "
            f"{self.verified_intact} intact / {self.mismatched} mismatched"
            f"{where} — {verdict}"
        )


def _storm_hierarchy(config: OverloadConfig) -> StorageHierarchy:
    """RAM holds a handful of buffers (so the flapped tier carries real
    traffic and failover has somewhere to go); lower tiers fit the storm."""
    buffer_bytes = config.task_kib * KiB
    total = buffer_bytes * config.tasks
    return ares_hierarchy(
        ram_capacity=buffer_bytes * 6,
        nvme_capacity=total * 2,
        bb_capacity=total * 2,
        nodes=1,
    )


def _flap_plan(config: OverloadConfig) -> FaultPlan:
    plan = FaultPlan(seed=FAULT_SEED)
    period = FLAP_ON + FLAP_OFF
    for cycle in range(config.flap_count):
        start = FLAP_OFF + cycle * period
        plan = plan.outage(FLAP_TIER, start=start, end=start + FLAP_ON)
    return plan


def run_overload(
    config: OverloadConfig | None = None,
    recovery_dir: str | Path | None = None,
    seed: SeedData | None = None,
) -> OverloadOutcome:
    """One overload storm; returns the contract report.

    Deterministic: the same ``(config, seed)`` reproduces the same
    admissions, sheds, breaker transitions, and per-task outcomes —
    ``outcome.trace`` compares equal across same-seed runs.
    """
    config = config if config is not None else OverloadConfig()
    wants_recovery = config.crash_site is not None or recovery_dir is not None
    if wants_recovery and recovery_dir is None:
        with tempfile.TemporaryDirectory(prefix="hcompress-overload-") as tmp:
            return run_overload(config, tmp, seed)
    if seed is None:
        seed = default_seed()
    hierarchy = _storm_hierarchy(config)
    clock = SimClock()
    fault_plan = _flap_plan(config)
    injector = FaultInjector(fault_plan, hierarchy)
    injector.arm()
    crash_plan = (
        CrashPlan(
            site=config.crash_site, hit=config.crash_hit, seed=FAULT_SEED,
        )
        if config.crash_site is not None
        else None
    )
    crashpoints = Crashpoints(crash_plan) if wants_recovery else None

    engine_config = HCompressConfig(
        monitor_interval=config.monitor_interval,
        qos=QosConfig(
            enabled=True,
            max_backlog_bytes=MAX_BACKLOG_KIB * KiB,
            drain_bytes_per_s=float(DRAIN_KIB_PER_S * KiB),
            shed_seed=config.rng_seed,
        ),
        recovery=RecoveryConfig(
            enabled=wants_recovery,
            directory=str(recovery_dir) if wants_recovery else None,
            fsync=config.fsync,
        ),
    )
    engine = HCompress(
        hierarchy, engine_config, seed=seed, clock=lambda: clock.now,
        crashpoints=crashpoints,
    )
    engine.shi.on_wait = lambda seconds: (
        clock.advance_to(clock.now + seconds),
        injector.advance_to(clock.now),
    )

    outcome = OverloadOutcome(config=config)
    rng = np.random.default_rng(config.rng_seed)
    buffers: dict[str, bytes] = {}
    acked: list[str] = []
    # Per-task outcomes, merged with the governor trace at the end so two
    # same-seed storms can be compared event-for-event.
    task_events: list[tuple] = []
    try:
        if wants_recovery:
            engine.checkpoint()
        for index in range(config.tasks):
            clock.advance_to(max(clock.now, index * config.interarrival))
            injector.advance_to(clock.now)
            task_id = f"storm/t{index}"
            cls = QosClass(index % 4)
            payload = vpic_sample(config.task_kib * KiB, rng)
            buffers[task_id] = payload
            outcome.offered += 1
            try:
                result = engine.compress(
                    payload, task_id=task_id,
                    deadline=config.deadline, qos_class=cls,
                )
            except TaskShedError as exc:
                outcome.shed += 1
                key = int(exc.qos_class)
                outcome.shed_by_class[key] = (
                    outcome.shed_by_class.get(key, 0) + 1
                )
                task_events.append(("task", task_id, int(cls), "shed"))
            except DeadlineExceededError:
                outcome.admitted += 1
                outcome.deadline_failures += 1
                task_events.append(("task", task_id, int(cls), "deadline"))
            except (AllTiersUnavailableError, RetryExhaustedError):
                outcome.admitted += 1
                outcome.unavailable_failures += 1
                task_events.append(("task", task_id, int(cls), "unavailable"))
            else:
                outcome.admitted += 1
                outcome.completed += 1
                acked.append(task_id)
                outcome.latencies.append(
                    result.compress_seconds + result.io_seconds
                )
                task_events.append(("task", task_id, int(cls), "completed"))
            outcome.brownout_peak = max(
                outcome.brownout_peak, int(engine.qos.brownout.level)
            )
            if (
                wants_recovery
                and config.checkpoint_after
                and len(acked) == config.checkpoint_after
            ):
                engine.checkpoint()
    except SimulatedCrashError:
        # Process death mid-storm: abandon the engine, no close().
        outcome.crashed = True
    except HCompressError as exc:  # untyped escape: a contract violation
        outcome.error = f"{type(exc).__name__}: {exc}"
    if crashpoints is not None:
        outcome.fired_site = crashpoints.fired
    if engine.qos is not None:
        outcome.breaker_transitions = engine.qos.breakers.transitions
        outcome.trace = engine.qos.event_trace() + (tuple(task_events),)

    # -- after the storm: devices heal, acked data must read back ----------
    clock.advance_to(max(clock.now, fault_plan.horizon) + 1.0)
    injector.advance_to(clock.now)
    reader = engine
    if outcome.crashed:
        try:
            reader = HCompress.restore(
                recovery_dir, hierarchy, config=engine_config, seed=seed,
                clock=lambda: clock.now,
            )
        except HCompressError as exc:
            outcome.error = f"restore failed: {type(exc).__name__}: {exc}"
            return outcome
        outcome.recovered = True
        if reader.qos is not None:
            # Conservative restore: any breaker checkpointed open/half-open
            # must come back quarantined, not silently healthy.
            outcome.breaker_open_after_restore = any(
                b.state != "closed"
                for b in reader.qos.breakers.breakers.values()
            )
        # Only writes the restored catalog still holds are checkable; the
        # crash harness proves the ack/journal contract in depth.
        acked = [t for t in acked if t in reader.manager]
    for task_id in acked:
        if task_id not in reader.manager:
            outcome.missing_acked += 1
            continue
        read = reader.decompress(task_id)
        if read.data == buffers[task_id]:
            outcome.verified_intact += 1
        else:
            outcome.mismatched += 1
    if reader is not engine:
        reader.close()
    if not outcome.crashed:
        engine.close()
    return outcome
