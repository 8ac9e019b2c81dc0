"""Chaos runner: a VPIC-style write workload under fault injection.

Drives one backend (HC — the full HCompress engine — or the BASE/MTNC
comparators) through a checkpoint-write workload while a
:class:`FaultInjector` executes a :class:`FaultPlan` against the hierarchy:
a mid-run NVMe outage with later recovery, transient store/load errors,
read-path corruption, and a PFS slowdown window. Time is a
:class:`~repro.sim.clock.SimClock` advanced by modeled I/O durations —
retry backoff included — so runs are wall-clock free and replay
bit-identically from their seeds.

The point of the comparison (and of ``benchmarks/bench_faults.py``): HC's
resilient paths (retry + failover + degraded-mode planning + checksum
read-repair) complete the workload with every buffer intact, while BASE
stalls behind the degraded PFS and MTNC dies on the first unretried
transient error.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..ccp import SeedData
from ..core import HCompress, HCompressConfig, HCompressProfiler
from ..core.config import ExecutorConfig, PlanCacheConfig, ResilienceConfig
from ..errors import HCompressError
from ..hermes.buffering import HermesBuffering
from ..sim.clock import SimClock
from ..tiers import StorageHierarchy, ares_hierarchy
from ..units import KiB
from ..workloads.vpic import vpic_sample
from .injector import FaultInjector
from .plan import FaultPlan

__all__ = ["ChaosConfig", "ChaosOutcome", "default_chaos_plan", "run_chaos"]

CHAOS_BACKENDS = ("HC", "BASE", "MTNC")

#: Simulated seconds past the fault plan's horizon before the
#: verification reads run (every scheduled recovery has fired by then).
RECOVERY_SLACK = 1.0


@dataclass(frozen=True)
class ChaosConfig:
    """Chaos workload shape.

    Attributes:
        ranks: Writer count (each writes one buffer per step).
        steps: Checkpoint steps.
        step_kib: Buffer size per rank per step, in KiB.
        step_seconds: Simulated time between checkpoint steps.
        rng_seed: Seed for the workload's data generator.
        monitor_interval: HC's System Monitor refresh period; longer than
            ``step_seconds`` means the engine plans against stale
            availability and must rely on SHI failover / replanning.
    """

    ranks: int = 2
    steps: int = 6
    step_kib: int = 16
    step_seconds: float = 1.0
    rng_seed: int = 7
    monitor_interval: float = 2.0

    def __post_init__(self) -> None:
        if self.ranks < 1 or self.steps < 1 or self.step_kib < 1:
            raise HCompressError("ranks, steps and step_kib must be >= 1")
        if self.step_seconds <= 0:
            raise HCompressError("step_seconds must be positive")


@dataclass
class ChaosOutcome:
    """Recovery report of one chaos run."""

    backend: str
    completed: bool
    error: str | None
    elapsed_seconds: float
    tasks_written: int
    tasks_attempted: int
    verified_intact: int
    mismatched: int
    retries: int = 0
    failovers: int = 0
    replans: int = 0
    degraded_plans: int = 0
    read_repairs: int = 0
    corruption_detected: int = 0
    injected_errors: int = 0
    injected_corruptions: int = 0
    trace: tuple = field(default_factory=tuple)

    @property
    def all_data_intact(self) -> bool:
        return (
            self.completed
            and self.mismatched == 0
            and self.verified_intact == self.tasks_written
        )

    def summary(self) -> str:
        status = "completed" if self.completed else f"FAILED ({self.error})"
        return (
            f"{self.backend:5s} {status}; "
            f"{self.verified_intact}/{self.tasks_written} buffers intact, "
            f"{self.mismatched} corrupt, elapsed {self.elapsed_seconds:.3f}s, "
            f"retries={self.retries} failovers={self.failovers} "
            f"replans={self.replans + self.degraded_plans} "
            f"repairs={self.read_repairs}"
        )


def default_chaos_plan(config: ChaosConfig | None = None) -> FaultPlan:
    """The bench's reference plan: kill the NVMe tier mid-workload (with
    recovery), make NVMe/burst-buffer devices flaky, corrupt burst-buffer
    reads, and throttle the PFS for most of the run."""
    config = config if config is not None else ChaosConfig()
    step = config.step_seconds
    mid = config.steps * step / 2.0
    end = config.steps * step
    return (
        FaultPlan(seed=42)
        .outage("nvme", start=mid - step / 2.0, end=mid + 1.5 * step)
        .flaky("nvme", at=0.0, write_p=0.10)
        .flaky("burst_buffer", at=0.0, write_p=0.12, read_p=0.08, corrupt_p=0.10)
        .flaky("ram", at=0.0, corrupt_p=0.05)
        .flaky("pfs", at=0.0, write_p=0.05, read_p=0.08)
        .degraded("pfs", start=step, end=end, factor=12.0)
    )


def _chaos_hierarchy(config: ChaosConfig) -> StorageHierarchy:
    """A small materialised Ares stack: RAM holds ~1.5 buffers so writes
    overflow to the NVMe, which is roomy enough to stay the preferred spill
    target for the whole run — so the mid-run NVMe outage hits live
    placements (stale plans land on the dead tier and must fail over)."""
    buffer_bytes = config.step_kib * KiB
    total = buffer_bytes * config.ranks * config.steps
    return ares_hierarchy(
        ram_capacity=buffer_bytes * 3 // 2,
        nvme_capacity=total * 2,
        bb_capacity=total * 2,
        nodes=1,
    )


def _task_buffers(config: ChaosConfig) -> dict[str, bytes]:
    """Deterministic (task id -> payload) map for the whole workload."""
    rng = np.random.default_rng(config.rng_seed)
    buffers: dict[str, bytes] = {}
    for step in range(config.steps):
        for rank in range(config.ranks):
            buffers[f"chaos/r{rank}/s{step}"] = vpic_sample(
                config.step_kib * KiB, rng
            )
    return buffers


def run_chaos(
    backend: str = "HC",
    plan: FaultPlan | None = None,
    config: ChaosConfig | None = None,
    seed: SeedData | None = None,
    resilience: ResilienceConfig | None = None,
    plan_cache: PlanCacheConfig | None = None,
    executor: ExecutorConfig | None = None,
) -> ChaosOutcome:
    """Run one backend through the chaos workload; returns its report.

    Fully deterministic: the same (backend, plan, config, seed) produces a
    bit-identical :attr:`ChaosOutcome.trace` — including with the HC
    backend's plan cache or piece thread pool toggled (``plan_cache``,
    ``executor``; both default to the engine's defaults, i.e. enabled).
    """
    if backend not in CHAOS_BACKENDS:
        raise HCompressError(
            f"unknown chaos backend {backend!r}; pick one of {CHAOS_BACKENDS}"
        )
    config = config if config is not None else ChaosConfig()
    plan = plan if plan is not None else default_chaos_plan(config)
    hierarchy = _chaos_hierarchy(config)
    clock = SimClock()
    injector = FaultInjector(plan, hierarchy)
    injector.arm()
    buffers = _task_buffers(config)

    if backend == "HC":
        outcome = _run_hc(
            hierarchy, clock, injector, buffers, config, seed, resilience,
            plan_cache, executor,
        )
    elif backend == "BASE":
        outcome = _run_base(hierarchy, clock, injector, buffers, config)
    else:
        outcome = _run_mtnc(hierarchy, clock, injector, buffers, config)
    outcome.injected_errors = injector.stats.transient_errors
    outcome.injected_corruptions = injector.stats.corruptions
    outcome.trace = outcome.trace + (tuple(injector.stats.log),)
    return outcome


def default_seed() -> SeedData:
    """The quick profiler seed every fault harness defaults to."""
    profiler = HCompressProfiler(rng=np.random.default_rng(0))
    return profiler.quick_seed(sizes=(8 * KiB, 32 * KiB))


def _advance(clock: SimClock, injector: FaultInjector, t: float) -> None:
    clock.advance_to(t)
    injector.advance_to(clock.now)


def _step_times(config: ChaosConfig):
    for step in range(config.steps):
        for rank in range(config.ranks):
            yield f"chaos/r{rank}/s{step}", step * config.step_seconds


def _run_hc(
    hierarchy, clock, injector, buffers, config, seed, resilience,
    plan_cache=None, executor=None,
) -> ChaosOutcome:
    if seed is None:
        seed = default_seed()
    engine_config = HCompressConfig(
        monitor_interval=config.monitor_interval,
        resilience=(
            resilience if resilience is not None else ResilienceConfig()
        ),
        plan_cache=(
            plan_cache if plan_cache is not None else PlanCacheConfig()
        ),
        executor=executor if executor is not None else ExecutorConfig(),
    )
    engine = HCompress(
        hierarchy, engine_config, seed=seed, clock=lambda: clock.now
    )
    # Backoff sleeps advance the simulated clock (never wall time), which
    # lets scheduled recoveries land while an operation is waiting.
    engine.shi.on_wait = lambda seconds: _advance(
        clock, injector, clock.now + seconds
    )
    outcome = ChaosOutcome(
        backend="HC",
        completed=True,
        error=None,
        elapsed_seconds=0.0,
        tasks_written=0,
        tasks_attempted=len(buffers),
        verified_intact=0,
        mismatched=0,
    )
    try:
        for task_id, start in _step_times(config):
            _advance(clock, injector, max(clock.now, start))
            result = engine.compress(
                buffers[task_id], task_id=task_id
            )
            _advance(
                clock,
                injector,
                clock.now + result.io_seconds + result.compress_seconds,
            )
            outcome.tasks_written += 1
        _advance(
            clock, injector,
            max(clock.now, injector.plan.horizon) + RECOVERY_SLACK,
        )
        for task_id in buffers:
            read = engine.decompress(task_id)
            _advance(clock, injector, clock.now + read.io_seconds)
            if read.data == buffers[task_id]:
                outcome.verified_intact += 1
            else:
                outcome.mismatched += 1
    except HCompressError as exc:
        outcome.completed = False
        outcome.error = f"{type(exc).__name__}: {exc}"
    outcome.elapsed_seconds = clock.now
    outcome.retries = engine.shi.stats.retries
    outcome.failovers = engine.shi.stats.failovers
    outcome.replans = engine.replans
    outcome.degraded_plans = engine.engine.stats.degraded_plans
    outcome.read_repairs = engine.manager.read_repairs
    outcome.corruption_detected = engine.manager.corruption_detected
    outcome.trace = (tuple(engine.shi.stats.trace),)
    return outcome


def _run_base(hierarchy, clock, injector, buffers, config) -> ChaosOutcome:
    """BASE: every buffer straight to the PFS, no retries, no checksums.

    Stalls behind the injected PFS slowdown, and any transient PFS error
    kills the run outright."""
    pfs = hierarchy.by_name("pfs")
    outcome = ChaosOutcome(
        backend="BASE",
        completed=True,
        error=None,
        elapsed_seconds=0.0,
        tasks_written=0,
        tasks_attempted=len(buffers),
        verified_intact=0,
        mismatched=0,
    )
    try:
        for task_id, start in _step_times(config):
            _advance(clock, injector, max(clock.now, start))
            pfs.put(task_id, buffers[task_id])
            _advance(
                clock, injector, clock.now + pfs.io_seconds(len(buffers[task_id]))
            )
            outcome.tasks_written += 1
        _advance(
            clock, injector,
            max(clock.now, injector.plan.horizon) + RECOVERY_SLACK,
        )
        for task_id in buffers:
            data = pfs.get(task_id)
            _advance(clock, injector, clock.now + pfs.io_seconds(len(data)))
            if data == buffers[task_id]:
                outcome.verified_intact += 1
            else:
                outcome.mismatched += 1
    except HCompressError as exc:
        outcome.completed = False
        outcome.error = f"{type(exc).__name__}: {exc}"
    outcome.elapsed_seconds = clock.now
    return outcome


def _run_mtnc(hierarchy, clock, injector, buffers, config) -> ChaosOutcome:
    """MTNC: Hermes buffering, no compression, no retries, no checksums.

    The first unretried transient store error aborts the run; corrupted
    reads pass through undetected (counted as ``mismatched``)."""
    buffering = HermesBuffering(hierarchy)
    outcome = ChaosOutcome(
        backend="MTNC",
        completed=True,
        error=None,
        elapsed_seconds=0.0,
        tasks_written=0,
        tasks_attempted=len(buffers),
        verified_intact=0,
        mismatched=0,
    )
    try:
        for task_id, start in _step_times(config):
            _advance(clock, injector, max(clock.now, start))
            record = buffering.put(
                task_id, len(buffers[task_id]), data=buffers[task_id]
            )
            _advance(clock, injector, clock.now + record.io_seconds)
            outcome.tasks_written += 1
        _advance(
            clock, injector,
            max(clock.now, injector.plan.horizon) + RECOVERY_SLACK,
        )
        for task_id in buffers:
            data, io_seconds = buffering.get(task_id)
            _advance(clock, injector, clock.now + io_seconds)
            if data == buffers[task_id]:
                outcome.verified_intact += 1
            else:
                outcome.mismatched += 1
    except HCompressError as exc:
        outcome.completed = False
        outcome.error = f"{type(exc).__name__}: {exc}"
    outcome.elapsed_seconds = clock.now
    return outcome
