"""The chaos runner: one scenario driver for every fault experiment.

A :class:`ScenarioConfig` is a frozen description of one experiment —
**workload shape** x **fault schedule** (a device
:class:`~repro.faults.FaultPlan`, a crash site, a shard kill) x
**deployment** (one engine or N shards x K standbys, which subsystems are
armed) x the **invariant names** it must satisfy — and
:func:`run_scenario` is the one cycle they all share:

1. build the deployment on a :class:`~repro.sim.clock.SimClock`;
2. offer ``vpic_sample`` writes on the schedule, sorting every result into
   one status through one exception table (:data:`_STATUS`);
3. after each ack run the armed steps — flusher drain, ``lifecycle.step``,
   plant rot + ``scrub.step``, evict every Nth, checkpoint after N — and
   kill a shard at task N;
4. catch :class:`~repro.errors.SimulatedCrashError`;
5. heal the devices and recover: nothing, ``HCompress.restore``,
   ``restore_shard``, or the automatic promotion;
6. evaluate the selected rows of
   :data:`~repro.faults.invariants.INVARIANTS`, whose acked read-back
   proves every acknowledged write byte-identical.

:data:`PRESETS` names the scenarios the CLI, CI and docs run (the table in
docs/RESILIENCE.md); :func:`scenario` derives a variant. Time is simulated
end to end, so the same ``(scenario, seed)`` replays bit-identically:
equal :attr:`Outcome.events` and :attr:`Outcome.trace`.
"""

from __future__ import annotations

import functools
import tempfile
from collections import namedtuple
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from ..ccp import SeedData
from ..core import HCompress, HCompressConfig, HCompressProfiler, RecoveryReport
from ..core.config import LifecycleConfig, RecoveryConfig, ScrubConfig
from ..errors import (
    AllTiersUnavailableError,
    DeadlineExceededError,
    FailoverInProgressError,
    HCompressError,
    RetryExhaustedError,
    ShardUnavailableError,
    SimulatedCrashError,
    TaskShedError,
)
from ..hermes.buffering import HermesBuffering
from ..hermes.flusher import TierFlusher
from ..qos import QosClass, QosConfig
from ..recovery import CRASH_SITES, CrashPlan, Crashpoints
from ..replication import ReplicationConfig
from ..shard import ShardConfig, ShardedHCompress
from ..sim import Delay
from ..sim.clock import SimClock
from ..tiers import ares_hierarchy, ares_specs
from ..units import KiB
from ..workloads.vpic import vpic_sample
from .injector import FaultInjector
from .invariants import INVARIANTS, RESTORE_AUDIT
from .latent import LatentCorruptionInjector
from .plan import FaultPlan

__all__ = [
    "Outcome",
    "PRESETS",
    "ScenarioConfig",
    "ScenarioRun",
    "default_chaos_plan",
    "default_seed",
    "flap_plan",
    "run_scenario",
    "scenario",
    "sweep_crash_sites",
]


def _hc_io(run: "ScenarioRun"):
    def write(task_id, payload, **route):
        result = run.target.compress(payload, task_id=task_id, **route)
        return result.compress_seconds + result.io_seconds

    def read(task_id):
        result = run.reader.decompress(task_id)
        return result.data, result.io_seconds

    return write, read


def _base_io(run: "ScenarioRun"):
    """Every buffer straight to the PFS, no retries, no checksums: stalls
    behind a PFS slowdown, and any transient PFS error kills the run."""
    pfs = run.hierarchy.by_name("pfs")

    def write(task_id, payload, **_):
        pfs.put(task_id, payload)
        return pfs.io_seconds(len(payload))

    def read(task_id):
        data = pfs.get(task_id)
        return data, pfs.io_seconds(len(data))

    return write, read


def _mtnc_io(run: "ScenarioRun"):
    """Hermes buffering, no compression, no retries, no checksums: the
    first transient store error aborts the run; corrupted reads pass
    through undetected (counted as ``mismatched``)."""
    buffering = HermesBuffering(run.hierarchy)

    def write(task_id, payload, **_):
        return buffering.put(task_id, len(payload), data=payload).io_seconds

    return write, buffering.get


#: backend -> ``(run) -> (write, read)``, both returning modeled seconds.
_IO = {"HC": _hc_io, "BASE": _base_io, "MTNC": _mtnc_io}
BACKENDS = tuple(_IO)
#: Simulated seconds past the fault plan's horizon before recovery and the
#: verification reads run (every scheduled device recovery has fired).
RECOVERY_SLACK = 1.0
#: With capacity churn, the oldest live task is evicted after every Nth
#: write, exercising the evict journal sites.
EVICT_EVERY = 3
#: Admission drain model rate (KiB/s) of a QoS storm, kept small so the
#: storm fits in a few simulated seconds, and the admission queue bound:
#: at 2x load the backlog crosses the soft-shed band a third of the way in.
DRAIN_KIB_PER_S = 64
MAX_BACKLOG_KIB = 96

#: One per-task event, in arrival order. ``tenant``/``shard`` are None on
#: a single engine, ``qos_class`` is None without admission control.
TaskEvent = namedtuple("TaskEvent", "task_id tenant shard qos_class status")

#: The one exception -> status table of the offer loop, first match wins.
#: The last column marks failures that are a *legitimate* typed outcome
#: only under the QoS contract (a flapping tier under admission control);
#: anywhere else they are an untyped escape that ends the scenario.
_STATUS = (
    (TaskShedError, "shed", False),
    (DeadlineExceededError, "deadline", False),
    (FailoverInProgressError, "deferred", False),
    (ShardUnavailableError, "unavailable", False),
    ((AllTiersUnavailableError, RetryExhaustedError), "unavailable", True),
)


@dataclass(frozen=True)
class ScenarioConfig:
    """One chaos scenario: workload x fault schedule x deployment x checks.

    Attributes:
        name: Task-id namespace (``<name>/t<i>``) and tempdir prefix.
        invariants: Names from :data:`~repro.faults.invariants.INVARIANTS`
            the outcome must satisfy. Selecting a restore audit
            (``idempotent_replay``, ``identical_double_restore``,
            ``no_orphan_keys``) also arms recovery, restores even when
            nothing crashed, and adds the capacity churn — flusher drain
            plus evict-every-Nth — that drives traffic through every
            crash site.
        tasks: Writes offered (one compress call each).
        task_kib: Buffer size in KiB.
        ranks: Writers per arrival tick; task ``i`` arrives at tick
            ``i // ranks``.
        step_seconds: Simulated seconds between arrival ticks (a QoS
            storm derives its own, see :attr:`interarrival`).
        tenants: Distinct tenants of a sharded storm; task ``i`` belongs
            to tenant ``i % tenants``, so every tenant's traffic recurs
            across the whole storm.
        rng_seed: Workload data generator *and* shed-lottery seed.
        load_factor: Arms QoS admission control and offers bytes at this
            multiple of its drain rate, round-robined across the four
            QoS classes (None: no admission control).
        deadline: Per-task budget in modeled seconds (None: no deadline).
        plan: Device fault schedule of a single-engine scenario (None:
            :func:`default_chaos_plan` scaled to the workload). Its seed
            also seeds the crash plan and the planted rot.
        crash_site: Crash site to arm (None: no crash). A sharded
            deployment arms the ``replication.*`` promotion sites only.
        crash_hit: Fire on the Nth visit of ``crash_site``.
        kill_shard: Shard to kill mid-storm.
        kill_owner_of: Alternative kill target: the shard that owns this
            tenant's routing key, so the kill hits live traffic whatever
            the ring layout. Mutually exclusive with ``kill_shard``.
        kill_after: Offered tasks before the kill fires; a requested
            kill must leave traffic after it.
        checkpoint_after: Mid-run checkpoint once this many writes are
            acked (0: bootstrap checkpoint only).
        corrupt_every: With ``scrub``, plant one seeded latent (at-rest)
            byte flip into a stored blob after every Nth write
            (0 disables planting).
        backend: One of :data:`BACKENDS`.
        shards: Shard count of a sharded deployment (None: one engine).
        replicas: Standbys per shard. 0: a killed shard stays dark until
            ``restore_shard``; >= 1: its standby is promoted on the next
            dispatch.
        promotion_seconds: Modeled promotion window (the shard sheds
            retryably while it runs).
        fsync_every: Group-commit cadence of every journal. The failover
            preset keeps it > 1 so the kill genuinely loses the primary's
            buffered tail and a zero-loss read-back proves the *shipping*
            preserved it.
        monitor_interval: Monitor refresh period; kept *longer* than the
            write cadence so stale plans keep landing on the faulted tier
            and SHI failover / the breakers see real traffic.
        lifecycle: Run the lifecycle daemon (one ``step()`` per ack),
            tuned storage-heavy so demotions fire from the first scan.
        scrub: Run the integrity subsystem: content digests, verified
            reads, one scrubber ``step()`` per ack, and ``on_corrupt``
            wired to a pristine mirror of every stored blob (the
            stand-in for a standby's shipped state).
    """

    name: str
    invariants: tuple[str, ...]
    tasks: int = 8
    task_kib: int = 16
    ranks: int = 1
    step_seconds: float = 1.0
    tenants: int = 8
    rng_seed: int = 7
    load_factor: float | None = None
    deadline: float | None = None
    plan: FaultPlan | None = None
    crash_site: str | None = None
    crash_hit: int = 1
    kill_shard: int | None = None
    kill_owner_of: str | None = None
    kill_after: int = 24
    checkpoint_after: int = 4
    corrupt_every: int = 0
    backend: str = "HC"
    shards: int | None = None
    replicas: int = 0
    promotion_seconds: float = 0.25
    fsync_every: int = 1
    monitor_interval: float = 0.0
    lifecycle: bool = False
    scrub: bool = False

    def __post_init__(self) -> None:
        for floor, names in (
            (1, ("tasks", "task_kib", "ranks", "tenants", "fsync_every")),
            (0, ("checkpoint_after", "corrupt_every", "replicas",
                 "promotion_seconds")),
        ):
            low = [name for name in names if getattr(self, name) < floor]
            if low:
                raise HCompressError(f"{', '.join(low)} must be >= {floor}")
        for name in ("step_seconds", "load_factor", "deadline"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise HCompressError(f"{name} must be positive")
        if self.corrupt_every and not self.scrub:
            raise HCompressError(
                "corrupt_every needs scrub=True (nothing would repair "
                "the planted rot)"
            )
        if self.backend not in BACKENDS:
            raise HCompressError(
                f"unknown chaos backend {self.backend!r}; "
                f"pick one of {BACKENDS}"
            )
        # A misspelt invariant would otherwise be silently never checked.
        unknown = set(self.invariants) - set(INVARIANTS)
        if unknown:
            raise HCompressError(f"unknown invariants: {sorted(unknown)}")
        _ = self.crash_plan  # an unknown site or hit < 1 raises RecoveryError
        if self.shards is None:
            if self.kills:
                raise HCompressError("a shard kill needs shards >= 1")
            return
        if self.kill_shard is not None and self.kill_owner_of is not None:
            raise HCompressError("pass kill_shard or kill_owner_of, not both")
        if self.shards < 1 or not (
            self.kill_shard is None or 0 <= self.kill_shard < self.shards
        ):
            raise HCompressError("shards < 1 or kill_shard out of range")
        if self.kills and not 0 <= self.kill_after < self.tasks:
            raise HCompressError(
                "kill_after must leave offered traffic after the kill"
            )
        if self.crash_site is not None and not (
            self.replicas and self.crash_site.startswith("replication.")
        ):
            raise HCompressError(
                "a sharded scenario arms replication.* sites only, "
                "and needs replicas >= 1 to reach them"
            )

    @property
    def qos(self) -> bool:
        """Admission control is armed (a storm with a load factor)."""
        return self.load_factor is not None

    @property
    def open_loop(self) -> bool:
        """Storms offer on the arrival schedule alone; checkpoint-style
        workloads are closed-loop (the clock also advances by each
        result's modeled duration). A QoS storm must not outrun its own
        drain model, and a sharded storm's clock must not depend on any
        result, or killing shard ``k`` would perturb the operation
        sequence the survivors observe."""
        return self.qos or self.shards is not None

    @property
    def interarrival(self) -> float:
        """Seconds between arrival ticks: under QoS, what offers bytes
        ``load_factor`` times as fast as admission drains them."""
        if not self.qos:
            return self.step_seconds
        return self.task_kib / (self.load_factor * DRAIN_KIB_PER_S)

    @property
    def kills(self) -> bool:
        return self.kill_shard is not None or self.kill_owner_of is not None

    @property
    def churn(self) -> bool:
        """A restore audit is selected (see ``invariants``)."""
        return bool(set(self.invariants) & RESTORE_AUDIT)

    @property
    def restores(self) -> bool:
        """A single engine journals, checkpoints and is restored at the
        end: something can crash it, or a restore is what is audited."""
        return self.shards is None and self.backend == "HC" and (
            self.crash_site is not None or self.churn
        )

    @property
    def fault_plan(self) -> FaultPlan:
        """``plan``, or the reference chaos plan scaled to the workload."""
        return self.plan if self.plan is not None else default_chaos_plan(self)

    @property
    def crash_plan(self) -> CrashPlan | None:
        if self.crash_site is None:
            return None
        return CrashPlan(
            site=self.crash_site, hit=self.crash_hit, seed=self.fault_plan.seed
        )


def default_chaos_plan(config: ScenarioConfig) -> FaultPlan:
    """The device-fault reference plan: kill the NVMe tier mid-workload
    (with recovery), make NVMe/burst-buffer devices flaky, corrupt
    burst-buffer reads, and throttle the PFS for most of the run."""
    step = config.step_seconds
    end = -(-config.tasks // config.ranks) * step
    mid = end / 2.0
    return (
        FaultPlan(seed=42)
        .outage("nvme", start=mid - step / 2.0, end=mid + 1.5 * step)
        .flaky("nvme", at=0.0, write_p=0.10)
        .flaky("burst_buffer", at=0.0, write_p=0.12, read_p=0.08, corrupt_p=0.10)
        .flaky("ram", at=0.0, corrupt_p=0.05)
        .flaky("pfs", at=0.0, write_p=0.05, read_p=0.08)
        .degraded("pfs", start=step, end=end, factor=12.0)
    )


def flap_plan(count: int = 3) -> FaultPlan:
    """``count`` down/up cycles of the RAM tier: 0.5 s down, 0.7 s up,
    opening healthy. RAM is the tier plans target first, so SHI failover
    and the breakers see real failures."""
    plan = FaultPlan(seed=3)
    for cycle in range(count):
        start = 0.7 + cycle * 1.2
        plan = plan.outage("ram", start=start, end=start + 0.5)
    return plan


_CRASH = ScenarioConfig(
    name="crash",
    invariants=(
        "idempotent_replay", "identical_double_restore", "no_orphan_keys",
        "evicted_stay_gone", "acked_read_back", "fsck_clean",
    ),
    monitor_interval=4.0,
    lifecycle=True,
    # RAM — the tier the stale plans keep targeting — goes dark mid-run, so
    # SHI failover carries real traffic (a down *lower* tier would be
    # bypassed by the manager's capacity-spill path instead).
    plan=FaultPlan(seed=0).outage("ram", start=1.2, end=3.4),
)
_SHARD_KILL = ScenarioConfig(
    name="shard",
    invariants=(
        "acked_read_back", "admitted_accounted", "kill_recorded",
        "blast_radius", "survivors_undisturbed",
    ),
    tasks=64,
    rng_seed=11,
    step_seconds=0.05,
    checkpoint_after=12,
    shards=4,
)
#: The named scenarios (docs/RESILIENCE.md "Chaos scenarios").
PRESETS: dict[str, ScenarioConfig] = {
    # Device faults the engine survives in place; BASE and MTNC do not.
    "device": ScenarioConfig(
        name="chaos", invariants=("acked_read_back",),
        tasks=12, ranks=2, monitor_interval=2.0,
    ),
    # Process death at a crash site, then restore + the durability audit.
    "crash": _CRASH,
    # The same, dying mid-repair: the lifecycle daemon stays off so piece
    # keys are stable for the rot mirror.
    "scrub": replace(_CRASH, lifecycle=False, scrub=True, corrupt_every=1),
    # 2x the admission drain rate while RAM flaps (+ crash_site: and dies).
    "overload": ScenarioConfig(
        name="storm",
        invariants=(
            "acked_read_back", "only_low_classes_shed", "admitted_accounted",
        ),
        tasks=48, rng_seed=11, load_factor=2.0, deadline=8.0,
        plan=flap_plan(), checkpoint_after=12, monitor_interval=2.0,
    ),
    # Kill one shard mid-storm; an operator restores it afterwards.
    "shard_kill": _SHARD_KILL,
    # The same storm replicated: the standby is promoted automatically.
    "failover": replace(
        _SHARD_KILL,
        name="failover",
        invariants=(
            *_SHARD_KILL.invariants, "failover_idempotent",
            "unavailability_bounded", "fence_consistent",
        ),
        replicas=1,
        fsync_every=8,
    ),
}
#: Crash-site prefix -> the scenario whose traffic reaches it, first match
#: wins. The promotion sites get a small instant-promotion deployment: the
#: sweep runs it once per (site, hit).
_SWEEP = (
    ("replication.", replace(
        PRESETS["failover"], shards=2, tasks=24, tenants=4, kill_shard=0,
        kill_after=8, checkpoint_after=6, promotion_seconds=0.0,
    )),
    ("scrub.", PRESETS["scrub"]),
    ("", PRESETS["crash"]),
)


def scenario(preset: str, **overrides) -> ScenarioConfig:
    """The named preset with ``overrides`` applied (and re-validated)."""
    return replace(PRESETS[preset], **overrides)


@functools.lru_cache(maxsize=1)
def default_seed() -> SeedData:
    """The quick profiler seed every scenario defaults to: a pure function
    (fixed rng, fixed sizes) that engines only read, so one is shared."""
    profiler = HCompressProfiler(rng=np.random.default_rng(0))
    return profiler.quick_seed(sizes=(8 * KiB, 32 * KiB))


#: Outcome fields :meth:`Outcome.summary` leaves out: bulk, or shown apart.
_NOT_SUMMARISED = frozenset({
    "config", "events", "trace", "latencies", "busy_seconds", "recovery",
    "error", "violations",
})


@dataclass
class Outcome:
    """What one scenario did and whether its contract held."""

    config: ScenarioConfig
    # -- the offer loop: every offered write gets exactly one status
    offered: int = 0
    completed: int = 0
    shed: int = 0
    shed_by_class: dict[int, int] = field(default_factory=dict)
    deadline_failures: int = 0
    unavailable: int = 0
    #: Shed retryably while their shard's promotion window ran.
    deferred: int = 0
    evicted: int = 0
    #: An untyped escape (or failed restore): the scenario stopped there.
    error: str | None = None
    #: Every :class:`TaskEvent`, in arrival order.
    events: tuple = ()
    #: Subsystem traces: SHI retries/failovers, injector log, and under
    #: QoS the admission / breaker / brownout streams.
    trace: tuple = ()
    #: Modeled service seconds (compress + I/O) per completed task.
    latencies: list[float] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    # -- what the engine's resilient paths did
    retries: int = 0
    failovers: int = 0
    replans: int = 0
    degraded_plans: int = 0
    read_repairs: int = 0
    corruption_detected: int = 0
    injected_errors: int = 0
    injected_corruptions: int = 0
    breaker_transitions: int = 0
    brownout_peak: int = 0
    corruptions_planted: int = 0
    scrub_repairs: int = 0
    # -- the fault that fired, and the recovery from it
    fired_site: str | None = None
    killed_shard: int | None = None
    #: Report of the restore / ``restore_shard`` / promoted standby.
    recovery: RecoveryReport | None = None
    breaker_open_after_restore: bool = False
    #: Acked records the killed primary's own journal never made durable
    #: (its group-commit tail) — what shipping must not lose.
    lost_local_tail: int = 0
    promotions: int = 0
    #: Modeled seconds from the DOWN transition to the promoted UP, and
    #: the ceiling it must stay under (see ``unavailability_bounded``).
    unavailability_seconds: float = 0.0
    unavailability_bound: float = 0.0
    affected_tenants: set = field(default_factory=set)
    #: Tenants the ring homes on the killed shard.
    expected_tenants: set = field(default_factory=set)
    manifest_version: int = 0
    #: Modeled busy seconds per shard at storm end.
    busy_seconds: dict = field(default_factory=dict)
    # -- the audit
    verified_intact: int = 0
    mismatched: int = 0
    missing_acked: int = 0
    #: ``"<invariant>: <detail>"`` for every selected invariant that broke.
    violations: list[str] = field(default_factory=list)

    @property
    def admitted(self) -> int:
        """Offers that passed admission and got a verdict (the write in
        flight when a crash fired has none)."""
        return len(self.events) - self.shed

    @property
    def crashed(self) -> bool:
        return self.fired_site is not None

    @property
    def recovered(self) -> bool:
        return self.recovery is not None

    @property
    def violated(self) -> set[str]:
        """Names of the broken invariants."""
        return {violation.partition(":")[0] for violation in self.violations}

    @property
    def holds(self) -> bool:
        """No selected invariant broke and nothing escaped untyped."""
        return not self.violations and self.error is None

    def survivor_events(self, killed: int | None = None) -> tuple:
        """Events of every shard except ``killed`` (default: the one this
        run killed) — the cross-run determinism comparand."""
        if killed is None:
            killed = self.killed_shard
        return tuple(e for e in self.events if e.shard != killed)

    def summary(self) -> str:
        """One line: the deployment, every fact that moved off its default,
        the recovery report, the verdict."""
        c, report = self.config, self.recovery
        facts = []
        for spec in fields(self):
            if spec.name in _NOT_SUMMARISED:
                continue
            value = getattr(self, spec.name)
            if value == spec.default or value in ({}, set()):
                continue
            if isinstance(value, float):
                value = f"{value:.3f}"
            elif isinstance(value, set):
                value = sorted(value)
            facts.append(f"{spec.name}={value}")
        if report is not None:
            facts.append(
                f"recovered (replayed {report.records_replayed} records, "
                f"truncated={report.journal_truncated}, swept "
                f"{report.orphans_evicted} orphans + "
                f"{report.duplicates_evicted} dups)"
            )
        shards = "" if c.shards is None else (
            f", {c.shards} shards x{c.replicas} replicas"
        )
        broken = "; ".join(filter(None, [self.error, *self.violations]))
        verdict = f"CONTRACT VIOLATED ({broken})" if broken else "contract holds"
        return f"[{c.name}/{c.backend}{shards}] {' '.join(facts)} — {verdict}"


class ScenarioRun:
    """The live state of one scenario, staged ``storm`` -> ``recover`` ->
    ``audit``. :func:`run_scenario` is the three in order; tests break the
    state between stages to show each invariant can fire. The invariants
    read ``outcome``, ``buffers`` (task id -> payload offered), ``acked``
    (in ack order), ``evicted``, ``hierarchy`` / ``sharded``, and
    ``reader`` — what verification reads go to: the engine, its restored
    successor, or the router.
    """

    def __init__(
        self,
        config: ScenarioConfig,
        root_dir: str | Path,
        seed: SeedData | None = None,
        **engine,
    ) -> None:
        self.config = c = config
        self.root = Path(root_dir)
        self.seed = seed if seed is not None else default_seed()
        self.clock = SimClock()
        self.outcome = Outcome(config=config)
        self.buffers: dict[str, bytes] = {}
        self.acked: list[str] = []
        self.evicted: set[str] = set()
        # The evict in flight when a crash fires: its fate is the
        # journal's call (logged -> gone, not logged -> still readable) —
        # both outcomes are legal, like a write crashed past its commit.
        self.pending_evict: str | None = None
        self.read_error: str | None = None
        self._rng = np.random.default_rng(c.rng_seed)
        self._checkpoints = c.restores or c.shards is not None
        self.crashpoints = (
            Crashpoints(c.crash_plan)
            if c.restores or c.crash_site is not None else None
        )
        self.engine_config = replace(
            HCompressConfig(
                monitor_interval=c.monitor_interval,
                recovery=RecoveryConfig(
                    enabled=c.restores,
                    directory=str(self.root) if c.restores else None,
                    fsync=False,  # process-level crash model; sweeps run dozens
                    fsync_every=c.fsync_every,
                ),
                qos=QosConfig(
                    enabled=True,
                    max_backlog_bytes=MAX_BACKLOG_KIB * KiB,
                    drain_bytes_per_s=float(DRAIN_KIB_PER_S * KiB),
                    shed_seed=c.rng_seed,
                ) if c.qos else QosConfig(),
                # Storage-heavy pricing + zero hysteresis: write-once-never-
                # read buffers demote from the first scan, so every
                # lifecycle.* crash site carries several migrations per run.
                lifecycle=LifecycleConfig(
                    enabled=True, scan_interval=0.0, storage_price=1000.0,
                    access_price=0.001, max_migrations_per_step=2,
                ) if c.lifecycle else LifecycleConfig(),
                scrub=ScrubConfig(
                    enabled=True, content_digests=True, verify_reads=True,
                    scan_interval=0.0, max_repairs_per_step=c.tasks,
                ) if c.scrub else ScrubConfig(),
            ),
            **engine,
        )
        self.hierarchy = self.injector = self.engine = self.sharded = None
        self.target = self.kill = self._drain = None
        if c.shards is None:
            self._build_engine()
        else:
            self._build_shards()
        self.reader = self.target
        self.write, self.read = _IO[c.backend](self)

    # -- build ---------------------------------------------------------------

    def _build_engine(self) -> None:
        """RAM holds ~1.5 buffers so writes spill (and the flusher has
        work) and the NVMe is roomy enough to stay the spill target, so a
        mid-run outage hits live placements; a QoS storm gets 6 buffers so
        the flapped tier carries real traffic and failover has somewhere
        to go."""
        c = self.config
        buffer_bytes = c.task_kib * KiB
        total = buffer_bytes * c.tasks
        self.hierarchy = ares_hierarchy(
            ram_capacity=buffer_bytes * 6 if c.qos else buffer_bytes * 3 // 2,
            nvme_capacity=total * 2,
            bb_capacity=total * 2,
            nodes=1,
        )
        self.injector = FaultInjector(c.fault_plan, self.hierarchy)
        self.injector.arm()
        if c.backend != "HC":
            return
        self.engine = self.target = HCompress(
            self.hierarchy, self.engine_config, seed=self.seed,
            clock=lambda: self.clock.now, crashpoints=self.crashpoints,
        )
        # Backoff sleeps advance the simulated clock (never wall time), so
        # scheduled recoveries land while an operation is waiting.
        self.engine.shi.on_wait = lambda seconds: self.advance(
            self.clock.now + seconds
        )
        if c.scrub:
            # The repair of last resort: a pristine mirror of every stored
            # blob, captured at ack time. Rot is planted *after* the mirror
            # refresh each round, so the mirror is corruption-free.
            self.mirror: dict[str, bytes] = {}
            self._rot = LatentCorruptionInjector(
                self.hierarchy, seed=c.fault_plan.seed
            )
            self.engine.manager.on_corrupt = self._from_mirror
        if c.churn:
            self._drain = TierFlusher(
                self.hierarchy, high_water=0.5, low_water=0.25,
                crashpoints=self.crashpoints,
            ).process()

    def _build_shards(self) -> None:
        """Budgets that comfortably fit the storm in every shard's slice."""
        c, out = self.config, self.outcome
        total = c.tasks * c.task_kib * KiB
        self.sharded = self.target = ShardedHCompress(
            ares_specs(
                ram_capacity=total * 2, nvme_capacity=total * 2,
                bb_capacity=total * 2, nodes=max(8, c.shards),
            ),
            self.engine_config,
            ShardConfig(
                shards=c.shards,
                directory=self.root,
                replication=ReplicationConfig(
                    enabled=True, replicas=c.replicas,
                    promotion_seconds=c.promotion_seconds,
                ) if c.replicas else ReplicationConfig(),
            ),
            seed=self.seed,
            clock=lambda: self.clock.now,
            crashpoints=self.crashpoints,
        )
        self.kill = c.kill_shard
        if c.kill_owner_of is not None:
            self.kill = self.sharded.ring.route(c.kill_owner_of)
        if self.kill is not None:
            out.expected_tenants = {
                f"tenant-{t}" for t in range(c.tenants)
                if self.sharded.ring.route(f"tenant-{t}") == self.kill
            }

    def _from_mirror(self, key: str, blob: bytes) -> bytes | None:
        return self.mirror.get(key)

    def advance(self, t: float) -> None:
        self.clock.advance_to(t)
        if self.injector is not None:
            self.injector.advance_to(self.clock.now)

    def restore(self) -> HCompress:
        """A fresh process restores from the recovery directory."""
        return HCompress.restore(
            self.root, self.hierarchy, config=self.engine_config,
            seed=self.seed, clock=lambda: self.clock.now,
        )

    # -- storm ---------------------------------------------------------------

    def storm(self) -> None:
        """Offer every write; ends early on a crash or an untyped escape."""
        c, out = self.config, self.outcome
        # Bootstrap checkpoint: the directory is restorable from the first
        # instant, whatever the fault schedule does later.
        steps = [self.target.checkpoint] if self._checkpoints else []
        steps += [functools.partial(self._offer, i) for i in range(c.tasks)]
        position = 0
        try:
            while position < len(steps):
                try:
                    steps[position]()
                    position += 1
                except SimulatedCrashError:
                    out.fired_site = self.crashpoints.fired
                    if self.sharded is None:
                        # Process death: abandon the engine mid-flight. No
                        # close(), no journal sync — unsynced records are
                        # lost, as the kernel loses a dead process's
                        # user-space buffers.
                        break
                    # The router died mid-promotion. A new incarnation
                    # repairs by retrying the failover (every stage is
                    # idempotent); the loop then re-offers the same task.
                    self.sharded.failover(self.kill)
        except HCompressError as exc:  # untyped escape: a contract violation
            out.error = f"{type(exc).__name__}: {exc}"
        if self.sharded is not None:
            out.busy_seconds = dict(self.sharded.busy_seconds)
        elif self.engine is not None and self.engine.qos is not None:
            out.breaker_transitions = self.engine.qos.breakers.transitions
            out.trace = self.engine.qos.event_trace()

    def _offer(self, index: int) -> None:
        """One write: arrive, classify the result, run the per-ack steps."""
        c, out = self.config, self.outcome
        task_id = f"{c.name}/t{index}"
        if task_id not in self.buffers:  # else: re-offered after a crash
            if self.kill is not None and index == c.kill_after:
                # The acked records the primary's group-commit buffer still
                # holds: its local journal dies without them.
                victim = self.sharded.engines[self.kill]
                out.lost_local_tail = victim.journal.pending
                self.sharded.kill_shard(self.kill)
                out.killed_shard = self.kill
            self.advance(
                max(self.clock.now, (index // c.ranks) * c.interarrival)
            )
            self.buffers[task_id] = vpic_sample(c.task_kib * KiB, self._rng)
            out.offered += 1
        tenant = shard = qos_class = None
        route = {}
        if self.sharded is not None:
            tenant = route["tenant"] = f"tenant-{index % c.tenants}"
            shard = self.sharded.shard_of(task_id, tenant)
        if c.qos:
            qos_class = route["qos_class"] = QosClass(index % 4)
        if c.deadline is not None:
            route["deadline"] = c.deadline
        try:
            seconds = self.write(task_id, self.buffers[task_id], **route)
            status = "completed"
        except HCompressError as exc:
            status = next(
                (
                    status for types, status, qos_only in _STATUS
                    if isinstance(exc, types) and (c.qos or not qos_only)
                ),
                None,
            )
            if status is None:
                raise
            if status == "shed":
                cls = int(exc.qos_class)
                out.shed_by_class[cls] = out.shed_by_class.get(cls, 0) + 1
        out.events += (TaskEvent(
            task_id, tenant, shard,
            None if qos_class is None else int(qos_class), status,
        ),)
        counter = "deadline_failures" if status == "deadline" else status
        setattr(out, counter, getattr(out, counter) + 1)
        if status == "unavailable" and tenant is not None:
            out.affected_tenants.add(tenant)
        if status == "completed":
            if not c.open_loop:
                self.advance(self.clock.now + seconds)
            self.acked.append(task_id)
            out.latencies.append(seconds)
            self._after_ack(index, task_id)
        if self.engine is not None and self.engine.qos is not None:
            out.brownout_peak = max(
                out.brownout_peak, int(self.engine.qos.brownout.level)
            )

    def _after_ack(self, index: int, task_id: str) -> None:
        c, out, engine = self.config, self.outcome, self.engine
        if self._drain is not None:
            # One poll of the drain generator (ends at its Delay yield).
            # I/O yields are instantaneous — this measures consistency, not
            # drain throughput — but the poll delay still advances the
            # clock so fault-plan events keep landing.
            for _ in range(256):
                event = next(self._drain)
                if isinstance(event, Delay):
                    self.advance(self.clock.now + event.seconds)
                    break
        if engine is not None and engine.lifecycle is not None:
            engine.lifecycle.step()
        if c.scrub:
            self._refresh_mirror()
            if c.corrupt_every and (index + 1) % c.corrupt_every == 0:
                out.corruptions_planted += len(
                    self._rot.corrupt(count=1, keys=set(self.mirror))
                )
            out.scrub_repairs += len(engine.scrub.step(force=True))
        if c.churn and (index + 1) % EVICT_EVERY == 0:
            victim = next(
                (
                    t for t in self.acked
                    if t not in self.evicted and t != task_id
                ),
                None,
            )
            if victim is not None:
                self.pending_evict = victim
                engine.manager.evict_task(victim)
                self.pending_evict = None
                self.evicted.add(victim)
                out.evicted += 1
        if self._checkpoints and len(self.acked) == c.checkpoint_after:
            self.target.checkpoint()

    def _refresh_mirror(self) -> None:
        manager = self.engine.manager
        for tid in manager.task_ids():
            for entry in manager.task_entries(tid):
                if entry.key in self.mirror:
                    continue
                tier = self.hierarchy.find(entry.key)
                if tier is None or not tier.available:
                    continue  # captured on a later refresh, like the rot
                if tier.extent(entry.key).has_payload:
                    device = getattr(tier.device, "inner", tier.device)
                    self.mirror[entry.key] = device.load(entry.key)

    # -- recover -------------------------------------------------------------

    def recover(self) -> None:
        """Devices heal; then whatever the deployment's recovery path is."""
        c, out, killed = self.config, self.outcome, self.outcome.killed_shard
        if out.error is not None:
            return
        if self.injector is not None:
            self.advance(
                max(self.clock.now, self.injector.plan.horizon)
                + RECOVERY_SLACK
            )
        try:
            if c.restores:
                self.reader = self.restore()
                out.recovery = self.reader.recovery_report
                if self.reader.qos is not None:
                    # Conservative restore: any breaker checkpointed open
                    # or half-open must come back quarantined, not
                    # silently healthy.
                    out.breaker_open_after_restore = any(
                        b.state != "closed"
                        for b in self.reader.qos.breakers.breakers.values()
                    )
                if c.scrub:
                    self.reader.manager.on_corrupt = self._from_mirror
            elif killed is not None and not c.replicas:
                out.recovery = self.sharded.restore_shard(killed).recovery_report
        except HCompressError as exc:
            out.error = f"restore failed: {type(exc).__name__}: {exc}"
        if killed is not None and c.replicas:
            # Run out the promotion window before anything is verified.
            record = self.sharded.supervisor.health[killed]
            self.clock.advance_to(max(self.clock.now, record.promote_ready_at))
            self.sharded.supervisor.is_up(killed)
            out.promotions = self.sharded.replication.failovers[killed]
            if self.sharded.engines[killed] is not None:
                out.recovery = self.sharded.engines[killed].recovery_report

    # -- audit ---------------------------------------------------------------

    def present(self, task_id: str) -> bool:
        """Some live catalog holds ``task_id`` (the comparators keep no
        catalog: there the read itself is the probe)."""
        if self.config.backend != "HC":
            return True
        engines = (
            self.sharded.engines.values() if self.sharded is not None
            else (self.reader,)
        )
        return any(e is not None and task_id in e.manager for e in engines)

    def read_back(self) -> None:
        """The acked read-back: acked, not evicted, not the in-flight evict
        => present and byte-identical. Ids the journal committed past the
        ack point (a crash at ``manager.write.post_journal``) are verified
        too — journal-durable means committed. An ack whose read raises
        counts as missing and ends the pass: the comparators die there,
        and for the engine the contract is already broken."""
        out = self.outcome
        if self.config.scrub:
            # The restored patrol must find whatever rot the crash left
            # behind (including a repair it died in the middle of) and
            # heal it from the mirror before — and independently of — the
            # acked reads.
            for _ in range(3):
                out.scrub_repairs += len(self.reader.scrub.step(force=True))
        must_read = [
            t for t in self.acked
            if t not in self.evicted and t != self.pending_evict
        ]
        if self.engine is not None:
            must_read += [
                t for t in self.buffers
                if t not in must_read and t not in self.evicted
                and self.present(t)
            ]
        for task_id in must_read:
            if not self.present(task_id):
                out.missing_acked += 1
                continue
            try:
                data, seconds = self.read(task_id)
            except HCompressError as exc:
                out.missing_acked += 1
                self.read_error = f"{type(exc).__name__}: {exc}"
                return
            if not self.config.open_loop:
                self.advance(self.clock.now + seconds)
            if data == self.buffers[task_id]:
                out.verified_intact += 1
            else:
                out.mismatched += 1

    def audit(self) -> Outcome:
        """Evaluate the selected invariants (table order), collect the
        end-of-run facts, release the deployment."""
        out, engine = self.outcome, self.engine
        for name, check in INVARIANTS.items():
            if name in self.config.invariants and out.error is None:
                detail = check(self)
                if detail:
                    out.violations.append(f"{name}: {detail}")
        out.elapsed_seconds = self.clock.now
        if self.injector is not None:
            out.injected_errors = self.injector.stats.transient_errors
            out.injected_corruptions = self.injector.stats.corruptions
            out.trace = (tuple(self.injector.stats.log),) + out.trace
        if engine is not None:
            out.retries = engine.shi.stats.retries
            out.failovers = engine.shi.stats.failovers
            out.replans = engine.replans
            out.degraded_plans = engine.engine.stats.degraded_plans
            out.read_repairs = engine.manager.read_repairs
            out.corruption_detected = engine.manager.corruption_detected
            out.trace = (tuple(engine.shi.stats.trace),) + out.trace
            if self.reader is not engine:
                self.reader.close()
            if not out.crashed:
                engine.close()
        if self.sharded is not None:
            out.manifest_version = self.sharded.manifest.version
            self.sharded.close()
        return out


def run_scenario(
    scenario: ScenarioConfig,
    root_dir: str | Path | None = None,
    seed: SeedData | None = None,
    **engine,
) -> Outcome:
    """Run one scenario end to end; returns its report.

    ``root_dir`` is the recovery directory / deployment root (default: a
    temporary one), ``seed`` the profiler seed (default:
    :func:`default_seed`). ``engine`` overrides
    :class:`~repro.core.HCompressConfig` fields of the engine under test
    (e.g. ``plan_cache=``, ``executor=`` — neither may change a trace).
    """
    if root_dir is None:
        prefix = f"hcompress-{scenario.name}-"
        with tempfile.TemporaryDirectory(prefix=prefix) as tmp:
            return run_scenario(scenario, tmp, seed, **engine)
    run = ScenarioRun(scenario, root_dir, seed, **engine)
    run.storm()
    run.recover()
    return run.audit()


def sweep_crash_sites(
    hits: tuple[int, ...] = (1, 2),
    base: ScenarioConfig | None = None,
    sites: tuple[str, ...] = CRASH_SITES,
    seed: SeedData | None = None,
) -> list[Outcome]:
    """Run every (site, hit) combination; returns all outcomes.

    With ``base`` every point is that scenario dying at the site. Without
    it each site runs the preset whose traffic reaches it (``_SWEEP``:
    promotion sites the replicated storm, ``scrub.*`` the integrity
    workload, everything else the crash workload), reseeded per point —
    the default matrix is 26 sites x 2 hits = 52 seeded crash points.
    """
    outcomes = []
    for index, site in enumerate(sites):
        for hit in hits:
            config = base
            if config is None:
                config = next(p for prefix, p in _SWEEP if site.startswith(prefix))
                if config.plan is not None:
                    config = replace(config, plan=replace(
                        config.plan, seed=index * 100 + hit
                    ))
            outcomes.append(run_scenario(
                replace(config, crash_site=site, crash_hit=hit), seed=seed
            ))
    return outcomes
