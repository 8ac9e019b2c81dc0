"""HCompress runtime configuration.

One frozen dataclass gathers every knob the paper exposes: the priority
weighting (runtime-switchable through the API), the feedback cadence
(``n`` in §IV-D), the split grain, the codec roster, and where the JSON
seed lives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from ..codecs.pool import PAPER_LIBRARIES
from ..hcdp.plan_cache import PlanCacheConfig
from ..hcdp.priorities import EQUAL, Priority
from ..lifecycle.config import LifecycleConfig
from ..obs import ObservabilityConfig
from ..qos import QosConfig
from ..scrub.config import ScrubConfig
from ..units import KiB, PAGE

__all__ = [
    "ExecutorConfig",
    "HCompressConfig",
    "LifecycleConfig",
    "ObservabilityConfig",
    "PlanCacheConfig",
    "QosConfig",
    "RecoveryConfig",
    "ResilienceConfig",
    "ScrubConfig",
]


@dataclass(frozen=True)
class RecoveryConfig:
    """Crash-recovery policy: write-ahead journaling and checkpoints.

    Attributes:
        enabled: Master switch. When on, every catalog mutation is
            journaled to ``directory`` *before* the write is acknowledged,
            and :meth:`~repro.core.hcompress.HCompress.checkpoint` /
            :meth:`~repro.core.hcompress.HCompress.restore` operate on
            that directory by default.
        directory: Where the journal and snapshots live. Required when
            ``enabled``.
        fsync_every: Journal group-commit batch — records buffered before
            a sync is forced (1 = strictest: sync on every commit).
        fsync: Issue real ``os.fsync`` calls. Turning this off keeps the
            durability *model* (buffered records are still lost on a
            modeled crash) while speeding up tests and benchmarks.
    """

    enabled: bool = False
    directory: str | Path | None = None
    fsync_every: int = 1
    fsync: bool = True

    def __post_init__(self) -> None:
        if self.enabled and self.directory is None:
            raise ValueError("RecoveryConfig.enabled requires a directory")
        if self.fsync_every < 1:
            raise ValueError("fsync_every must be >= 1")


@dataclass(frozen=True)
class ExecutorConfig:
    """Concurrency policy of the Compression Manager's piece execution.

    The stdlib-backed codecs (zlib/bz2/lzma) release the GIL, so a
    schema's pieces can compress/decompress on a thread pool; from-scratch
    pure-Python codecs gain nothing from threads and always run serially.
    Only the *real* codec byte work is parallelised — modeled time is
    still charged deterministically from the nominal profile table and
    every tier/SHI side effect happens serially in piece order, so
    simulation results are bit-identical with the pool on or off.

    Attributes:
        enabled: Master switch for the thread pool.
        max_workers: Pool width (``None``: ``min(8, cpu_count)``).
        min_piece_bytes: Pieces smaller than this are compressed inline —
            the pool's dispatch overhead would exceed the codec time.
        sample_cache_size: LRU entries of the manager's measured
            sample-ratio cache, keyed ``(codec, feature key, sample
            digest)``.
    """

    enabled: bool = True
    max_workers: int | None = None
    min_piece_bytes: int = 64 * KiB
    sample_cache_size: int = 256

    def __post_init__(self) -> None:
        if self.max_workers is not None and self.max_workers < 1:
            raise ValueError("max_workers must be >= 1 (or None)")
        if self.min_piece_bytes < 0:
            raise ValueError("min_piece_bytes must be >= 0")
        if self.sample_cache_size < 1:
            raise ValueError("sample_cache_size must be >= 1")


#: Retry backoff shape: the first retry waits ``BACKOFF_BASE`` (simulated)
#: seconds, each further attempt doubles it up to ``BACKOFF_CAP``, and
#: every wait is scaled by a seeded relative jitter of +/-25% so retry
#: traces are replayable.
BACKOFF_BASE = 0.002
BACKOFF_CAP = 0.25
BACKOFF_JITTER = 0.25


@dataclass(frozen=True)
class ResilienceConfig:
    """Fault-tolerance knobs for the resilient I/O paths.

    Attributes:
        max_retries: Retry budget per operation for transient I/O errors
            (0 disables retrying entirely).
        jitter_seed: Seed of the backoff jitter's RNG.
        failover: Route a write whose planned tier is down/full to the
            next tier that fits (the SHI write-failover path).
        verify_checksums: Record a CRC32 per stored piece at write time
            and verify it on every read (corruption detection).
        quarantine_after_repairs: Failed read-repair cycles tolerated for
            one piece before it is quarantined — subsequent reads fail
            fast with :class:`~repro.errors.IntegrityError` instead of
            burning the retry budget again. The background scrubber lifts
            the quarantine when a later repair heals the piece in place.
        retry_deadline: Cap on *cumulative* backoff charged to one
            operation across every retry and failover candidate, in
            (simulated) seconds. Attempt counts bound retries per tier,
            but a failover chain multiplies them; once total charged
            backoff crosses this cap the operation fails with
            ``AllTiersUnavailableError`` instead of stalling further.
            ``None`` keeps the attempt-count-only behavior.
    """

    max_retries: int = 3
    jitter_seed: int = 0
    failover: bool = True
    verify_checksums: bool = True
    quarantine_after_repairs: int = 3
    retry_deadline: float | None = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.retry_deadline is not None and self.retry_deadline <= 0:
            raise ValueError("retry_deadline must be positive (or None)")
        if self.quarantine_after_repairs < 1:
            raise ValueError("quarantine_after_repairs must be >= 1")

    def backoff_seconds(self, attempt: int, rng) -> float:
        """Backoff before retry ``attempt`` (1-based): exponential with
        seeded jitter, charged to the simulated clock by the caller."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        base = min(BACKOFF_BASE * (2 ** (attempt - 1)), BACKOFF_CAP)
        return base * (1.0 + BACKOFF_JITTER * (2.0 * rng.random() - 1.0))


@dataclass(frozen=True)
class HCompressConfig:
    """Configuration for an :class:`~repro.core.hcompress.HCompress` engine.

    Attributes:
        priority: Initial workload priority (Table II presets or custom).
        feedback_every_n: Operations between feedback flushes into the CCP.
        grain: Sub-task split alignment (the paper's 4096 bytes).
        libraries: Codec roster; defaults to the paper's eleven.
        load_factor: Queue-depth sensitivity of the HCDP cost model.
        drain_penalty: Scale of the engine's amortised capacity-pressure
            term (0 disables; see the placement ablation bench).
        seed_path: JSON seed to bootstrap from / finalize to (optional).
        monitor_interval: System Monitor refresh period in seconds of the
            monitor's clock domain.
        python_to_native: Calibration divisor applied to measured Python
            wall time of engine-internal stages when reporting the Fig. 3
            anatomy, so overheads are comparable to the paper's native
            implementation (see DESIGN.md fidelity notes).
        resilience: Retry/failover/checksum policy of the resilient I/O
            paths (see :class:`ResilienceConfig`).
        plan_cache: Cross-task plan-cache policy of the HCDP engine
            (see :class:`~repro.hcdp.plan_cache.PlanCacheConfig`).
        executor: Concurrency policy of the Compression Manager's piece
            execution (see :class:`ExecutorConfig`).
        recovery: Crash-recovery policy — write-ahead journaling of the
            catalog plus checkpoint/restore (see :class:`RecoveryConfig`).
            Disabled by default; enabling requires a recovery directory.
        observability: Telemetry opt-in (see
            :class:`~repro.obs.ObservabilityConfig`). Disabled by default;
            when disabled the engine carries no observability object and
            instrumented paths pay only an ``is None`` check.
        qos: Overload-protection policy — admission control, per-tier
            circuit breakers, deadlines, brownout ladder (see
            :class:`~repro.qos.QosConfig`). Disabled by default; when
            disabled the engine constructs no governor and behavior is
            byte-identical to a build without the subsystem.
        lifecycle: Lifecycle-tiering policy — the background daemon that
            re-decides tier + codec as data heats or cools, driven by a
            TCO cost model (see
            :class:`~repro.lifecycle.LifecycleConfig`). Disabled by
            default; when disabled the engine constructs no daemon and
            behavior is byte-identical to a build without the subsystem.
        scrub: End-to-end integrity policy — content digests of the
            uncompressed payload recorded in the catalog, optional
            digest verification on read, and the background scrubbing /
            self-healing-repair daemon (see
            :class:`~repro.scrub.ScrubConfig`). Everything defaults
            off; catalogs, journals, and snapshots then stay
            byte-identical to a build without the subsystem.
    """

    priority: Priority = EQUAL
    feedback_every_n: int = 16
    grain: int = PAGE
    libraries: tuple[str, ...] = field(default_factory=lambda: PAPER_LIBRARIES)
    load_factor: float = 1.0
    drain_penalty: float = 1.0
    seed_path: str | Path | None = None
    monitor_interval: float = 0.0
    python_to_native: float = 50.0
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)
    plan_cache: PlanCacheConfig = field(default_factory=PlanCacheConfig)
    executor: ExecutorConfig = field(default_factory=ExecutorConfig)
    recovery: RecoveryConfig = field(default_factory=RecoveryConfig)
    observability: ObservabilityConfig = field(
        default_factory=ObservabilityConfig
    )
    qos: QosConfig = field(default_factory=QosConfig)
    lifecycle: LifecycleConfig = field(default_factory=LifecycleConfig)
    scrub: ScrubConfig = field(default_factory=ScrubConfig)

    def __post_init__(self) -> None:
        if self.feedback_every_n < 1:
            raise ValueError("feedback_every_n must be >= 1")
        if self.grain < 1:
            raise ValueError("grain must be >= 1")
        if self.load_factor < 0:
            raise ValueError("load_factor must be >= 0")
        if self.drain_penalty < 0:
            raise ValueError("drain_penalty must be >= 0")
        if self.python_to_native <= 0:
            raise ValueError("python_to_native must be positive")
