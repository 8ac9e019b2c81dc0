"""Zipfian access-trace driver: lifecycle tiering vs write-time placement.

One deterministic workload backs the `hcompress lifecycle` CLI, the
``lifecycle`` figure in the experiments report, and
``benchmarks/bench_lifecycle.py``: write a population of blobs onto a
small hierarchy (write-time HCDP placement spills most of them down),
then replay a zipfian read trace — a few blobs absorb most of the reads —
stepping the lifecycle daemon on the simulated clock between reads.

The comparison is *empirical*, not re-modeled: both runs replay the same
seeded trace and are billed with the same prices —

* **storage dollars**: the integral of every blob's stored footprint
  times its tier's $/byte·s over the run;
* **access dollars**: the modeled seconds readers actually waited
  (tier I/O + codec decode), priced at ``access_price``;
* **migration dollars**: the daemon's own modeled migration seconds at
  the same price (zero for the baseline).

Lifecycle tiering wins when storage savings (cold blobs demoted) plus
read-wait savings (hot blobs promoted) outrun what the migrations cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core import HCompress, HCompressConfig
from ..datagen import synthetic_buffer
from ..sim.clock import SimClock
from ..tiers import ares_hierarchy
from ..units import KiB
from .config import LifecycleConfig
from .cost import TierCostModel

__all__ = ["ZipfTraceConfig", "ZipfTraceResult", "run_zipf_trace"]


@dataclass(frozen=True)
class ZipfTraceConfig:
    """Shape of the zipfian lifecycle workload.

    Attributes:
        tasks: Blob population (rank r's read probability is
            proportional to ``1 / (r + 1) ** zipf_s``).
        task_kib: Blob size in KiB.
        reads: Trace length (draws from the zipf distribution).
        zipf_s: Skew exponent; ~1.2 sends most reads to a few blobs.
        step_seconds: Simulated seconds between reads — the clock the
            temperatures decay and the daemon scans on.
        rng_seed: Seed of the data generator and the trace sampler.
        dtype/distribution: Synthetic buffer shape (analyzer hints stay
            inferred, like any real write).
        lifecycle: Daemon policy for the lifecycle run;
            :func:`run_zipf_trace` forces ``enabled`` per run.
    """

    tasks: int = 48
    task_kib: int = 4
    reads: int = 384
    zipf_s: float = 1.4
    step_seconds: float = 0.25
    rng_seed: int = 0
    dtype: str = "float64"
    distribution: str = "gamma"
    lifecycle: LifecycleConfig = field(
        default_factory=lambda: LifecycleConfig(enabled=True, scan_interval=2.0)
    )

    @property
    def hot_count(self) -> int:
        """How many top ranks count as "hot" for the hot-read metric."""
        return max(1, self.tasks // 8)


@dataclass
class ZipfTraceResult:
    """One run's empirical bill and latency profile."""

    lifecycle_enabled: bool
    storage_dollars: float = 0.0
    access_dollars: float = 0.0
    migration_dollars: float = 0.0
    reads: int = 0
    hot_reads: int = 0
    read_seconds: float = 0.0      # modeled wait, all reads
    hot_read_seconds: float = 0.0  # modeled wait, reads of hot-rank blobs
    promotions: int = 0
    demotions: int = 0
    tier_residency: dict = field(default_factory=dict)
    status: dict | None = None

    @property
    def total_dollars(self) -> float:
        return self.storage_dollars + self.access_dollars + self.migration_dollars

    @property
    def mean_read_seconds(self) -> float:
        return self.read_seconds / self.reads if self.reads else 0.0

    @property
    def mean_hot_read_seconds(self) -> float:
        return self.hot_read_seconds / self.hot_reads if self.hot_reads else 0.0


def _trace_hierarchy(config: ZipfTraceConfig):
    """RAM holds only a sliver of the population, so write-time placement
    must spill most blobs down — the gap lifecycle tiering then closes."""
    total = config.tasks * config.task_kib * KiB
    return ares_hierarchy(
        ram_capacity=max(total // 12, 2 * config.task_kib * KiB),
        nvme_capacity=max(total // 3, 4 * config.task_kib * KiB),
        bb_capacity=total,
        nodes=1,
    )


def zipf_probabilities(tasks: int, s: float) -> np.ndarray:
    """Rank-indexed zipf pmf: ``p[r] ∝ 1 / (r + 1) ** s``."""
    weights = 1.0 / np.power(np.arange(1, tasks + 1, dtype=np.float64), s)
    return weights / weights.sum()


def run_zipf_trace(
    config: ZipfTraceConfig | None = None,
    lifecycle: bool = True,
    seed=None,
) -> ZipfTraceResult:
    """Replay the seeded zipfian trace; returns the empirical bill.

    ``lifecycle=False`` runs the write-time-placement baseline: same
    engine, same trace, daemon disabled — the control the acceptance
    gate compares against. Pass a shared profiling ``seed`` to amortize
    bootstrap across runs (and keep both engines' plans identical).
    """
    config = config if config is not None else ZipfTraceConfig()
    lc = config.lifecycle
    daemon_config = LifecycleConfig(
        **{**lc.__dict__, "enabled": lifecycle}
    )
    hierarchy = _trace_hierarchy(config)
    clock = SimClock()
    engine = HCompress(
        hierarchy,
        HCompressConfig(lifecycle=daemon_config),
        seed=seed,
        clock=lambda: clock.now,
    )
    cost = TierCostModel(
        hierarchy,
        storage_price=lc.storage_price,
        access_price=lc.access_price,
    )
    rng = np.random.default_rng(config.rng_seed)
    result = ZipfTraceResult(lifecycle_enabled=lifecycle)

    buffers = {
        f"zipf/t{rank}": synthetic_buffer(
            config.dtype, config.distribution, config.task_kib * KiB, rng
        )
        for rank in range(config.tasks)
    }
    # Written in a seeded-shuffled order, so arrival order does not
    # correlate with future hotness (in rank order, write-time placement
    # would park the hottest ranks on the fastest tier by accident and
    # leave lifecycle tiering nothing to fix).
    task_ids = list(buffers)
    write_order = [task_ids[i] for i in rng.permutation(config.tasks)]
    for task_id in write_order:
        written = engine.compress(buffers[task_id], task_id=task_id)
        clock.advance(written.io_seconds + written.compress_seconds)

    def bill_storage(dt: float) -> None:
        for task_id in engine.manager.task_ids():
            for entry in engine.manager.task_entries(task_id):
                tier = hierarchy.find(entry.key)
                if tier is not None:
                    result.storage_dollars += (
                        cost.storage_rate(tier.spec.name,
                                          tier.extent(entry.key).accounted_size)
                        * dt
                    )

    probabilities = zipf_probabilities(config.tasks, config.zipf_s)
    trace = rng.choice(config.tasks, size=config.reads, p=probabilities)
    hot = set(range(config.hot_count))
    for rank in trace:
        clock.advance(config.step_seconds)
        bill_storage(config.step_seconds)
        read = engine.decompress(f"zipf/t{rank}")
        wait = read.io_seconds + read.decompress_seconds
        clock.advance(wait)
        result.reads += 1
        result.read_seconds += wait
        result.access_dollars += wait * lc.access_price
        if int(rank) in hot:
            result.hot_reads += 1
            result.hot_read_seconds += wait
        if engine.lifecycle is not None:
            engine.lifecycle.step()

    if engine.lifecycle is not None:
        stats = engine.lifecycle.stats
        result.migration_dollars = stats.migration_seconds * lc.access_price
        result.promotions = stats.promotions
        result.demotions = stats.demotions
        result.status = engine.lifecycle.status()
    residency: dict[str, int] = {}
    for task_id in engine.manager.task_ids():
        entry = engine.manager.task_entries(task_id)[0]
        tier = hierarchy.find(entry.key)
        if tier is not None:
            name = tier.spec.name
            residency[name] = residency.get(name, 0) + 1
    result.tier_residency = residency
    engine.close()
    return result
