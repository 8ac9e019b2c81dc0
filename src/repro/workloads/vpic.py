"""VPIC-IO: the paper's checkpoint-write kernel (§V-C1).

Each MPI process writes eight float32 properties for its particles at the
end of every timestep (256 MB per process per step in Fig. 7), with a
CPU-intensive kernel between checkpoints (the paper inserts random matrix
multiplications at 60-second intervals). The workload is write-only, so the
paper configures HCompress to prioritise compression time and ratio.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..analyzer import DataFormat, DataType, Distribution, MetadataHints
from ..errors import WorkloadError
from ..formats.records import make_particles
from ..sim import IO, Delay, RankContext, Simulation, spawn_ranks
from ..units import KiB, MiB
from .backends import IOBackend

__all__ = ["VpicConfig", "VpicRunResult", "vpic_sample", "run_vpic", "vpic_task_id"]

#: Analyzer fast-path hints for VPIC particle buffers: self-described
#: float32 properties whose momentum components dominate (normal-ish).
VPIC_HINTS = MetadataHints(
    dtype=DataType.FLOAT32,
    data_format=DataFormat.H5LITE,
    distribution=Distribution.NORMAL,
)


@dataclass(frozen=True)
class VpicConfig:
    """VPIC-IO parameters.

    Attributes:
        nprocs: MPI process count (the paper scales 320 -> 2560).
        timesteps: Checkpoint count (10 in Figs. 7/8).
        bytes_per_rank_per_step: Modeled checkpoint size per rank
            (256 MiB in Fig. 7).
        compute_seconds: CPU kernel between checkpoints (60 s).
        compute_jitter: Relative spread of per-rank compute time (real
            ranks never finish compute in lockstep; the spread is what
            lets later-arriving ranks observe storage contention).
        sample_bytes: Size of the real representative buffer each rank
            compresses (ratio measurement).
    """

    nprocs: int
    timesteps: int = 10
    bytes_per_rank_per_step: int = 256 * MiB
    compute_seconds: float = 60.0
    compute_jitter: float = 0.2
    sample_bytes: int = 64 * KiB

    def __post_init__(self) -> None:
        if self.nprocs < 1 or self.timesteps < 1:
            raise WorkloadError("nprocs and timesteps must be >= 1")
        if self.bytes_per_rank_per_step < 1:
            raise WorkloadError("bytes_per_rank_per_step must be >= 1")
        if self.sample_bytes < 1:
            raise WorkloadError("sample_bytes must be >= 1")
        if not 0.0 <= self.compute_jitter < 1.0:
            raise WorkloadError("compute_jitter must be in [0, 1)")

    @property
    def total_bytes(self) -> int:
        return self.nprocs * self.timesteps * self.bytes_per_rank_per_step


@dataclass
class VpicRunResult:
    """Outcome of one simulated VPIC-IO run."""

    config: VpicConfig
    backend_name: str
    elapsed_seconds: float
    tasks_written: int
    bytes_written: int
    stored_bytes: int
    compression_seconds_total: float = 0.0
    footprint_by_tier: dict[str, int] = field(default_factory=dict)

    @property
    def achieved_ratio(self) -> float:
        return self.bytes_written / self.stored_bytes if self.stored_bytes else 1.0

    @property
    def io_seconds(self) -> float:
        """Elapsed time minus the (serial) compute phases.

        This is the paper's Fig. 7 metric: "the I/O time for our baseline
        represents only the time required to write to the PFS for all the
        time steps" — compute intervals are excluded.
        """
        compute_total = self.config.timesteps * self.config.compute_seconds
        return max(self.elapsed_seconds - compute_total, 0.0)


def vpic_sample(nbytes: int, rng: np.random.Generator) -> bytes:
    """A real particle-record buffer of ``nbytes`` (32 B per particle)."""
    particles = max(nbytes // 32, 1)
    raw = make_particles(particles, rng).tobytes()
    if len(raw) < nbytes:
        raw += raw[: nbytes - len(raw)]
    return raw[:nbytes]


def vpic_task_id(rank: int, step: int) -> str:
    return f"vpic/r{rank}/s{step}"


def run_vpic(
    backend: IOBackend,
    config: VpicConfig,
    hierarchy,
    rng: np.random.Generator | None = None,
    trace=None,
    flush: bool = True,
    flusher=None,
) -> VpicRunResult:
    """Simulate the full VPIC-IO kernel against one backend.

    Returns elapsed simulated seconds and footprint accounting. Every rank
    shares one representative particle sample (their data is statistically
    identical), which keeps real compression work bounded.

    ``flush`` runs the asynchronous tier drainer (Hermes buffering
    semantics); it is a no-op for single-tier backends since only bounded
    upper tiers are ever drained. Pass a preconstructed ``flusher``
    (a :class:`~repro.hermes.flusher.TierFlusher`) to drain with custom
    watermarks or an observability sink; it must wrap ``hierarchy``.
    """
    from ..hermes.flusher import TierFlusher

    rng = rng if rng is not None else np.random.default_rng(0)
    sample = vpic_sample(config.sample_bytes, rng)
    sim = Simulation(hierarchy, trace=trace)
    if flush and len(hierarchy) > 1:
        if flusher is None:
            flusher = TierFlusher(hierarchy)
        sim.add_process(flusher.process(), daemon=True)
    stored_total = [0]
    tasks = [0]
    cpu_total = [0.0]

    jitter = rng.uniform(
        1.0 - config.compute_jitter,
        1.0 + config.compute_jitter,
        size=(config.nprocs, config.timesteps),
    )

    def program(ctx: RankContext):
        for step in range(config.timesteps):
            if config.compute_seconds:
                yield Delay(config.compute_seconds * jitter[ctx.rank, step])
            charge = backend.write(
                vpic_task_id(ctx.rank, step),
                config.bytes_per_rank_per_step,
                sample,
                hints=VPIC_HINTS,
            )
            stored_total[0] += charge.stored_size
            tasks[0] += 1
            cpu_total[0] += charge.cpu_seconds
            if charge.cpu_seconds:
                yield Delay(charge.cpu_seconds)
            for piece in charge.pieces:
                yield IO(piece.tier, piece.nbytes, "write")
            # ranks synchronise between timesteps, as the bulk-synchronous
            # original does
            yield from ctx.barrier()

    spawn_ranks(sim, config.nprocs, program)
    elapsed = sim.run()
    return VpicRunResult(
        config=config,
        backend_name=backend.name,
        elapsed_seconds=elapsed,
        tasks_written=tasks[0],
        bytes_written=config.total_bytes,
        stored_bytes=stored_total[0],
        compression_seconds_total=cpu_total[0],
        footprint_by_tier=hierarchy.footprint_by_tier(),
    )
