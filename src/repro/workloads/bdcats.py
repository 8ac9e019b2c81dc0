"""BD-CATS-IO: the paper's analysis-read kernel (§V-C2).

BD-CATS reads the particle properties VPIC produced and runs a parallel
clustering algorithm over them. The I/O kernel is read-dominated: every
rank reads back the datasets of every timestep, then spends CPU time in
clustering. Sequenced after VPIC-IO it forms the paper's read-after-write
workflow (Fig. 8).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import WorkloadError
from ..sim import IO, Delay, RankContext, Simulation, spawn_ranks
from .backends import IOBackend
from .vpic import vpic_task_id

__all__ = ["BdcatsConfig", "BdcatsRunResult", "run_bdcats"]


@dataclass(frozen=True)
class BdcatsConfig:
    """BD-CATS-IO parameters.

    Attributes:
        nprocs: Reader process count (matches the producer's in the paper).
        timesteps: Timesteps to read back.
        cluster_seconds: CPU time of the clustering pass per timestep.
    """

    nprocs: int
    timesteps: int = 10
    cluster_seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.nprocs < 1 or self.timesteps < 1:
            raise WorkloadError("nprocs and timesteps must be >= 1")


@dataclass
class BdcatsRunResult:
    """Outcome of one simulated BD-CATS-IO run."""

    config: BdcatsConfig
    backend_name: str
    elapsed_seconds: float
    tasks_read: int
    bytes_read: int
    read_by_tier: dict[str, int] = field(default_factory=dict)


def run_bdcats(
    backend: IOBackend,
    config: BdcatsConfig,
    hierarchy,
    trace=None,
    flush: bool = True,
) -> BdcatsRunResult:
    """Simulate BD-CATS reading the VPIC output through one backend.

    Assumes :func:`repro.workloads.vpic.run_vpic` already populated the
    backend with ``vpic/r{rank}/s{step}`` tasks for the same (nprocs,
    timesteps) grid.
    """
    from ..hermes.flusher import TierFlusher

    sim = Simulation(hierarchy, trace=trace)
    if flush and len(hierarchy) > 1:
        sim.add_process(TierFlusher(hierarchy).process(), daemon=True)
    tasks = [0]
    bytes_read = [0]
    read_by_tier: dict[str, int] = {}

    def program(ctx: RankContext):
        for step in range(config.timesteps):
            charge = backend.read(vpic_task_id(ctx.rank, step))
            tasks[0] += 1
            bytes_read[0] += charge.io_bytes
            for piece in charge.pieces:
                read_by_tier[piece.tier] = (
                    read_by_tier.get(piece.tier, 0) + piece.nbytes
                )
                yield IO(piece.tier, piece.nbytes, "read")
            if charge.cpu_seconds:
                yield Delay(charge.cpu_seconds)
            if config.cluster_seconds:
                yield Delay(config.cluster_seconds)
            yield from ctx.barrier()  # synchronise between timesteps

    spawn_ranks(sim, config.nprocs, program)
    elapsed = sim.run()
    return BdcatsRunResult(
        config=config,
        backend_name=backend.name,
        elapsed_seconds=elapsed,
        tasks_read=tasks[0],
        bytes_read=bytes_read[0],
        read_by_tier=read_by_tier,
    )
