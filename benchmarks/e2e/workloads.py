"""The five workloads of the end-to-end benchmark.

Every workload is a closed loop with one client: one process, one calling
thread, the next public call issued when the previous one returned. A
*round* builds a fresh engine, runs a write phase and a read phase over
inputs that are a pure function of ``--seed``, audits the outcome
(untimed) and returns a :class:`Round`. ``README.md`` says why each
workload exists and which layer it stresses.
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from repro.core import HCompress
from repro.core.config import (
    HCompressConfig,
    LifecycleConfig,
    ObservabilityConfig,
    QosConfig,
    RecoveryConfig,
    ScrubConfig,
)
from repro.datagen import DISTRIBUTIONS, DTYPES, synthetic_buffer
from repro.errors import HCompressError
from repro.lifecycle.workload import zipf_probabilities
from repro.replication import ReplicationConfig
from repro.scrub import fsck_engine
from repro.shard import ShardConfig, ShardedHCompress, shard_dirname
from repro.sim import SimClock
from repro.tiers import ares_hierarchy, ares_specs
from repro.units import KiB, MiB, TiB
from repro.workloads import vpic_sample
from repro.workloads.vpic import VPIC_HINTS

__all__ = ["ARMED", "Round", "SIZES", "TINY", "WORKLOADS", "make_inputs"]

#: The realistically armed engine: every cross-cutting layer on, at its
#: default cadence. Brownout is off because its pressure signal is
#: worst-tier *fill*: a full RAM tier — the state HCompress exists to
#: manage — walks the ladder to skip-compression, pauses both daemons and
#: sheds BATCH tasks. The backlog cap is raised so admission control does
#: its bookkeeping but never sheds a paper-sized modeled task.
ARMED = {
    "feedback_every_n": HCompressConfig().feedback_every_n,
    "recovery": {"enabled": True, "fsync_every": 8, "fsync": False},
    "observability": {"enabled": True},
    "qos": {
        "enabled": True, "max_backlog_bytes": 2**50,
        "brownout_enabled": False,
    },
    "scrub": {"content_digests": True, "verify_reads": True},
}

BATCH = 64
TENANTS = 64

#: Round sizes. A run repeats rounds for ``--seconds``, so a round is
#: sized to a second or two: several fit in one run and their median is
#: steady. Per-task cost does not depend on the burst length.
SIZES = {
    "armed_burst": {"warmup": 256, "tasks": 6400},
    "bare_burst": {"warmup": 256, "tasks": 80_000},
    "real_mixed": {"buffers": 24, "reads": 96, "step_every": 32},
    "sharded_rw": {"warmup": 64, "iterations": 2000},
    "sharded_burst": {"warmup": 64, "tasks": 4096},
}

#: Smoke-test sizes (``--tiny``): same code paths, a fraction of a second.
TINY = {
    "armed_burst": {"warmup": 32, "tasks": 256},
    "bare_burst": {"warmup": 32, "tasks": 1024},
    "real_mixed": {"buffers": 16, "reads": 48, "step_every": 8},
    "sharded_rw": {"warmup": 16, "iterations": 96},
    "sharded_burst": {"warmup": 16, "tasks": 256},
}

#: real_mixed buffer sizes, cycled. The weights put the median call
#: inside the 64 KiB class and the 90th percentile inside the 512 KiB
#: class, instead of on a boundary between two classes 4x apart.
_MIXED_KIB = (16, 64, 256, 64, 512, 16, 64, 256)


@dataclass(eq=False)
class Round:
    """What one round measured and what its audit found."""

    setup_s: float = 0.0
    write_wall_s: float = 0.0
    write_tasks: int = 0
    write_calls_s: list[float] = field(default_factory=list)
    read_wall_s: float = 0.0
    read_tasks: int = 0
    read_calls_s: list[float] = field(default_factory=list)
    user_bytes: int = 0
    stored_bytes: int = 0
    modeled_write_s: float = 0.0
    modeled_read_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    findings: list[str] = field(default_factory=list)
    #: wall spent in daemon steps inside the read phase, per daemon
    daemon_s: dict[str, float] = field(default_factory=dict)
    #: the layers' public counters, read after the round
    counters: dict[str, float] = field(default_factory=dict)
    #: calibration laps taken at the phase boundaries (see ``lap``)
    laps: list[float] = field(default_factory=list)

    def lap(self) -> None:
        """Time the calibration loop: how fast is the host right now?

        The box this runs on shares its cores; the same pure-Python loop
        takes 5.5 ms or 8 ms depending on what the neighbours do, for
        seconds or for a quarter of an hour at a time. A lap before and
        after every phase lets ``child.py`` express the phase's wall time
        at a reference host speed.
        """
        laps = []
        for _ in range(3):
            start = time.perf_counter()
            total = 0
            for i in range(100_000):
                total += i * i
            laps.append(time.perf_counter() - start)
        self.laps.append(sorted(laps)[1])

    def setup_done(self, start: float, tracer) -> None:
        """End of set-up: the timed phases (and the tracer) start here."""
        self.setup_s = time.perf_counter() - start
        self.lap()
        if tracer is not None:
            tracer.install()

    def timed_done(self, tracer) -> None:
        """End of the timed phases: the audit runs untraced."""
        self.lap()
        if tracer is not None:
            tracer.remove()

    def fail(self, count: int, finding: str) -> None:
        self.failed += count
        if len(self.findings) < 20:
            self.findings.append(finding)


# -- configuration -------------------------------------------------------------


def armed_config(directory: Path, **extra) -> HCompressConfig:
    """An :data:`ARMED` engine config journaling into ``directory``."""
    scrub = {**ARMED["scrub"], **extra.pop("scrub", {})}
    return HCompressConfig(
        recovery=RecoveryConfig(directory=directory, **ARMED["recovery"]),
        observability=ObservabilityConfig(**ARMED["observability"]),
        qos=QosConfig(**ARMED["qos"]),
        scrub=ScrubConfig(**scrub),
        **extra,
    )


# -- inputs (a pure function of the seed) --------------------------------------


def _text(nbytes: int, rng: np.random.Generator) -> bytes:
    """Log-like prose with the shape of ``datagen.synthetic_text``, drawn
    in one vectorised pass (the original draws word by word)."""
    words = np.array(
        "pressure velocity density momentum energy particle timestep "
        "checkpoint simulation lattice plasma field flux boundary kernel "
        "tensor gradient entropy vortex domain halo exchange stencil "
        "residual solver iteration".split()
    )
    lines = nbytes // 80 + 2
    picks = words[rng.integers(0, len(words), size=(lines, 12))]
    values = rng.integers(0, 10_000, size=lines)
    text = "".join(
        f"{' '.join(row)} value={value}\n" for row, value in zip(picks, values)
    )
    return text.encode("ascii")[:nbytes]


def _burst_items(sample: bytes, count: int, tag: str, modeled: int, tenants):
    return [
        {
            "data": sample, "hints": VPIC_HINTS, "modeled_size": modeled,
            "task_id": f"{tag}.{i}",
            **({"tenant": tenants[i % len(tenants)]} if tenants else {}),
        }
        for i in range(count)
    ]


def _batches(items: list, size: int = BATCH) -> list[list]:
    return [items[i:i + size] for i in range(0, len(items), size)]


def _mixed_inputs(rng: np.random.Generator, sizes: dict) -> dict:
    """real_mixed: fixed buffers, fixed read trace, one seeded buffer.

    Which codec and tier a buffer gets sits on knife edges (a few KiB of
    tier fill decide whether the last buffers spill to the PFS), which
    blobs the lifecycle daemon moves follows from the reads before each of
    its steps, and even the wall time of a small read depends on what was
    decoded just before it. Drawn from the seed, any of these makes the
    numbers jump between seeds and none of them could be gated. So the
    buffers and the read trace — a zipf(1.1) multiset, every 4th entry a
    range read, shuffled once — are fixed, and the seed fills one last
    small buffer.
    """
    content = np.random.default_rng(0)
    buffers = {}
    for i in range(sizes["buffers"]):
        nbytes = _MIXED_KIB[i % len(_MIXED_KIB)] * KiB
        if i % 17 == 16:
            data = _text(nbytes, content)
        else:
            data = synthetic_buffer(
                DTYPES[i % 4], DISTRIBUTIONS[(i // 4) % 4], nbytes, content
            )
        buffers[f"mixed.{i}"] = data
    ids = list(buffers)
    buffers["mixed.tail"] = synthetic_buffer("float32", "normal", 4 * KiB, rng)
    shares = zipf_probabilities(len(ids), 1.1) * sizes["reads"]
    counts = np.floor(shares).astype(int)
    counts[: sizes["reads"] - counts.sum()] += 1
    trace = [
        (task_id, index % 4 == 3)
        for index, task_id in enumerate(
            task_id for task_id, n in zip(ids, counts) for _ in range(n)
        )
    ]
    return {
        "buffers": buffers,
        "reads": [trace[i] for i in content.permutation(len(trace))],
    }


def make_inputs(name: str, seed: int, sizes: dict) -> dict:
    """Everything a round of ``name`` feeds the engine, from ``seed``."""
    rng = np.random.default_rng(seed)
    if name == "real_mixed":
        return _mixed_inputs(rng, sizes)

    sample = vpic_sample(64 * KiB, rng)
    # The modeled clock is deterministic: without something seeded in the
    # burst's shape the makespans would read the same on every seed.
    extra = int(rng.integers(0, 16))
    tenants = None
    if name.startswith("sharded"):
        # Fixed striping: which shard owns the hot keys sets the modeled
        # makespans, and that must not be a seed lottery.
        tenants = [f"tenant-{t}" for t in range(TENANTS)]
    modeled = 4 * MiB if name == "sharded_rw" else 8 * MiB
    inputs = {
        "warmup": _burst_items(
            sample, sizes["warmup"], "warm", modeled, tenants
        ),
    }
    if name == "sharded_rw":
        count = sizes["iterations"] + extra
        inputs["writes"] = _burst_items(sample, count, "rw", modeled, tenants)
        # zipf(1.3)-recent: rank 1 is the task just written. The tail
        # wraps around the tasks written so far — clamping it would pile
        # the reads on task 0 and make its shard's load a seed lottery.
        # The trace is fixed for the same reason as the tenant striping.
        back = np.random.default_rng(0).zipf(1.3, size=count) - 1
        back %= np.arange(count) + 1
        inputs["reads"] = [f"rw.{i - int(b)}" for i, b in enumerate(back)]
    else:
        inputs["writes"] = _burst_items(
            sample, sizes["tasks"] + extra, "burst", modeled, tenants
        )
    return inputs


# -- timing --------------------------------------------------------------------


@contextmanager
def quiesced():
    """Collect up front, then keep the collector out of the timed phase:
    GC pauses land at arbitrary points and are the dominant noise."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _timed_calls(fn, calls: list[list], round_: Round):
    """Issue ``fn(call)`` for every batch; returns (wall, latencies,
    results). A call that raises a typed error fails all its tasks."""
    perf = time.perf_counter
    latencies: list[float] = []
    results: list = []
    with quiesced():
        begin = perf()
        for call in calls:
            start = perf()
            try:
                results.append(fn(call))
            except HCompressError as exc:
                results.append(None)
                round_.fail(len(call), f"{type(exc).__name__}: {exc}")
            latencies.append(perf() - start)
        wall = perf() - begin
    return wall, latencies, results


# -- audit (untimed) -----------------------------------------------------------


def _check_modeled_reads(writes: dict, reads: list, round_: Round) -> None:
    """Modeled reads carry no bytes: check identity, size, piece count."""
    for read in reads:
        written = writes.get(read.task_id)
        if (
            written is None
            or read.modeled_size != written.task.size
            or read.pieces != len(written.pieces)
        ):
            round_.fail(1, f"read of {read.task_id!r} does not match its write")


def _audit_engine(
    engine: HCompress, config: HCompressConfig, seed, acked: set[str],
    round_: Round, label: str = "engine",
) -> None:
    """fsck the live engine, close it, and — when it journals — rebuild
    the catalog from its recovery directory and compare to what was acked.
    """
    report = fsck_engine(engine)
    round_.attempted += 1
    for finding in report.findings:
        round_.fail(1, f"{label} fsck {finding.check}: {finding.detail}")
    engine.close()
    if engine.journal is None:
        return
    round_.attempted += 1
    restored = HCompress.restore(
        config.recovery.directory, engine.hierarchy, config, seed=seed
    )
    try:
        recovered = set(restored.manager.task_ids())
    finally:
        restored.close()
    if recovered != acked:
        round_.fail(
            1,
            f"{label} restore: {len(acked - recovered)} acked tasks lost, "
            f"{len(recovered - acked)} unacked tasks present",
        )


# -- public counters -----------------------------------------------------------


def _ratio(hits: float, misses: float) -> float:
    total = hits + misses
    return hits / total if total else 0.0


def _counters(engines: list[HCompress], tasks_written: int) -> dict:
    """The layers' public counters, summed over the engines of a round
    (read after close, so the journal totals are final)."""
    total = lambda get: sum(get(e) for e in engines)  # noqa: E731
    journals = [e.journal for e in engines if e.journal is not None]
    qos = [e.qos.admission for e in engines if e.qos is not None]
    obs = [e.obs.tracer for e in engines if e.obs is not None]
    lifecycle = [e.lifecycle.stats for e in engines if e.lifecycle is not None]
    scrub = [e.scrub.stats for e in engines if e.scrub is not None]
    return {
        "ccp.refits": total(lambda e: e.feedback.flushes),
        "ccp.table_cache_hit_ratio": _ratio(
            total(lambda e: e.predictor.table_cache_hits),
            total(lambda e: e.predictor.table_cache_misses),
        ),
        "ccp.feedback_events": total(lambda e: e.feedback.events),
        "monitor.samples": total(lambda e: e.monitor.samples_taken),
        "hcdp.plan_cache_hit_ratio": _ratio(
            total(lambda e: e.engine.stats.plan_cache_hits),
            total(lambda e: e.engine.stats.plan_cache_misses),
        ),
        "hcdp.memo_hit_ratio": _ratio(
            total(lambda e: e.engine.stats.memo_hits),
            total(lambda e: e.engine.stats.memo_misses),
        ),
        "hcdp.replans": total(lambda e: e.replans),
        "qos.admitted": sum(a.admitted for a in qos),
        "qos.shed": sum(a.shed for a in qos),
        "core.manager.sample_cache_hit_ratio": _ratio(
            total(lambda e: e.manager.sample_cache_hits),
            total(lambda e: e.manager.sample_cache_misses),
        ),
        "core.manager.spill_events": total(lambda e: e.manager.spill_events),
        "core.manager.parallel_pieces": total(
            lambda e: e.manager.parallel_pieces
        ),
        "core.shi.retries": total(lambda e: e.shi.stats.retries),
        "core.shi.failovers": total(lambda e: e.shi.stats.failovers),
        "recovery.records_per_task": (
            sum(j.records_appended for j in journals) / tasks_written
        ),
        "recovery.bytes_per_task": (
            sum(j.bytes_synced for j in journals) / tasks_written
        ),
        "recovery.syncs": sum(j.syncs for j in journals),
        "obs.spans_recorded": sum(len(t.spans) + t.dropped for t in obs),
        "lifecycle.steps": sum(s.scans for s in lifecycle),
        "lifecycle.migrations": sum(len(s.migrations) for s in lifecycle),
        "lifecycle.bytes_moved": sum(s.bytes_moved for s in lifecycle),
        # a migration that loses its race with capacity re-encodes, then
        # rolls back: attempts that were not wasted
        "lifecycle.useful_migration_share": _ratio(
            sum(len(s.migrations) for s in lifecycle),
            sum(s.failed for s in lifecycle),
        ),
        "scrub.steps": sum(s.steps for s in scrub),
        "scrub.bytes_scanned": sum(s.bytes_scanned for s in scrub),
        # filled in by the sharded workloads
        "replication.shipped_records": 0,
        "replication.shipped_bytes_per_task": 0.0,
        "replication.max_lag": 0,
        "shard.task_imbalance": 0.0,
    }


def _placement(writes, footprint: dict[str, int]) -> dict:
    """What the write phase decided: codecs per piece, bytes per tier."""
    codecs = [piece.plan.codec for w in writes for piece in w.pieces]
    compressed = [codec for codec in codecs if codec != "none"]
    return {
        "codecs.distinct_selected": len(set(compressed)),
        "codecs.nonidentity_piece_share": len(compressed) / len(codecs),
        **{
            f"tiers.bytes_stored.{tier}": footprint.get(tier, 0)
            for tier in ("ram", "nvme", "burst_buffer", "pfs")
        },
    }


# -- the burst workloads (one engine) ------------------------------------------


def _burst(
    inputs: dict, seed, workdir: Path, sizes: dict, tracer=None, *, armed: bool
) -> Round:
    round_ = Round()
    round_.lap()
    perf = time.perf_counter
    start = perf()
    hierarchy = ares_hierarchy(64 * MiB, 128 * MiB, 1 * TiB, nodes=2)
    config = armed_config(workdir) if armed else HCompressConfig()
    engine = HCompress(hierarchy, config, seed=seed)
    if armed:
        engine.checkpoint()
    for batch in _batches(inputs["warmup"]):
        engine.compress_batch(batch)
    round_.setup_done(start, tracer)

    items = inputs["writes"]
    calls = _batches(items)
    round_.write_wall_s, round_.write_calls_s, written = _timed_calls(
        engine.compress_batch, calls, round_
    )
    writes = {w.task.task_id: w for batch in written if batch for w in batch}
    round_.write_tasks = len(writes)
    round_.modeled_write_s = sum(
        w.compress_seconds + w.io_seconds for w in writes.values()
    )
    round_.user_bytes = sum(
        item["modeled_size"] for item in inputs["warmup"] + items
    )
    round_.stored_bytes = hierarchy.total_used()
    footprint = hierarchy.footprint_by_tier()
    round_.lap()

    id_calls = _batches([item["task_id"] for item in items])
    round_.read_wall_s, round_.read_calls_s, read_back = _timed_calls(
        engine.decompress_batch, id_calls, round_
    )
    reads = [r for batch in read_back if batch for r in batch]
    round_.read_tasks = len(reads)
    round_.modeled_read_s = sum(
        r.decompress_seconds + r.io_seconds for r in reads
    )
    round_.attempted = 2 * len(items)
    round_.timed_done(tracer)

    _check_modeled_reads(writes, reads, round_)
    acked = set(writes) | {item["task_id"] for item in inputs["warmup"]}
    _audit_engine(engine, config, seed, acked, round_)
    round_.counters = {
        **_counters([engine], len(acked)),
        **_placement(writes.values(), footprint),
    }
    return round_


# -- real bytes, daemons beside the reads --------------------------------------


def real_mixed(
    inputs: dict, seed, workdir: Path, sizes: dict, tracer=None
) -> Round:
    round_ = Round()
    round_.lap()
    perf = time.perf_counter
    buffers: dict[str, bytes] = inputs["buffers"]
    start = perf()
    # Tight tiers: the data is ~1.6x what the three bounded tiers hold.
    total = sum(len(data) for data in buffers.values())
    unit = total // 45
    hierarchy = ares_hierarchy(4 * unit, 8 * unit, 16 * unit, nodes=2)
    clock = SimClock()
    config = armed_config(
        workdir,
        lifecycle=LifecycleConfig(enabled=True, scan_interval=0.0),
        scrub={
            "enabled": True, "scan_interval": 0.0,
            "bytes_per_step": 256 * KiB,
        },
    )
    engine = HCompress(hierarchy, config, seed=seed, clock=lambda: clock.now)
    engine.checkpoint()
    round_.setup_done(start, tracer)

    writes = {}
    with quiesced():
        begin = perf()
        for task_id, data in buffers.items():
            call = perf()
            try:
                written = engine.compress(data, task_id=task_id)
            except HCompressError as exc:
                round_.fail(1, f"{type(exc).__name__}: {exc}")
            else:
                writes[task_id] = written
                modeled = written.compress_seconds + written.io_seconds
                round_.modeled_write_s += modeled
                clock.advance(modeled)
            round_.write_calls_s.append(perf() - call)
        round_.write_wall_s = perf() - begin
    round_.write_tasks = len(writes)
    round_.user_bytes = total
    round_.stored_bytes = hierarchy.total_used()
    footprint = hierarchy.footprint_by_tier()
    round_.lap()

    daemons = {"lifecycle": 0.0, "scrub": 0.0}
    with quiesced():
        begin = perf()
        for index, (task_id, ranged) in enumerate(inputs["reads"]):
            source = buffers[task_id]
            call = perf()
            try:
                if ranged:
                    lo, span = len(source) // 4, len(source) // 8
                    read = engine.decompress(task_id, offset=lo, length=span)
                    expected = source[lo:lo + span]
                else:
                    read = engine.decompress(task_id)
                    expected = source
            except HCompressError as exc:
                round_.fail(1, f"{type(exc).__name__}: {exc}")
            else:
                round_.read_tasks += 1
                modeled = read.decompress_seconds + read.io_seconds
                round_.modeled_read_s += modeled
                clock.advance(modeled)
                if read.data != expected:
                    round_.fail(1, f"read of {task_id!r} is not byte-identical")
            round_.read_calls_s.append(perf() - call)
            if index % sizes["step_every"] == sizes["step_every"] - 1:
                step = perf()
                engine.lifecycle.step()
                daemons["lifecycle"] += perf() - step
                step = perf()
                engine.scrub.step()
                daemons["scrub"] += perf() - step
        round_.read_wall_s = perf() - begin
    round_.timed_done(tracer)
    round_.daemon_s = daemons
    round_.attempted = len(buffers) + len(inputs["reads"])
    if engine.scrub.stats.corruptions:
        round_.fail(
            engine.scrub.stats.corruptions, "scrubber found corruption"
        )

    _audit_engine(engine, config, seed, set(writes), round_)
    round_.counters = {
        **_counters([engine], len(writes)),
        **_placement(writes.values(), footprint),
    }
    return round_


# -- the sharded workloads -----------------------------------------------------


def _sharded(shards: int, nodes: int, workdir: Path, seed):
    config = armed_config(workdir)
    shard_config = ShardConfig(
        shards=shards, directory=workdir,
        replication=ReplicationConfig(enabled=True, replicas=1),
    )
    specs = ares_specs(64 * MiB, 128 * MiB, 1 * TiB, nodes=nodes)
    return ShardedHCompress(specs, config, shard_config, seed=seed), config


def _modeled_makespans(
    sharded: ShardedHCompress, items: list[dict], writes: dict, reads: list,
    round_: Round,
) -> None:
    """Modeled makespan per phase: the busiest shard's service seconds."""
    tenant = {item["task_id"]: item["tenant"] for item in items}
    wrote = [0.0] * sharded.shards
    for task_id, w in writes.items():
        shard = sharded.shard_of(task_id, tenant[task_id])
        wrote[shard] += w.compress_seconds + w.io_seconds
    read = [0.0] * sharded.shards
    for r in reads:
        shard = sharded.shard_of(r.task_id, tenant[r.task_id])
        read[shard] += r.decompress_seconds + r.io_seconds
    round_.modeled_write_s = max(wrote)
    round_.modeled_read_s = max(read)


def _audit_sharded(
    sharded: ShardedHCompress, config, seed, items: list[dict],
    acked: set[str], round_: Round,
) -> dict:
    """Per-shard audit plus the routing and shipping counters."""
    coordinator = sharded.replication
    engines = [sharded.engines[k] for k in range(sharded.shards)]
    hierarchies = dict(sharded.hierarchies)
    per_shard = sharded.task_count_by_shard()
    lag = max(
        (max(coordinator.lag(k).values()) for k in range(sharded.shards)),
        default=0,
    )
    owned: dict[int, set[str]] = {k: set() for k in range(sharded.shards)}
    for item in items:
        if item["task_id"] in acked:
            owned[sharded.shard_of(item["task_id"], item["tenant"])].add(
                item["task_id"]
            )
    reports = {k: fsck_engine(engine) for k, engine in enumerate(engines)}
    sharded.close()
    shipped_bytes = sum(
        replica.journal_path.stat().st_size
        for replicas in coordinator.standbys.values()
        for replica in replicas
    )
    for k, engine in enumerate(engines):
        round_.attempted += 1
        for finding in reports[k].findings:
            round_.fail(1, f"shard {k} fsck {finding.check}: {finding.detail}")
        round_.attempted += 1
        appended = engine.journal.records_appended
        if coordinator.shipped_records[k] != appended:
            round_.fail(
                1,
                f"shard {k}: {coordinator.shipped_records[k]} records "
                f"shipped, {appended} journaled",
            )
        shard_config = replace(
            config,
            recovery=replace(
                config.recovery,
                directory=Path(config.recovery.directory) / shard_dirname(k),
            ),
        )
        round_.attempted += 1
        restored = HCompress.restore(
            shard_config.recovery.directory, hierarchies[k], shard_config,
            seed=seed,
        )
        try:
            recovered = set(restored.manager.task_ids())
        finally:
            restored.close()
        if recovered != owned[k]:
            round_.fail(1, f"shard {k} restore does not hold its acked tasks")
    counts = list(per_shard.values())
    counters = _counters(engines, len(acked))
    counters.update({
        "replication.shipped_records": sum(
            coordinator.shipped_records.values()
        ),
        "replication.shipped_bytes_per_task": shipped_bytes / len(acked),
        "replication.max_lag": lag,
        "shard.task_imbalance": max(counts) / (sum(counts) / len(counts)),
    })
    return counters


def sharded_rw(
    inputs: dict, seed, workdir: Path, sizes: dict, tracer=None
) -> Round:
    round_ = Round()
    round_.lap()
    perf = time.perf_counter
    start = perf()
    sharded, config = _sharded(4, 4, workdir, seed)
    for item in inputs["warmup"]:
        sharded.compress(**item)
    round_.setup_done(start, tracer)

    items, read_ids = inputs["writes"], inputs["reads"]
    writes: dict = {}
    reads: list = []
    compress, decompress = sharded.compress, sharded.decompress
    with quiesced():
        for item, read_id in zip(items, read_ids):
            call = perf()
            try:
                writes[item["task_id"]] = compress(**item)
            except HCompressError as exc:
                round_.fail(1, f"{type(exc).__name__}: {exc}")
            round_.write_calls_s.append(perf() - call)
            call = perf()
            try:
                reads.append(decompress(read_id))
            except HCompressError as exc:
                round_.fail(1, f"{type(exc).__name__}: {exc}")
            round_.read_calls_s.append(perf() - call)
    round_.timed_done(tracer)
    round_.write_wall_s = sum(round_.write_calls_s)
    round_.read_wall_s = sum(round_.read_calls_s)
    round_.write_tasks = len(writes)
    round_.read_tasks = len(reads)
    round_.attempted = 2 * len(items)
    _modeled_makespans(sharded, items, writes, reads, round_)
    round_.user_bytes = sum(
        item["modeled_size"] for item in inputs["warmup"] + items
    )
    footprint = sharded.footprint_by_tier()
    round_.stored_bytes = sum(footprint.values())

    _check_modeled_reads(writes, reads, round_)
    acked = set(writes) | {item["task_id"] for item in inputs["warmup"]}
    round_.counters = {
        **_audit_sharded(
            sharded, config, seed, inputs["warmup"] + items, acked, round_
        ),
        **_placement(writes.values(), footprint),
    }
    return round_


def sharded_burst(
    inputs: dict, seed, workdir: Path, sizes: dict, tracer=None
) -> Round:
    round_ = Round()
    round_.lap()
    perf = time.perf_counter
    start = perf()
    sharded, config = _sharded(8, 4, workdir, seed)
    for batch in _batches(inputs["warmup"]):
        sharded.compress_batch(batch)
    round_.setup_done(start, tracer)

    items = inputs["writes"]
    calls = _batches(items)
    round_.write_wall_s, round_.write_calls_s, written = _timed_calls(
        sharded.compress_batch, calls, round_
    )
    writes = {w.task.task_id: w for batch in written if batch for w in batch}
    round_.write_tasks = len(writes)
    round_.user_bytes = sum(
        item["modeled_size"] for item in inputs["warmup"] + items
    )
    footprint = sharded.footprint_by_tier()
    round_.stored_bytes = sum(footprint.values())
    round_.lap()

    id_calls = _batches([item["task_id"] for item in items])
    round_.read_wall_s, round_.read_calls_s, read_back = _timed_calls(
        sharded.decompress_batch, id_calls, round_
    )
    reads = [r for batch in read_back if batch for r in batch]
    round_.read_tasks = len(reads)
    round_.attempted = 2 * len(items)
    round_.timed_done(tracer)
    _modeled_makespans(sharded, items, writes, reads, round_)

    _check_modeled_reads(writes, reads, round_)
    acked = set(writes) | {item["task_id"] for item in inputs["warmup"]}
    round_.counters = {
        **_audit_sharded(
            sharded, config, seed, inputs["warmup"] + items, acked, round_
        ),
        **_placement(writes.values(), footprint),
    }
    return round_


WORKLOADS = {
    "armed_burst": partial(_burst, armed=True),
    "bare_burst": partial(_burst, armed=False),
    "real_mixed": real_mixed,
    "sharded_rw": sharded_rw,
    "sharded_burst": sharded_burst,
}
