"""The two daemon traces the relocation ledger and the encode budget pin.

(a) ``run_mixed``: the end-to-end benchmark's ``real_mixed`` round, rebuilt
from the library alone — 24 fixed buffers cycling 4 dtypes x 4
distributions x 8 sizes (one of them text) plus one small tail buffer,
written per task onto tiers ~1.6x too small for them, then a fixed
zipf(1.1) read trace with the lifecycle and scrub daemons stepped beside
the reads. (b) ``run_zipf_trace(ZipfTraceConfig())``: the trace behind
``hcompress lifecycle`` and ``bench_lifecycle.py``.

``recorded`` runs one of them with every ``CompressionManager.relocate``
call written down — what it was asked, whether it landed, the bytes it
placed — and every codec ``compress`` call made underneath it counted.
"""

from __future__ import annotations

import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
import pytest

from repro.codecs import iter_codecs
from repro.core import HCompress, HCompressConfig, ObservabilityConfig
from repro.core.config import QosConfig, RecoveryConfig, ScrubConfig
from repro.core.manager import CompressionManager
from repro.datagen import DISTRIBUTIONS, DTYPES, synthetic_buffer, synthetic_text
from repro.lifecycle import LifecycleConfig, LifecycleDaemon
from repro.lifecycle.workload import (
    ZipfTraceConfig,
    run_zipf_trace,
    zipf_probabilities,
)
from repro.sim.clock import SimClock
from repro.tiers import ares_hierarchy
from repro.units import KiB

BUFFERS = 24
READS = 96
STEP_EVERY = 32
_MIXED_KIB = (16, 64, 256, 64, 512, 16, 64, 256)


@dataclass
class Recording:
    """What the ``relocate`` calls of one trace did."""

    lines: list[str] = field(default_factory=list)  # one per relocate call
    relocations: int = 0
    encodes: int = 0  # codec compress calls made under relocate
    landed_reencodes: int = 0  # pieces placed under a codec they did not have
    #: attempts that ran a codec and placed nothing: "step/task"
    encoded_then_refused: list[str] = field(default_factory=list)
    refused: dict = field(default_factory=dict)  # the manager's reason counter
    #: the trace's modeled result: read wait (a), dollar bill (b)
    outcome: float = 0.0


def _names(tiers) -> str:
    return "+".join(dict.fromkeys(t if isinstance(t, str) else t.spec.name
                                  for t in tiers))


@contextmanager
def recorded():
    """Patch ``relocate`` (and every codec's ``compress``) class-wide for
    the duration; yields the :class:`Recording` being filled."""
    recording = Recording()
    step = 0
    depth = 0
    relocate = CompressionManager.relocate
    migrate = LifecycleDaemon._migrate

    def counting(compress):
        def counted(data):
            if depth:
                recording.encodes += 1
            return compress(data)
        return counted

    def _migrate(daemon, plan):
        nonlocal step
        step = daemon.stats.scans
        return migrate(daemon, plan)

    def _relocate(manager, task_id, moves, *, cause):
        nonlocal depth
        hierarchy = manager.shi.hierarchy
        old = manager.task_entries(task_id)
        src = _names(hierarchy.find(old[m.index].key) for m in moves)
        codecs = "+".join(dict.fromkeys(old[m.index].codec for m in moves))
        wanted = "+".join(
            dict.fromkeys(m.codec or old[m.index].codec for m in moves)
        )
        encodes = recording.encodes
        depth += 1
        try:
            done = relocate(manager, task_id, moves, cause=cause)
        finally:
            depth -= 1
        recording.relocations += 1
        head = f"step={step} {task_id} {cause}"
        if done is None:
            dst = _names(m.targets[0] for m in moves)
            recording.lines.append(
                f"{head} {src}->{dst} {codecs}->{wanted} refused"
            )
            if recording.encodes > encodes:
                recording.encoded_then_refused.append(f"{step}/{task_id}")
        else:
            crcs = ",".join(
                f"{zlib.crc32(hierarchy.find(key).get(key)):08x}"
                for key in done.keys
            )
            recording.lines.append(
                f"{head} {src}->{_names(done.tiers)} {codecs}->{wanted} "
                f"landed bytes={done.bytes_moved} crc={crcs}"
            )
            new = manager.task_entries(task_id)
            recording.landed_reencodes += sum(
                new[m.index].codec != old[m.index].codec for m in moves
            )
        recording.refused = dict(manager.relocations_refused)
        return done

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CompressionManager, "relocate", _relocate)
        patch.setattr(LifecycleDaemon, "_migrate", _migrate)
        for codec in iter_codecs():
            patch.setattr(codec, "compress", counting(codec.compress))
        yield recording


def mixed_inputs() -> tuple[dict[str, bytes], list[tuple[str, bool]]]:
    """(buffers, read trace): fixed bytes, a fixed zipf(1.1) multiset of
    reads, every 4th a range read, shuffled once."""
    content = np.random.default_rng(0)
    buffers = {}
    for i in range(BUFFERS):
        nbytes = _MIXED_KIB[i % len(_MIXED_KIB)] * KiB
        if i % 17 == 16:
            data = synthetic_text(nbytes, content)
        else:
            data = synthetic_buffer(
                DTYPES[i % 4], DISTRIBUTIONS[(i // 4) % 4], nbytes, content
            )
        buffers[f"mixed.{i}"] = data
    ids = list(buffers)
    buffers["mixed.tail"] = synthetic_buffer(
        "float32", "normal", 4 * KiB, np.random.default_rng(7)
    )
    counts = np.floor(zipf_probabilities(len(ids), 1.1) * READS).astype(int)
    counts[: READS - counts.sum()] += 1
    trace = [
        (task_id, index % 4 == 3)
        for index, task_id in enumerate(
            task_id for task_id, n in zip(ids, counts) for _ in range(n)
        )
    ]
    return buffers, [trace[i] for i in content.permutation(len(trace))]


def mixed_engine(seed, directory, buffers) -> tuple[HCompress, SimClock]:
    """The armed engine of the trace, its buffers written."""
    unit = sum(len(data) for data in buffers.values()) // 45
    clock = SimClock()
    engine = HCompress(
        ares_hierarchy(4 * unit, 8 * unit, 16 * unit, nodes=2),
        HCompressConfig(
            recovery=RecoveryConfig(
                enabled=True, directory=directory, fsync_every=8, fsync=False
            ),
            observability=ObservabilityConfig(enabled=True),
            qos=QosConfig(
                enabled=True, max_backlog_bytes=2**50, brownout_enabled=False
            ),
            scrub=ScrubConfig(
                enabled=True, scan_interval=0.0, bytes_per_step=256 * KiB,
                content_digests=True, verify_reads=True,
            ),
            lifecycle=LifecycleConfig(enabled=True, scan_interval=0.0),
        ),
        seed=seed,
        clock=lambda: clock.now,
    )
    engine.checkpoint()
    for task_id, data in buffers.items():
        written = engine.compress(data, task_id=task_id)
        clock.advance(written.compress_seconds + written.io_seconds)
    return engine, clock


def run_mixed(seed, directory) -> float:
    """Trace (a); returns the modeled seconds its reads waited."""
    buffers, reads = mixed_inputs()
    engine, clock = mixed_engine(seed, directory, buffers)
    modeled_read = 0.0
    for index, (task_id, ranged) in enumerate(reads):
        source = buffers[task_id]
        if ranged:
            lo, span = len(source) // 4, len(source) // 8
            read = engine.decompress(task_id, offset=lo, length=span)
            assert read.data == source[lo:lo + span]
        else:
            read = engine.decompress(task_id)
            assert read.data == source
        modeled = read.decompress_seconds + read.io_seconds
        modeled_read += modeled
        clock.advance(modeled)
        if index % STEP_EVERY == STEP_EVERY - 1:
            engine.lifecycle.step()
            engine.scrub.step()
    assert not engine.scrub.stats.corruptions
    engine.close()
    return modeled_read


def run_traces(seed, directory) -> dict[str, Recording]:
    """Both traces, recorded: ``{"real_mixed": ..., "zipf": ...}``."""
    with recorded() as mixed:
        mixed.outcome = run_mixed(seed, directory)
    with recorded() as zipf:
        zipf.outcome = run_zipf_trace(ZipfTraceConfig(), seed=seed).total_dollars
    return {"real_mixed": mixed, "zipf": zipf}
