"""The whole exported surface, pinned: every family a deployment can emit.

``tests/golden/armed_telemetry.txt`` pins the hot-path pushes of one armed
engine; this pins everything else — the lifecycle and scrub daemons, the
flusher, the fault injector, QoS breakers and brownout, recovery, and a
replicated deployment's coordinator — as name / type / labels / help /
value of every series after ``sync_telemetry()`` / ``observabilities()``.

It also holds the rule the export is built on: **one writer per series**.
A value that is visible before a sync is never rewritten by it.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.core import HCompress, HCompressConfig, ObservabilityConfig
from repro.core.config import (
    QosConfig,
    RecoveryConfig,
    ScrubConfig,
)
from repro.datagen import synthetic_buffer
from repro.errors import DeadlineExceededError, TaskShedError
from repro.faults import FaultInjector
from repro.faults.latent import LatentCorruptionInjector
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.hermes.flusher import TierFlusher
from repro.lifecycle import LifecycleConfig
from repro.qos import QosClass
from repro.replication import ReplicationConfig
from repro.shard import ShardConfig, ShardedHCompress
from repro.sim import Delay
from repro.sim.clock import SimClock
from repro.tiers import ares_hierarchy, ares_specs
from repro.units import GiB, KiB, MiB

from .test_drift import UNPINNED_FAMILIES, telemetry_view

GOLDEN = Path(__file__).resolve().parent.parent / "golden/full_telemetry.txt"

TASKS = 12
TASK_BYTES = 16 * KiB


def _armed_engine(seed, directory):
    """Everything on, over tiers tight enough that placement spills (the
    lifecycle daemon has something to move) and RAM pressure takes the
    brownout ladder up its first rung — where a long dwell holds it."""
    clock = SimClock()
    total = TASKS * TASK_BYTES
    hierarchy = ares_hierarchy(total // 6, total // 3, total, nodes=1)
    engine = HCompress(
        hierarchy,
        HCompressConfig(
            observability=ObservabilityConfig(enabled=True),
            qos=QosConfig(
                enabled=True, max_backlog_bytes=1 << 40, brownout_dwell=1e6
            ),
            recovery=RecoveryConfig(
                enabled=True, directory=directory, fsync=False
            ),
            scrub=ScrubConfig(
                enabled=True, content_digests=True, verify_reads=True,
                max_brownout_level=1,
            ),
            lifecycle=LifecycleConfig(
                enabled=True, scan_interval=2.0, max_brownout_level=1
            ),
        ),
        seed=seed,
        clock=lambda: clock.now,
    )
    return engine, hierarchy, clock


def _single_engine_workload(seed, directory):
    """Writes, a hot set read until it is promoted (the cold rest is
    demoted on the way), one planted rot healed, a shed, a deadline miss
    and a deadline met, a flaky and a dark tier, a flusher drain, and a
    checkpoint/restore cycle that sweeps an orphan."""
    engine, hierarchy, clock = _armed_engine(seed, directory)
    rng = np.random.default_rng(7)
    buffers = [
        synthetic_buffer("float64", "gamma", TASK_BYTES, rng)
        for _ in range(TASKS)
    ]
    for i, data in enumerate(buffers):
        written = engine.compress(data, task_id=f"t{i}")
        clock.advance(written.io_seconds + written.compress_seconds)
    for _ in range(12):
        for task_id in ("t10", "t11"):
            clock.advance(0.5)
            read = engine.decompress(task_id)
            clock.advance(read.io_seconds + read.decompress_seconds)
        engine.lifecycle.step()
    stats = engine.lifecycle.stats
    assert stats.promotions and stats.demotions

    victim = engine.manager.task_entries("t7")[0].key
    pristine = hierarchy.find(victim).get(victim)
    engine.manager.on_corrupt = (
        lambda key, _blob: pristine if key == victim else None
    )
    LatentCorruptionInjector(hierarchy, seed=3).corrupt(1, keys={victim})
    clock.advance(10.0)
    assert [r.outcome for r in engine.scrub.step()] == ["healed"]
    assert engine.decompress("t7").data == buffers[7]

    with pytest.raises(TaskShedError):
        engine.compress(
            buffers[0], modeled_size=1 << 41, task_id="shed.0",
            qos_class=QosClass.BEST_EFFORT,
        )
    with pytest.raises(DeadlineExceededError):
        engine.compress(buffers[0], task_id="late.0", deadline=1e-12)
    engine.compress(buffers[1], task_id="ontime.0", deadline=60.0)

    injector = FaultInjector(
        FaultPlan(
            events=(
                FaultEvent(1.0, FaultKind.WRITE_ERROR_RATE, "ram", 1.0),
                FaultEvent(2.0, FaultKind.WRITE_ERROR_RATE, "ram", 0.0),
                FaultEvent(3.0, FaultKind.TIER_DOWN, "nvme"),
                FaultEvent(4.0, FaultKind.TIER_UP, "nvme"),
            ),
            seed=5,
        ),
        hierarchy,
    )
    injector.arm()
    injector.advance_to(1.0)
    engine.compress(buffers[2], task_id="flaky.0")
    injector.advance_to(3.0)
    engine.compress(buffers[3], task_id="dark.0")
    injector.advance_to(4.0)
    injector.disarm()

    flusher = TierFlusher(
        hierarchy, high_water=0.5, low_water=0.2, obs=engine.obs,
        qos=engine.qos,
    )
    polls = 0
    for event in flusher.process():
        polls += isinstance(event, Delay)
        if polls == 3:
            break
    assert flusher.stats.moves

    hierarchy.by_name("pfs").put("orphan/0", b"x")
    engine.checkpoint()
    HCompress.restore(
        directory, hierarchy, seed=seed, obs=engine.obs
    ).close()
    return engine, flusher, injector


def _replicated_workload(seed, directory):
    """Two shards x one standby; shard 0 fails over twice, so its second
    promoted engine (a fresh registry) has seen one promotion of two."""
    data = synthetic_buffer(
        "float64", "gamma", TASK_BYTES, np.random.default_rng(11)
    )
    sharded = ShardedHCompress(
        ares_specs(32 * MiB, 64 * MiB, 2 * GiB, nodes=2),
        HCompressConfig(
            observability=ObservabilityConfig(enabled=True),
            recovery=RecoveryConfig(fsync=False),
        ),
        ShardConfig(
            shards=2, directory=directory,
            replication=ReplicationConfig(
                enabled=True, promotion_seconds=0.0
            ),
        ),
        seed=seed,
    )
    tenants = [
        next(
            f"tenant-{t}" for t in range(256)
            if sharded.ring.route(f"tenant-{t}") == shard
        )
        for shard in (0, 1)
    ]
    written = 0

    def burst(rounds: int) -> None:
        nonlocal written
        for _ in range(rounds):
            for tenant in tenants:
                sharded.compress(data, task_id=f"w{written}", tenant=tenant)
                written += 1

    burst(3)
    sharded.checkpoint()
    for _ in range(2):
        burst(2)
        sharded.kill_shard(0)
        sharded.failover(0)
    burst(1)
    assert sharded.decompress("w0").data == data
    assert sharded.replication.failovers == {0: 2, 1: 0}
    return sharded


def _sync(engine, flusher, injector, sharded) -> None:
    """Bring every registry of the deployment up to date."""
    obs = engine.sync_telemetry()
    obs.mirror(flusher.stats, flusher.stats.METRICS)
    obs.mirror(injector.stats, injector.stats.METRICS)
    sharded.observabilities()


@pytest.fixture(scope="module")
def surface(seed, tmp_path_factory):
    """``(before, after, view)``: every registry's export before any sync,
    the same after, and the comparable text of the synced state."""
    engine, flusher, injector = _single_engine_workload(
        seed, tmp_path_factory.mktemp("engine")
    )
    sharded = _replicated_workload(seed, tmp_path_factory.mktemp("shards"))
    engines = {
        "engine": engine,
        "shard 0": sharded.engines[0],
        "shard 1": sharded.engines[1],
    }
    before = [e.obs.export_metrics()["metrics"] for e in engines.values()]
    _sync(engine, flusher, injector, sharded)
    after = [e.obs.export_metrics()["metrics"] for e in engines.values()]
    view = []
    for (tag, tagged), metrics in zip(engines.items(), after):
        view.append(f"== {tag}")
        view.extend(
            f"family {name} {family['type']} "
            f"labels={','.join(family['labels'])} help={family['help']}"
            for name, family in metrics.items()
            if family["series"]
        )
        view.extend(telemetry_view(tagged, UNPINNED_FAMILIES))
    yield before, after, view
    engine.close()
    sharded.close()


def test_full_telemetry_matches_its_golden(surface) -> None:
    """Regenerate on purpose with
    ``GOLDEN.write_text("\\n".join(view) + "\\n")``."""
    _before, _after, view = surface
    assert view == GOLDEN.read_text().splitlines()


def test_the_workload_reaches_every_family(surface, check_docs) -> None:
    """The golden pins only the families it contains, so it must contain
    every family ``src/repro`` declares (``tools/check_docs.py`` holds the
    metric reference to the same set)."""
    _before, after, _view = surface
    reached = {
        name
        for metrics in after
        for name, family in metrics.items()
        if family["series"]
    }
    assert reached == set(check_docs.declared_families())


def test_sync_never_rewrites_a_series(surface) -> None:
    """One writer per series: whatever a registry showed before the sync
    it shows after it. A family that is pushed at its site *and* set at
    export has two sources of truth, and they drift (the promotions
    counter of a twice-failed-over shard read 1 pushed, 2 synced)."""
    before, after, _view = surface
    rewritten = [
        f"{name}{series['labels']}"
        for was, now in zip(before, after)
        for name, family in was.items()
        for series in family["series"]
        if series not in now[name]["series"]
    ]
    assert not rewritten
