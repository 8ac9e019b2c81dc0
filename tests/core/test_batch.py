"""Unit tests for the batched hot path's building blocks.

The end-to-end byte-identity guarantee lives in
``test_batch_equivalence.py``; this file pins the contracts of the
pieces it is assembled from: the feedback loop's bulk record, the
tier's all-or-nothing ``put_many``, batch input validation, and the
duplicate-task-id error surface.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ccp import (
    CompressionCostPredictor,
    CostObservation,
    FeedbackLoop,
    ObservationKey,
)
from repro.core import HCompress
from repro.core.config import (
    HCompressConfig,
    LifecycleConfig,
    ObservabilityConfig,
    QosConfig,
)
from repro.errors import (
    CapacityError,
    HCompressError,
    SchemaError,
    TierError,
    TierUnavailableError,
)
from repro.hcdp import IOTask
from repro.shard import ShardConfig, ShardedHCompress
from repro.tiers import Tier, TierSpec, ares_hierarchy, ares_specs
from repro.units import KiB, MiB
from repro.workloads import vpic_sample
from repro.workloads.vpic import VPIC_HINTS


# -- FeedbackLoop.record_run --------------------------------------------------


def _loop(seed, every_n: int) -> FeedbackLoop:
    predictor = CompressionCostPredictor()
    predictor.fit_seed(seed.observations)
    return FeedbackLoop(predictor, every_n=every_n)


def _obs(seed, n: int) -> list[CostObservation]:
    del seed
    return [
        CostObservation(
            key=ObservationKey("float64", "binary", "gamma", "zlib", 65536),
            compress_mbps=30.0 + i,
            decompress_mbps=400.0,
            ratio=2.0,
        )
        for i in range(n)
    ]


@pytest.mark.parametrize("per_task,count", [(1, 5), (2, 3), (3, 1), (1, 0)])
def test_record_run_below_cadence_matches_per_record(
    seed, per_task: int, count: int
) -> None:
    observations = _obs(seed, per_task)
    bulk, loop = _loop(seed, every_n=64), _loop(seed, every_n=64)
    flushed = bulk.record_run(observations, count)
    ref = False
    for _ in range(count):
        for obs in observations:
            ref = loop.record(obs) or ref
    assert flushed == ref is False
    assert bulk.pending == loop.pending
    assert bulk.events == loop.events
    assert bulk._pending == loop._pending  # same objects, same order


def test_record_run_crossing_cadence_flushes_at_sequential_points(
    seed,
) -> None:
    observations = _obs(seed, 2)
    bulk, loop = _loop(seed, every_n=5), _loop(seed, every_n=5)
    assert bulk.record_run(observations, 4) is True
    ref = False
    for _ in range(4):
        for obs in observations:
            ref = loop.record(obs) or ref
    assert ref is True
    assert bulk.flushes == loop.flushes
    assert bulk.pending == loop.pending
    assert bulk.events == loop.events


# -- Tier.put_many ------------------------------------------------------------


def _tier(capacity=1 * MiB, name="t") -> Tier:
    return Tier(TierSpec(name=name, capacity=capacity, bandwidth=1e9,
                         latency=1e-6, lanes=2))


def test_put_many_matches_sequential_puts() -> None:
    batch, seq = _tier(), _tier()
    items = [(f"k{i}", None, 1000 + i) for i in range(8)]
    extents = batch.put_many(items)
    for key, payload, size in items:
        seq.put(key, payload, size)
    assert batch.used == seq.used
    assert extents == [seq.extent(key) for key, _, _ in items]


def test_put_many_stores_payloads() -> None:
    tier = _tier()
    items = [(f"k{i}", bytes([i]) * 100, None) for i in range(4)]
    tier.put_many(items)
    for key, payload, _ in items:
        assert tier.get(key) == payload
    # mixed payload/accounting batches take the per-item path
    tier.put_many([("m0", b"x" * 10, None), ("m1", None, 5)])
    assert tier.get("m0") == b"x" * 10
    assert tier.extent("m1").has_payload is False


@pytest.mark.parametrize(
    "items,error",
    [
        ([("a", None, 10), ("a", None, 10)], TierError),  # dup inside batch
        ([("held", None, 10)], TierError),  # dup against the tier
        ([("a", None, 10), ("b", None, None)], TierError),  # size required
        ([("a", None, 10), ("b", None, -1)], TierError),  # negative size
        ([("a", None, 2 * MiB)], CapacityError),  # total does not fit
    ],
)
def test_put_many_is_all_or_nothing(items, error) -> None:
    tier = _tier()
    tier.put("held", None, 10)
    used = tier.used
    with pytest.raises(error):
        tier.put_many(items)
    assert tier.used == used
    assert all(
        key == "held" or key not in tier for key, _, _ in items
    )


def test_put_many_unavailable_tier() -> None:
    tier = _tier()
    tier.set_available(False)
    with pytest.raises(TierUnavailableError):
        tier.put_many([("a", None, 10)])


def test_put_many_empty_batch() -> None:
    tier = _tier()
    assert tier.put_many([]) == []
    assert tier.used == 0


# -- compress_batch input contract -------------------------------------------


@pytest.fixture()
def engine(seed) -> HCompress:
    return HCompress(
        ares_hierarchy(16 * MiB, 32 * MiB, 256 * MiB, nodes=2),
        HCompressConfig(),
        seed=seed,
    )


def test_compress_batch_rejects_unknown_item_types(engine) -> None:
    with pytest.raises(HCompressError):
        engine.compress_batch([42])
    with pytest.raises(HCompressError):
        engine.compress_batch([{"data": b"x" * 64, "task": object()}])


ARMINGS = {
    "bare": {},
    "obs": {"observability": ObservabilityConfig(enabled=True)},
    "qos": {"qos": QosConfig(enabled=True)},
}


@pytest.mark.parametrize("arming", [*ARMINGS, "sharded"])
@pytest.mark.parametrize(
    "bad", [{"hints": None}, 42, {"data": b"x" * 64, "task": object()}],
    ids=["no-data-no-task", "not-an-item", "data-and-task"],
)
def test_compress_batch_validates_every_item_before_writing(
    seed, arming, bad
) -> None:
    """A malformed item fails the batch before anything is admitted or
    written — also on an armed engine (which used to validate lazily and
    leave the items ahead of the bad one written) and across shards."""
    if arming == "sharded":
        engine = ShardedHCompress(
            ares_specs(16 * MiB, 32 * MiB, 256 * MiB, nodes=2),
            shard_config=ShardConfig(shards=2), seed=seed,
        )
        managers = [e.manager for e in engine.engines.values()]
    else:
        engine = HCompress(
            ares_hierarchy(16 * MiB, 32 * MiB, 256 * MiB, nodes=2),
            HCompressConfig(**ARMINGS[arming]), seed=seed,
        )
        managers = [engine.manager]
    good = [{"data": b"y" * 4096, "task_id": f"ok.{i}"} for i in range(4)]
    with engine:
        with pytest.raises(HCompressError):
            engine.compress_batch([*good, bad])
        assert [m.task_ids() for m in managers] == [[] for _ in managers]
        if arming == "qos":
            assert engine.qos.admission.admitted == 0
        assert len(engine.compress_batch(good)) == 4  # and is not wedged


def test_compress_batch_accepts_mixed_item_forms(engine) -> None:
    sample = vpic_sample(4 * KiB, np.random.default_rng(0))
    task = IOTask(
        task_id="t-task", size=4 * KiB,
        analysis=engine.analyzer.analyze(sample, VPIC_HINTS), data=sample,
    )
    results = engine.compress_batch(
        [sample, task, {"data": sample, "hints": VPIC_HINTS,
                        "task_id": "t-dict"}]
    )
    assert [r.task.task_id for r in results][1:] == ["t-task", "t-dict"]
    assert all(r.task.task_id in engine.manager for r in results)


def test_compress_batch_duplicate_id_raises_like_sequential(engine) -> None:
    sample = vpic_sample(4 * KiB, np.random.default_rng(0))
    spec = {"data": sample, "hints": VPIC_HINTS, "modeled_size": 64 * KiB}
    items = [dict(spec, task_id=f"dup.{i}") for i in range(6)]
    items.insert(4, dict(spec, task_id="dup.1"))  # repeats an earlier id
    with pytest.raises(SchemaError, match="already written"):
        engine.compress_batch(items)
    # everything before the duplicate landed, exactly like a loop would
    for i in range(4):
        assert f"dup.{i}" in engine.manager


def test_lifecycle_tracks_tasks_acked_before_a_mid_batch_error(seed) -> None:
    """Every acked write is visible to the lifecycle daemon, also when a
    later item of the same batch raises (the batch driver used to note
    writes only after the whole loop, leaving them at temperature 0)."""
    sample = vpic_sample(4 * KiB, np.random.default_rng(0))
    spec = {"data": sample, "hints": VPIC_HINTS, "modeled_size": 64 * KiB}
    engine = HCompress(
        ares_hierarchy(16 * MiB, 32 * MiB, 256 * MiB, nodes=2),
        HCompressConfig(lifecycle=LifecycleConfig(enabled=True)),
        seed=seed,
    )
    with engine:
        with pytest.raises(SchemaError, match="already written"):
            engine.compress_batch(
                [dict(spec, task_id=tid) for tid in ("a", "b", "a")]
            )
        assert engine.manager.task_ids() == ["a", "b"]
        assert list(engine.lifecycle.access) == ["a", "b"]
