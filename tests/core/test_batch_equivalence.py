"""Byte-identity of the batched hot path (DESIGN.md §12).

One fig-7-shaped VPIC checkpoint burst, driven three ways over engines
built from the same profiler seed:

  1. ``compress`` once per task (the reference interleaving),
  2. ``compress_batch`` over the whole burst,
  3. ``ShardedHCompress.compress_batch`` over N shards vs the same
     shards driven per task.

Schemas, catalogs, piece receipts, observations, reads, and every
planner/monitor/model counter must match exactly — the batch path is a
performance shape, never a semantics shape. That includes the plan
cache's entry counts and LRU order (every plan goes through the engine's
one lookup, and a run's tasks would only re-touch the entry its template
just touched), ``parallel_pieces`` (one write body, one read body) and
the anatomy's modeled accumulators. What is not compared, each with the
run-lane step that skips it:

  * the predictor's table-cache hit/miss split — ``prefetch_candidates``
    builds a call's tables before its first plan, and ``commit_run``
    replays no ``candidate_table`` lookup;
  * the anatomy's wall-clock seconds (``hcdp_engine``,
    ``library_selection``, ``feedback``) — measured time, and
    ``_write_run`` times one emit loop per run, not one plan per task;
  * snapshot timestamps — ``commit_run`` counts a run's monitor samples
    without reading the clock (times feed no planning input).

The burst comes in the shapes the run lane can meet — identity pieces, a
coded piece fed from the sample, the recovery journal on, and (driven at
the manager, since no organic plan splits a task without moving its
tier's clamped remaining) two pieces on two tiers — and each case
asserts the bulk body actually ran that shape, so none can pass by
silently falling back to the per-piece body.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import HCompress
from repro.core.config import (
    HCompressConfig,
    ObservabilityConfig,
    QosConfig,
    RecoveryConfig,
    ScrubConfig,
)
from repro.core.manager import CompressionManager
from repro.datagen import synthetic_buffer
from repro.errors import DeadlineExceededError, TaskShedError
from repro.hcdp import IOTask
from repro.hcdp.schema import Schema, SubTaskPlan
from repro.qos import QosClass
from repro.recovery import JOURNAL_NAME
from repro.shard import ShardConfig, ShardedHCompress
from repro.tiers import ares_hierarchy, ares_specs
from repro.units import GiB, KiB, MiB
from repro.workloads import vpic_sample
from repro.workloads.vpic import VPIC_HINTS

TASKS = 192


def _burst(coded: bool = False) -> list[dict]:
    """A fig-7-shaped VPIC checkpoint burst: every rank writes the same
    modeled slab each timestep, sampled from one shared buffer. Each item
    carries a tenant so the sharded tests exercise per-item tenant
    routing (inert on an unsharded engine without QoS).

    The default is the hinted VPIC sample the planner stores verbatim;
    ``coded`` an un-hinted gamma buffer it compresses, so every piece
    goes through the sample-ratio LRU."""
    if coded:
        sample, hints = synthetic_buffer(
            "float64", "gamma", 64 * KiB, np.random.default_rng(0)
        ), None
    else:
        sample, hints = vpic_sample(64 * KiB, np.random.default_rng(0)), VPIC_HINTS
    return [
        {
            "data": sample,
            "hints": hints,
            "modeled_size": 8 * MiB,
            "task_id": f"vpic.{i // 64}.{i % 64}",  # timestep.rank
            "tenant": f"tenant-{i % 7}",
        }
        for i in range(TASKS)
    ]


@pytest.fixture(scope="module")
def burst() -> list[dict]:
    return _burst()


def _engine(seed, journal_dir=None) -> HCompress:
    recovery = (
        RecoveryConfig(enabled=True, directory=journal_dir, fsync=False)
        if journal_dir is not None
        else RecoveryConfig()
    )
    return HCompress(
        ares_hierarchy(64 * MiB, 128 * MiB, 4 * GiB, nodes=2),
        HCompressConfig(recovery=recovery),
        seed=seed,
    )


@pytest.fixture()
def run_shapes(monkeypatch) -> list[tuple]:
    """``(codecs, tiers, journal on, tasks written)`` per bulk-body call."""
    shapes: list[tuple] = []
    bulk = CompressionManager._execute_write_run

    def spy(self, schemas, template, ctx):
        results = bulk(self, schemas, template, ctx)
        shapes.append(
            (
                tuple(p.plan.codec for p in template.pieces),
                tuple(p.tier for p in template.pieces),
                self.journal is not None,
                len(results),
            )
        )
        return results

    monkeypatch.setattr(CompressionManager, "_execute_write_run", spy)
    return shapes


def _assert_ran_in_bulk(run_shapes, burst, journal: bool) -> None:
    coded = burst[0]["hints"] is None
    ran = [
        shape for shape in run_shapes
        if shape[3] and shape[2] == journal
        and all((codec != "none") == coded for codec in shape[0])
    ]
    assert sum(shape[3] for shape in ran) > len(burst) // 2, run_shapes


def _counters(e: HCompress) -> dict:
    s = e.engine.stats
    return {
        "tasks_planned": s.tasks_planned,
        "memo_hits": s.memo_hits,
        "memo_misses": s.memo_misses,
        "pieces_emitted": s.pieces_emitted,
        "degraded": s.degraded_plans,
        "pc_hits": s.plan_cache_hits,
        "pc_misses": s.plan_cache_misses,
        "pc_inval": s.plan_cache_invalidations,
        "pc_entries": (
            e.engine.plan_cache.schema_entries,
            e.engine.plan_cache.context_entries,
        ),
        # LRU order, oldest first: every plan goes through get_schema, and
        # a run's tasks would only re-touch its template's entry
        "pc_lru": (
            list(e.engine.plan_cache._schemas),
            list(e.engine.plan_cache._memos),
        ),
        "model_version": e.predictor.model_version,
        "obs_seen": e.predictor.observations_seen,
        "mon_samples": e.monitor.samples_taken,
        "mon_epoch": e.monitor.state_epoch,
        "sample_hits": e.manager.sample_cache_hits,
        "sample_misses": e.manager.sample_cache_misses,
        "spills": e.manager.spill_events,
        "parallel_pieces": e.manager.parallel_pieces,
        # the modeled (not wall-clock) anatomy accumulators
        "anatomy": (
            e.anatomy.compression, e.anatomy.write_io, e.anatomy.write_ops,
            e.anatomy.decompression, e.anatomy.read_io, e.anatomy.read_ops,
        ),
        "replans": e.replans,
        "flushes": e.feedback.flushes,
        "pending_obs": e.feedback.pending,
        "analyzer": (e.analyzer.cache_hits, e.analyzer.cache_misses),
        "tier_used": {t.spec.name: t.used for t in e.hierarchy},
        "shi": (
            e.shi.stats.retries,
            e.shi.stats.failovers,
            e.shi.stats.exhausted,
        ),
    }


def _schema_view(result):
    return (
        result.task.task_id,
        tuple(result.schema.pieces),
        result.schema.expected_cost,
        result.schema.memo_hits,
        result.schema.memo_misses,
    )


def _piece_view(result):
    return [
        (
            p.plan, p.key, p.tier, p.stored_size, p.actual_ratio,
            p.compress_seconds, p.io_seconds, p.spilled, p.failover,
            p.retries,
        )
        for p in result.pieces
    ]


def _assert_write_equivalent(
    ref_results, ref_engine, results, engine, tolerated=()
):
    """``tolerated`` names counters the caller has a stated reason to skip."""
    assert [_schema_view(r) for r in ref_results] == [
        _schema_view(r) for r in results
    ]
    for ra, rb in zip(ref_results, results):
        assert _piece_view(ra) == _piece_view(rb)
        assert ra.observations == rb.observations
    assert (
        ref_engine.manager.catalog_snapshot()
        == engine.manager.catalog_snapshot()
    )
    ref_counters, counters = _counters(ref_engine), _counters(engine)
    for name in tolerated:
        del ref_counters[name], counters[name]
    assert ref_counters == counters


def test_batch_is_byte_identical_to_per_task(
    seed, burst, run_shapes, tmp_path, journal=False
) -> None:
    a = _engine(seed, tmp_path / "a" if journal else None)
    seq = [a.compress(**item) for item in burst]
    assert not run_shapes  # a batch of one never opens the run lane
    b = _engine(seed, tmp_path / "b" if journal else None)
    bat = b.compress_batch(burst)
    _assert_write_equivalent(seq, a, bat, b)
    _assert_ran_in_bulk(run_shapes, burst, journal)
    if journal:
        a.journal.sync()
        b.journal.sync()
        assert (tmp_path / "a" / JOURNAL_NAME).read_bytes() == (
            tmp_path / "b" / JOURNAL_NAME
        ).read_bytes()
    if burst[0]["hints"] is None:
        # the bulk body replayed the per-piece body's ratio-cache traffic
        assert a.manager.sample_cache_hits > len(burst) // 2
        assert list(a.manager._sample_ratios) == list(b.manager._sample_ratios)

    # read-back: decompress_batch against per-task decompress
    ids = [item["task_id"] for item in burst]
    reads_a = [a.decompress(tid) for tid in ids]
    reads_b = b.decompress_batch(ids)
    for x, y in zip(reads_a, reads_b):
        assert (
            x.task_id, x.data, x.modeled_size, x.decompress_seconds,
            x.io_seconds, x.pieces,
        ) == (
            y.task_id, y.data, y.modeled_size, y.decompress_seconds,
            y.io_seconds, y.pieces,
        )
    assert _counters(a) == _counters(b)


@pytest.mark.parametrize(
    "coded,journal", [(True, False), (False, True), (True, True)],
    ids=["coded", "journal", "coded-journal"],
)
def test_batch_is_byte_identical_in_every_run_shape(
    seed, coded, journal, run_shapes, tmp_path
) -> None:
    """The same test over the other bursts the run lane can meet: a coded
    piece fed from the sample, the recovery journal on, and both."""
    test_batch_is_byte_identical_to_per_task(
        seed, _burst(coded), run_shapes, tmp_path, journal
    )


@pytest.mark.parametrize("shards", [2, 3])
def test_batch_over_shards_is_byte_identical(seed, burst, shards) -> None:
    """Each shard's engine sees the same sub-sequence either way, so the
    whole deployment is byte-identical between the batch and per-task
    routers — including the owner map and busy-seconds accounting."""
    specs = ares_specs(
        64 * MiB * shards, 128 * MiB * shards, 4 * GiB * shards,
        nodes=2 * shards,
    )
    config = ShardConfig(shards=shards)
    ref = ShardedHCompress(specs, shard_config=config, seed=seed)
    seq = [ref.compress(**item) for item in burst]
    routed = ShardedHCompress(specs, shard_config=config, seed=seed)
    bat = routed.compress_batch(burst)

    assert [_schema_view(r) for r in seq] == [_schema_view(r) for r in bat]
    for ra, rb in zip(seq, bat):
        assert _piece_view(ra) == _piece_view(rb)
    assert ref._owners == routed._owners
    assert ref.busy_seconds == routed.busy_seconds
    for shard_id in range(shards):
        a = ref.engines[shard_id]
        b = routed.engines[shard_id]
        assert _counters(a) == _counters(b)
        assert (
            a.manager.catalog_snapshot() == b.manager.catalog_snapshot()
        )

    # batched reads route back to the owning shards identically
    ids = [item["task_id"] for item in burst]
    reads_a = [ref.decompress(tid) for tid in ids]
    reads_b = routed.decompress_batch(ids)
    for x, y in zip(reads_a, reads_b):
        assert (x.task_id, x.data, x.pieces) == (y.task_id, y.data, y.pieces)
    assert ref.busy_seconds == routed.busy_seconds
    ref.close()
    routed.close()


def test_batch_flush_during_template_defers_to_per_task(seed) -> None:
    """A feedback flush can fire during the record of the very task that
    would become a run template (pending hits the cadence on its
    observation). The sequential path replans the next task against the
    new model — invalidation + miss — so the run lane must refuse the
    stale template (``run_quota`` version check) instead of stretching
    its pre-flush plan over the run. Uses the default feedback cadence
    and an un-hinted buffer so retrains fire often, and chunked batches
    like ``hcompress stats --batch-size`` submits."""
    from repro.datagen import synthetic_buffer

    data = synthetic_buffer(
        "float64", "gamma", 64 * KiB, np.random.default_rng(0)
    )
    items = [
        {"data": data, "modeled_size": 1 * MiB, "task_id": f"stats-{i}"}
        for i in range(256)
    ]
    a = _engine(seed)
    for item in items:
        a.compress(item["data"], modeled_size=item["modeled_size"],
                   task_id=item["task_id"])
    b = _engine(seed)
    for start in range(0, len(items), 8):
        b.compress_batch([dict(item) for item in items[start:start + 8]])
    assert a.predictor.model_version > 1  # retrains actually happened
    assert _counters(a) == _counters(b)
    assert (
        a.manager.catalog_snapshot() == b.manager.catalog_snapshot()
    )


def test_batch_repeated_calls_extend_identically(seed, burst) -> None:
    """Splitting one burst into consecutive compress_batch calls leaves
    the same state as one call (the planner re-establishes per batch)."""
    a = _engine(seed)
    a.compress_batch(burst)
    b = _engine(seed)
    half = len(burst) // 2
    b.compress_batch(burst[:half])
    b.compress_batch(burst[half:])
    assert (
        a.manager.catalog_snapshot() == b.manager.catalog_snapshot()
    )
    assert _counters(a) == _counters(b)


def test_run_body_copies_a_two_tier_template(seed, tmp_path) -> None:
    """The bulk body against the per-piece body on the shape no organic
    plan reaches: two pieces per task on two tiers, one coded, journal
    on. Same receipts, catalog, ledger, tier key order, ratio-cache
    traffic and journal bytes."""
    sample = synthetic_buffer(
        "float64", "gamma", 64 * KiB, np.random.default_rng(0)
    )
    half = 4 * MiB
    plans = (
        SubTaskPlan(0, half, "ram", 0, "none", 1.0, half + 16, 0.0),
        SubTaskPlan(half, half, "nvme", 1, "zlib", 2.0, half // 2 + 16, 0.0),
    )

    def written(name: str, bulk: bool):
        engine = _engine(seed, tmp_path / name)
        manager = engine.manager
        analysis = engine.analyzer.analyze(sample, None)
        schemas = [
            Schema(
                task=IOTask(f"two.{i}", 2 * half, analysis, data=sample),
                pieces=list(plans),
            )
            for i in range(6)
        ]
        ctx = manager.batch_context()
        results = [manager.execute_write_batched(schemas[0], ctx)]
        if bulk:
            results += manager._execute_write_run(schemas[1:], results[0], ctx)
        else:
            results += [manager.execute_write_batched(s, ctx) for s in schemas[1:]]
        engine.journal.sync()
        return engine, results

    a, per_piece = written("a", bulk=False)
    b, bulk = written("b", bulk=True)
    assert len(bulk) == 6 and len(bulk[-1].pieces) == 2
    assert {p.tier for p in bulk[-1].pieces} == {"ram", "nvme"}
    for ra, rb in zip(per_piece, bulk):
        assert _piece_view(ra) == _piece_view(rb)
        assert ra.observations == rb.observations
    assert a.manager.catalog_snapshot() == b.manager.catalog_snapshot()
    assert [list(t.keys()) for t in a.hierarchy] == [
        list(t.keys()) for t in b.hierarchy
    ]
    assert _counters(a) == _counters(b)
    assert (tmp_path / "a" / JOURNAL_NAME).read_bytes() == (
        tmp_path / "b" / JOURNAL_NAME
    ).read_bytes()


# -- the armed engine: a batch of one vs a batch of many ----------------------

# Families that carry measured wall-clock seconds; everything else the
# registry exports is a function of the task sequence alone.
WALL_CLOCK_FAMILIES = {"hcompress_plan_seconds", "hcompress_anatomy_seconds_total"}


def _armed(seed, directory, **qos) -> HCompress:
    return HCompress(
        ares_hierarchy(64 * MiB, 128 * MiB, 4 * GiB, nodes=2),
        HCompressConfig(
            observability=ObservabilityConfig(enabled=True),
            qos=QosConfig(enabled=True, **qos),
            recovery=RecoveryConfig(
                enabled=True, directory=directory, fsync=False
            ),
            scrub=ScrubConfig(content_digests=True),
        ),
        seed=seed,
    )


def _armed_view(engine: HCompress) -> dict:
    engine.journal.sync()
    metrics = engine.sync_telemetry().export_metrics()["metrics"]
    spans = sorted(engine.obs.tracer.spans, key=lambda span: span.index)
    return {
        "catalog": engine.manager.catalog_snapshot(),
        "journal": (
            engine.config.recovery.directory / JOURNAL_NAME
        ).read_bytes(),
        "metrics": {
            name: family for name, family in metrics.items()
            if name not in WALL_CLOCK_FAMILIES
        },
        "spans": [(span.name, span.depth) for span in spans],
    }


def _armed_items() -> list[dict]:
    """Real bytes (digested, analysed) between modeled checkpoint slabs."""
    rng = np.random.default_rng(0)
    sample = vpic_sample(64 * KiB, rng)
    gamma = synthetic_buffer("float64", "gamma", 32 * KiB, rng)
    items = []
    for i in range(24):
        if i % 3 == 2:
            items.append({"data": gamma, "task_id": f"real.{i}"})
        else:
            items.append(
                {"data": sample, "hints": VPIC_HINTS,
                 "modeled_size": 8 * MiB, "task_id": f"slab.{i}",
                 "tenant": f"tenant-{i % 2}"}
            )
    return items


def test_armed_batch_of_one_equals_batch_of_many(seed, tmp_path) -> None:
    """With obs, QoS, the journal and content digests all on, a per-task
    ``compress`` loop and one ``compress_batch`` call are the same code
    run N times: same catalog, journal bytes, metrics and span tree."""
    items = _armed_items()
    roomy = {"max_backlog_bytes": 1 << 40}  # the default sheds the 8th slab
    a = _armed(seed, tmp_path / "a", **roomy)
    for item in items:
        a.compress(**item)
    b = _armed(seed, tmp_path / "b", **roomy)
    b.compress_batch(items)
    view_a, view_b = _armed_view(a), _armed_view(b)
    assert view_a == view_b
    # each task's analysis happens inside its own compress region
    spans = {span.index: span for span in b.obs.tracer.spans}
    analyses = [s for s in spans.values() if s.name == "analyzer.analyze"]
    assert len(analyses) == len(items)
    assert {spans[s.parent_index].name for s in analyses} == {
        "hcompress.compress"
    }


def test_armed_write_shares_one_monitor_sample(seed, tmp_path) -> None:
    """The armed write step hands its QoS snapshot to the planner. An
    engine whose plans sample for themselves instead (two samples per
    task, as before the hand-over) leaves the same catalog, journal
    bytes, metrics and spans: nothing touches a tier between the two."""
    items = _armed_items()
    roomy = {"max_backlog_bytes": 1 << 40}
    one = _armed(seed, tmp_path / "one", **roomy)
    one.compress_batch(items)
    two = _armed(seed, tmp_path / "two", **roomy)
    plan = two.engine.plan
    two.engine.plan = lambda task, status=None, **kw: plan(task, **kw)
    two.compress_batch(items)
    assert one.monitor.samples_taken == len(items)
    assert two.monitor.samples_taken == 2 * len(items)
    view_one, view_two = _armed_view(one), _armed_view(two)
    for view in (view_one, view_two):
        del view["metrics"]["hcompress_monitor_samples_total"]
    assert view_one == view_two


@pytest.mark.parametrize(
    "error,call,qos",
    [
        (
            TaskShedError,
            {"qos_class": QosClass.BEST_EFFORT},
            {"max_backlog_bytes": 40 * MiB, "drain_bytes_per_s": 1.0,
             "brownout_enabled": False},
        ),
        # 2 ms: RAM takes an 8 MiB slab in time, no tier a 1 GiB one
        (DeadlineExceededError, {"deadline": 2e-3}, {"max_backlog_bytes": 1 << 40}),
    ],
    ids=["shed", "deadline"],
)
def test_armed_batch_raises_at_the_same_item(
    seed, tmp_path, error, call, qos
) -> None:
    """A typed QoS refusal surfaces at the same item either way, with the
    same tasks acknowledged ahead of it and the same state left behind."""
    items = _armed_items()
    items[7] = dict(items[7], modeled_size=1 * GiB)
    a = _armed(seed, tmp_path / "a", **qos)
    with pytest.raises(error):
        for item in items:
            a.compress(**item, **call)
    b = _armed(seed, tmp_path / "b", **qos)
    with pytest.raises(error):
        b.compress_batch(items, **call)
    assert 0 < len(a.manager.task_ids()) < len(items)
    assert _armed_view(a) == _armed_view(b)
