"""Telemetry-drift regression: push metrics equal the subsystem counters.

The registry's *push* families are incremented independently at the
instrumentation sites; the counters the subsystems keep (``EngineStats``,
``ResilienceStats``) are mirrored under *other* family names. These tests
run real workloads and hold the two views of one quantity exactly equal —
any divergence means an instrumentation site was added, moved, or dropped
without its metric.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.core import HCompress, HCompressConfig, ObservabilityConfig
from repro.core.config import ResilienceConfig
from repro.datagen import synthetic_buffer
from repro.errors import DeadlineExceededError, TaskShedError, TransientIOError
from repro.experiments.fig7_vpic import (
    WRITE_PRIORITY,
    fig7_hierarchy,
    fig7_vpic_config,
)
from repro.hermes.flusher import TierFlusher
from repro.tiers import ares_hierarchy
from repro.tiers.device import Device
from repro.qos import QosClass
from repro.units import GiB, KiB, MiB
from repro.workloads import HCompressBackend, run_vpic, vpic_sample
from repro.workloads.vpic import VPIC_HINTS


@pytest.fixture(scope="module")
def vpic_run(request):
    """One instrumented fig-7 VPIC run (small scale), shared per module."""
    seed = request.getfixturevalue("seed")
    config = replace(fig7_vpic_config(nprocs=8, scale=4096), timesteps=3)
    hierarchy = fig7_hierarchy(scale=4096)
    engine = HCompress(
        hierarchy,
        HCompressConfig(
            priority=WRITE_PRIORITY,
            observability=ObservabilityConfig(enabled=True),
        ),
        seed=seed,
    )
    flusher = TierFlusher(hierarchy, obs=engine.obs)
    result = run_vpic(
        HCompressBackend(engine),
        config,
        hierarchy,
        rng=np.random.default_rng(0),
        flusher=flusher,
    )
    engine.sync_telemetry()
    engine.obs.mirror(flusher.stats, flusher.stats.METRICS)
    return engine, flusher, result


class TestVpicDrift:
    def test_plan_outcomes_match_plan_cache_counters(self, vpic_run) -> None:
        engine, _, _ = vpic_run
        reg = engine.obs.registry
        stats = engine.engine.stats
        assert (
            reg.value("hcompress_plans_total", result="cache_hit")
            == stats.plan_cache_hits
        )
        assert (
            reg.value("hcompress_plans_total", result="cache_miss")
            == stats.plan_cache_misses
        )
        assert stats.plan_cache_hits > 0  # the repeated burst actually hit

    def test_push_equals_mirror_equals_legacy(self, vpic_run) -> None:
        """Three-way: push family == mirrored family == legacy counter."""
        engine, _, _ = vpic_run
        reg = engine.obs.registry
        stats = engine.engine.stats
        mirrored = reg.value("hcompress_plan_cache_hits_total")
        assert mirrored == stats.plan_cache_hits
        assert mirrored == reg.value("hcompress_plans_total", result="cache_hit")

    def test_tasks_written_match_everywhere(self, vpic_run) -> None:
        engine, _, result = vpic_run
        reg = engine.obs.registry
        assert result.tasks_written == 8 * 3
        assert reg.value("hcompress_tasks_total", op="write") == result.tasks_written
        assert engine.obs.m_plans.value == engine.engine.stats.tasks_planned

    def test_flusher_mirror_matches_stats(self, vpic_run) -> None:
        engine, flusher, _ = vpic_run
        reg = engine.obs.registry
        assert reg.value("hcompress_flusher_polls_total") == flusher.stats.polls
        assert reg.value("hcompress_flusher_moves_total") == flusher.stats.moves
        assert flusher.stats.polls > 0

    def test_span_trace_covers_the_hot_paths(self, vpic_run) -> None:
        engine, _, _ = vpic_run
        rollup = engine.obs.tracer.by_name()
        for site in ("hcompress.compress", "hcdp.plan", "manager.execute_write",
                     "shi.write"):
            assert site in rollup, f"missing span {site}"
        # One compress span per task is the contract (ring bound permitting).
        assert rollup["hcompress.compress"]["count"] == 24

    def test_exported_schema_is_stable(self, vpic_run) -> None:
        engine, _, _ = vpic_run
        snap = engine.obs.export_metrics()
        assert snap["schema"] == "hcompress.metrics.v1"
        for family in (
            "hcompress_plans_total",
            "hcompress_plan_cache_hits_total",
            "hcompress_tier_bytes_total",
            "hcompress_tier_io_seconds_total",
            "hcompress_codec_ratio",
            "hcompress_shi_retries_total",
            "hcompress_anatomy_seconds_total",
        ):
            assert family in snap["metrics"], f"missing family {family}"


class FlakyStore(Device):
    """Raises ``TransientIOError`` on the first ``fail_n`` stores."""

    def __init__(self, inner, fail_n: int):
        self.inner = inner
        self.fail_n = fail_n

    def store(self, key, payload):
        if self.fail_n > 0:
            self.fail_n -= 1
            raise TransientIOError("injected store failure")
        self.inner.store(key, payload)

    def load(self, key):
        return self.inner.load(key)

    def delete(self, key):
        self.inner.delete(key)

    def __contains__(self, key):
        return key in self.inner

    def keys(self):
        return self.inner.keys()


class TestResilienceDrift:
    def _engine(self, seed, max_retries: int) -> HCompress:
        hierarchy = ares_hierarchy(4 * MiB, 8 * MiB, 1 * GiB, nodes=2)
        return HCompress(
            hierarchy,
            HCompressConfig(
                resilience=ResilienceConfig(max_retries=max_retries, failover=True),
                observability=ObservabilityConfig(enabled=True),
            ),
            seed=seed,
        )

    def test_retries_match_resilience_stats(self, seed, gamma_f64) -> None:
        engine = self._engine(seed, max_retries=4)
        ram = engine.hierarchy.by_name("ram")
        ram.device = FlakyStore(ram.device, fail_n=2)
        engine.compress(gamma_f64, task_id="t")
        shi = engine.shi.stats
        reg = engine.obs.registry
        assert shi.retries > 0
        assert engine.obs.m_retries.value == shi.retries
        assert engine.obs.m_backoff.value == pytest.approx(shi.backoff_seconds)
        engine.sync_telemetry()
        assert reg.value("hcompress_shi_trace_retries_total") == shi.retries

    def test_failover_and_exhaustion_match(self, seed, gamma_f64) -> None:
        engine = self._engine(seed, max_retries=1)
        ram = engine.hierarchy.by_name("ram")
        ram.device = FlakyStore(ram.device, fail_n=10_000)  # never recovers
        result = engine.compress(gamma_f64, task_id="t")
        assert all(p.tier != "ram" for p in result.pieces)
        shi = engine.shi.stats
        obs = engine.obs
        assert shi.failovers > 0
        assert obs.m_failovers.value == shi.failovers
        assert obs.m_exhausted.value == shi.exhausted
        engine.sync_telemetry()
        reg = obs.registry
        assert reg.value("hcompress_shi_trace_failovers_total") == shi.failovers
        assert reg.value("hcompress_shi_trace_exhausted_total") == shi.exhausted


# -- one golden: a fixed armed workload's telemetry, pinned --------------------

GOLDEN = Path(__file__).resolve().parent.parent / "golden/armed_telemetry.txt"

#: Families that carry measured wall-clock seconds, and the one gauge that
#: is a least-squares fit (R^2) rather than a count or a modeled quantity.
UNPINNED_FAMILIES = {
    "hcompress_plan_seconds",
    "hcompress_anatomy_seconds_total",
    "hcompress_model_accuracy",
}


def armed_workload(engine: HCompress) -> None:
    """Writes (modeled slabs and real bytes), one shed, one deadline miss,
    full and ranged reads."""
    rng = np.random.default_rng(0)
    sample = vpic_sample(64 * KiB, rng)
    gamma = synthetic_buffer("float64", "gamma", 32 * KiB, rng)
    for i in range(12):
        if i % 4 == 3:
            engine.compress(gamma, task_id=f"real.{i}")
        else:
            engine.compress(
                sample, hints=VPIC_HINTS, modeled_size=8 * MiB,
                task_id=f"slab.{i}", tenant=f"tenant-{i % 2}",
            )
    with pytest.raises(TaskShedError):  # 2 TiB against a 1 TiB backlog cap
        engine.compress(
            sample, hints=VPIC_HINTS, modeled_size=1 << 41,
            task_id="shed.0", qos_class=QosClass.BEST_EFFORT,
        )
    with pytest.raises(DeadlineExceededError):
        engine.compress(gamma, task_id="late.0", deadline=1e-12)
    for i in range(0, 12, 2):
        engine.decompress(f"slab.{i}")
    assert engine.decompress("real.3").data == gamma
    assert engine.decompress("real.7", offset=4096, length=8192).data == (
        gamma[4096:12288]
    )
    engine.journal.sync()


def telemetry_view(engine: HCompress, unpinned=frozenset()) -> list[str]:
    """Every exported series and the span tree, one comparable line each
    (floats to 9 significant digits: modeled arithmetic, not wall time)."""
    metrics = engine.sync_telemetry().export_metrics()["metrics"]
    lines = []
    for name, family in metrics.items():
        if name in unpinned:
            continue
        for entry in family["series"]:
            labels = ",".join(f"{k}={v}" for k, v in entry["labels"].items())
            if "value" in entry:
                value = f"{entry['value']:.9g}"
            else:
                value = f"counts={entry['counts']} sum={entry['sum']:.9g}"
            lines.append(f"{name}{{{labels}}} {value}")
    for span in sorted(engine.obs.tracer.spans, key=lambda span: span.index):
        lines.append(
            f"span {span.index} {'  ' * span.depth}{span.name} "
            f"parent={span.parent_index} attrs={','.join(sorted(span.attrs))}"
        )
    return lines


def test_armed_telemetry_matches_its_golden(armed_engine) -> None:
    """Every deterministic series (counts, modeled bytes and seconds) and
    the span tree (name, nesting, parent, attr keys) of the fixed armed
    workload, against ``tests/golden/armed_telemetry.txt`` — a hot-path
    edit that adds, drops, renames or re-nests telemetry shows up here.

    An intended change regenerates the file with
    ``GOLDEN.write_text("\n".join(view) + "\n")``.
    """
    armed_workload(armed_engine)
    view = telemetry_view(armed_engine, UNPINNED_FAMILIES)
    assert view == GOLDEN.read_text().splitlines()
