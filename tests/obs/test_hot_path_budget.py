"""The enabled telemetry hot path, as a deterministic call count.

Wall-clock overhead gates drown in scheduler noise; the number of Python
calls one armed task makes inside ``repro/obs`` repeats exactly. This is
the gate docs/OBSERVABILITY.md's overhead contract points at: a span is
one object, a series update is one dict probe, and the monitor is sampled
once per armed write.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

import repro.obs
from repro.units import KiB, MiB
from repro.workloads import vpic_sample
from repro.workloads.vpic import VPIC_HINTS

OBS_DIR = str(Path(repro.obs.__file__).resolve().parent)

#: Python calls under ``repro/obs/`` per armed task. Measured: 82 per write,
#: 21 per read (164 / 39 before the one-object span and the positional
#: series lookup) — unchanged by moving every cold family to a mirrored
#: table, which touches none of the 13 pushes counted here.
WRITE_BUDGET = 100
READ_BUDGET = 24

TASKS = 16


def _obs_calls(fn) -> int:
    """Python-level calls made by ``fn()`` whose code lives in repro/obs."""
    count = 0

    def profile(frame, event, _arg) -> None:
        nonlocal count
        if event == "call" and frame.f_code.co_filename.startswith(OBS_DIR):
            count += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return count


def _items(tag: str) -> list[dict]:
    sample = vpic_sample(64 * KiB, np.random.default_rng(0))
    return [
        {"data": sample, "hints": VPIC_HINTS, "modeled_size": 8 * MiB,
         "task_id": f"{tag}.{i}"}
        for i in range(TASKS)
    ]


def test_armed_task_stays_inside_its_obs_call_budget(armed_engine) -> None:
    engine = armed_engine
    # Warm the plan cache, the codec pool and every series of both paths.
    engine.decompress_batch(
        [w.task.task_id for w in engine.compress_batch(_items("warm"))]
    )
    first, second = _items("a"), _items("b")

    samples = engine.monitor.samples_taken
    written: list = []
    write_a = _obs_calls(lambda: written.extend(engine.compress_batch(first)))
    write_b = _obs_calls(lambda: written.extend(engine.compress_batch(second)))
    assert all(len(w.pieces) == 1 for w in written)
    assert write_a == write_b, "the count must repeat exactly to be a gate"
    assert write_a % TASKS == 0
    assert write_a // TASKS <= WRITE_BUDGET
    # QoS and the planner share one snapshot of the hierarchy.
    assert engine.monitor.samples_taken - samples == 2 * TASKS

    ids_a = [item["task_id"] for item in first]
    ids_b = [item["task_id"] for item in second]
    read_a = _obs_calls(lambda: engine.decompress_batch(ids_a))
    read_b = _obs_calls(lambda: engine.decompress_batch(ids_b))
    assert read_a == read_b
    assert read_a % TASKS == 0
    assert read_a // TASKS <= READ_BUDGET
