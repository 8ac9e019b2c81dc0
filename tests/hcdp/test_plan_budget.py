"""What one burst call costs the planner, as exact call counts.

A 64-task identical modeled batch on a warmed bare engine is the unit the
``bare_burst`` benchmark repeats: one task plans, the run lane carries
the other 63. A wall-clock gate on ~50 µs of planning drowns in scheduler
noise; the number of Python calls made inside ``repro/hcdp`` and
``repro/monitor`` repeats exactly, and so do the three counts that say
the batch planner is the run-lane ledger and not a second planner: one
monitor sample, one ``HcdpEngine._plan``, 63 ``emit_schema``.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

import numpy as np

import repro.hcdp
import repro.monitor
from repro.core import HCompress
from repro.hcdp.engine import BatchPlanner, HcdpEngine
from repro.monitor import SystemMonitor
from repro.recovery import Crashpoints
from repro.tiers import ares_hierarchy
from repro.units import GiB, KiB, MiB
from repro.workloads import vpic_sample
from repro.workloads.vpic import VPIC_HINTS

DIRS = tuple(
    str(Path(package.__file__).resolve().parent)
    for package in (repro.hcdp, repro.monitor)
)
TASKS = 64

#: Python calls under ``repro/hcdp`` + ``repro/monitor`` for one 64-task
#: call. Measured: 177 — 64 ``IOTask`` constructions and 63 ``emit_schema``
#: (one per task), and 50 for the call's one plan: the snapshot and its
#: band / remaining arithmetic 30, ``plan`` / ``_plan`` and the cache
#: lookup 13, the gate, the ledger and the run's ``note_result`` /
#: ``run_quota`` / ``commit_run`` 7. (160 with the signature slot and the raw sampler,
#: which hand-inlined the snapshot.) The budget is the measurement + 10 %.
CALL_BUDGET = 194

COUNTED = {
    SystemMonitor.sample.__code__: "sample",
    HcdpEngine._plan.__code__: "_plan",
    BatchPlanner.emit_schema.__code__: "emit_schema",
    BatchPlanner.__init__.__code__: "planner",
}


def _calls(fn) -> Counter:
    """Python-level calls ``fn()`` makes in repro/hcdp and repro/monitor:
    the total, and the counted methods by name."""
    counts: Counter = Counter()

    def profile(frame, event, _arg) -> None:
        if event != "call":
            return
        code = frame.f_code
        if code.co_filename.startswith(DIRS):
            counts["total"] += 1
            name = COUNTED.get(code)
            if name is not None:
                counts[name] += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return counts


def _engine(seed, **kwargs) -> HCompress:
    # Bands 2 GiB wide: three 64 MiB calls cross none.
    return HCompress(
        ares_hierarchy(64 * GiB, 128 * GiB, 1024 * GiB, nodes=2),
        seed=seed, **kwargs,
    )


def _items(tag: str) -> list[dict]:
    sample = vpic_sample(64 * KiB, np.random.default_rng(0))
    return [
        {"data": sample, "hints": VPIC_HINTS, "modeled_size": 1 * MiB,
         "task_id": f"{tag}.{i}"}
        for i in range(TASKS)
    ]


def test_a_burst_call_plans_once_and_samples_once(seed) -> None:
    engine = _engine(seed)
    engine.compress_batch(_items("warm"))  # plan cache, ECC table, codec pool
    first, second = _items("a"), _items("b")
    samples = engine.monitor.samples_taken
    a = _calls(lambda: engine.compress_batch(first))
    b = _calls(lambda: engine.compress_batch(second))
    assert a == b, "the counts must repeat exactly to be a gate"
    assert (a["sample"], a["_plan"], a["emit_schema"], a["planner"]) == (
        1, 1, TASKS - 1, 1,
    )
    assert a["total"] <= CALL_BUDGET
    # the run still accounts one sample per task
    assert engine.monitor.samples_taken - samples == 2 * TASKS


def test_a_closed_run_lane_builds_no_planner(seed) -> None:
    """Crash-point sites fire inside the per-piece body, so the bulk body
    is closed — and a ledger nothing can run from is not built."""
    engine = _engine(seed, crashpoints=Crashpoints())
    engine.compress_batch(_items("warm"))
    counts = _calls(lambda: engine.compress_batch(_items("a")))
    assert (counts["planner"], counts["emit_schema"]) == (0, 0)
    assert (counts["sample"], counts["_plan"]) == (TASKS, TASKS)
