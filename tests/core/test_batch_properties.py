"""The run lane's closed forms under random shapes (DESIGN.md §12).

``test_batch_equivalence.py`` drives one fig-7 burst, which reaches
``BatchPlanner.run_quota`` / ``commit_run`` with one plan on roomy tiers.
Here Hypothesis draws what those bounds are arithmetic over: bounded
tiers small enough that plans spill, split and run out of room, mixed
(sample, hints, modeled size) shapes in runs of 1-30, and a random cut
of the sequence into ``compress_batch`` calls — and the chunked batches
must leave exactly what the per-task loop leaves, including the typed
error and the item it is raised at.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ccp import CompressionCostPredictor
from repro.core import HCompress
from repro.core.config import HCompressConfig
from repro.datagen import synthetic_buffer
from repro.errors import HCompressError
from repro.tiers import StorageHierarchy, ares_specs
from repro.units import KiB, MiB, PAGE
from repro.workloads import vpic_sample
from repro.workloads.vpic import VPIC_HINTS

from .test_batch_equivalence import _assert_write_equivalent

_RNG = np.random.default_rng(0)
# (sample, hints): stored verbatim, and two the planner codes. Small,
# because an item without a modeled size runs the real pure-Python codec.
SHAPES = (
    (vpic_sample(8 * KiB, _RNG), VPIC_HINTS),
    (synthetic_buffer("float64", "gamma", 8 * KiB, _RNG), None),
    (synthetic_buffer("int32", "normal", 8 * KiB, _RNG), None),
)
# Modeled sizes (None: the real bytes, which no run may copy); one is
# neither a power of two nor a multiple of the split grain.
SIZES = (None, 256 * KiB, 1 * MiB, 3 * MiB + 1000, 8 * MiB)

# Per bounded tier: capacity (4 MiB - 4 GiB, so bands from 128 KiB —
# crossed by every task — to 128 MiB wide) and the room left in it (0-16 MiB, so every tier starts
# a few tasks from its last band, its clamp and its end). A bounded sink
# (room 0-64 MiB) is what lets a sequence run out of room altogether.
_capacity = st.sampled_from([22, 23, 24, 25, 26, 28, 32]).map(
    lambda bits: 1 << bits
)
_tier = st.tuples(_capacity, st.integers(0, 4 * 1024).map(lambda p: p * PAGE))
_sink = st.tuples(_capacity, st.integers(0, 16 * 1024).map(lambda p: p * PAGE))
tiers = st.tuples(_tier, _tier, _tier, st.one_of(st.none(), _sink))
runs = st.lists(
    st.tuples(
        st.integers(0, len(SHAPES) - 1),
        st.integers(0, len(SIZES) - 1),
        st.integers(1, 30),
    ),
    min_size=2,
    max_size=6,
)


@pytest.fixture(scope="module", autouse=True)
def fit_once():
    """Every engine here fits the same seed on the same roster, and the
    fit (~0.9 s of SVD) is a pure function of both: the first engine
    fits, the others start from a copy of its fitted predictor."""
    fit_seed = CompressionCostPredictor.fit_seed
    fitted: dict = {}

    def copied(self, observations):
        if not fitted:
            fit_seed(self, observations)
            fitted.update(copy.deepcopy(vars(self)))
        else:
            vars(self).update(copy.deepcopy(fitted))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CompressionCostPredictor, "fit_seed", copied)
        yield


def _items(runs) -> list[dict]:
    items = []
    for shape, size, length in runs:
        sample, hints = SHAPES[shape]
        for _ in range(length):
            items.append(
                {"data": sample, "hints": hints, "modeled_size": SIZES[size],
                 "task_id": f"t{len(items)}"}
            )
    return items


def _engine(seed, tiers, every_n) -> HCompress:
    caps = [tier and tier[0] for tier in tiers]
    hierarchy = StorageHierarchy.from_specs(
        ares_specs(*caps[:3], nodes=2, pfs_capacity=caps[3])
    )
    for tier, spec in zip(hierarchy, tiers):
        if spec is not None and spec[0] > spec[1]:
            tier.put("fill", None, accounted_size=spec[0] - spec[1])
    return HCompress(
        hierarchy, HCompressConfig(feedback_every_n=every_n), seed=seed
    )


def _drive(engine, calls) -> tuple[list, tuple | None]:
    """Results of the calls that returned, and the typed error that ended
    the sequence with the number of tasks acknowledged ahead of it."""
    results = []
    for call in calls:
        try:
            results.extend(engine.compress_batch(call))
        except HCompressError as exc:
            return results, (type(exc), str(exc), len(engine.manager.task_ids()))
    return results, None


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(
    tiers=tiers,
    runs=runs,
    chunks=st.lists(st.integers(2, 40), min_size=1, max_size=8),
    every_n=st.sampled_from([16, 64]),
)
def test_chunked_batches_equal_the_per_task_loop(
    seed, tiers, runs, chunks, every_n
) -> None:
    items = _items(runs)
    calls, start = [], 0
    while start < len(items):
        size = chunks[len(calls) % len(chunks)]
        calls.append(items[start:start + size])
        start += size

    a = _engine(seed, tiers, every_n)
    seq, seq_error = _drive(a, [[item] for item in items])
    b = _engine(seed, tiers, every_n)
    bat, bat_error = _drive(b, calls)

    # the error names its task, so equal messages are the same item
    assert seq_error == bat_error
    # A failed call returns nothing: its acknowledged tasks are compared
    # through the catalog and the counters. It had analysed all of its
    # items before its first write, the loop only up to the failing one.
    tolerated = ("analyzer",) if seq_error else ()
    _assert_write_equivalent(seq[:len(bat)], a, bat, b, tolerated)
    assert len(seq) == len(a.manager.task_ids()) == len(b.manager.task_ids())
