"""One read pipeline: per-task, batch and full-span range reads agree.

All three forms run ``CompressionManager._read_pieces``; these tests pin
that they stay *one* body — identical :class:`ReadResult`s (wall-clocked
``metadata_seconds`` aside) for every task shape, with observability on
or off, and the same typed error when a deadline expires on the last
piece.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core import HCompress, HCompressConfig, ObservabilityConfig
from repro.errors import DeadlineExceededError
from repro.qos import Deadline
from repro.tiers import ares_hierarchy
from repro.units import GiB, KiB, MiB

SHAPES = ("multi_piece", "single_piece", "modeled")


@pytest.fixture(params=[False, True], ids=["bare", "obs"])
def engine(request, seed, gamma_f64):
    config = HCompressConfig(
        observability=ObservabilityConfig(enabled=request.param)
    )
    hierarchy = ares_hierarchy(64 * KiB, 128 * KiB, 1 * GiB, nodes=2)
    engine = HCompress(hierarchy, config, seed=seed)
    split = engine.compress(gamma_f64, task_id="multi_piece")
    assert len(split.pieces) >= 2  # tiny RAM tier: the task must split
    small = engine.compress(gamma_f64[: 2 * KiB], task_id="single_piece")
    assert len(small.pieces) == 1
    engine.compress(gamma_f64, modeled_size=8 * MiB, task_id="modeled")
    yield engine
    engine.close()


def _comparable(result):
    return replace(result, metadata_seconds=0.0)


@pytest.mark.parametrize("task_id", SHAPES)
def test_engine_forms_return_identical_results(engine, task_id) -> None:
    per_task = engine.decompress(task_id)
    (batch,) = engine.decompress_batch([task_id])
    ranged = engine.decompress(task_id, offset=0)
    assert _comparable(batch) == _comparable(per_task)
    assert _comparable(ranged) == _comparable(per_task)
    assert per_task.pieces == len(engine.manager.task_keys(task_id))


@pytest.mark.parametrize("task_id", SHAPES)
def test_manager_forms_return_identical_results(engine, task_id) -> None:
    manager = engine.manager
    per_task = manager.execute_read(task_id)
    (batch,) = manager.execute_read_batch([task_id])
    ranged = manager.execute_read_range(task_id, 0, per_task.modeled_size)
    assert _comparable(batch) == _comparable(per_task)
    assert _comparable(ranged) == _comparable(per_task)
    if task_id == "modeled":
        assert per_task.data is None and per_task.modeled_size == 8 * MiB
    else:
        assert len(per_task.data) == per_task.modeled_size


@pytest.mark.parametrize("task_id", SHAPES)
def test_deadline_expiring_on_the_last_piece_is_typed(engine, task_id) -> None:
    manager = engine.manager
    unbounded = manager.execute_read(task_id)
    total, size = unbounded.io_seconds, unbounded.modeled_size
    # Enough for every piece but the last: the per-piece checks pass and
    # the final check, with the full I/O bill, must trip — in every form.
    budget = total * (1 - 1e-9)
    for read in (
        lambda dl: manager.execute_read(task_id, deadline=dl),
        lambda dl: manager.execute_read_batch([task_id], deadline=dl),
        lambda dl: manager.execute_read_range(task_id, 0, size, deadline=dl),
    ):
        with pytest.raises(DeadlineExceededError):
            read(Deadline(budget))
        read(Deadline(total * 2))  # a sufficient budget still reads
    for read in (
        lambda: engine.decompress(task_id, deadline=budget),
        lambda: engine.decompress_batch([task_id], deadline=budget),
        lambda: engine.decompress(task_id, offset=0, deadline=budget),
    ):
        with pytest.raises(DeadlineExceededError):
            read()
