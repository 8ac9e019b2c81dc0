"""Shared benchmark fixtures: the profiler seed and the table printer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ccp import SeedData
from repro.core import HCompressProfiler
from repro.units import KiB


@pytest.fixture(scope="session")
def seed() -> SeedData:
    """One profiler seed shared by every bench."""
    profiler = HCompressProfiler(rng=np.random.default_rng(0))
    return profiler.quick_seed(sizes=(8 * KiB, 32 * KiB))


def table_to_extra_info(benchmark, table) -> None:
    """Attach an experiment table to the benchmark record and print it."""
    benchmark.extra_info["table"] = table.to_markdown()
    print()
    print(table.to_markdown())
