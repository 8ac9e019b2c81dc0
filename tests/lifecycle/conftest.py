"""Both daemon traces, run once per session with every relocation recorded."""

from __future__ import annotations

import pytest

from .traces import Recording, run_traces


@pytest.fixture(scope="session")
def relocation_traces(seed, tmp_path_factory) -> dict[str, Recording]:
    return run_traces(seed, tmp_path_factory.mktemp("mixed"))
