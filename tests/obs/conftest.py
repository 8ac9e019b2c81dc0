"""Shared by the telemetry golden and the hot-path budget."""

from __future__ import annotations

import pytest

from repro.core import HCompress
from repro.core.config import (
    HCompressConfig,
    ObservabilityConfig,
    QosConfig,
    RecoveryConfig,
    ScrubConfig,
)
from repro.tiers import ares_hierarchy
from repro.units import GiB


@pytest.fixture()
def armed_engine(seed, tmp_path):
    """The benchmark's armed engine — obs + QoS + journal + digests, no
    brownout — over a RAM tier that holds every test task whole (no
    capacity split, so a modeled task is one piece)."""
    engine = HCompress(
        ares_hierarchy(1 * GiB, 2 * GiB, 64 * GiB, nodes=2),
        HCompressConfig(
            observability=ObservabilityConfig(enabled=True),
            qos=QosConfig(
                enabled=True, max_backlog_bytes=1 << 40,
                brownout_enabled=False,
            ),
            recovery=RecoveryConfig(
                enabled=True, directory=tmp_path, fsync=False
            ),
            scrub=ScrubConfig(content_digests=True, verify_reads=True),
        ),
        seed=seed,
    )
    yield engine
    engine.close()
