"""Shared fixtures: cached profiler seed, hierarchy factories, data corpus."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.ccp import SeedData
from repro.faults import default_seed
from repro.tiers import StorageHierarchy, Tier, TierSpec, ares_hierarchy
from repro.units import GiB, KiB, MiB


@pytest.fixture(scope="session")
def seed() -> SeedData:
    """One profiler seed for the whole test session (bootstrap is the
    expensive part of engine construction).

    Two corpus sizes are required: with a single size the encoder's
    log-size column is constant, its coefficient is unconstrained, and
    predictions at other task sizes extrapolate arbitrarily.
    """
    return default_seed()


@pytest.fixture(scope="session")
def check_docs():
    """``tools/check_docs.py`` as a module (it is a script, not a package)."""
    spec = importlib.util.spec_from_file_location(
        "check_docs",
        Path(__file__).resolve().parent.parent / "tools" / "check_docs.py",
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules["check_docs"] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture()
def small_hierarchy() -> StorageHierarchy:
    """A tiny 3-tier + PFS stack for placement tests."""
    return ares_hierarchy(
        ram_capacity=4 * MiB,
        nvme_capacity=8 * MiB,
        bb_capacity=64 * MiB,
        nodes=2,
    )


@pytest.fixture()
def two_tier() -> StorageHierarchy:
    """Minimal bounded-fast + unbounded-slow hierarchy."""
    fast = TierSpec(name="fast", capacity=1 * MiB, bandwidth=1e9, latency=1e-6, lanes=2)
    slow = TierSpec(name="slow", capacity=None, bandwidth=1e8, latency=1e-3, lanes=4)
    return StorageHierarchy([Tier(fast), Tier(slow)])


@pytest.fixture()
def gamma_f64(rng) -> bytes:
    """A compressible float64 gamma buffer (quantised)."""
    from repro.datagen import synthetic_buffer

    return synthetic_buffer("float64", "gamma", 64 * KiB, rng)
