"""Deterministic fault injection for chaos-testing the hierarchy.

`plan` declares *what* breaks and when (:class:`FaultPlan`); `injector`
executes the plan against a live :class:`~repro.tiers.StorageHierarchy`
on the simulated clock (:class:`FaultInjector`), interposing
:class:`FaultyDevice` wrappers for per-operation transient errors and
read-path corruption; `latent` plants seeded *at-rest* bit-rot into
already-stored blobs — the failure mode the ``repro.scrub`` subsystem
detects and self-heals (:class:`LatentCorruptionInjector`).

`scenario` is the one chaos runner over all of it — a frozen
:class:`ScenarioConfig`, the :data:`PRESETS` the CLI and CI run, one
:func:`run_scenario` driver, one :class:`Outcome`, and
:func:`sweep_crash_sites` over the crash-site matrix — and `invariants`
the table of named contracts (:data:`INVARIANTS`) the presets select from.
"""

from .device import FaultyDevice
from .injector import FaultInjector, InjectorStats
from .invariants import INVARIANTS
from .latent import LatentCorruption, LatentCorruptionInjector
from .plan import FaultEvent, FaultKind, FaultPlan
from .scenario import (
    PRESETS,
    Outcome,
    ScenarioConfig,
    ScenarioRun,
    default_chaos_plan,
    default_seed,
    flap_plan,
    run_scenario,
    scenario,
    sweep_crash_sites,
)

__all__ = [
    "FaultEvent",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "FaultyDevice",
    "INVARIANTS",
    "InjectorStats",
    "LatentCorruption",
    "LatentCorruptionInjector",
    "Outcome",
    "PRESETS",
    "ScenarioConfig",
    "ScenarioRun",
    "default_chaos_plan",
    "default_seed",
    "flap_plan",
    "run_scenario",
    "scenario",
    "sweep_crash_sites",
]
