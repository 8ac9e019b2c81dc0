"""HCompress reproduction: hierarchical data compression for multi-tiered
storage environments (Devarajan et al., IPDPS 2020).

Quickstart::

    from repro import HCompress, ares_hierarchy
    from repro.units import GiB

    hierarchy = ares_hierarchy(ram_capacity=1 * GiB)
    engine = HCompress(hierarchy)
    result = engine.compress(my_bytes)
    restored = engine.decompress(result.task.task_id).data

Subpackages: ``codecs`` (the compression library pool), ``tiers`` (the
storage hierarchy), ``sim`` (discrete-event cluster simulation),
``analyzer`` / ``ccp`` / ``monitor`` / ``hcdp`` (the engine's components),
``core`` (the HCompress engine itself), ``hermes`` (the baseline),
``workloads`` (VPIC-IO, BD-CATS-IO, micro-benchmarks), ``experiments``
(per-figure reproduction harnesses), ``faults`` (deterministic fault
injection and chaos runs), ``obs`` (opt-in metrics, tracing, and
profiling hooks — see docs/OBSERVABILITY.md).
"""

from .analyzer import DataFormat, DataType, Distribution, InputAnalyzer, MetadataHints
from .ccp import CompressionCostPredictor, FeedbackLoop, SeedData, load_seed, save_seed
from .codecs import CompressionLibraryPool, get_codec
from .core import (
    HCompress,
    HCompressConfig,
    HCompressFile,
    HCompressProfiler,
    hcompress_session,
)
from .core.config import RecoveryConfig, ResilienceConfig
from .errors import HCompressError
from .faults import FaultInjector, FaultPlan, run_scenario
from .hcdp import (
    ARCHIVAL_IO,
    ASYNC_IO,
    EQUAL,
    READ_AFTER_WRITE,
    HcdpEngine,
    IOTask,
    Priority,
)
from .hermes import HermesBuffering, HermesWithStaticCompression
from .monitor import SystemMonitor
from .obs import Observability, ObservabilityConfig
from .sim import Simulation
from .tiers import StorageHierarchy, Tier, TierSpec, ares_hierarchy

__version__ = "1.0.0"

__all__ = [
    "ARCHIVAL_IO",
    "ASYNC_IO",
    "CompressionCostPredictor",
    "CompressionLibraryPool",
    "DataFormat",
    "DataType",
    "Distribution",
    "EQUAL",
    "FaultInjector",
    "FaultPlan",
    "FeedbackLoop",
    "HCompress",
    "HCompressConfig",
    "HCompressError",
    "HCompressFile",
    "HCompressProfiler",
    "HcdpEngine",
    "HermesBuffering",
    "HermesWithStaticCompression",
    "IOTask",
    "InputAnalyzer",
    "MetadataHints",
    "Observability",
    "ObservabilityConfig",
    "Priority",
    "READ_AFTER_WRITE",
    "RecoveryConfig",
    "ResilienceConfig",
    "SeedData",
    "Simulation",
    "StorageHierarchy",
    "SystemMonitor",
    "Tier",
    "TierSpec",
    "ares_hierarchy",
    "get_codec",
    "hcompress_session",
    "load_seed",
    "run_scenario",
    "save_seed",
    "__version__",
]
