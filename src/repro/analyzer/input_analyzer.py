"""The Input Analyzer facade (paper §IV-C).

Combines datatype inference, format detection, and distribution
classification into one :class:`InputAnalysis` record — the data-attribute
triple the Compression Cost Predictor keys on. Self-described inputs (our
h5lite container, or caller-provided metadata hints) take the fast path and
skip inference entirely, which is the paper's "extremely fast and accurate
in most practical cases" claim.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hashing import stable_hash32
from ..obs import Metric
from .datatype import DataType, infer_datatype
from .distribution import Distribution, classify_distribution
from .format import DataFormat, detect_format

__all__ = ["InputAnalysis", "InputAnalyzer", "MetadataHints"]


@dataclass(frozen=True)
class MetadataHints:
    """Caller-supplied attributes that bypass inference.

    Any field left ``None`` is still inferred; a fully populated hint set
    (the h5lite/HDF5 path) makes analysis O(1).
    """

    dtype: DataType | None = None
    data_format: DataFormat | None = None
    distribution: Distribution | None = None


@dataclass(frozen=True)
class InputAnalysis:
    """The analyzer's output: everything the cost model keys on."""

    size: int
    dtype: DataType
    data_format: DataFormat
    distribution: Distribution
    from_metadata: bool

    def feature_key(self) -> tuple[str, str, str]:
        """(dtype, format, distribution) — the CCP's categorical features."""
        return (self.dtype.value, self.data_format.value, self.distribution.value)


class InputAnalyzer:
    """Stateless analysis facade with an LRU over repeated buffer prefixes.

    Workloads emit many same-shaped buffers (every VPIC checkpoint has the
    same eight float properties); caching on (size, prefix hash) makes the
    steady-state cost of analysis a dict lookup, mirroring how cheap the
    paper measures this stage to be (Fig. 3).
    """

    #: The families this object exports (``Observability.mirror``).
    METRICS = (
        Metric(
            "hcompress_analyzer_cache_hits_total", "input-analysis cache hits",
            "cache_hits",
        ),
        Metric(
            "hcompress_analyzer_cache_misses_total",
            "input analyses that ran inference", "cache_misses",
        ),
    )

    def __init__(self, cache_size: int = 256) -> None:
        self._cache_size = cache_size
        self._cache: dict[tuple[int, int], InputAnalysis] = {}
        self.cache_hits = 0
        self.cache_misses = 0

    def analyze(
        self, data: bytes, hints: MetadataHints | None = None
    ) -> InputAnalysis:
        """Characterise one buffer (optionally short-circuited by hints)."""
        if hints and hints.dtype and hints.data_format and hints.distribution:
            return InputAnalysis(
                size=len(data),
                dtype=hints.dtype,
                data_format=hints.data_format,
                distribution=hints.distribution,
                from_metadata=True,
            )
        # Seeded CRC keys (not builtin hash()): the cache key must be
        # identical across processes whatever PYTHONHASHSEED says.
        key = (
            len(data),
            stable_hash32(data[:256]) ^ (stable_hash32(data[-256:]) << 32),
        )
        cached = self._cache.get(key)
        if cached is not None and hints is None:
            self.cache_hits += 1
            return cached
        self.cache_misses += 1

        data_format = (hints.data_format if hints else None) or detect_format(data)
        dtype = (hints.dtype if hints else None)
        if dtype is None:
            if data_format in (DataFormat.CSV, DataFormat.JSON, DataFormat.TEXT):
                dtype = DataType.TEXT
            else:
                dtype = infer_datatype(data).dtype
        distribution = (hints.distribution if hints else None)
        if distribution is None:
            distribution = classify_distribution(data, dtype).distribution

        analysis = InputAnalysis(
            size=len(data),
            dtype=dtype,
            data_format=data_format,
            distribution=distribution,
            from_metadata=hints is not None,
        )
        if hints is None and self._cache_size > 0:
            if len(self._cache) >= self._cache_size:
                self._cache.pop(next(iter(self._cache)))
            self._cache[key] = analysis
        return analysis
