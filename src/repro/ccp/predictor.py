"""The Compression Cost Predictor (paper §IV-D).

Maintains three regression heads over the shared feature encoding — one per
component of the Expected Compression Cost 3-tuple (compression speed,
decompression speed, compression ratio). Targets are regressed in log2
space: codec speeds span two orders of magnitude, and the multiplicative
structure (codec x distribution effects) is additive there, which is what
lets a linear model reach the paper's ~95% accuracy.

Lifecycle: ``fit_seed`` performs the batch OLS fit on profiler
observations (reporting adjusted R^2 / p-values / F-statistic as the paper
does), then hands each head to recursive least squares so the feedback loop
can keep learning online.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ModelError
from ..monitor.stats import r_squared
from ..obs import Metric
from .features import FeatureEncoder, ObservationKey
from .linreg import OlsFitReport, OlsModel, RecursiveLeastSquares
from .seed import CostObservation

__all__ = ["ExpectedCompressionCost", "CompressionCostPredictor"]

_TARGETS = ("compress_mbps", "decompress_mbps", "ratio")
_ACCURACY_WINDOW = 512


@dataclass(frozen=True)
class ExpectedCompressionCost:
    """The ECC 3-tuple for one (input, codec) pair."""

    codec: str
    compress_mbps: float
    decompress_mbps: float
    ratio: float


class CompressionCostPredictor:
    """Three-headed linear cost model with online refinement."""

    #: The families this object exports (``Observability.mirror``); accuracy
    #: has no series until the sliding window can be scored.
    METRICS = (
        Metric(
            "hcompress_model_version", "CCP parameter generation",
            "model_version", kind="gauge",
        ),
        Metric(
            "hcompress_model_accuracy", "sliding mean R^2 over the heads",
            lambda predictor: predictor.mean_accuracy(), kind="gauge",
        ),
        Metric(
            "hcompress_ccp_table_cache_hits_total", "candidate-table cache hits",
            "table_cache_hits",
        ),
        Metric(
            "hcompress_ccp_table_cache_misses_total",
            "candidate-table cache misses", "table_cache_misses",
        ),
    )

    def __init__(
        self, encoder: FeatureEncoder | None = None, lam: float = 1.0
    ) -> None:
        self.encoder = encoder if encoder is not None else FeatureEncoder()
        self._lam = lam
        self._heads: dict[str, RecursiveLeastSquares] = {}
        self._fit_reports: dict[str, OlsFitReport] = {}
        # Sliding (actual, predicted) pairs per target, for live accuracy.
        self._window: dict[str, list[tuple[float, float]]] = {
            t: [] for t in _TARGETS
        }
        self._observations_seen = 0
        # Inference cache: planning hammers the same (attributes, codec,
        # size) keys thousands of times between model updates; any update
        # invalidates everything.
        self._cache: dict[tuple, ExpectedCompressionCost] = {}
        # Whole-table cache for the HCDP engine's candidate construction:
        # one vectorized predict_batch per (feature key, size, roster),
        # reused until the model changes.
        self._table_cache: dict[tuple, tuple[ExpectedCompressionCost, ...]] = {}
        self.table_cache_hits = 0
        self.table_cache_misses = 0
        # Monotone model version: bumps on every parameter change (seed
        # fit, online observation, theta import). Consumers holding
        # model-derived state — cached ECC tables, cached plans — key on
        # it so retraining invalidates them exactly.
        self._version = 0

    # -- bootstrap ---------------------------------------------------------

    @property
    def fitted(self) -> bool:
        return bool(self._heads)

    @property
    def fit_reports(self) -> dict[str, OlsFitReport]:
        """Batch-fit diagnostics per target (empty before fit_seed)."""
        return dict(self._fit_reports)

    @property
    def observations_seen(self) -> int:
        return self._observations_seen

    @property
    def model_version(self) -> int:
        """Monotone counter of parameter changes (fit/observe/import)."""
        return self._version

    def fit_seed(
        self, observations: list[CostObservation]
    ) -> dict[str, OlsFitReport]:
        """Batch-fit all heads from profiler observations."""
        if len(observations) < 8:
            raise ModelError(
                f"need >= 8 seed observations to fit, got {len(observations)}"
            )
        X = self.encoder.encode_batch([obs.key for obs in observations])
        reports = {}
        for target in _TARGETS:
            y = np.array(
                [math.log2(getattr(obs, target)) for obs in observations]
            )
            ols = OlsModel(self.encoder.width)
            reports[target] = ols.fit(X, y)
            self._heads[target] = RecursiveLeastSquares.from_ols(ols, lam=self._lam)
        self._fit_reports = reports
        self._observations_seen += len(observations)
        self._bump_version()
        return reports

    def _bump_version(self) -> None:
        self._version += 1
        self._cache.clear()
        self._table_cache.clear()

    # -- inference -----------------------------------------------------------

    def predict(self, key: ObservationKey) -> ExpectedCompressionCost:
        """ECC for one (input attributes, codec) pair.

        The identity codec is answered analytically (ratio exactly 1,
        memcpy-class speed) — the paper's c = 0 choice must never be
        distorted by model noise.
        """
        if key.codec == "none":
            return ExpectedCompressionCost("none", 12000.0, 12000.0, 1.0)
        if not self._heads:
            raise ModelError("predictor is not fitted; call fit_seed first")
        cache_key = (key.dtype, key.data_format, key.distribution, key.codec, key.size)
        cached = self._cache.get(cache_key)
        if cached is not None:
            return cached
        x = self.encoder.encode(key)
        # Clamp the log-space heads: a pathological update must degrade
        # predictions, never overflow the exponential.
        values = {
            t: 2.0 ** min(max(self._heads[t].predict(x), -20.0), 20.0)
            for t in _TARGETS
        }
        ecc = ExpectedCompressionCost(
            codec=key.codec,
            compress_mbps=max(values["compress_mbps"], 0.1),
            decompress_mbps=max(values["decompress_mbps"], 0.1),
            ratio=max(values["ratio"], 0.05),
        )
        if len(self._cache) >= 4096:
            self._cache.clear()
        self._cache[cache_key] = ecc
        return ecc

    def predict_all(
        self,
        dtype: str,
        data_format: str,
        distribution: str,
        size: int,
        codecs: tuple[str, ...] | None = None,
    ) -> dict[str, ExpectedCompressionCost]:
        """ECC table over a codec roster for one input."""
        roster = codecs if codecs is not None else self.encoder.codecs
        return {
            codec: self.predict(
                ObservationKey(dtype, data_format, distribution, codec, size)
            )
            for codec in roster
        }

    def predict_batch(
        self, keys: list[ObservationKey]
    ) -> list[ExpectedCompressionCost]:
        """Vectorized ECC inference over many keys at once.

        Uncached keys are encoded into one design matrix and answered with
        a single ``X @ theta`` per head instead of per-key dot products —
        this is what keeps the HCDP engine's candidate-table construction
        O(1) matmuls per plan rather than O(codecs) scalar predictions.
        Results are folded into the same per-key cache the scalar
        :meth:`predict` path uses, so both paths answer any given key with
        one consistent value within a model version.
        """
        results: list[ExpectedCompressionCost | None] = [None] * len(keys)
        pending: list[tuple[int, ObservationKey, tuple]] = []
        for i, key in enumerate(keys):
            if key.codec == "none":
                results[i] = ExpectedCompressionCost("none", 12000.0, 12000.0, 1.0)
                continue
            cache_key = (
                key.dtype, key.data_format, key.distribution, key.codec, key.size
            )
            cached = self._cache.get(cache_key)
            if cached is not None:
                results[i] = cached
            else:
                pending.append((i, key, cache_key))
        if pending:
            if not self._heads:
                raise ModelError("predictor is not fitted; call fit_seed first")
            X = self.encoder.encode_batch([key for _, key, _ in pending])
            columns = {
                t: np.exp2(np.clip(X @ self._heads[t].theta, -20.0, 20.0))
                for t in _TARGETS
            }
            for row, (i, key, cache_key) in enumerate(pending):
                ecc = ExpectedCompressionCost(
                    codec=key.codec,
                    compress_mbps=max(float(columns["compress_mbps"][row]), 0.1),
                    decompress_mbps=max(float(columns["decompress_mbps"][row]), 0.1),
                    ratio=max(float(columns["ratio"][row]), 0.05),
                )
                if len(self._cache) >= 4096:
                    self._cache.clear()
                self._cache[cache_key] = ecc
                results[i] = ecc
        return results  # type: ignore[return-value]

    def candidate_table(
        self,
        dtype: str,
        data_format: str,
        distribution: str,
        size: int,
        codecs: tuple[str, ...],
    ) -> tuple[ExpectedCompressionCost, ...]:
        """ECC tuple over a codec roster, cached per model version.

        The HCDP engine calls this once per plan; within a model version
        repeated plans over the same (feature key, size, roster) are a
        single dict lookup.
        """
        table_key = (dtype, data_format, distribution, size, codecs)
        cached = self._table_cache.get(table_key)
        if cached is not None:
            self.table_cache_hits += 1
            return cached
        self.table_cache_misses += 1
        table = tuple(
            self.predict_batch(
                [
                    ObservationKey(dtype, data_format, distribution, codec, size)
                    for codec in codecs
                ]
            )
        )
        if len(self._table_cache) >= 1024:
            self._table_cache.clear()
        self._table_cache[table_key] = table
        return table

    def prefetch_tables(
        self,
        groups: list[tuple[str, str, str, int]],
        codecs: tuple[str, ...],
    ) -> int:
        """Warm the candidate-table cache for many planning groups at once.

        ``groups`` are ``(dtype, data_format, distribution, size)`` tuples
        — one per distinct (feature key, size bucket) a batch is about to
        plan. All missing tables are answered with a *single*
        :meth:`predict_batch` call (one design matrix, one matmul per
        head) instead of one per group; subsequent
        :meth:`candidate_table` lookups in the batch then hit the cache.
        The per-key values are identical to what per-group construction
        would produce, so warmed tables never change a plan. Returns the
        number of tables built; cache hit/miss counters are untouched —
        prefetching is a warm-up, not a lookup.
        """
        pending: list[tuple[tuple, tuple[str, str, str, int]]] = []
        for group in groups:
            dtype, data_format, distribution, size = group
            table_key = (dtype, data_format, distribution, size, codecs)
            if table_key not in self._table_cache:
                pending.append((table_key, group))
        if not pending:
            return 0
        keys = [
            ObservationKey(dtype, data_format, distribution, codec, size)
            for _, (dtype, data_format, distribution, size) in pending
            for codec in codecs
        ]
        eccs = self.predict_batch(keys)
        width = len(codecs)
        for n, (table_key, _) in enumerate(pending):
            table = tuple(eccs[n * width : (n + 1) * width])
            if len(self._table_cache) >= 1024:
                self._table_cache.clear()
            self._table_cache[table_key] = table
        return len(pending)

    # -- online learning (feedback loop target) ---------------------------------

    def observe(self, observation: CostObservation) -> None:
        """Fold one measured cost into every head (RLS update)."""
        if not self._heads:
            raise ModelError("predictor is not fitted; call fit_seed first")
        if observation.key.codec == "none":
            return  # identity is analytic; nothing to learn
        x = self.encoder.encode(observation.key)
        for target in _TARGETS:
            actual = math.log2(getattr(observation, target))
            predicted = self._heads[target].predict(x)
            window = self._window[target]
            window.append((actual, predicted))
            if len(window) > _ACCURACY_WINDOW:
                del window[: len(window) - _ACCURACY_WINDOW]
            self._heads[target].update(x, actual)
        self._observations_seen += 1
        self._bump_version()

    def accuracy(self, target: str = "ratio") -> float | None:
        """Sliding-window R^2 of a head's pre-update predictions.

        This is the paper's Fig. 4(b) accuracy metric. ``None`` until at
        least 8 observations have arrived.
        """
        if target not in _TARGETS:
            raise ModelError(f"unknown target {target!r}")
        window = self._window[target]
        if len(window) < 8:
            return None
        actual = np.array([a for a, _ in window])
        predicted = np.array([p for _, p in window])
        # Near-constant windows (one codec fed the same measurement over
        # and over) make R^2 meaningless — score by relative error instead.
        if float(actual.var()) < 1e-8:
            rel = float(np.mean(np.abs(actual - predicted))) / max(
                float(np.mean(np.abs(actual))), 1e-9
            )
            return max(0.0, 1.0 - rel)
        return r_squared(actual, predicted)

    def mean_accuracy(self) -> float | None:
        """Mean R^2 across all three heads (None until warmed up)."""
        scores = [self.accuracy(t) for t in _TARGETS]
        if any(s is None for s in scores):
            return None
        return float(np.mean([s for s in scores if s is not None]))

    # -- persistence ---------------------------------------------------------

    def export_theta(self) -> dict[str, list[float]]:
        """Model parameters for writing back into the JSON seed."""
        return {t: head.theta.tolist() for t, head in self._heads.items()}

    def import_theta(self, theta: dict[str, list[float]]) -> None:
        """Restore previously exported parameters (skips batch fitting)."""
        for target in _TARGETS:
            if target not in theta:
                raise ModelError(f"missing head {target!r} in imported parameters")
            vec = np.asarray(theta[target], dtype=np.float64)
            self._heads[target] = RecursiveLeastSquares(
                self.encoder.width, theta=vec, lam=self._lam, initial_p=1.0
            )
        self._bump_version()

    def restore_state(
        self,
        theta: dict[str, list[float]],
        model_version: int,
        observations_seen: int,
    ) -> None:
        """Adopt a checkpointed model wholesale (crash recovery).

        Beyond :meth:`import_theta`, this pins :attr:`model_version` and
        :attr:`observations_seen` to the checkpointed values so consumers
        keyed on the version (plan cache, ECC table caches) see one
        consistent, monotone counter across the restart. The version never
        moves backwards: a fresh engine whose construction already bumped
        past the snapshot keeps its larger value.
        """
        if model_version < 0 or observations_seen < 0:
            raise ModelError(
                "model_version and observations_seen must be >= 0"
            )
        self.import_theta(theta)
        self._version = max(self._version, model_version)
        self._observations_seen = max(
            self._observations_seen, observations_seen
        )
