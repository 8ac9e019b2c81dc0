"""The reinforcement feedback loop (paper §IV-D).

Compressors report their actual measured cost after every operation; the
loop buffers these and, every ``every_n`` operations (n is configurable in
the paper), flushes the batch into the predictor's recursive-least-squares
heads. This is the mechanism that lifts the model's accuracy from ~83% on
drifted real data back to ~96%.
"""

from __future__ import annotations

from ..errors import ModelError
from ..obs import Metric
from .predictor import CompressionCostPredictor
from .seed import CostObservation

__all__ = ["FeedbackLoop"]


class FeedbackLoop:
    """Batched observation funnel into a :class:`CompressionCostPredictor`.

    Args:
        predictor: The model being refined.
        every_n: Flush cadence in recorded operations.
    """

    #: The families this object exports (``Observability.mirror``).
    METRICS = (
        Metric("hcompress_feedback_events_total", "observations recorded", "events"),
        Metric("hcompress_feedback_flushes_total", "RLS batch updates", "flushes"),
        Metric(
            "hcompress_feedback_pending", "observations awaiting a flush",
            "pending", kind="gauge",
        ),
    )

    def __init__(
        self, predictor: CompressionCostPredictor, every_n: int = 16
    ) -> None:
        if every_n < 1:
            raise ModelError(f"every_n must be >= 1, got {every_n}")
        self.predictor = predictor
        self.every_n = every_n
        self._pending: list[CostObservation] = []
        self._events = 0
        self._flushes = 0

    @property
    def events(self) -> int:
        """Total observations recorded (flushed or pending)."""
        return self._events

    @property
    def flushes(self) -> int:
        return self._flushes

    @property
    def pending(self) -> int:
        return len(self._pending)

    def record(self, observation: CostObservation) -> bool:
        """Buffer one observation; flushes automatically at the cadence.

        Returns True when this record triggered a flush.
        """
        self._pending.append(observation)
        self._events += 1
        if len(self._pending) >= self.every_n:
            self.flush()
            return True
        return False

    def record_run(self, observations, count: int) -> bool:
        """Record ``count`` repetitions of one task's observations.

        State-identical to ``count`` sequential :meth:`record` passes in
        task-major order (batch run lanes re-emit one template's
        observation objects per task). When the whole run fits below the
        flush cadence the buffer grows in one extend; otherwise each
        observation records individually so flushes fire at exactly the
        sequential points. Returns True when any flush fired.
        """
        total = len(observations) * count
        if total == 0:
            return False
        if len(self._pending) + total < self.every_n:
            self._pending.extend(list(observations) * count)
            self._events += total
            return False
        flushed = False
        for _ in range(count):
            for observation in observations:
                if self.record(observation):
                    flushed = True
        return flushed

    def flush(self) -> int:
        """Push all pending observations into the model; returns the count."""
        count = len(self._pending)
        for observation in self._pending:
            self.predictor.observe(observation)
        self._pending.clear()
        if count:
            self._flushes += 1
        return count

    def accuracy(self) -> float | None:
        """Current mean model accuracy (Fig. 4(b)'s reported metric)."""
        return self.predictor.mean_accuracy()
