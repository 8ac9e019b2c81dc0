"""Storage Hardware Interface (paper §IV-A).

The SHI is the only component that touches the tiers: it places decorated
sub-task payloads, finds and reads them back, and reports the modeled I/O
time of each operation so callers (the main library, or the event
simulator) can charge it. Keys are ``"{task_id}/{piece_index}"``.

Resilience: every operation runs under a :class:`ResilienceConfig` policy —
transient failures (:class:`TransientIOError`) are retried with exponential
backoff plus seeded jitter, and a write whose target tier is down or full
fails over to the nearest tier that fits. Backoff sleeps are *charged to
the modeled clock* (they inflate the receipt's ``seconds`` and are reported
through ``on_wait``), never slept in wall time, so chaos runs stay
deterministic and replayable. Every retry/failover decision is appended to
``stats.trace`` for replay comparison.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field

from ..errors import (
    AllTiersUnavailableError,
    CapacityError,
    CircuitOpenError,
    RetryExhaustedError,
    TierError,
    TierUnavailableError,
    TransientIOError,
)
from ..obs import Metric
from ..tiers import StorageHierarchy, Tier
from .config import ResilienceConfig

__all__ = ["StorageHardwareInterface", "IoReceipt", "ResilienceStats"]


@dataclass(frozen=True)
class IoReceipt:
    """Outcome of one SHI operation.

    ``seconds`` is the uncontended modeled I/O time (latency + accounted
    size / lane bandwidth, scaled by any injected slowdown) plus any
    backoff charged while retrying. ``tier`` is where the data actually
    landed, which differs from the requested tier after a failover.
    """

    key: str
    tier: str
    nbytes: int
    seconds: float
    retries: int = 0
    failover: bool = False


@dataclass
class ResilienceStats:
    """Cumulative resilience counters plus the deterministic event trace."""

    retries: int = 0
    failovers: int = 0
    backoff_seconds: float = 0.0
    exhausted: int = 0
    trace: list[tuple] = field(default_factory=list)

    def record(self, *event) -> None:
        self.trace.append(tuple(event))

    #: The families this structure exports (``Observability.mirror``). The
    #: ``_trace_`` totals are its own counts; the per-tier ``hcompress_shi_*``
    #: pushes accumulate independently and tests/obs holds the two equal.
    METRICS = (
        Metric(
            "hcompress_shi_trace_retries_total",
            "mirror of ResilienceStats.retries", "retries",
        ),
        Metric(
            "hcompress_shi_trace_failovers_total",
            "mirror of ResilienceStats.failovers", "failovers",
        ),
        Metric(
            "hcompress_shi_trace_exhausted_total",
            "mirror of ResilienceStats.exhausted", "exhausted",
        ),
        Metric(
            "hcompress_shi_trace_backoff_seconds_total",
            "mirror of ResilienceStats.backoff_seconds", "backoff_seconds",
        ),
        Metric(
            "hcompress_shi_trace_events_total",
            "deterministic SHI trace events by kind",
            lambda stats: dict(
                sorted(Counter((event[0],) for event in stats.trace).items())
            ),
            ("kind",),
        ),
    )


class StorageHardwareInterface:
    """Resilient placement/retrieval layer over a :class:`StorageHierarchy`.

    Args:
        hierarchy: The managed tier stack.
        resilience: Retry/failover policy; defaults to
            :class:`ResilienceConfig` defaults.
        on_wait: Optional hook invoked with every backoff duration so the
            owner can advance a simulated clock (and with it any fault
            injector) while the operation "sleeps". Never wall-clock.
        obs: Optional :class:`~repro.obs.Observability` sink; per-tier
            bytes/time and retry/failover events are pushed into its
            registry, independently of the legacy ``stats`` counters.
        crashpoints: Optional crash-point arbiter
            (:class:`~repro.recovery.Crashpoints`); the write path honours
            the ``shi.write.pre_put``/``post_put``/``failover`` sites.
        qos: Optional :class:`~repro.qos.QosGovernor`. When present, the
            write path consults its per-tier circuit breakers (an open
            breaker is skipped like an injected outage) and feeds every
            tier outcome — success with its modeled latency, or failure —
            back into them.
    """

    def __init__(
        self,
        hierarchy: StorageHierarchy,
        resilience: ResilienceConfig | None = None,
        on_wait=None,
        obs=None,
        crashpoints=None,
        qos=None,
    ) -> None:
        self.hierarchy = hierarchy
        self.resilience = (
            resilience if resilience is not None else ResilienceConfig()
        )
        self.on_wait = on_wait
        self.obs = obs
        self.crashpoints = crashpoints
        self.qos = qos
        self.stats = ResilienceStats()
        self._rng = random.Random(self.resilience.jitter_seed)

    @staticmethod
    def piece_key(task_id: str, index: int) -> str:
        return f"{task_id}/{index}"

    # -- retry plumbing ------------------------------------------------------

    def _backoff(self, attempt: int, key: str, tier: str) -> float:
        """One backoff sleep, charged to the modeled clock."""
        seconds = self.resilience.backoff_seconds(attempt, self._rng)
        self.stats.retries += 1
        self.stats.backoff_seconds += seconds
        self.stats.record("retry", key, tier, attempt, round(seconds, 9))
        if self.obs is not None:
            self.obs.record_retry(tier, seconds)
        if self.on_wait is not None:
            self.on_wait(seconds)
        return seconds

    def _check_retry_deadline(
        self,
        charged_backoff: float,
        key: str,
        operation: str,
        last_error: TierError | None,
    ) -> None:
        """Cap cumulative backoff across retries *and* failover candidates.

        Attempt counts bound retries per tier, but a failover chain
        multiplies them; once total charged backoff crosses the policy's
        ``retry_deadline`` the operation fails typed instead of stalling.
        """
        deadline = self.resilience.retry_deadline
        if deadline is not None and charged_backoff > deadline:
            self.stats.exhausted += 1
            self.stats.record(
                "retry_deadline", key, operation, round(charged_backoff, 9)
            )
            raise AllTiersUnavailableError(
                f"{operation} of {key!r} exceeded retry_deadline "
                f"({deadline}s): {charged_backoff:.6g}s of cumulative backoff"
            ) from last_error

    def _failover_candidates(self, level: int) -> list[Tier]:
        """Tiers to try after ``level`` fails: lower (closer to the sink)
        first — they are the capacity refuge — then upper tiers."""
        below = [self.hierarchy[i] for i in range(level + 1, len(self.hierarchy))]
        above = [self.hierarchy[i] for i in range(level - 1, -1, -1)]
        return below + above

    # -- write path ----------------------------------------------------------

    def write(
        self,
        key: str,
        tier_name: str,
        payload: bytes | None,
        accounted_size: int | None = None,
    ) -> IoReceipt:
        """Place one payload on the named tier, retrying transient errors
        and failing over to the next tier that fits when the target is
        down or full.

        Raises:
            RetryExhaustedError: Every candidate tier kept failing
                transiently past the retry budget.
            AllTiersUnavailableError: Failover exhausted every candidate
                tier (all down or full) — a hierarchy-wide outage.
            TierError: No tier could accept the write at all.
        """
        if self.obs is None:
            return self._write(key, tier_name, payload, accounted_size)
        with self.obs.region("shi.write", key=key, tier=tier_name) as sp:
            receipt = self._write(key, tier_name, payload, accounted_size)
            sp.set_attr("landed_tier", receipt.tier)
            sp.set_attr("nbytes", receipt.nbytes)
            sp.charge_modeled(receipt.seconds)
            self.obs.record_io(receipt, "write")
        return receipt

    def _write(
        self,
        key: str,
        tier_name: str,
        payload: bytes | None,
        accounted_size: int | None = None,
    ) -> IoReceipt:
        policy = self.resilience
        tier = self.hierarchy.by_name(tier_name)
        candidates = [tier]
        if policy.failover:
            candidates += self._failover_candidates(
                self.hierarchy.level_of(tier_name)
            )
        charged_backoff = 0.0
        last_error: TierError | None = None
        for rank, candidate in enumerate(candidates):
            name = candidate.spec.name
            if self.qos is not None and not self.qos.breaker_allow(name):
                # The breaker quarantines the tier like an injected
                # outage: skip it without spending a single attempt.
                last_error = CircuitOpenError(
                    f"tier {name!r} skipped: circuit breaker open"
                )
                self.stats.record("breaker_open", key, name)
                continue
            if rank > 0 and self.crashpoints is not None:
                self.crashpoints.reached("shi.write.failover")
            attempt = 0
            while True:
                try:
                    if self.crashpoints is not None:
                        self.crashpoints.reached("shi.write.pre_put")
                    extent = candidate.put(key, payload, accounted_size)
                    if self.crashpoints is not None:
                        self.crashpoints.reached("shi.write.post_put")
                except TransientIOError as exc:
                    last_error = exc
                    if self.qos is not None:
                        self.qos.record_tier_outcome(name, False)
                    attempt += 1
                    if attempt > policy.max_retries:
                        self.stats.exhausted += 1
                        self.stats.record("exhausted", key, name)
                        if self.obs is not None:
                            self.obs.record_exhausted(name)
                        break  # try the next candidate
                    charged_backoff += self._backoff(attempt, key, name)
                    self._check_retry_deadline(
                        charged_backoff, key, "write", last_error
                    )
                    continue
                except (TierUnavailableError, CapacityError) as exc:
                    last_error = exc
                    if self.qos is not None and isinstance(
                        exc, TierUnavailableError
                    ):
                        # An outage is a health failure; a full tier is not.
                        self.qos.record_tier_outcome(name, False)
                    self.stats.record(
                        "unplaceable", key, name, type(exc).__name__
                    )
                    break  # not retryable on this tier; fail over
                failover = name != tier_name
                if failover:
                    self.stats.failovers += 1
                    self.stats.record("failover", key, tier_name, name)
                    if self.obs is not None:
                        self.obs.record_failover(tier_name, name)
                seconds = candidate.io_seconds(extent.accounted_size)
                if self.qos is not None:
                    self.qos.record_tier_outcome(name, True, seconds)
                return IoReceipt(
                    key,
                    name,
                    extent.accounted_size,
                    seconds + charged_backoff,
                    retries=attempt,
                    failover=failover,
                )
        if isinstance(last_error, TransientIOError):
            raise RetryExhaustedError(
                f"write of {key!r} failed after {policy.max_retries} retries "
                f"on every candidate tier"
            ) from last_error
        if last_error is None:
            raise TierError(f"no tier accepted write of {key!r}")
        if len(candidates) > 1:
            # Failover was on and still ran out of candidates: surface the
            # hierarchy-wide outage as one typed error (bounded — each
            # candidate got at most the per-tier retry budget) instead of
            # re-raising whichever tier happened to fail last.
            self.stats.record("all_tiers_unavailable", key)
            raise AllTiersUnavailableError(
                f"write of {key!r} rejected by all {len(candidates)} tiers "
                f"(each tried with up to {policy.max_retries} retries)"
            ) from last_error
        raise last_error

    # -- read path -----------------------------------------------------------

    def read(self, key: str) -> tuple[bytes, IoReceipt]:
        """Locate ``key`` anywhere in the hierarchy and read it, retrying
        transient failures (and tier outages, which may heal during the
        charged backoff) up to the retry budget."""
        if self.obs is None:
            return self._read(key)
        with self.obs.region("shi.read", key=key) as sp:
            payload, receipt = self._read(key)
            sp.set_attr("tier", receipt.tier)
            sp.set_attr("nbytes", receipt.nbytes)
            sp.charge_modeled(receipt.seconds)
            self.obs.record_io(receipt, "read")
        return payload, receipt

    def _read(self, key: str) -> tuple[bytes, IoReceipt]:
        policy = self.resilience
        attempt = 0
        charged_backoff = 0.0
        while True:
            tier = self.hierarchy.find(key)
            if tier is None:
                raise TierError(f"key {key!r} not present in any tier")
            name = tier.spec.name
            try:
                payload = tier.get(key)
                extent = tier.extent(key)
            except (TransientIOError, TierUnavailableError) as exc:
                if self.qos is not None:
                    self.qos.record_tier_outcome(name, False)
                attempt += 1
                if attempt > policy.max_retries:
                    self.stats.exhausted += 1
                    self.stats.record("exhausted", key, name)
                    if self.obs is not None:
                        self.obs.record_exhausted(name)
                    if isinstance(exc, TransientIOError):
                        raise RetryExhaustedError(
                            f"read of {key!r} failed after "
                            f"{policy.max_retries} retries"
                        ) from exc
                    raise
                charged_backoff += self._backoff(attempt, key, name)
                self._check_retry_deadline(charged_backoff, key, "read", exc)
                continue
            seconds = tier.io_seconds(extent.accounted_size)
            if self.qos is not None:
                self.qos.record_tier_outcome(name, True, seconds)
            return payload, IoReceipt(
                key,
                name,
                extent.accounted_size,
                seconds + charged_backoff,
                retries=attempt,
            )

    def locate(self, key: str) -> Tier | None:
        return self.hierarchy.find(key)

    def accounted_size(self, key: str) -> int:
        tier = self.hierarchy.find(key)
        if tier is None:
            raise TierError(f"key {key!r} not present in any tier")
        return tier.extent(key).accounted_size

    def delete(self, key: str) -> int:
        """Evict ``key``; returns the accounted bytes released."""
        tier = self.hierarchy.find(key)
        if tier is None:
            raise TierError(f"key {key!r} not present in any tier")
        return tier.evict(key)
