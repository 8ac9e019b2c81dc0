"""The Hierarchical Compression and Data Placement engine (paper §IV-F).

Implements the recursive dynamic program of equations (1)-(2):

    Match(i, l, c) = min( Place(i, l, c)                  if s_ic fits l,
                          Place(i',l, c) + Match(a', l+1, c)   otherwise,
                          Match(i, l+1, c),
                          Match(i, l, c+1) )

with memoization on (task size, tier index, codec index). Splits are cut at
the 4096-byte grain (RAM page / NVMe block), which both aligns the I/O and
makes sub-problems reusable across tasks — the property that gives the
algorithm its practically-O(1) cost.

Inputs come from the three sibling components exactly as in the paper:
data attributes from the Input Analyzer, the expected-cost table from the
Compression Cost Predictor, and remaining capacity / load / availability
from the System Monitor.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from ..ccp.predictor import CompressionCostPredictor, ExpectedCompressionCost
from ..codecs.metadata import HEADER_SIZE
from ..codecs.pool import CompressionLibraryPool
from ..errors import DeadlineExceededError, PlacementError
from ..monitor.system_monitor import SystemMonitor
from ..obs import Metric
from ..units import MB, PAGE, align_down
from .cost import CostModel
from .plan_cache import CachedPlan, PlanCache, PlanCacheConfig
from .priorities import EQUAL, Priority
from .schema import Schema, SubTaskPlan
from .task import IOTask, Operation

__all__ = ["HcdpEngine", "EngineStats", "BatchPlanner"]

_INF = math.inf
_HELP = "mirror of the HCDP engine counters"


@dataclass
class EngineStats:
    """Cumulative engine counters (Fig. 4(a)'s subject)."""

    tasks_planned: int = 0
    memo_hits: int = 0
    memo_misses: int = 0
    pieces_emitted: int = 0
    degraded_plans: int = 0  # plans made while >= 1 tier was reported down
    plan_cache_hits: int = 0  # whole-schema cache hits
    plan_cache_misses: int = 0  # plans that had to run the DP
    plan_cache_invalidations: int = 0  # flush events (epoch/model/priority)

    #: The families these counters export (``Observability.mirror``).
    METRICS = (
        Metric("hcompress_plan_cache_hits_total", _HELP, "plan_cache_hits"),
        Metric("hcompress_plan_cache_misses_total", _HELP, "plan_cache_misses"),
        Metric(
            "hcompress_plan_cache_invalidations_total", _HELP,
            "plan_cache_invalidations",
        ),
        Metric("hcompress_dp_memo_hits_total", _HELP, "memo_hits"),
        Metric("hcompress_dp_memo_misses_total", _HELP, "memo_misses"),
        Metric("hcompress_tasks_planned_total", _HELP, "tasks_planned"),
        Metric("hcompress_pieces_emitted_total", _HELP, "pieces_emitted"),
        Metric("hcompress_degraded_plans_total", _HELP, "degraded_plans"),
    )

    @property
    def hit_rate(self) -> float:
        total = self.memo_hits + self.memo_misses
        return self.memo_hits / total if total else 0.0

    @property
    def plan_cache_hit_rate(self) -> float:
        total = self.plan_cache_hits + self.plan_cache_misses
        return self.plan_cache_hits / total if total else 0.0


class HcdpEngine:
    """Hierarchy-aware compression + placement optimizer.

    Args:
        predictor: Fitted cost model supplying ECC tuples.
        monitor: System Monitor over the target hierarchy.
        pool: Codec roster ("none" must be member 0, which the pool
            guarantees).
        priority: Workload priority weights (Table II).
        grain: Split alignment in bytes (the paper's 4096).
        load_factor: Queue-depth sensitivity of the cost model.
        drain_penalty: Scale of the amortised capacity-pressure term
            (0 disables it; see the ablation bench). Occupying a bounded
            tier is charged ``pressure x concurrency / sink bandwidth``
            per stored byte, reflecting that everything buffered above the
            sink must eventually cross the sink's (shared, serial) pipe.
        allow_identity: Keep "no compression" in the choice set (paper
            §IV-F1 insists on it; disable only for the ablation study).
        plan_cache: Cross-task plan-cache policy (DESIGN.md §8). Defaults
            to enabled; pass ``PlanCacheConfig(enabled=False)`` for the
            seed's plan-from-scratch behaviour.
        obs: Optional :class:`~repro.obs.Observability` sink. ``None``
            (the default) keeps :meth:`plan` on the uninstrumented fast
            path — a single identity check per call, which is what the
            perf gate benches.
    """

    def __init__(
        self,
        predictor: CompressionCostPredictor,
        monitor: SystemMonitor,
        pool: CompressionLibraryPool,
        priority: Priority = EQUAL,
        grain: int = PAGE,
        load_factor: float = 1.0,
        drain_penalty: float = 1.0,
        allow_identity: bool = True,
        plan_cache: PlanCacheConfig | None = None,
        obs=None,
    ) -> None:
        if grain < 1:
            raise ValueError(f"grain must be >= 1, got {grain}")
        if drain_penalty < 0:
            raise ValueError(f"drain_penalty must be >= 0, got {drain_penalty}")
        self.predictor = predictor
        self.monitor = monitor
        self.pool = pool
        self.grain = grain
        self.drain_penalty = drain_penalty
        self.allow_identity = allow_identity
        self.obs = obs
        self.cost_model = CostModel(priority=priority, load_factor=load_factor)
        self.stats = EngineStats()
        self.plan_cache_config = (
            plan_cache if plan_cache is not None else PlanCacheConfig()
        )
        self.plan_cache = PlanCache(self.plan_cache_config)
        self._cache_epoch: int | None = None
        self._cache_model_version: int | None = None
        self._priority_version = 0
        # Hierarchy constants: the tier stack, its specs and the cache
        # policy are fixed for the engine's life, so every plan (and the
        # run-lane ledger) reads them from here.
        specs = [tier.spec for tier in monitor.hierarchy]
        self._specs = specs
        self._level_by_name = {s.name: i for i, s in enumerate(specs)}
        self._bounded_cap = sum(
            s.capacity for s in specs if s.capacity is not None
        )
        self._sink_bw = specs[-1].bandwidth
        self._bands = self.plan_cache_config.capacity_bands
        # Sticky pressure signals: a bulk-synchronous burst plans before its
        # own I/O lands, so instantaneous load/fill underestimate the true
        # contention. Cumulative planned bytes and the peak observed
        # concurrency are monotone and warm up within the first burst.
        self._planned_bytes = 0
        self._peak_concurrency = 1

    @property
    def priority(self) -> Priority:
        return self.cost_model.priority

    def set_priority(self, priority: Priority) -> None:
        """Runtime priority swap (the paper's dynamic reconfiguration)."""
        self.cost_model = CostModel(
            priority=priority, load_factor=self.cost_model.load_factor
        )
        self._priority_version += 1
        if self.plan_cache.clear():
            self.stats.plan_cache_invalidations += 1

    # -- planning ------------------------------------------------------------

    def plan(
        self,
        task: IOTask,
        *,
        deadline_budget: float | None = None,
        codec_filter: str | None = None,
        blocked_tiers: tuple[str, ...] = (),
        status=None,
    ) -> Schema:
        """Produce the optimal compression/placement schema for a write task.

        The keyword constraints come from the QoS governor and default to
        no-ops: ``blocked_tiers`` excludes breaker-quarantined tiers from
        the choice set, ``codec_filter`` (``"fastest"`` / ``"none"``)
        implements the brownout ladder's codec restrictions, and
        ``deadline_budget`` (remaining modeled seconds) prunes tiers and
        codecs whose modeled completion cannot fit — raising
        :class:`~repro.errors.DeadlineExceededError` when nothing is left.
        ``status`` is a :class:`~repro.monitor.SystemStatus` the caller
        just took (the write step's QoS snapshot); without one the plan
        samples the monitor itself.
        """
        obs = self.obs
        if obs is None:
            return self._plan(
                task,
                deadline_budget=deadline_budget,
                codec_filter=codec_filter,
                blocked_tiers=blocked_tiers,
                status=status,
            )
        hits_before = self.stats.plan_cache_hits
        wall = time.perf_counter()
        with obs.region("hcdp.plan", task=task.task_id, size=task.size) as sp:
            schema = self._plan(
                task,
                deadline_budget=deadline_budget,
                codec_filter=codec_filter,
                blocked_tiers=blocked_tiers,
                status=status,
            )
            cache_hit = self.stats.plan_cache_hits > hits_before
            sp.set_attr("cache", "hit" if cache_hit else "miss")
            sp.set_attr("pieces", len(schema.pieces))
        obs.record_plan(cache_hit, time.perf_counter() - wall)
        return schema

    def _plan(
        self,
        task: IOTask,
        *,
        deadline_budget: float | None = None,
        codec_filter: str | None = None,
        blocked_tiers: tuple[str, ...] = (),
        status=None,
    ) -> Schema:
        if task.operation != Operation.WRITE:
            raise PlacementError(
                "the HCDP engine plans write tasks; reads are driven by "
                "sub-task metadata"
            )
        schema = Schema(task=task)
        if task.size == 0:
            self.stats.tasks_planned += 1
            return schema

        if status is None:
            status = self.monitor.status()
        specs = self._specs
        levels = len(specs)
        remaining: list[float] = []
        loads: list[int] = []
        queued: list[int] = []
        usable: list[bool] = []
        for tier_status in status.tiers:
            rem = tier_status.effective_remaining()
            remaining.append(_INF if rem is None else float(rem))
            loads.append(tier_status.load)
            queued.append(tier_status.queued_bytes)
            usable.append(tier_status.available)
        if blocked_tiers:
            # Breaker-quarantined tiers are indistinguishable from down
            # tiers to the planner: excluded from the choice set, counted
            # as a degraded plan.
            blocked = frozenset(blocked_tiers)
            for level, spec in enumerate(specs):
                if spec.name in blocked:
                    usable[level] = False
        if not all(usable):
            # Degraded-mode planning: down tiers are excluded from the
            # choice set and the DP routes every byte through the
            # survivors; PlacementError only if nothing is left at all.
            self.stats.degraded_plans += 1

        # Capacity-pressure drain cost (per stored byte on bounded tiers):
        # write-saturation of the bounded hierarchy x observed concurrency,
        # divided by the sink's aggregate bandwidth.
        self._planned_bytes += task.size
        self._peak_concurrency = max(self._peak_concurrency, sum(loads) + 1)
        drain_per_byte = 0.0
        if self.drain_penalty and self._bounded_cap:
            pressure = min(1.0, self._planned_bytes / self._bounded_cap)
            # Quantize write-saturation to the capacity-band grid: the
            # term models slow-building backlog, not per-task deltas,
            # and a continuously drifting float would put a unique
            # value in every plan-cache key. Applied with the cache on
            # or off, so both paths stay byte-identical.
            bands = self._bands
            pressure = math.floor(pressure * bands) / bands
            drain_per_byte = (
                self.drain_penalty
                * pressure
                * self._peak_concurrency
                / self._sink_bw
            )

        # ECC table for this input; constraint 4 drops sub-unity codecs.
        # Candidates are predicted at the task's power-of-two size bucket
        # (the log-size feature is mild), which lets every task in a bucket
        # share one candidate table and one DP memo across the burst.
        dtype, data_format, distribution = task.analysis.feature_key()
        bucket = 1 << (task.size - 1).bit_length()
        if self.obs is not None:
            with self.obs.region("ccp.predict", bucket=bucket):
                table = self.predictor.candidate_table(
                    dtype, data_format, distribution, bucket,
                    self.pool.names[1:],
                )
        else:
            table = self.predictor.candidate_table(
                dtype, data_format, distribution, bucket, self.pool.names[1:]
            )
        candidates: list[tuple[str, ExpectedCompressionCost | None]] = (
            [("none", None)] if self.allow_identity else []
        )
        for name, ecc in zip(self.pool.names[1:], table):
            if ecc.ratio >= 1.0:
                candidates.append((name, ecc))

        if codec_filter == "none":
            # Brownout "skip compression": identity placement only, even
            # when allow_identity is off — shedding codec work entirely is
            # the point of this rung.
            candidates = [("none", None)]
        elif codec_filter == "fastest":
            fastest: tuple[str, ExpectedCompressionCost] | None = None
            for name, ecc in candidates:
                if ecc is not None and (
                    fastest is None or ecc.compress_mbps > fastest[1].compress_mbps
                ):
                    fastest = (name, ecc)
            candidates = [("none", None)]
            if fastest is not None:
                candidates.append(fastest)
        elif codec_filter is not None:
            raise ValueError(f"unknown codec_filter {codec_filter!r}")

        if deadline_budget is not None:
            best_ratio = 1.0
            for _, ecc in candidates:
                if ecc is not None and ecc.ratio > best_ratio:
                    best_ratio = ecc.ratio
            # Codec pruning: compression time alone must fit the budget
            # (identity never prunes). Tier pruning: even the optimistic
            # post-compression footprint must cross the tier's pipe in
            # budget, or the tier cannot possibly finish in time.
            candidates = [
                (name, ecc)
                for name, ecc in candidates
                if ecc is None
                or task.size / (ecc.compress_mbps * MB) <= deadline_budget
            ]
            optimistic_bytes = task.size / best_ratio
            for level, spec in enumerate(specs):
                if (
                    usable[level]
                    and spec.latency + optimistic_bytes / spec.lane_bandwidth
                    > deadline_budget
                ):
                    usable[level] = False
            if not any(usable) or not candidates:
                raise DeadlineExceededError(
                    f"task {task.task_id}: no tier/codec can complete "
                    f"{task.size} bytes within the remaining "
                    f"{deadline_budget:.6g}s budget"
                )
        n_codecs = len(candidates)

        # Remaining-capacity clamp (see repro.hcdp.plan_cache): no stored
        # footprint of this task exceeds bucket + header, so capacities
        # beyond that bound are indistinguishable to the DP. Applied
        # identically with the cache on or off, keeping both paths
        # byte-identical.
        clamp = float(bucket + HEADER_SIZE)
        remaining = [min(rem, clamp) for rem in remaining]

        # Deadline budgets are continuous values that would put a unique
        # key in the cache per plan; deadline-constrained plans bypass the
        # whole-schema cache and the shared memo entirely.
        cache_on = self.plan_cache_config.enabled and deadline_budget is None
        context_key: tuple | None = None
        if cache_on:
            self._sync_cache_generation()
            context_key = (
                (dtype, data_format, distribution),
                bucket,
                self.predictor.model_version,
                self._priority_version,
                self.allow_identity,
                self.monitor.state_epoch,
                tuple(usable),
                tuple(loads),
                tuple(queued),
                tuple(remaining),
                drain_per_byte,
                tuple(sorted(blocked_tiers)),
                codec_filter,
            )
            cached = self.plan_cache.get_schema(task.size, context_key)
            if cached is not None:
                self.stats.plan_cache_hits += 1
                schema.pieces = list(cached.pieces)
                schema.expected_cost = cached.expected_cost
                schema.memo_hits = cached.memo_hits
                schema.memo_misses = cached.memo_misses
                self.stats.tasks_planned += 1
                self.stats.pieces_emitted += len(schema.pieces)
                return schema
            self.stats.plan_cache_misses += 1
            memo = self.plan_cache.memo(context_key)
        else:
            memo = {}

        hits_before = self.stats.memo_hits
        misses_before = self.stats.memo_misses

        def match(size: int, level: int, codec: int) -> tuple[float, tuple]:
            if level >= levels or codec >= n_codecs:
                return _INF, ("infeasible",)
            key = (size, level, codec)
            hit = memo.get(key)
            if hit is not None:
                self.stats.memo_hits += 1
                return hit
            self.stats.memo_misses += 1

            best_cost = _INF
            best_action: tuple = ("infeasible",)
            if usable[level]:
                name, ecc = candidates[codec]
                ratio = ecc.ratio if ecc is not None else 1.0
                stored = _stored_size(size, ratio)
                spec = specs[level]
                load = loads[level]
                # The drain term applies to every tier uniformly: a byte
                # stored anywhere above the sink eventually crosses the
                # sink's pipe, and a byte placed on the sink crosses it
                # immediately — exempting either would bias placement.
                if stored <= remaining[level]:
                    cost = self.cost_model.place_cost(
                        size, spec, ecc, load, queued[level], drain_per_byte
                    ).total
                    if cost < best_cost:
                        best_cost, best_action = cost, ("place",)
                else:
                    usable_bytes = remaining[level] - HEADER_SIZE
                    fit = align_down(max(int(usable_bytes * ratio), 0), self.grain)
                    if 0 < fit < size:
                        head = self.cost_model.place_cost(
                            fit, spec, ecc, load, queued[level], drain_per_byte
                        ).total
                        tail, _ = match(size - fit, level + 1, codec)
                        cost = head + tail
                        if cost < best_cost:
                            best_cost, best_action = cost, ("split", fit)

            down_cost, _ = match(size, level + 1, codec)
            if down_cost < best_cost:
                best_cost, best_action = down_cost, ("next_tier",)
            side_cost, _ = match(size, level, codec + 1)
            if side_cost < best_cost:
                best_cost, best_action = side_cost, ("next_codec",)

            memo[key] = (best_cost, best_action)
            return best_cost, best_action

        total_cost, _ = match(task.size, 0, 0)
        if not math.isfinite(total_cost):
            raise PlacementError(
                f"task {task.task_id}: no feasible placement "
                f"({task.size} bytes across {levels} tiers)"
            )

        # Reconstruct the decision path into schema pieces.
        size, offset, level, codec = task.size, 0, 0, 0
        while size > 0:
            _, action = memo[(size, level, codec)]
            kind = action[0]
            if kind == "place":
                self._emit(
                    schema, offset, size, level, codec, candidates, specs,
                    loads, queued, drain_per_byte,
                )
                break
            if kind == "split":
                fit = action[1]
                self._emit(
                    schema, offset, fit, level, codec, candidates, specs,
                    loads, queued, drain_per_byte,
                )
                offset += fit
                size -= fit
                level += 1
            elif kind == "next_tier":
                level += 1
            elif kind == "next_codec":
                codec += 1
            else:  # pragma: no cover - guarded by the finiteness check
                raise PlacementError(f"unexpected action {action!r}")

        schema.expected_cost = total_cost
        # Per-plan DP footprint (not the engine's cumulative counters).
        schema.memo_hits = self.stats.memo_hits - hits_before
        schema.memo_misses = self.stats.memo_misses - misses_before
        self.stats.tasks_planned += 1
        self.stats.pieces_emitted += len(schema.pieces)
        if cache_on and context_key is not None:
            self.plan_cache.put_schema(
                task.size,
                context_key,
                CachedPlan(
                    pieces=tuple(schema.pieces),
                    expected_cost=total_cost,
                    memo_hits=schema.memo_hits,
                    memo_misses=schema.memo_misses,
                ),
            )
        return schema

    # -- batch planning -------------------------------------------------------

    def batch_fast_path_ok(self) -> bool:
        """Whether a :class:`BatchPlanner` run may stand in for per-task plans.

        Requires the whole-schema cache (a run records the cache hits its
        tasks would have been), interval-0 monitoring (a run counts one
        sample per task, which an interval > 0 would not take), and no
        observability sink (spans/metrics are attributed per plan call).
        """
        return (
            self.obs is None
            and self.plan_cache_config.enabled
            and self.monitor.interval == 0.0
        )

    def prefetch_candidates(self, tasks: list[IOTask]) -> int:
        """Warm ECC candidate tables for a batch with one predict_batch.

        Deduplicates the batch's (feature key, size bucket) groups in
        first-appearance order and hands them to
        :meth:`~repro.ccp.predictor.CompressionCostPredictor.prefetch_tables`.
        Returns the number of tables built.
        """
        groups: dict[tuple[str, str, str, int], None] = {}
        features: dict[int, tuple] = {}  # id(analysis) -> (analysis, key)
        prev_analysis = None
        prev_size = -1
        for task in tasks:
            if task.operation != Operation.WRITE or task.size == 0:
                continue
            analysis = task.analysis
            size = task.size
            if analysis is prev_analysis and size == prev_size:
                continue  # a burst repeats one shape; same group
            prev_analysis = analysis
            prev_size = size
            memo = features.get(id(analysis))
            if memo is None or memo[0] is not analysis:
                memo = (analysis, analysis.feature_key())
                features[id(analysis)] = memo
            dtype, data_format, distribution = memo[1]
            bucket = 1 << (size - 1).bit_length()
            groups.setdefault((dtype, data_format, distribution, bucket))
        if not groups:
            return 0
        return self.predictor.prefetch_tables(
            list(groups), self.pool.names[1:]
        )

    def batch_planner(self) -> "BatchPlanner":
        """The run-lane ledger for one batch (see :class:`BatchPlanner`)."""
        return BatchPlanner(self)

    def _sync_cache_generation(self) -> None:
        """Flush the plan cache when the world it was built against moved.

        The monitor's ``state_epoch`` (tier up/down, capacity-band
        crossing) and the predictor's ``model_version`` (feedback retrain)
        are both part of every cache key, so this flush is memory hygiene
        and an observable invalidation contract rather than a correctness
        requirement.
        """
        epoch = self.monitor.state_epoch
        version = self.predictor.model_version
        if epoch != self._cache_epoch or version != self._cache_model_version:
            if self.plan_cache.clear():
                self.stats.plan_cache_invalidations += 1
            self._cache_epoch = epoch
            self._cache_model_version = version

    def _emit(
        self,
        schema: Schema,
        offset: int,
        length: int,
        level: int,
        codec: int,
        candidates: list[tuple[str, ExpectedCompressionCost | None]],
        specs,
        loads,
        queued,
        drain_per_byte: float,
    ) -> None:
        name, ecc = candidates[codec]
        ratio = ecc.ratio if ecc is not None else 1.0
        cost = self.cost_model.place_cost(
            length, specs[level], ecc, loads[level], queued[level], drain_per_byte
        )
        schema.pieces.append(
            SubTaskPlan(
                offset=offset,
                length=length,
                tier=specs[level].name,
                tier_level=level,
                codec=name,
                expected_ratio=max(ratio, 1.0),
                expected_stored_size=_stored_size(length, ratio),
                expected_cost=cost.total,
            )
        )


class BatchPlanner:
    """The run-lane ledger of one ``compress_batch`` call (DESIGN.md §12).

    It plans nothing itself. :meth:`plan` takes one monitor snapshot,
    hands it to :meth:`HcdpEngine.plan` — the engine's one planner and its
    one cache key — and records from that same snapshot the inputs of the
    key that a write can move: per-tier fill, remaining, capacity band and
    the clamped-remaining view, next to the model/priority/epoch versions
    and the plan it got back. :meth:`note_result` folds the task's own
    receipts into that ledger, :meth:`run_quota` bounds in closed form
    how many further identical tasks leave every recorded input where it
    is, and :meth:`emit_schema` / :meth:`commit_run` stamp out that many
    plans with the counter updates the same number of sequential
    schema-cache hits would record: an unchanged key is a cache hit that
    returns the identical plan. A band crossing, a clamped-remaining dip,
    a model update or a failed write invalidates the ledger: no run
    starts until the next :meth:`plan` re-opens it.

    What a run does not replay is instrumentation, not planning output:
    the predictor's table-cache hit/miss split (run tasks make no
    ``candidate_table`` call) and the monitor's snapshot timestamps
    (:meth:`commit_run` counts the run's samples without reading the
    clock; times feed no planning input). Plan-cache LRU order is not on
    that list: a run's tasks would touch the entry its template just
    made most recent.

    Callers must hold :meth:`HcdpEngine.batch_fast_path_ok` and have no
    QoS constraint in force: a deadline bypasses the schema cache (no
    hits for a run to stand in for), and a codec filter or blocked tier
    is a key input the ledger does not record.
    """

    def __init__(self, engine: HcdpEngine) -> None:
        self.engine = engine
        # The ledger: the last plan and the snapshot it was made on, with
        # tier fill / remaining tracked live via note_result. Valid only
        # between a successful plan() and the first input that moves.
        self._model_valid = False
        self._m_plan: Schema | None = None
        self._m_pieces_len = 0
        self._m_model_version = -1
        self._m_priority_version = -1
        self._m_epoch = -1
        self._m_clamp = 0.0
        self._m_all_avail = True
        self._m_avail: list = []
        self._m_rem: list = []
        self._m_used: list = []
        self._m_band: list = []
        self._m_clamped: list = []
        # Debits of the last quoted run template: [(level, bytes/task)].
        self._run_debits: list = []

    def invalidate(self) -> None:
        """Drop the ledger: no run starts until the next :meth:`plan`."""
        self._model_valid = False

    def note_result(self, result) -> None:
        """Fold one write's receipts into the tracked tier model.

        Every per-task write of the batch passes through here right after
        its :meth:`plan` — the receipts carry the landed tier and
        accounted footprint, which are the only tier mutations a gated
        batch can make. A band crossing or clamped-remaining change
        invalidates the ledger instead of updating it: no run starts, and
        the next task's plan samples the move, bumps the epoch and
        re-plans exactly where the sequential path would.
        """
        if not self._model_valid:
            return
        levels = self.engine._level_by_name
        bands = self.engine._bands
        for piece in result.pieces:
            level = levels.get(piece.tier)
            if level is None:  # pragma: no cover - unknown tier name
                self._model_valid = False
                return
            used = self._m_used[level] + piece.stored_size
            self._m_used[level] = used
            rem = self._m_rem[level]
            if rem is None:
                continue
            rem -= piece.stored_size
            self._m_rem[level] = rem
            if self._m_avail[level]:
                clamped = min(float(rem), self._m_clamp)
            else:  # pragma: no cover - down tiers take no fast writes
                clamped = 0.0
            if clamped != self._m_clamped[level]:
                self._model_valid = False
                return
            capacity = used + rem
            if capacity <= 0:
                band = 0
            else:
                fraction = min(max(used / capacity, 0.0), 1.0)
                band = min(int(fraction * bands), bands - 1)
            if band != self._m_band[level]:
                self._model_valid = False
                return

    def run_quota(self, task: IOTask, result) -> int:
        """How many more *identical* tasks provably replan to the same plan.

        ``task``/``result`` are the just-executed template. The quota is
        the largest ``k`` such that k further tasks of the same size,
        analysis, and sample — each landing the template's receipts — keep
        every input of the plan's cache key unchanged: no drain-pressure band
        crossing, no tier capacity-band crossing, no clamped-remaining
        dip, and every piece still fitting its planned tier. Within the
        quota the per-task plan/debit/receipt cycle collapses to bulk
        arithmetic (the run lane); each bound is closed-form off the
        tracked ledger, then float-verified at ``k`` (every bound is
        monotone in the task index, so one endpoint check covers the run).
        Model-version changes *inside* a run are prevented by the caller's
        feedback-headroom clamp; a flush that already fired during the
        template task itself (between its record and the run start) is
        caught here by comparing the memoized model/priority/epoch
        versions against the live engine.

        Returns 0 when the template is unusable as a run prototype: model
        invalid or stale-versioned, spilled/failed-over/retried pieces, or
        a tier so close to a boundary that the very next task would move
        the key.
        """
        if not self._model_valid:
            return 0
        engine = self.engine
        if (
            engine.predictor.model_version != self._m_model_version
            or engine._priority_version != self._m_priority_version
            or engine.monitor.state_epoch != self._m_epoch
        ):
            # The template went stale after its own plan — e.g. its
            # feedback record fired a flush. The sequential path replans
            # the very next task against the new model, so no run may
            # start from this template.
            return 0
        debits: dict[int, int] = {}
        levels = engine._level_by_name
        for piece in result.pieces:
            if piece.spilled or piece.failover or piece.retries:
                return 0
            level = levels.get(piece.tier)
            if level is None or piece.plan.tier_level != level:
                return 0
            debits[level] = debits.get(level, 0) + piece.stored_size
        quota = 1 << 60
        size = task.size
        bands = engine._bands
        if engine.drain_penalty and engine._bounded_cap:
            cap = engine._bounded_cap
            planned = engine._planned_bytes
            if planned < cap:
                band = math.floor(min(1.0, planned / cap) * bands)
                k = int(((band + 1) * cap / bands - planned) // size)
                while k > 0 and (
                    math.floor(min(1.0, (planned + k * size) / cap) * bands)
                    != band
                ):
                    k -= 1
                quota = min(quota, k)
        clamp = self._m_clamp
        for level, debit in debits.items():
            if debit <= 0:
                continue
            if not self._m_avail[level]:
                return 0
            rem = self._m_rem[level]
            if rem is None:
                continue
            k_fit = rem // debit
            clamped = self._m_clamped[level]
            if float(rem) > clamp:
                k_clamp = int((rem - clamp) // debit)
                while k_clamp > 0 and (
                    min(float(rem - k_clamp * debit), clamp) != clamped
                ):
                    k_clamp -= 1
            else:
                # Remaining is below the key's clamp: any debit moves
                # the clamped view, so no run can start here.
                k_clamp = 0
            used = self._m_used[level]
            capacity = used + rem
            band = self._m_band[level]
            if capacity <= 0:
                k_band = 0
            else:
                k_band = int(((band + 1) * capacity / bands - used) // debit)
                while k_band > 0:
                    fraction = min(max((used + k_band * debit) / capacity, 0.0), 1.0)
                    if min(int(fraction * bands), bands - 1) == band:
                        break
                    k_band -= 1
            quota = min(quota, k_fit, k_clamp, k_band)
        if quota <= 0:
            return 0
        self._run_debits = sorted(debits.items())
        return quota

    def emit_schema(self, task: IOTask) -> Schema:
        """One run task's schema from the established plan (no counters —
        :meth:`commit_run` records the whole run's in bulk)."""
        cached = self._m_plan
        return Schema(
            task=task,
            pieces=list(cached.pieces),
            expected_cost=cached.expected_cost,
            memo_hits=cached.memo_hits,
            memo_misses=cached.memo_misses,
        )

    def commit_run(self, count: int, size: int) -> None:
        """Fold ``count`` executed run tasks into planner + engine state.

        Exactly ``count`` sequential schema-cache hits' worth of counter
        and ledger updates (ints throughout, so bulk addition is
        bit-identical to repeated addition); the quota already proved no
        clamped/band value moves, so the model stays valid.
        """
        if count <= 0:
            return
        engine = self.engine
        monitor = engine.monitor
        monitor._cached = None
        monitor._samples += count
        engine._planned_bytes += count * size
        stats = engine.stats
        stats.plan_cache_hits += count
        stats.tasks_planned += count
        stats.pieces_emitted += count * self._m_pieces_len
        if not self._m_all_avail:
            stats.degraded_plans += count
        for level, debit in self._run_debits:
            self._m_used[level] += count * debit
            rem = self._m_rem[level]
            if rem is not None:
                self._m_rem[level] = rem - count * debit

    def plan(self, task: IOTask) -> Schema:
        """Plan ``task`` through the engine and open the ledger on the
        snapshot that plan was made from."""
        engine = self.engine
        self._model_valid = False
        if task.operation != Operation.WRITE or task.size == 0:
            # The engine takes no sample for these and no run starts
            # from them.
            return engine.plan(task)
        monitor = engine.monitor
        status = monitor.status()
        schema = engine.plan(task, status=status)
        self._m_plan = schema
        self._m_pieces_len = len(schema.pieces)
        self._m_model_version = engine.predictor.model_version
        self._m_priority_version = engine._priority_version
        self._m_epoch = monitor.state_epoch
        # The clamped-remaining view is the context key's (see
        # repro.hcdp.plan_cache): capacities beyond bucket + header are
        # one value, a down tier reads 0.
        clamp = float((1 << (task.size - 1).bit_length()) + HEADER_SIZE)
        self._m_clamp = clamp
        avail, rems, used, bands, clamped = [], [], [], [], []
        for tier in status.tiers:
            avail.append(tier.available)
            rems.append(tier.remaining)
            used.append(tier.used)
            bands.append(monitor.band(tier))
            rem = tier.effective_remaining()
            clamped.append(clamp if rem is None else min(float(rem), clamp))
        self._m_avail = avail
        self._m_all_avail = all(avail)
        self._m_rem = rems
        self._m_used = used
        self._m_band = bands
        self._m_clamped = clamped
        self._model_valid = True
        return schema


def _stored_size(size: int, ratio: float) -> int:
    """Expected stored footprint of ``size`` bytes at compression ``ratio``,
    including the 16-byte sub-task metadata header."""
    if ratio <= 1.0:
        return size + HEADER_SIZE
    return max(1, math.ceil(size / ratio)) + HEADER_SIZE
