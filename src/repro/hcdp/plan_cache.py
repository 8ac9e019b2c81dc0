"""Cross-task plan caching for the HCDP engine (DESIGN.md §8).

The paper's headline planning claim is that the memoized DP is
"practically O(1)" because sub-problems recur across tasks; the seed
implementation nevertheless rebuilt the memo dict inside every ``plan()``
call. This module hoists both the DP memo and whole schemas into
engine-lifetime stores.

Exactness contract: a cache entry is only ever reused when *every* input
of the dynamic program is identical — feature key, model version, codec
roster, priority, availability, load, queue depth, drain pressure, and
remaining capacity (clamped, see below). Plans produced with the cache
enabled are therefore byte-identical to the uncached path by construction;
the System Monitor's ``state_epoch`` and the predictor's ``model_version``
serve as coarse invalidation/garbage-collection signals on top, not as the
correctness mechanism.

Remaining-capacity clamp: the DP consults a tier's remaining bytes only
through ``stored <= remaining`` comparisons and — when that fails — the
split-size computation. Every stored footprint of a task sized ``<= B`` is
at most ``B + HEADER_SIZE`` (constraint 4 keeps ratios >= 1), so two
states whose remaining capacities both exceed that bound are
indistinguishable to the DP. Clamping remaining at the task's
power-of-two size bucket plus header therefore collapses a draining
burst's continuously shifting capacities into one cache key without
changing a single planning decision.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from .schema import SubTaskPlan

__all__ = ["PlanCacheConfig", "CachedPlan", "PlanCache"]


@dataclass(frozen=True)
class PlanCacheConfig:
    """Knobs of the engine-lifetime plan cache.

    Attributes:
        enabled: Master switch; disabled reproduces the seed behaviour
            (fresh memo per ``plan()`` call, no schema reuse).
        max_schemas: Whole-schema entries kept (LRU-evicted beyond this).
        max_contexts: Shared DP memo tables kept, one per distinct
            planning context (LRU-evicted beyond this).
        capacity_bands: Quantization of the System Monitor's fill-level
            epoch signal — crossing a band bumps ``state_epoch`` and
            flushes the cache.
    """

    enabled: bool = True
    max_schemas: int = 4096
    max_contexts: int = 128
    capacity_bands: int = 32

    def __post_init__(self) -> None:
        if self.max_schemas < 1:
            raise ValueError("max_schemas must be >= 1")
        if self.max_contexts < 1:
            raise ValueError("max_contexts must be >= 1")
        if self.capacity_bands < 1:
            raise ValueError("capacity_bands must be >= 1")


@dataclass(frozen=True)
class CachedPlan:
    """One memoized schema: its pieces plus the DP footprint that built it."""

    pieces: tuple[SubTaskPlan, ...]
    expected_cost: float
    memo_hits: int
    memo_misses: int


class PlanCache:
    """Two-layer LRU store: shared DP memos and whole schemas.

    Layer 1 (``memo``): one ``{(size, level, codec): (cost, action)}``
    table per planning context, shared by every task that plans under
    that context — tasks of *different* sizes within the same power-of-two
    bucket reuse each other's sub-problems.

    Layer 2 (``schemas``): the finished piece list per ``(task size,
    context)`` — an exact-repeat task is a single dict lookup.

    The context key is built in one place, :meth:`HcdpEngine._plan`;
    nothing else spells a planning key or looks a plan up.
    """

    def __init__(self, config: PlanCacheConfig) -> None:
        self.config = config
        self._memos: OrderedDict[tuple, dict] = OrderedDict()
        self._schemas: OrderedDict[tuple, CachedPlan] = OrderedDict()

    @property
    def schema_entries(self) -> int:
        return len(self._schemas)

    @property
    def context_entries(self) -> int:
        return len(self._memos)

    def memo(self, context_key: tuple) -> dict:
        """The shared DP memo for one planning context (created on demand)."""
        table = self._memos.get(context_key)
        if table is None:
            table = {}
            self._memos[context_key] = table
            while len(self._memos) > self.config.max_contexts:
                self._memos.popitem(last=False)
        else:
            self._memos.move_to_end(context_key)
        return table

    def get_schema(self, size: int, context_key: tuple) -> CachedPlan | None:
        entry = self._schemas.get((size, context_key))
        if entry is not None:
            self._schemas.move_to_end((size, context_key))
        return entry

    def put_schema(self, size: int, context_key: tuple, plan: CachedPlan) -> None:
        self._schemas[(size, context_key)] = plan
        while len(self._schemas) > self.config.max_schemas:
            self._schemas.popitem(last=False)

    def clear(self) -> int:
        """Drop everything; returns the number of entries discarded."""
        dropped = len(self._schemas) + len(self._memos)
        self._schemas.clear()
        self._memos.clear()
        return dropped
