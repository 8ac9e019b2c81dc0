"""Compression/placement schemas and the Table-I constraint validator.

A schema is the HCDP engine's output: an ordered list of sub-task plans,
each naming the byte range of the original task it covers, the tier it
lands on, the codec applied, and the engine's cost expectations. The
validator enforces the paper's problem-formulation constraints so every
schema the engine emits is checkable (and property-testable) independently
of the engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import SchemaError
from ..tiers import StorageHierarchy
from ..units import PAGE
from .task import IOTask

__all__ = ["SubTaskPlan", "Schema", "validate_schema"]


@dataclass(frozen=True, slots=True)
class SubTaskPlan:
    """One piece of a task: where it goes and how it is compressed."""

    offset: int
    length: int
    tier: str
    tier_level: int
    codec: str
    expected_ratio: float
    expected_stored_size: int
    expected_cost: float

    def __post_init__(self) -> None:
        if self.offset < 0 or self.length <= 0:
            raise SchemaError(
                f"invalid piece geometry offset={self.offset} length={self.length}"
            )
        if self.expected_ratio < 1.0:
            raise SchemaError(
                f"constraint 4 violated: expected ratio {self.expected_ratio} < 1"
            )
        if self.expected_stored_size < 0:
            raise SchemaError("expected stored size must be >= 0")


@dataclass(slots=True)
class Schema:
    """An ordered placement plan for one task."""

    task: IOTask
    pieces: list[SubTaskPlan] = field(default_factory=list)
    expected_cost: float = 0.0
    memo_hits: int = 0
    memo_misses: int = 0

    def __len__(self) -> int:
        return len(self.pieces)

    def tiers_used(self) -> list[str]:
        return [p.tier for p in self.pieces]

    def codecs_used(self) -> list[str]:
        return [p.codec for p in self.pieces]

    def stored_size(self) -> int:
        return sum(p.expected_stored_size for p in self.pieces)


def validate_schema(
    schema: Schema, hierarchy: StorageHierarchy, grain: int = PAGE
) -> None:
    """Enforce the paper's Table-I constraints; raises :class:`SchemaError`.

    1. Size(p) mod 4096 == 0 for every piece except the last (which holds
       the task's unaligned remainder).
    2. Length(P) <= Concurrency(L).
    3. Length(P) <= Length(L).
    4. r_c >= 1 for every compressed piece (checked at construction).
    5. Size(p) <= Size(l): each piece's stored size fits its tier's
       capacity.

    Additionally the pieces must tile the task buffer exactly, in order.
    """
    task = schema.task
    pieces = schema.pieces
    if task.size == 0:
        if pieces:
            raise SchemaError("empty task must produce an empty schema")
        return
    if not pieces:
        raise SchemaError("non-empty task produced no pieces")

    if len(pieces) > hierarchy.concurrency():
        raise SchemaError(
            f"constraint 2 violated: {len(pieces)} pieces > "
            f"concurrency {hierarchy.concurrency()}"
        )
    if len(pieces) > len(hierarchy):
        raise SchemaError(
            f"constraint 3 violated: {len(pieces)} pieces > "
            f"{len(hierarchy)} tiers"
        )

    cursor = 0
    for idx, piece in enumerate(pieces):
        if piece.offset != cursor:
            raise SchemaError(
                f"piece {idx} at offset {piece.offset}, expected {cursor}: "
                "pieces must tile the task in order"
            )
        is_last = idx == len(pieces) - 1
        if not is_last and piece.length % grain != 0:
            raise SchemaError(
                f"constraint 1 violated: piece {idx} length {piece.length} "
                f"not a multiple of {grain}"
            )
        tier = hierarchy.by_name(piece.tier)
        if hierarchy.level_of(piece.tier) != piece.tier_level:
            raise SchemaError(
                f"piece {idx}: tier level mismatch for {piece.tier!r}"
            )
        capacity = tier.spec.capacity
        if capacity is not None and piece.expected_stored_size > capacity:
            raise SchemaError(
                f"constraint 5 violated: piece {idx} stored size "
                f"{piece.expected_stored_size} > tier capacity {capacity}"
            )
        cursor += piece.length
    if cursor != task.size:
        raise SchemaError(
            f"pieces cover {cursor} bytes, task is {task.size} bytes"
        )

    levels = [p.tier_level for p in pieces]
    if levels != sorted(levels) or len(set(levels)) != len(levels):
        raise SchemaError(
            f"pieces must occupy strictly descending tiers, got levels {levels}"
        )
