"""Brownout ladder: explicit, observable degradation under pressure.

The governor feeds monitor-reported pressure (worst bounded-tier fill,
combined with admission backlog fill) into a hysteretic controller that
moves one rung at a time:

    0 NORMAL            full-fidelity planning
    1 PREFER_FAST       restrict codec candidates to identity + fastest
    2 SKIP_COMPRESSION  identity placement only (no codec work at all)
    3 SHED_LOW          additionally shed every class below protected

Escalation happens at/above ``brownout_high``, recovery at/below
``brownout_low``; the gap plus a minimum dwell between moves prevents
flapping. Every move is appended to a deterministic trace.
"""

from __future__ import annotations

from enum import IntEnum

from .config import PROTECTED_CLASS, QosClass, QosConfig

__all__ = ["BrownoutLevel", "BrownoutController"]


class BrownoutLevel(IntEnum):
    NORMAL = 0
    PREFER_FAST = 1
    SKIP_COMPRESSION = 2
    SHED_LOW = 3


class BrownoutController:
    """Hysteretic one-rung-at-a-time degradation ladder."""

    def __init__(self, config: QosConfig):
        self.config = config
        self.level = BrownoutLevel.NORMAL
        self.transitions = 0
        self.trace: list[tuple] = []
        self._last_move: float | None = None

    def update(self, pressure: float, now: float) -> BrownoutLevel:
        if not self.config.brownout_enabled:
            return self.level
        dwell_ok = (
            self._last_move is None
            or now - self._last_move >= self.config.brownout_dwell
        )
        if not dwell_ok:
            return self.level
        if (
            pressure >= self.config.brownout_high
            and self.level < BrownoutLevel.SHED_LOW
        ):
            self._move(self.level + 1, pressure, now)
        elif (
            pressure <= self.config.brownout_low
            and self.level > BrownoutLevel.NORMAL
        ):
            self._move(self.level - 1, pressure, now)
        return self.level

    def _move(self, level: int, pressure: float, now: float) -> None:
        prev, self.level = self.level, BrownoutLevel(level)
        self.transitions += 1
        self._last_move = now
        self.trace.append((
            "brownout", round(now, 9), int(prev), int(self.level),
            round(pressure, 6),
        ))

    def codec_filter(self) -> str | None:
        """Planner codec restriction implied by the current rung."""
        if self.level >= BrownoutLevel.SKIP_COMPRESSION:
            return "none"
        if self.level == BrownoutLevel.PREFER_FAST:
            return "fastest"
        return None

    def shed_floor(self) -> QosClass | None:
        """Admission floor implied by the current rung (None = no floor)."""
        if self.level >= BrownoutLevel.SHED_LOW:
            return PROTECTED_CLASS
        return None

    def export_state(self) -> dict:
        return {"level": int(self.level), "transitions": self.transitions}

    def restore_state(self, raw: dict, now: float) -> None:
        self.level = BrownoutLevel(int(raw.get("level", 0)))
        self.transitions = int(raw.get("transitions", 0))
        self._last_move = now
