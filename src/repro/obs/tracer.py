"""Structured span tracer with dual wall/modeled timelines.

A span is one timed region of the engine's control path
(``tracer.span("hcdp.plan", task="t0")``). Spans nest via an explicit
stack, so a finished trace reconstructs the call tree without any
interpreter-level magic. Every span carries *two* durations:

* **wall** — real ``time.perf_counter`` seconds spent inside the region
  (Python implementation cost), and
* **modeled** — simulated seconds attributed to the region, read from an
  optional modeled clock at enter/exit and/or charged explicitly with
  :meth:`Span.charge_modeled` (compression and I/O times in this repo are
  modeled quantities computed by the engine, not observed on a clock).

This is the split DESIGN.md §6 describes: the reproduction's honest
answer to "where did this task's time go?" needs both numbers side by
side, which is exactly what the Chrome export shows — a ``wall`` process
row and a ``modeled`` process row over one shared timeline.

The trace buffer is a bounded ring (oldest spans drop first), so tracing
a long run cannot exhaust memory.
"""

from __future__ import annotations

from collections import deque
from time import perf_counter
from typing import Callable

__all__ = ["Span", "Tracer", "NULL_SPAN"]


class Span:
    """One timed region: the live handle while open, its own record after.

    ``__exit__`` fills in the durations and appends the span itself to the
    tracer's ring — there is no second "finished span" object. A span
    whose ``_tracer`` is ``None`` is unrecorded: it still carries attrs
    (and the ``error`` annotation) but touches no stack and no ring.
    """

    __slots__ = (
        "_tracer",
        "name",
        "attrs",
        "start_wall",  # seconds since the tracer was created
        "wall_seconds",
        "start_modeled",  # modeled clock at enter (None: no clock)
        "modeled_seconds",  # explicit charges, plus the clock delta at exit
        "depth",
        "index",  # creation order, unique per tracer
        "parent_index",
    )

    def __init__(self, tracer: "Tracer | None", name: str, attrs: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.modeled_seconds = 0.0

    def set_attr(self, key: str, value) -> None:
        self.attrs[key] = value

    def charge_modeled(self, seconds: float) -> None:
        """Attribute ``seconds`` of simulated time to this span."""
        self.modeled_seconds += seconds

    def __enter__(self) -> "Span":
        tracer = self._tracer
        if tracer is None:
            return self
        stack = tracer._stack
        self.depth = len(stack)
        self.index = tracer._next_index
        tracer._next_index += 1
        self.parent_index = stack[-1].index if stack else None
        stack.append(self)
        clock = tracer.modeled_clock
        self.start_modeled = clock() if clock is not None else None
        self.start_wall = perf_counter() - tracer._origin
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        tracer = self._tracer
        if tracer is None:
            return
        self.wall_seconds = perf_counter() - tracer._origin - self.start_wall
        if self.start_modeled is not None:
            self.modeled_seconds += tracer.modeled_clock() - self.start_modeled
        # Tolerate exceptions unwinding through enclosing spans.
        stack = tracer._stack
        while stack and stack.pop() is not self:
            pass
        spans = tracer.spans
        if len(spans) == spans.maxlen:
            tracer.dropped += 1
        spans.append(self)
        self._tracer = None  # finished: a plain record, no cycle via the ring


class _NullSpan:
    """Shared no-op span: the disabled fast path allocates nothing."""

    __slots__ = ()

    def set_attr(self, key: str, value) -> None:
        pass

    def charge_modeled(self, seconds: float) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


NULL_SPAN = _NullSpan()


class Tracer:
    """Span recorder over a bounded ring buffer.

    Args:
        modeled_clock: Optional zero-argument callable returning the
            current simulated time; when present, spans also record the
            modeled-clock delta across their lifetime.
        max_spans: Ring-buffer capacity for finished spans.
        enabled: When False, :meth:`span` returns the shared
            :data:`NULL_SPAN` and nothing is recorded.
    """

    def __init__(
        self,
        modeled_clock: Callable[[], float] | None = None,
        max_spans: int = 10_000,
        enabled: bool = True,
    ) -> None:
        if max_spans < 1:
            raise ValueError("max_spans must be >= 1")
        self.enabled = enabled
        self.modeled_clock = modeled_clock
        self.spans: deque[Span] = deque(maxlen=max_spans)
        self._origin = perf_counter()
        self._stack: list[Span] = []
        self._next_index = 0
        self.dropped = 0  # finished spans evicted by the ring bound

    def span(self, name: str, **attrs):
        """Open a span (use as a context manager)."""
        if not self.enabled:
            return NULL_SPAN
        return Span(self, name, attrs)

    # -- aggregation ---------------------------------------------------------

    def by_name(self) -> dict[str, dict]:
        """Per-span-name rollup: count and total wall/modeled seconds."""
        rollup: dict[str, dict] = {}
        for record in self.spans:
            entry = rollup.setdefault(
                record.name,
                {"count": 0, "wall_seconds": 0.0, "modeled_seconds": 0.0},
            )
            entry["count"] += 1
            entry["wall_seconds"] += record.wall_seconds
            entry["modeled_seconds"] += record.modeled_seconds
        return rollup

    # -- export --------------------------------------------------------------

    def to_chrome(self) -> dict:
        """The trace in Chrome's trace-event JSON format.

        Load the file at ``chrome://tracing`` (or https://ui.perfetto.dev).
        Spans appear twice: on the ``wall`` process with real durations,
        and — when any modeled time was recorded — on the ``modeled``
        process with simulated durations laid out on the span's modeled
        start (falling back to its wall start when no modeled clock ran).
        All timestamps are microseconds, as the format requires.
        """
        events: list[dict] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 1,
                "tid": 0,
                "args": {"name": "wall"},
            },
            {
                "name": "process_name",
                "ph": "M",
                "pid": 2,
                "tid": 0,
                "args": {"name": "modeled"},
            },
        ]
        for record in self.spans:
            args = dict(record.attrs)
            args["modeled_seconds"] = round(record.modeled_seconds, 9)
            events.append(
                {
                    "name": record.name,
                    "ph": "X",
                    "pid": 1,
                    "tid": record.depth,
                    "ts": round(record.start_wall * 1e6, 3),
                    "dur": max(round(record.wall_seconds * 1e6, 3), 0.001),
                    "args": args,
                }
            )
            if record.modeled_seconds > 0.0:
                start = (
                    record.start_modeled
                    if record.start_modeled is not None
                    else record.start_wall
                )
                events.append(
                    {
                        "name": record.name,
                        "ph": "X",
                        "pid": 2,
                        "tid": record.depth,
                        "ts": round(start * 1e6, 3),
                        "dur": max(round(record.modeled_seconds * 1e6, 3), 0.001),
                        "args": args,
                    }
                )
        return {"traceEvents": events, "displayTimeUnit": "ms"}
