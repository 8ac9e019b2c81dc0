"""Outside-in span tracer for the end-to-end benchmark.

Installs class-level timing wrappers around each layer's public entry
points at run time, from the benchmark's own files, and removes them
afterwards — nothing under ``src/`` knows it is being traced. A layer is
a package under ``src/repro/`` (:data:`LAYERS`); :func:`default_sites`
lists the wrapped callables.

Every span records its site, start, end and parent; a span without a
parent is a *root* (one public call: a task, a batch, or a daemon step),
and every span belongs to its root's id. Spans stay in memory (compact
per-thread arrays) until the round ends; :meth:`Tracer.layer_totals`
reduces them to per-layer call counts and self time, and
:meth:`Tracer.chrome_trace` dumps them for ``chrome://tracing``.

Self time is a span's duration minus the time its children cover. The
manager's piece pool runs codec work on other threads: those spans are
adopted by the calling thread's open span, and the part of that span's
self time during which it only waited for them is moved to the workers'
layers in proportion to their own self times. Layer self times therefore
add up to the calling thread's root-span wall exactly.
"""

from __future__ import annotations

import threading
import time
from array import array

import numpy as np

__all__ = ["LAYERS", "Tracer", "default_sites"]

LAYERS = (
    "analyzer", "ccp", "monitor", "hcdp", "qos", "core.hcompress",
    "core.manager", "core.shi", "codecs", "hashing", "tiers", "recovery",
    "replication", "shard", "obs", "lifecycle", "scrub",
)


def _first_arg(args, result) -> int:
    """Size of the first argument after ``self``: bytes in, items placed."""
    return len(args[1])


def _bytes_out(args, result) -> int:
    return len(result)


def _hashed(args, result) -> int:
    return len(args[0])


def _one(args, result) -> int:
    return 1


def default_sites() -> list[tuple[object, str, str, object]]:
    """``(owner, attribute, layer, work)`` for every wrapped callable.

    ``work(args, result)`` sizes the call in the layer's own unit (bytes
    for codecs and hashing, items for tier placement); ``None`` counts
    nothing beyond the call itself.
    """
    from repro.analyzer import InputAnalyzer
    from repro.ccp import CompressionCostPredictor, FeedbackLoop
    from repro.codecs.base import iter_codecs
    from repro.core import manager as manager_module
    from repro.core.hcompress import HCompress
    from repro.core.manager import CompressionManager
    from repro.core.shi import StorageHardwareInterface
    from repro.hcdp import HcdpEngine
    from repro.hcdp.engine import BatchPlanner
    from repro.lifecycle import LifecycleDaemon
    from repro.lifecycle import daemon as lifecycle_module
    from repro.monitor import SystemMonitor
    from repro.obs import Observability
    from repro.obs.observability import _Region
    from repro.qos import QosGovernor
    from repro.recovery import Journal
    from repro.replication import StandbyReplica
    from repro.scrub import Scrubber
    from repro.scrub import fsck as fsck_module
    from repro.shard import ShardedHCompress
    from repro.tiers import Tier

    sites: list[tuple[object, str, str, object]] = []

    def add(owner, layer, *attrs, work=None):
        sites.extend((owner, attr, layer, work) for attr in attrs)

    add(InputAnalyzer, "analyzer", "analyze")
    add(
        CompressionCostPredictor, "ccp",
        "predict_batch", "candidate_table", "prefetch_tables",
    )
    add(FeedbackLoop, "ccp", "record", "record_run", "flush")
    add(SystemMonitor, "monitor", "status", "sample")
    add(HcdpEngine, "hcdp", "plan", "prefetch_candidates")
    # The bare engine's batch lane plans through the batch planner, never
    # through HcdpEngine.plan; without these the layer would read zero
    # exactly where it does the work.
    add(
        BatchPlanner, "hcdp",
        "plan", "run_quota", "emit_schema", "commit_run", "note_result",
    )
    add(
        QosGovernor, "qos",
        "observe", "admit", "codec_filter", "quarantined_tiers",
        "breaker_allow", "record_tier_outcome",
    )
    add(
        HCompress, "core.hcompress",
        "compress", "compress_batch", "decompress", "decompress_batch",
    )
    add(
        CompressionManager, "core.manager",
        "execute_write", "execute_write_batch", "execute_write_batched",
        "_execute_write_run", "execute_read", "execute_read_batch",
        "execute_read_range", "replace_task_entries",
    )
    add(StorageHardwareInterface, "core.shi", "write", "read")
    for owner in {type(codec) for codec in iter_codecs()}:
        for attr, work in (("compress", _first_arg), ("decompress", _bytes_out)):
            definer = next(k for k in owner.__mro__ if attr in vars(k))
            if (definer, attr, "codecs", work) not in sites:
                sites.append((definer, attr, "codecs", work))
    # content_hash64 is a module-level function: wrap the name each
    # importing module bound, so the callers see the wrapper.
    for module in (manager_module, lifecycle_module, fsck_module):
        add(module, "hashing", "content_hash64", work=_hashed)
    add(Tier, "tiers", "put", work=_one)
    add(Tier, "tiers", "put_many", work=_first_arg)
    add(Tier, "tiers", "get", "evict")
    add(Journal, "recovery", "commit", "append", "sync")
    add(StandbyReplica, "replication", "apply")
    add(
        ShardedHCompress, "shard",
        "compress", "compress_batch", "decompress", "decompress_batch",
    )
    add(
        Observability, "obs", "region",
        *(name for name in vars(Observability) if name.startswith("record_")),
    )
    # region() only builds the context manager; the span and hook cost is
    # paid in its enter/exit.
    add(_Region, "obs", "__enter__", "__exit__")
    add(LifecycleDaemon, "lifecycle", "step", "note_write", "note_read")
    add(Scrubber, "scrub", "step")
    return sites


class _Buffer:
    """One thread's spans, as parallel arrays indexed by span number."""

    __slots__ = (
        "sites", "parents", "starts", "ends", "works", "stack", "adoptions",
    )

    def __init__(self) -> None:
        self.sites = array("H")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.works = array("q")
        self.stack: list[int] = []
        # (own root span, calling thread's open span) per adopted root
        self.adoptions: list[tuple[int, int]] = []


class Tracer:
    """Installs the wrappers, holds the spans, reduces them per layer."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._main = _Buffer()
        self._local.buffer = self._main
        self._workers: list[_Buffer] = []
        self._patched: list[tuple[object, str, object]] = []
        #: site id -> (layer, label)
        self.sites: list[tuple[str, str]] = []

    # -- install / remove ------------------------------------------------------

    def install(self, sites=None) -> None:
        """Wrap every site (class-level, so existing objects are covered)."""
        for owner, attr, layer, work in (
            default_sites() if sites is None else sites
        ):
            original = vars(owner)[attr]
            label = f"{getattr(owner, '__name__', owner)}.{attr}"
            self.sites.append((layer, label.replace("repro.", "")))
            wrapper = self._wrap(original, len(self.sites) - 1, work)
            wrapper.__name__ = getattr(original, "__name__", attr)
            wrapper.__wrapped__ = original
            setattr(owner, attr, wrapper)
            self._patched.append((owner, attr, original))

    def remove(self) -> None:
        """Restore every wrapped callable (idempotent)."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _worker_buffer(self) -> _Buffer:
        buffer = _Buffer()
        self._local.buffer = buffer
        self._workers.append(buffer)
        return buffer

    def _wrap(self, fn, site: int, work):
        local = self._local
        main = self._main
        worker_buffer = self._worker_buffer
        perf = time.perf_counter

        def traced(*args, **kwargs):
            try:
                buffer = local.buffer
            except AttributeError:
                buffer = worker_buffer()
            stack = buffer.stack
            index = len(buffer.sites)
            if stack:
                buffer.parents.append(stack[-1])
            else:
                buffer.parents.append(-1)
                if buffer is not main:
                    buffer.adoptions.append(
                        (index, main.stack[-1] if main.stack else -1)
                    )
            buffer.sites.append(site)
            buffer.works.append(0)
            buffer.ends.append(0.0)
            stack.append(index)
            buffer.starts.append(perf())
            try:
                result = fn(*args, **kwargs)
                if work is not None:
                    buffer.works[index] = work(args, result)
                return result
            finally:
                buffer.ends[index] = perf()
                stack.pop()

        return traced

    # -- reduction -------------------------------------------------------------

    @staticmethod
    def _self_times(buffer: _Buffer) -> tuple[np.ndarray, np.ndarray]:
        """(duration, self time) per span of one thread's buffer."""
        starts = np.asarray(buffer.starts)
        ends = np.asarray(buffer.ends)
        parents = np.asarray(buffer.parents)
        durations = ends - starts
        nested = parents >= 0
        covered = np.bincount(
            parents[nested], weights=durations[nested], minlength=len(starts)
        )
        return durations, durations - covered

    def layer_totals(self) -> dict:
        """Reduce the spans to per-layer and per-site totals.

        Returns ``{"layers": {layer: {"calls", "self_s", "work"}},
        "sites": {label: {...}}, "root_s", "roots", "spans"}`` where
        ``root_s`` is the summed duration of the calling thread's root
        spans — by construction also the sum of every layer's ``self_s``.
        """
        main = self._main
        site_count = len(self.sites)
        durations, self_s = self._self_times(main)
        self_s = self_s.copy()
        sites = np.asarray(main.sites)
        parents = np.asarray(main.parents)
        calls = np.bincount(sites, minlength=site_count).astype(np.float64)
        work = np.bincount(
            sites, weights=np.asarray(main.works),
            minlength=site_count,
        )
        for buffer in self._workers:
            w_sites = np.asarray(buffer.sites)
            calls += np.bincount(w_sites, minlength=site_count)
            work += np.bincount(
                w_sites, weights=np.asarray(buffer.works),
                minlength=site_count,
            )
        moved = self._adopt(self._workers, main, parents, self_s)
        per_site = np.bincount(sites, weights=self_s, minlength=site_count)
        per_site += moved
        layers = {
            layer: {"calls": 0, "self_s": 0.0, "work": 0} for layer in LAYERS
        }
        by_site = {}
        for index, (layer, label) in enumerate(self.sites):
            entry = layers[layer]
            entry["calls"] += int(calls[index])
            entry["self_s"] += float(per_site[index])
            entry["work"] += int(work[index])
            if calls[index]:
                by_site[label] = {
                    "layer": layer,
                    "calls": int(calls[index]),
                    "self_s": float(per_site[index]),
                    "work": int(work[index]),
                }
        roots = parents < 0
        return {
            "layers": layers,
            "sites": by_site,
            "root_s": float(durations[roots].sum()),
            "roots": int(roots.sum()),
            "spans": int(calls.sum()),
        }

    def _adopt(self, workers, main, main_parents, main_self) -> np.ndarray:
        """Charge the pool threads' spans to the spans that waited.

        For each calling-thread span that adopted worker roots: the time
        it spent outside its own children while at least one worker ran
        is taken out of its self time (``main_self`` is updated in place)
        and returned per site, split over the worker spans in proportion
        to their self times.
        """
        site_count = len(self.sites)
        moved = np.zeros(site_count)
        # waiter -> [(worker number, that worker's root span), ...]
        by_waiter: dict[int, list[tuple[int, int]]] = {}
        views = []
        for number, buffer in enumerate(workers):
            parents = np.asarray(buffer.parents)
            root = np.arange(len(parents))
            for index in np.nonzero(parents >= 0)[0]:
                root[index] = root[parents[index]]  # parents precede children
            views.append((
                np.asarray(buffer.starts), np.asarray(buffer.ends),
                np.asarray(buffer.sites), root, self._self_times(buffer)[1],
            ))
            for own_root, waiter in buffer.adoptions:
                if waiter >= 0:
                    by_waiter.setdefault(waiter, []).append((number, own_root))
        if not by_waiter:
            return moved
        m_starts, m_ends = np.asarray(main.starts), np.asarray(main.ends)
        children: dict[int, list[int]] = {}
        for child in np.nonzero(np.isin(main_parents, list(by_waiter)))[0]:
            children.setdefault(int(main_parents[child]), []).append(child)
        for waiter, adopted in by_waiter.items():
            lo, hi = m_starts[waiter], m_ends[waiter]
            busy = _merge([
                (max(views[n][0][r], lo), min(views[n][1][r], hi))
                for n, r in adopted
            ])
            own = _merge(
                [(m_starts[c], m_ends[c]) for c in children.get(waiter, ())]
            )
            waited = min(_uncovered(busy, own), main_self[waiter])
            shares = np.zeros(site_count)
            for number in {n for n, _ in adopted}:
                _, _, sites, root, self_s = views[number]
                mine = np.isin(root, [r for n, r in adopted if n == number])
                shares += np.bincount(
                    sites[mine], weights=self_s[mine], minlength=site_count
                )
            if waited <= 0 or shares.sum() <= 0:
                continue
            main_self[waiter] -= waited
            moved += shares * (waited / shares.sum())
        return moved

    # -- export ----------------------------------------------------------------

    def chrome_trace(self) -> dict:
        """All spans as Chrome-trace complete events (``ph: "X"``).

        ``tid`` 0 is the calling thread, 1.. the pool threads; ``args``
        carries the span's number and parent within its thread and the
        root call (a calling-thread span number) it belongs to.
        """
        events = []
        origin = self._main.starts[0] if len(self._main.starts) else 0.0
        main_roots: list[int] = []
        for tid, buffer in enumerate([self._main, *self._workers]):
            waiters = dict(buffer.adoptions)
            root_of = main_roots if buffer is self._main else []
            for index, site in enumerate(buffer.sites):
                parent = buffer.parents[index]
                if parent >= 0:
                    root_of.append(root_of[parent])
                elif waiters.get(index, -1) >= 0:
                    root_of.append(main_roots[waiters[index]])
                else:
                    root_of.append(index)
                layer, label = self.sites[site]
                events.append({
                    "name": label, "cat": layer, "ph": "X", "pid": 1,
                    "tid": tid,
                    "ts": (buffer.starts[index] - origin) * 1e6,
                    "dur": (buffer.ends[index] - buffer.starts[index]) * 1e6,
                    "args": {
                        "span": index, "parent": parent,
                        "root": root_of[index], "work": buffer.works[index],
                    },
                })
        return {"traceEvents": events, "displayTimeUnit": "ns"}


def _merge(intervals) -> list[tuple[float, float]]:
    """Union of intervals as a sorted list of disjoint ones."""
    merged: list[tuple[float, float]] = []
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def _uncovered(intervals, covers) -> float:
    """Length of ``intervals`` not covered by ``covers`` (both merged)."""
    total = sum(end - start for start, end in intervals)
    for start, end in intervals:
        for c_start, c_end in covers:
            overlap = min(end, c_end) - max(start, c_start)
            if overlap > 0:
                total -= overlap
    return total
