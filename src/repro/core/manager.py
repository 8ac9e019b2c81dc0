"""The Compression Manager (paper §IV-G).

Executes HCDP schemas: for every sub-task it instantiates the planned
library through the pool's factory, compresses the piece's bytes, decorates
the payload with the 16-byte metadata header, and hands it to the Storage
Hardware Interface. On the read path it rediscovers the applied library
from the header alone and reassembles the original buffer.

Representative-sample scaling (DESIGN.md §2): when a task models more bytes
than it materialises, each piece compresses the corresponding slice of the
sample, the *measured* ratio is extrapolated to the modeled piece length
for capacity accounting, and nominal-profile codec times are charged for
the modeled length.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
import zlib
from collections import Counter, OrderedDict
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from ..ccp.seed import CostObservation
from ..ccp.features import ObservationKey
from ..codecs.base import get_codec
from ..codecs.metadata import (
    HEADER_SIZE,
    unwrap_payload,
    wrap_payload,
)
from ..codecs.pool import CompressionLibraryPool
from ..errors import (
    CapacityError,
    CodecError,
    CorruptDataError,
    DeadlineExceededError,
    IntegrityError,
    SchemaError,
    TierError,
)
from ..hashing import content_hash64
from ..hcdp.schema import Schema, SubTaskPlan
from ..hcdp.task import IOTask
from ..obs import Metric
from ..scrub.config import READ_REPAIR_RETRIES
from ..scrub.fsck import validate_entry
from ..units import MB
from .config import ExecutorConfig
from .shi import StorageHardwareInterface

__all__ = [
    "CompressionManager",
    "PieceResult",
    "WriteResult",
    "ReadResult",
    "CatalogEntry",
    "Move",
    "Relocation",
]


class CatalogEntry(NamedTuple):
    """One written piece as the manager remembers it.

    ``digest`` is the end-to-end content digest of the *uncompressed*
    piece bytes (:func:`repro.hashing.content_hash64`), recorded when
    content digests are enabled and ``None`` otherwise — including for
    accounting-only modeled pieces, which carry no payload to digest.
    Serializers emit the legacy 4-element form when the digest is absent,
    so catalogs and journals written with the feature off stay
    byte-identical to pre-digest builds, and both forms parse.
    """

    key: str
    length: int  # modeled uncompressed length
    codec: str
    crc32: int | None  # checksum of the stored blob (None: accounting-only)
    digest: int | None = None  # content digest of the uncompressed bytes


class Move(NamedTuple):
    """One piece of a :meth:`CompressionManager.relocate` call.

    The stored blob is read from wherever the piece lives unless ``blob``
    supplies a repair source's bytes to stand in for it. ``codec``
    re-encodes the piece and ``accounted`` resizes a payload-less modeled
    one; ``None`` keeps the stored bytes / the footprint.
    """

    index: int  # piece index within the task
    targets: tuple  # candidate tiers, most preferred first
    codec: str | None = None
    blob: bytes | None = None
    accounted: int | None = None


class Relocation(NamedTuple):
    """What one :meth:`CompressionManager.relocate` call did."""

    keys: list[str]  # the new key of each move, in move order
    tiers: list[str]  # the tier each move landed on
    bytes_moved: int  # accounted bytes placed
    modeled_seconds: float  # source reads + target writes, uncontended


class _PreparedPiece(NamedTuple):
    """Side-effect-free codec output for one piece, ready to place."""

    blob: bytes | None
    measured_ratio: float
    accounted: int
    wall_seconds: float
    digest: int | None = None  # content digest (None: digests off / modeled)


class _BatchWriteContext:
    """The one cache a batch write session shares: a digest per distinct
    sample *object*. A burst reuses one representative buffer across
    every rank and timestep, so the sample-ratio lookups' blake2b
    collapses to one hash per batch. Computed lazily — a task whose
    pieces are all codec ``none`` never hashes.
    """

    __slots__ = ("_digests",)

    def __init__(self) -> None:
        self._digests: dict[int, tuple[bytes, bytes]] = {}

    def digest(self, sample: bytes) -> bytes:
        entry = self._digests.get(id(sample))
        if entry is None or entry[0] is not sample:
            entry = (sample, hashlib.blake2b(sample, digest_size=16).digest())
            self._digests[id(sample)] = entry
        return entry[1]


class PieceResult(NamedTuple):
    """Execution record for one sub-task."""

    plan: SubTaskPlan
    key: str
    tier: str
    stored_size: int  # accounted bytes on the tier (header included)
    actual_ratio: float
    compress_seconds: float  # nominal-profile time for the modeled length
    io_seconds: float  # uncontended modeled tier time
    wall_seconds: float  # real Python codec time (diagnostic only)
    spilled: bool = False  # runtime correction: plan's tier was full
    failover: bool = False  # SHI rerouted around an outage at execute time
    retries: int = 0  # transient-error retries charged to this piece


@dataclass(slots=True)
class WriteResult:
    """Execution record for one write task."""

    task: IOTask
    pieces: list[PieceResult] = field(default_factory=list)
    observations: list[CostObservation] = field(default_factory=list)
    # The schema this result executed, attached by the orchestrator after
    # execution. Not part of the result's value.
    schema: object | None = field(default=None, repr=False, compare=False)

    @property
    def total_stored(self) -> int:
        return sum(p.stored_size for p in self.pieces)

    @property
    def compress_seconds(self) -> float:
        return sum(p.compress_seconds for p in self.pieces)

    @property
    def io_seconds(self) -> float:
        return sum(p.io_seconds for p in self.pieces)

    @property
    def achieved_ratio(self) -> float:
        stored = self.total_stored
        return self.task.size / stored if stored else 1.0


@dataclass(slots=True)
class ReadResult:
    """Execution record for one read task."""

    task_id: str
    data: bytes | None
    modeled_size: int
    decompress_seconds: float
    io_seconds: float
    metadata_seconds: float
    pieces: int


_HELP = "mirror of the Compression Manager counters"


class CompressionManager:
    """Schema executor + metadata catalog.

    The catalog maps task ids to their piece keys/codecs so reads can
    enumerate pieces; each piece's *codec* is still taken from its stored
    header (the paper's decentralised-decode property), the catalog only
    provides the key list.
    """

    #: The families this object exports (``Observability.mirror``).
    METRICS = (
        Metric("hcompress_sample_cache_hits_total", _HELP, "sample_cache_hits"),
        Metric(
            "hcompress_sample_cache_misses_total", _HELP, "sample_cache_misses"
        ),
        Metric("hcompress_spill_events_total", _HELP, "spill_events"),
        Metric("hcompress_parallel_pieces_total", _HELP, "parallel_pieces"),
        Metric("hcompress_read_repairs_total", _HELP, "read_repairs"),
        Metric(
            "hcompress_corruption_detected_total", _HELP, "corruption_detected"
        ),
        Metric("hcompress_quarantine_events_total", _HELP, "quarantine_events"),
        Metric(
            "hcompress_quarantined_pieces",
            "pieces currently quarantined (reads fail fast, typed)",
            lambda manager: len(manager.quarantined), kind="gauge",
        ),
        Metric(
            "hcompress_relocations_refused_total",
            "relocate calls that moved nothing, by reason",
            lambda manager: {
                (reason,): n for reason, n in manager.relocations_refused.items()
            } or None,
            ("reason",),
        ),
    )

    def __init__(
        self,
        pool: CompressionLibraryPool,
        shi: StorageHardwareInterface,
        on_corrupt: Callable[[str, bytes], bytes | None] | None = None,
        executor: ExecutorConfig | None = None,
        obs=None,
        journal=None,
        crashpoints=None,
        content_digests: bool = False,
        verify_digests: bool = False,
        predict_stored: Callable[[bytes, str], int] | None = None,
    ) -> None:
        self.pool = pool
        self.shi = shi
        self.obs = obs
        # End-to-end integrity (repro.scrub): when ``content_digests`` is
        # on, every materialised piece's catalog entry records a digest of
        # its *uncompressed* bytes; ``verify_digests`` additionally checks
        # that digest on every decode (catching corruption the per-tier
        # CRC cannot, e.g. a stale-but-valid blob under the right key).
        self.content_digests = content_digests
        self.verify_digests = verify_digests
        # Write-ahead journal (repro.recovery): when present, a catalog
        # mutation is made durable *before* the in-memory catalog changes,
        # so an acknowledged write survives a process crash.
        self.journal = journal
        # Crash-point arbiter (repro.recovery.crashpoints): models abrupt
        # process death at instrumented sites for the crash harness.
        self.crashpoints = crashpoints
        self.executor_config = executor if executor is not None else ExecutorConfig()
        self._catalog: dict[str, list[CatalogEntry]] = {}
        # (codec, feature key, sample digest) -> measured ratio, LRU;
        # modeled tasks measure each codec once per distinct sample instead
        # of once per piece of a burst.
        self._sample_ratios: OrderedDict[tuple, float] = OrderedDict()
        # (id(sample), offset, length) -> (sample ref, content digest);
        # see _piece_digest.
        self._piece_digests: dict[tuple[int, int, int], tuple[bytes, int]] = {}
        self.sample_cache_hits = 0
        self.sample_cache_misses = 0
        self.spill_events = 0
        self.read_repairs = 0
        self.corruption_detected = 0
        # Read-repair escalation (docs/INTEGRITY.md): per-key count of
        # corrupt-read cycles that ended with no verified data. When a key
        # keeps failing, it is quarantined — further reads raise
        # IntegrityError fast instead of burning the retry budget forever.
        self._repair_failures: dict[str, int] = {}
        self.quarantined: set[str] = set()
        self.quarantine_events = 0
        # Pieces whose real codec work ran on the thread pool (diagnostic).
        self.parallel_pieces = 0
        self._pool_executor: ThreadPoolExecutor | None = None
        # Read-repair hook: called with (key, corrupt blob) after re-reads
        # are exhausted; may return a healthy replacement blob (e.g. from a
        # replica or erasure-coded reconstruction) or None to give up.
        self.on_corrupt = on_corrupt
        # Size hook: the engine's cost predictor, asked by ``relocate`` for
        # the stored size of (decoded bytes, codec) before it runs the codec.
        self.predict_stored = predict_stored
        # Why ``relocate`` calls moved nothing: predicted_unfit /
        # unfit_after_encode / corrupt / lost -> count.
        self.relocations_refused: Counter = Counter()

    # -- piece concurrency ---------------------------------------------------

    def _executor(self) -> ThreadPoolExecutor:
        if self._pool_executor is None:
            workers = self.executor_config.max_workers
            if workers is None:
                workers = min(8, os.cpu_count() or 1)
            self._pool_executor = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="hcompress-piece"
            )
        return self._pool_executor

    def shutdown(self) -> None:
        """Release the piece thread pool (idempotent)."""
        if self._pool_executor is not None:
            self._pool_executor.shutdown(wait=True)
            self._pool_executor = None

    def _pool_eligible(self, codec_name: str, nbytes: int) -> bool:
        """Whether one piece's codec work should go to the thread pool.

        Only stdlib-backed codecs release the GIL while crunching; our
        from-scratch pure-Python codecs would serialise on it anyway, and
        tiny pieces cost more to dispatch than to compress.
        """
        if not self.executor_config.enabled or codec_name == "none":
            return False
        if nbytes < self.executor_config.min_piece_bytes:
            return False
        return self.pool.codec(codec_name).meta.stdlib

    # -- write path ---------------------------------------------------------

    def execute_write(self, schema: Schema, deadline=None, ctx=None) -> WriteResult:
        """Run a schema; returns accounting plus feedback observations.

        Atomic with respect to the catalog: if any piece fails to place
        (outage with failover disabled, retry budget exhausted) — or the
        optional :class:`~repro.qos.Deadline` budget runs out mid-task —
        every piece already written is rolled back so the caller can
        replan and re-execute the task cleanly. Every task of every
        engine takes this per-piece body; ``ctx`` is the batch session
        (:meth:`batch_context`) a driver threads through a batch.
        """
        if self.obs is None:
            return self._execute_write(schema, deadline, ctx)
        with self.obs.region(
            "manager.execute_write",
            task=schema.task.task_id,
            pieces=len(schema.pieces),
        ) as sp:
            result = self._execute_write(schema, deadline, ctx)
            sp.set_attr("stored", result.total_stored)
            sp.charge_modeled(result.compress_seconds + result.io_seconds)
        return result

    def _execute_write(self, schema: Schema, deadline=None, ctx=None) -> WriteResult:
        task = schema.task
        if task.task_id in self._catalog:
            raise SchemaError(f"task {task.task_id!r} already written")
        result = WriteResult(task=task)
        entries: list[CatalogEntry] = []
        dtype, data_format, distribution = task.analysis.feature_key()
        feature_key = (dtype, data_format, distribution)

        prepared = self._prepare_pieces(schema, feature_key, ctx)
        if self.crashpoints is not None:
            self.crashpoints.reached("manager.write.prepared")
        consumed = 0.0  # modeled seconds this task has spent so far
        # manager.piece has no span, only hooks: build their kwargs only
        # when somebody listens.
        hooks = (
            None if self.obs is None or self.obs.hooks.empty
            else self.obs.hooks
        )
        try:
            for index, (plan, prep) in enumerate(zip(schema.pieces, prepared)):
                key = self.shi.piece_key(task.task_id, index)
                if deadline is not None:
                    deadline.check(f"write {task.task_id!r}", consumed)
                if hooks is not None:
                    hooks.enter(
                        "manager.piece", key=key, codec=plan.codec,
                        length=plan.length,
                    )
                self.pool.codec(plan.codec)  # library selection (factory path)
                blob = prep.blob
                measured_ratio = prep.measured_ratio
                accounted = prep.accounted
                wall_seconds = prep.wall_seconds

                tier_name, spilled = self._resolve_tier(plan, accounted)
                receipt = self.shi.write(key, tier_name, blob, accounted)
                crc = (
                    zlib.crc32(blob)
                    if blob is not None and self.shi.resilience.verify_checksums
                    else None
                )
                entries.append(
                    CatalogEntry(key, plan.length, plan.codec, crc, prep.digest)
                )
                if self.crashpoints is not None:
                    self.crashpoints.reached("manager.write.piece_placed")

                profile = self.pool.profile(plan.codec)
                comp_seconds = (
                    plan.length / (profile.compress_mbps * MB)
                    if plan.codec != "none"
                    else 0.0
                )
                consumed += comp_seconds + receipt.seconds
                result.pieces.append(
                    PieceResult(
                        plan=plan,
                        key=key,
                        tier=receipt.tier,
                        stored_size=accounted,
                        actual_ratio=measured_ratio,
                        compress_seconds=comp_seconds,
                        io_seconds=receipt.seconds,
                        wall_seconds=wall_seconds,
                        spilled=spilled,
                        failover=receipt.failover,
                        retries=receipt.retries,
                    )
                )
                if hooks is not None:
                    hooks.exit(
                        "manager.piece", key=key, codec=plan.codec,
                        tier=receipt.tier, stored=accounted,
                        retries=receipt.retries, failover=receipt.failover,
                    )
                if plan.codec != "none":
                    result.observations.append(
                        CostObservation(
                            key=ObservationKey(
                                dtype, data_format, distribution, plan.codec,
                                plan.length,
                            ),
                            compress_mbps=profile.compress_mbps,
                            decompress_mbps=profile.decompress_mbps,
                            ratio=max(measured_ratio, 1e-3),
                        )
                    )
        except (TierError, DeadlineExceededError):
            for entry in entries:  # roll back the partial write
                tier = self.shi.locate(entry.key)
                if tier is not None:
                    tier.evict(entry.key)
            raise
        # WAL discipline: the commit record is durable before the catalog
        # mutates (and before the caller sees the ack). A crash between the
        # journal sync and the assignment below recovers the task as
        # committed — pieces are on the tiers and the record names them.
        if self.crashpoints is not None:
            self.crashpoints.reached("manager.write.pre_journal")
        if self.journal is not None:
            self.journal.commit("commit", task.task_id, tuple(entries))
        if self.crashpoints is not None:
            self.crashpoints.reached("manager.write.post_journal")
        self._catalog[task.task_id] = entries
        return result

    def _prepare_pieces(
        self, schema: Schema, feature_key: tuple[str, str, str], ctx=None
    ) -> list["_PreparedPiece"]:
        """Run every piece's *codec* work up front, in schema order.

        Compression is pure (slice in, blob out), so materialised pieces
        whose codec releases the GIL run concurrently on the thread pool;
        everything with side effects — tier resolution, SHI writes, the
        catalog — stays serial in the caller, which keeps execution
        bit-identical with the pool on or off.
        """
        task = schema.task
        sample = task.data
        if task.materialised and sample is not None:
            pooled = [
                self._pool_eligible(plan.codec, plan.length)
                for plan in schema.pieces
            ]
            if sum(pooled) >= 2:
                executor = self._executor()
                futures = {
                    i: executor.submit(self._compress_piece, sample, plan)
                    for i, plan in enumerate(schema.pieces)
                    if pooled[i]
                }
                self.parallel_pieces += len(futures)
                return [
                    futures[i].result()
                    if pooled[i]
                    else self._compress_piece(sample, plan)
                    for i, plan in enumerate(schema.pieces)
                ]
            return [
                self._compress_piece(sample, plan) for plan in schema.pieces
            ]

        prepared = []
        for plan in schema.pieces:
            wall_start = time.perf_counter()
            measured_ratio = (
                self._sample_ratio(sample, plan.codec, feature_key, ctx)
                if sample
                else plan.expected_ratio
            )
            accounted = HEADER_SIZE + max(
                1, math.ceil(plan.length / max(measured_ratio, 1e-9))
            )
            prepared.append(
                _PreparedPiece(
                    blob=None,
                    measured_ratio=measured_ratio,
                    accounted=accounted,
                    wall_seconds=time.perf_counter() - wall_start,
                )
            )
        return prepared

    def _compress_piece(self, sample: bytes, plan: SubTaskPlan) -> _PreparedPiece:
        """Pure codec work for one materialised piece (pool-safe)."""
        wall_start = time.perf_counter()
        piece_bytes = sample[plan.offset : plan.offset + plan.length]
        blob, header = wrap_payload(
            piece_bytes,
            start_offset=plan.offset % (1 << 32),
            codec_name=plan.codec,
        )
        measured_ratio = (
            len(piece_bytes) / header.resulting_size
            if header.resulting_size
            else 1.0
        )
        return _PreparedPiece(
            blob=blob,
            measured_ratio=measured_ratio,
            accounted=len(blob),
            wall_seconds=time.perf_counter() - wall_start,
            digest=(
                self._piece_digest(sample, plan.offset, plan.length, piece_bytes)
                if self.content_digests
                else None
            ),
        )

    def _piece_digest(
        self, sample: bytes, offset: int, length: int, piece_bytes: bytes
    ) -> int:
        """Content digest of one piece, identity-cached per sample buffer.

        Bursts reuse one representative sample object across ranks and
        timesteps (the same idiom the sample-ratio LRU and the batch
        digest cache lean on), so the per-piece digest collapses to one
        hash per distinct ``(buffer, offset, length)``. ``bytes`` are
        immutable and the cached strong reference keeps the id from being
        recycled, so an identity hit can only mean identical content.
        Pool-safe: plain dict ops under the GIL, worst case a duplicate
        recomputation.
        """
        key = (id(sample), offset, length)
        hit = self._piece_digests.get(key)
        if hit is not None and hit[0] is sample:
            return hit[1]
        digest = content_hash64(piece_bytes)
        if len(self._piece_digests) > 512:
            self._piece_digests.clear()
        self._piece_digests[key] = (sample, digest)
        return digest

    def _sample_ratio(
        self,
        sample: bytes,
        codec_name: str,
        feature_key: tuple[str, str, str],
        ctx: "_BatchWriteContext | None" = None,
    ) -> float:
        """Measured ratio of ``codec_name`` on ``sample``, LRU-cached.

        Modeled tasks typically reuse one representative sample across many
        ranks and timesteps; measuring each codec once per distinct
        ``(codec, feature key, sample digest)`` keeps modeled runs
        O(codecs) in real compression work instead of O(pieces). Codec
        failures propagate — a roster member that cannot compress valid
        bytes is a bug, not a condition to paper over. A batch session
        (``ctx``) hashes each distinct sample object once, and only here —
        after the ``none`` early return — so identity pieces never hash.
        """
        if codec_name == "none":
            return 1.0
        digest = (
            ctx.digest(sample)
            if ctx is not None
            else hashlib.blake2b(sample, digest_size=16).digest()
        )
        cache_key = (codec_name, feature_key, digest)
        cached = self._sample_ratios.get(cache_key)
        if cached is not None:
            self._sample_ratios.move_to_end(cache_key)
            self.sample_cache_hits += 1
            return cached
        self.sample_cache_misses += 1
        payload = self.pool.codec(codec_name).compress(sample)
        ratio = len(sample) / max(len(payload), 1)
        self._sample_ratios[cache_key] = ratio
        while len(self._sample_ratios) > self.executor_config.sample_cache_size:
            self._sample_ratios.popitem(last=False)
        return ratio

    def _resolve_tier(self, plan: SubTaskPlan, accounted: int) -> tuple[str, bool]:
        """Honour the plan's tier, spilling downward when the measured
        footprint no longer fits (the predicted ratio was optimistic).

        Spill corrects *capacity* staleness only. An unavailable tier is
        passed through untouched: outages are the SHI's jurisdiction, whose
        write path fails over (recording the reroute) or surfaces
        :class:`TierUnavailableError` when failover is disabled."""
        hierarchy = self.shi.hierarchy
        level = plan.tier_level
        if not hierarchy[level].available:
            return plan.tier, False
        if hierarchy[level].fits(accounted):
            return plan.tier, False
        for lower in range(level + 1, len(hierarchy)):
            if hierarchy[lower].fits(accounted):
                self.spill_events += 1
                return hierarchy[lower].spec.name, True
        raise TierError(
            f"piece of {accounted} bytes fits no tier at or below "
            f"{plan.tier!r}"
        )

    # -- batched write path (DESIGN.md §12) -----------------------------------

    def batch_context(self) -> "_BatchWriteContext":
        """A fresh batch write session (the shared sample-digest cache)."""
        return _BatchWriteContext()

    def _batch_fastpath_ok(self) -> bool:
        """Whether the bulk run body may follow a clean template.

        Observability regions, QoS breaker consultation and crash-point
        sites all fire *inside* the per-piece loop; any of them present
        keeps every task on :meth:`_execute_write`, so their side effects
        happen at exactly the per-task sites.
        """
        shi = self.shi
        return (
            self.obs is None
            and self.crashpoints is None
            and shi.obs is None
            and shi.qos is None
            and shi.crashpoints is None
        )

    def execute_write_batch(self, schemas: list[Schema], deadline=None) -> list[WriteResult]:
        """Execute write schemas in order, one batch session for all."""
        # No caller inside the repo; kept as a name because the end-to-end
        # benchmark's tracer resolves it with ``vars(CompressionManager)``.
        ctx = self.batch_context()
        return [self.execute_write_batched(s, ctx, deadline) for s in schemas]

    def execute_write_batched(
        self, schema: Schema, ctx: "_BatchWriteContext", deadline=None
    ) -> WriteResult:
        """:meth:`execute_write` inside a batch session (see
        :meth:`batch_context`): the same per-piece body, with the
        session's sample-digest cache behind its ratio lookups. Drivers
        interleave it with planning — a task's plan depends on the
        capacity its predecessors consumed."""
        return self.execute_write(schema, deadline, ctx)

    def _execute_write_run(
        self,
        schemas: list[Schema],
        template: WriteResult,
        ctx: "_BatchWriteContext",
    ) -> list[WriteResult]:
        """Write a run of modeled tasks identical to a just-written template.

        The only bulk write body. The caller (the batch driver's run
        lane) guarantees every schema shares the template's plan tuple,
        task size, analysis and sample, and
        :meth:`~repro.hcdp.engine.BatchPlanner.run_quota` proved every
        piece fits its planned tier for the whole run and refused a
        template that spilled, failed over, retried or left its planned
        tier — so each run task's receipts are the template's
        :class:`PieceResult` rows under its own keys. They are built
        column-wise (one key / receipt / catalog-entry column per template
        piece), each tier's debit lands as a single all-or-nothing
        :meth:`~repro.tiers.Tier.put_many`, and the columns transpose to
        per-task rows: journal commit, then catalog assignment, per task
        in order. Feedback is the caller's: the run length is pre-clamped
        so no model update can fall inside it. Returns the executed
        results — empty when a sample-ratio entry the per-piece body
        would hit has been evicted (the caller resumes per task, so the
        miss is charged at its sequential site), short when a task id
        repeats, so the per-piece body surfaces the duplicate exactly.
        """
        pieces = template.pieces
        sample = template.task.data
        ratios = self._sample_ratios
        ratio_keys: list[tuple] = []
        coded = [p.plan.codec for p in pieces if p.plan.codec != "none"]
        if sample and coded:
            feature_key = template.task.analysis.feature_key()
            digest = ctx.digest(sample)
            ratio_keys = [(codec, feature_key, digest) for codec in coded]
            if any(key not in ratios for key in ratio_keys):
                return []
        catalog = self._catalog
        tids = [schema.task.task_id for schema in schemas]
        fresh = set(tids)
        if len(fresh) != len(tids) or not catalog.keys().isdisjoint(fresh):
            # Rare: re-scan to stop right before the first duplicate.
            count = 0
            seen_new: set[str] = set()
            for tid in tids:
                if tid in catalog or tid in seen_new:
                    break
                seen_new.add(tid)
                count += 1
            if count == 0:
                return []
            schemas = schemas[:count]
            tids = tids[:count]

        hierarchy = self.shi.hierarchy
        by_tier: dict[int, list[tuple[str, None, int]]] = {}
        receipt_cols = []
        entry_cols = []
        for index, piece in enumerate(pieces):
            plan, _key, tier, stored, ratio, comp, io, wall = piece[:8]
            suffix = f"/{index}"
            keys = [tid + suffix for tid in tids]  # == shi.piece_key(tid, index)
            by_tier.setdefault(plan.tier_level, []).extend(
                [(key, None, stored) for key in keys]
            )
            receipt_cols.append(
                [
                    PieceResult(plan, key, tier, stored, ratio, comp, io, wall)
                    for key in keys
                ]
            )
            length, codec = plan.length, plan.codec
            entry_cols.append(
                [CatalogEntry(key, length, codec, None) for key in keys]
            )
        placed: list[int] = []
        try:
            for level, items in by_tier.items():
                hierarchy[level].put_many(items)
                placed.append(level)
        except TierError:  # pragma: no cover - the quota precludes this
            for level in placed:
                for key, _blob, _size in by_tier[level]:
                    hierarchy[level].evict(key)
            raise

        journal = self.journal
        observations = template.observations
        results: list[WriteResult] = []
        for schema, tid, receipts, entries in zip(
            schemas, tids, zip(*receipt_cols), zip(*entry_cols)
        ):
            # WAL discipline, as in _execute_write: durable before visible.
            if journal is not None:
                journal.commit("commit", tid, entries)
            catalog[tid] = list(entries)
            results.append(
                WriteResult(schema.task, list(receipts), observations.copy())
            )
        # The per-piece body's cache traffic: one recency touch and one
        # counted hit per coded piece per task.
        for cache_key in ratio_keys:
            ratios.move_to_end(cache_key)
        self.sample_cache_hits += len(results) * len(ratio_keys)
        return results

    # -- read path ------------------------------------------------------------

    def task_keys(self, task_id: str) -> list[str]:
        return [entry.key for entry in self.task_entries(task_id)]

    def task_pieces(self, task_id: str) -> list[tuple[str, int]]:
        """(key, modeled length) pairs for a written task."""
        return [(e.key, e.length) for e in self.task_entries(task_id)]

    def __contains__(self, task_id: str) -> bool:
        return task_id in self._catalog

    def task_ids(self) -> list[str]:
        """Cataloged task ids in insertion (write) order."""
        return list(self._catalog)

    def task_entries(self, task_id: str) -> list[CatalogEntry]:
        """The task's catalog entries (key, length, codec, crc32, digest)."""
        try:
            return list(self._catalog[task_id])
        except KeyError:
            raise TierError(f"unknown task {task_id!r}") from None

    def replace_task_entries(
        self, task_id: str, entries, crash_site: str
    ) -> None:
        """Re-point a task at new piece entries (:meth:`relocate`'s step 2).

        The caller has already placed the new extents; this applies the
        write path's WAL discipline to the re-point: the journal's
        idempotent ``commit`` record — carrying the *full* new entry
        list — is durable before the in-memory catalog mutates, so a
        replay lands on the new placement and a crash before the sync
        keeps the old one. Either way the old keys (after) or the new
        keys (before) are orphans the recovery sweep reclaims.
        ``crash_site`` names the swept post-journal crash window.
        """
        if task_id not in self._catalog:
            raise TierError(f"unknown task {task_id!r}")
        entries = [CatalogEntry(*entry) for entry in entries]
        if self.journal is not None:
            self.journal.commit("commit", task_id, tuple(entries))
        if self.crashpoints is not None:
            self.crashpoints.reached(crash_site)
        self._catalog[task_id] = entries

    def relocate(
        self, task_id: str, moves: list[Move], *, cause: str
    ) -> Relocation | None:
        """Move pieces of a written task to new extents, crash-safely.

        The one copy -> journal re-point -> evict choreography behind
        lifecycle migration and scrub repair (``cause`` is ``"lifecycle"``
        or ``"scrub"`` and prefixes the swept crash sites):

        1. **copy** — verify, size, encode, place. Every moved piece is
           first verified against its catalog entry (stored CRC, then the
           content digest of the bytes decoded *once*; bytes a repair
           source supplied go through
           :func:`~repro.scrub.fsck.validate_entry`) and every re-encode
           is *sized* by ``predict_stored`` against a running per-target
           remaining — so a call that cannot land is refused before its
           first encode and its first ``put``. Only then is each piece
           re-encoded and placed on the first target its real bytes fit
           (the authority; the prediction only skips work) under a
           *fresh* key (``task/gN/i``) while catalog and journal still
           name the old keys. A crash strands the copies as orphans that
           recovery's sweep reclaims. A lost race (capacity, a flapping
           tier, a vanished piece) or a corrupt source evicts the copies
           placed so far, counts its reason in ``relocations_refused``
           and returns ``None`` with nothing else touched.
        2. **journal** — :meth:`replace_task_entries`: one idempotent
           ``commit`` record, durable before the in-memory catalog
           mutates. From here a crash replays the new placement and
           strands the *old* keys as orphans instead.
        3. **evict** — the old keys leave every tier holding them and
           their quarantine, if any, is lifted.

        So exactly one copy of each piece is ever the one the recovered
        catalog names. ``SimulatedCrashError`` from the ``{cause}.post_copy``
        / ``post_journal`` / ``post_evict`` sites propagates: process death.
        """
        hierarchy = self.shi.hierarchy
        old = self._catalog.get(task_id)
        if old is None:
            self.relocations_refused["lost"] += 1
            return None
        entries = list(old)
        generation = self._next_generation(task_id, old)
        keys: list[str] = []
        tiers: list = []
        moved = 0
        seconds = 0.0
        unfit = "predicted_unfit"  # what a CapacityError means right now
        try:
            staged = []
            planned: Counter = Counter()  # target -> predicted bytes to add
            for move in moves:
                entry = old[move.index]
                blob, accounted, read_seconds = move.blob, move.accounted, 0.0
                data = header = None
                if blob is None:
                    src = hierarchy.find(entry.key)
                    if src is None:
                        raise TierError(f"piece {entry.key!r} lost from every tier")
                    extent = src.extent(entry.key)
                    read_seconds = src.io_seconds(extent.accounted_size)
                    if extent.has_payload:
                        blob = src.get(entry.key)
                    elif accounted is None:
                        accounted = extent.accounted_size
                if blob is not None:
                    if move.codec is None:
                        intact = validate_entry(entry, blob)
                    else:
                        intact = (
                            entry.crc32 is None
                            or zlib.crc32(blob) == entry.crc32
                        )
                    if not intact:
                        raise CorruptDataError(
                            f"piece {entry.key!r} failed validation on relocate"
                        )
                    if move.codec is not None:
                        # Decoded once: the same bytes feed the digest
                        # check, the size prediction and the new codec; the
                        # stored ones are not held across the other pieces.
                        data, header = self._unwrap(entry, blob, verify=True)
                        blob = None
                        if self.predict_stored is not None:
                            size = self.predict_stored(data, move.codec)
                            target = next(
                                (
                                    t for t in move.targets
                                    if t.fits(planned[t] + size)
                                ),
                                None,
                            )
                            if target is None:
                                raise CapacityError(
                                    f"piece {entry.key!r}: predicted {size} B "
                                    f"as {move.codec} fits no target"
                                )
                            planned[target] += size
                staged.append((move, blob, accounted, read_seconds, data, header))
            unfit = "unfit_after_encode"
            for move, blob, accounted, read_seconds, data, header in staged:
                entry = old[move.index]
                crc = entry.crc32
                seconds += read_seconds
                if data is not None:
                    blob, _ = wrap_payload(
                        data, start_offset=header.start_offset,
                        codec_name=move.codec,
                    )
                    crc = None if crc is None else zlib.crc32(blob)
                if blob is not None:
                    accounted = len(blob)
                target = next((t for t in move.targets if t.fits(accounted)), None)
                if target is None:
                    raise CapacityError(f"piece {entry.key!r} fits no target")
                seconds += target.io_seconds(accounted)
                new_key = f"{task_id}/g{generation}/{move.index}"
                target.put(new_key, blob, accounted_size=accounted)
                keys.append(new_key)
                tiers.append(target)
                moved += accounted
                # A re-encode changes the stored bytes (codec, CRC) but
                # never the content: the end-to-end digest rides along.
                entries[move.index] = CatalogEntry(
                    new_key, entry.length, move.codec or entry.codec, crc,
                    entry.digest,
                )
        except (TierError, CapacityError, CorruptDataError) as exc:
            for tier, key in zip(tiers, keys):
                tier.evict(key)
            reason = (
                "corrupt" if isinstance(exc, CorruptDataError)
                else unfit if isinstance(exc, CapacityError) else "lost"
            )
            self.relocations_refused[reason] += 1
            return None
        if self.crashpoints is not None:
            self.crashpoints.reached(f"{cause}.post_copy")
        self.replace_task_entries(task_id, entries, f"{cause}.post_journal")
        old_keys = [old[move.index].key for move in moves]
        for holder in hierarchy:
            for key in old_keys:
                if key in holder:
                    holder.evict(key)
        if self.crashpoints is not None:
            self.crashpoints.reached(f"{cause}.post_evict")
        for key in old_keys:
            self.clear_quarantine(key)
        return Relocation(keys, [t.spec.name for t in tiers], moved, seconds)

    @staticmethod
    def _next_generation(task_id: str, entries: list[CatalogEntry]) -> int:
        """Generation number for a relocation's fresh piece keys.

        Keys must never collide with live extents: originals are
        ``task/N``, generation ``g`` rewrites are ``task/gG/N``. Parsing
        the current keys (instead of counting in daemon state) keeps the
        scheme deterministic across restores, where recovery has already
        swept every non-catalog key off the tiers.
        """
        generation = 0
        prefix = f"{task_id}/g"
        for entry in entries:
            if entry.key.startswith(prefix):
                tail = entry.key[len(prefix):].split("/", 1)[0]
                if tail.isdigit():
                    generation = max(generation, int(tail))
        return generation + 1

    def _fetch_blob(self, entry: CatalogEntry) -> bytes:
        """Read one piece's blob through the SHI, verifying its checksum.

        A mismatch triggers read-repair: the blob is re-read up to
        ``READ_REPAIR_RETRIES`` times (transient media/bus corruption heals
        on re-read), then the ``on_corrupt`` hook gets a chance to supply a
        healthy replacement, and only then is :class:`CorruptDataError`
        surfaced. Repair is *bounded across calls* too: after
        ``quarantine_after_repairs`` failed repair cycles on the same key
        the piece is quarantined — subsequent reads raise
        :class:`IntegrityError` immediately instead of re-burning the
        retry budget on data that cannot be healed. A scrub repair that
        rewrites the piece lifts the quarantine
        (:meth:`clear_quarantine`).
        """
        key = entry.key
        if key in self.quarantined:
            raise IntegrityError(
                f"piece {key!r} is quarantined: every repair source was "
                "exhausted on earlier reads",
                key=key,
            )
        blob, _receipt = self.shi.read(key)
        if entry.crc32 is None or zlib.crc32(blob) == entry.crc32:
            return blob
        self.corruption_detected += 1
        for _attempt in range(READ_REPAIR_RETRIES):
            blob, _receipt = self.shi.read(key)
            if zlib.crc32(blob) == entry.crc32:
                self.read_repairs += 1
                return blob
        if self.on_corrupt is not None:
            replacement = self.on_corrupt(key, blob)
            if replacement is not None and zlib.crc32(replacement) == entry.crc32:
                self.read_repairs += 1
                return replacement
        failures = self._repair_failures.get(key, 0) + 1
        self._repair_failures[key] = failures
        if failures >= self.shi.resilience.quarantine_after_repairs:
            self.quarantined.add(key)
            self.quarantine_events += 1
            raise IntegrityError(
                f"piece {key!r} quarantined after {failures} failed repair "
                "cycles (re-reads and the corruption hook all exhausted)",
                key=key,
            )
        raise CorruptDataError(
            f"piece {key!r} failed checksum validation after "
            f"{READ_REPAIR_RETRIES} re-reads"
        )

    def clear_quarantine(self, key: str) -> None:
        """Lift a key's quarantine after an in-place repair (scrub)."""
        self.quarantined.discard(key)
        self._repair_failures.pop(key, None)

    def _unwrap(self, entry: CatalogEntry, blob: bytes, verify=False):
        """Decode a blob, mapping malformed-payload failures to
        :class:`CorruptDataError` (a bad header/payload on an
        integrity-checked piece is corruption, not a schema bug).

        With ``verify_digests`` on (or ``verify``: a relocation must never
        launder rot under a fresh CRC), the decoded bytes are additionally
        checked against the entry's end-to-end content digest — catching
        corruption the stored-blob CRC cannot see (e.g. a wrong-but-valid
        blob landed under the right key).
        """
        try:
            data, header = unwrap_payload(blob)
        except (SchemaError, CodecError) as exc:
            raise CorruptDataError(
                f"piece {entry.key!r} failed to decode: {exc}"
            ) from exc
        if (
            (verify or self.verify_digests)
            and entry.digest is not None
            and content_hash64(data) != entry.digest
        ):
            self.corruption_detected += 1
            raise CorruptDataError(
                f"piece {entry.key!r} decoded cleanly but failed "
                "content-digest validation"
            )
        return data, header

    def _unwrap_timed(self, entry: CatalogEntry, blob: bytes):
        """(data, header, wall seconds) for one blob — pure, pool-safe."""
        wall_start = time.perf_counter()
        data, header = self._unwrap(entry, blob)
        return data, header, time.perf_counter() - wall_start

    def execute_read(self, task_id: str, deadline=None) -> ReadResult:
        """Read + decompress a task; charges modeled times.

        For materialised tasks the returned ``data`` is the original
        buffer; for sample-scaled tasks it is the reassembled sample (or
        ``None`` when payloads were never stored) while the modeled timing
        still reflects the full modeled size.
        """
        if self.obs is None:
            return self._read_pieces(task_id, deadline)
        with self.obs.region("manager.execute_read", task=task_id) as sp:
            result = self._read_pieces(task_id, deadline)
            sp.set_attr("pieces", result.pieces)
            sp.charge_modeled(result.decompress_seconds + result.io_seconds)
        return result

    def execute_read_batch(
        self, task_ids: list[str], deadline=None
    ) -> list[ReadResult]:
        """Read a batch of tasks in order: :meth:`execute_read` per id."""
        return [self.execute_read(task_id, deadline) for task_id in task_ids]

    def execute_read_range(
        self, task_id: str, offset: int, length: int, deadline=None
    ) -> ReadResult:
        """Random-access read: only the sub-tasks overlapping
        ``[offset, offset + length)`` are fetched and decompressed.

        This is the "virtual chunks" benefit of the schema's piece
        structure: because every piece is independently decodable (own
        16-byte header, own codec), a partial read touches a strict subset
        of the task's footprint. Returned ``data`` is the requested slice
        for materialised tasks, ``None`` for modeled ones (timing is still
        charged for the overlapping pieces only).
        """
        if offset < 0 or length < 0:
            raise SchemaError(
                f"invalid range offset={offset} length={length}"
            )
        if length == 0 and task_id in self._catalog:
            return ReadResult(task_id, b"", 0, 0.0, 0.0, 0.0, 0)
        return self._read_pieces(task_id, deadline, (offset, offset + length))

    def _read_pieces(
        self, task_id: str, deadline=None, span: tuple[int, int] | None = None
    ) -> ReadResult:
        """The read pipeline: every read — per task, batch, ranged — runs
        this body, so it is the one place the read budget is audited.

        Three phases: fetch the selected blobs serially (tier accounting,
        deadline checks, checksums and read-repair are stateful), decode
        them — on the thread pool when at least two pieces carry a
        payload a GIL-releasing codec wrote — and reassemble serially in
        piece order, so results are identical with the pool on or off.
        ``span`` (a ``[start, end)`` byte range) selects the overlapping
        pieces and trims their decoded bytes to it.
        """
        try:
            entries = self._catalog[task_id]
        except KeyError:
            raise TierError(f"unknown task {task_id!r}") from None
        if span is not None:
            start, end = span
            cursor = 0
            selected, offsets = [], []
            for entry in entries:
                if cursor < end and cursor + entry.length > start:
                    selected.append(entry)
                    offsets.append(cursor)
                cursor += entry.length
            entries = selected
            clipped = min(end, cursor) - min(start, cursor)

        io_seconds = 0.0
        modeled = 0
        payloads = 0
        blobs: list[bytes | None] = []
        for entry in entries:
            if deadline is not None:
                deadline.check(f"read {task_id!r}", io_seconds)
            tier = self.shi.locate(entry.key)
            if tier is None:
                raise TierError(f"piece {entry.key!r} lost from every tier")
            extent = tier.extent(entry.key)
            modeled += entry.length
            io_seconds += tier.io_seconds(extent.accounted_size)
            if extent.has_payload:
                blobs.append(self._fetch_blob(entry))
                payloads += 1
            else:
                blobs.append(None)
        if deadline is not None and entries:
            # Final check with the full I/O bill: a single-piece read that
            # blew the budget must fail typed, not slip through unchecked.
            deadline.check(f"read {task_id!r}", io_seconds)

        futures: dict[int, Future] = {}
        if payloads >= 2:
            pooled = [
                i for i, blob in enumerate(blobs)
                if blob is not None
                and self._pool_eligible(entries[i].codec, len(blob))
            ]
            if len(pooled) >= 2:
                executor = self._executor()
                futures = {
                    i: executor.submit(self._unwrap_timed, entries[i], blobs[i])
                    for i in pooled
                }
                self.parallel_pieces += len(futures)

        parts: list[bytes] = []
        decompress_seconds = 0.0
        metadata_seconds = 0.0
        # Results (and any decode error) are consumed in piece order, so
        # the first in-order failure surfaces exactly as on a serial decode.
        for i, (entry, blob) in enumerate(zip(entries, blobs)):
            if blob is not None:
                data, header, wall = (
                    futures[i].result() if i in futures
                    else self._unwrap_timed(entry, blob)
                )
                metadata_seconds += wall
                if span is not None:
                    data = data[max(start - offsets[i], 0) : end - offsets[i]]
                parts.append(data)
                # The applied library is rediscovered from the stored
                # header — the paper's decentralised-decode property.
                codec_name = get_codec(header.codec_id).meta.name
            else:
                codec_name = entry.codec
            if codec_name != "none":
                profile = self.pool.profile(codec_name)
                decompress_seconds += entry.length / (
                    profile.decompress_mbps * MB
                )
        return ReadResult(
            task_id=task_id,
            data=b"".join(parts) if payloads == len(blobs) else None,
            modeled_size=modeled if span is None else clipped,
            decompress_seconds=decompress_seconds,
            io_seconds=io_seconds,
            metadata_seconds=metadata_seconds,
            pieces=len(entries),
        )

    def evict_task(self, task_id: str) -> int:
        """Remove every piece of a task; returns released accounted bytes.

        Journaled before any tier frees: a crash mid-evict recovers with
        the task gone from the catalog, and recovery's orphan sweep frees
        whatever pieces the crash left on the tiers.
        """
        keys = self.task_keys(task_id)
        if self.crashpoints is not None:
            self.crashpoints.reached("manager.evict.pre_journal")
        if self.journal is not None:
            self.journal.commit("evict", task_id)
        if self.crashpoints is not None:
            self.crashpoints.reached("manager.evict.post_journal")
        released = 0
        for key in keys:
            released += self.shi.delete(key)
        del self._catalog[task_id]
        return released

    # -- recovery support -----------------------------------------------------

    def catalog_snapshot(self) -> dict[str, list[tuple]]:
        """The catalog as plain tuples, for checkpointing.

        Entries without a content digest serialize in the legacy
        4-element form, so snapshots written with digests off are
        byte-identical to pre-digest builds; digest-bearing entries carry
        the 5th element. Both forms restore
        (:class:`CatalogEntry`'s trailing field defaults to ``None``).
        """
        return {
            task_id: [
                tuple(entry)[:4] if entry.digest is None else tuple(entry)
                for entry in entries
            ]
            for task_id, entries in self._catalog.items()
        }

    def restore_catalog(
        self, catalog: dict[str, list[tuple[str, int, str, int | None]]]
    ) -> None:
        """Replace the catalog wholesale (snapshot application)."""
        self._catalog = {
            task_id: [CatalogEntry(*entry) for entry in entries]
            for task_id, entries in catalog.items()
        }

    def apply_journal_record(self, record) -> None:
        """Apply one replayed journal record to the live catalog
        (idempotent: see :meth:`~repro.recovery.JournalRecord.apply`)."""
        record.apply(self._catalog, lambda entry: CatalogEntry(*entry))
