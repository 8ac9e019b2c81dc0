"""The HCompress engine (paper §IV): the library's main entry point.

Wires together every component the design figure shows — Input Analyzer,
Compression Cost Predictor, System Monitor, HCDP engine, Compression
Manager, Storage Hardware Interface — behind the paper's two-call API:
``compress(task)`` and ``decompress(task)``.

Timing accounting follows the reproduction's split (DESIGN.md §6):
compression and I/O durations are modeled (nominal codec profiles + tier
specs); engine-internal overheads (HCDP planning, library selection,
feedback) are measured wall-clock and divided by the configured
Python-to-native calibration factor so the Fig. 3 anatomy is comparable to
the paper's C implementation.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from ..analyzer import InputAnalyzer, MetadataHints
from ..ccp import (
    CompressionCostPredictor,
    FeatureEncoder,
    FeedbackLoop,
    ObservationKey,
    SeedData,
    load_seed,
    save_seed,
)
from ..codecs.metadata import HEADER_SIZE
from ..codecs.pool import CompressionLibraryPool
from ..errors import (
    CapacityError,
    DeadlineExceededError,
    HCompressError,
    RecoveryError,
    RetryExhaustedError,
    TaskShedError,
    TierError,
    TierUnavailableError,
)
from ..hcdp import HcdpEngine, IOTask, Operation, Priority, next_task_id
from ..lifecycle import LifecycleDaemon
from ..monitor import SystemMonitor
from ..obs import Metric, Observability
from ..qos import Deadline, QosClass, QosGovernor
from ..recovery import (
    JOURNAL_NAME,
    EngineSnapshot,
    Journal,
    read_snapshot,
    replay_catalog,
    write_snapshot,
)
from ..scrub import Scrubber
from ..tiers import StorageHierarchy
from .config import HCompressConfig
from .manager import CompressionManager, ReadResult, WriteResult
from .profiler import HCompressProfiler
from .shi import StorageHardwareInterface

__all__ = ["HCompress", "Anatomy", "RecoveryReport"]


@dataclass(frozen=True)
class RecoveryReport:
    """What :meth:`HCompress.restore` found and repaired.

    Attributes:
        snapshot_lsn: Journal LSN the snapshot covered.
        records_replayed: Journal records applied on top of the snapshot.
        journal_truncated: The journal had a torn/corrupted tail that was
            cut back to the last intact record.
        orphans_evicted: Tier extents no restored catalog entry references
            (pieces of unacknowledged writes) that were reclaimed.
        duplicates_evicted: Extents present on more than one tier (a crash
            between the flusher's copy and evict) — the copy ``find()``
            prefers is kept, the stale one reclaimed.
        missing_keys: Catalog-referenced keys found on *no* tier. Always 0
            under the WAL discipline (commit records are durable only
            after every piece is placed); nonzero means external tier loss.
        tier_drift: Tiers whose live used-bytes differ from the
            checkpoint's ledger view (expected: post-checkpoint writes).
    """

    snapshot_lsn: int
    records_replayed: int
    journal_truncated: bool
    orphans_evicted: int
    duplicates_evicted: int
    missing_keys: int
    tier_drift: dict[str, int] = field(default_factory=dict)


@dataclass
class Anatomy:
    """Cumulative per-stage time accounting (the Fig. 3 subject).

    Write-path categories: hcdp_engine, library_selection, compression,
    feedback, write_io. Read-path categories: metadata_parsing,
    library_selection (shared), decompression, read_feedback, read_io.
    """

    hcdp_engine: float = 0.0
    library_selection: float = 0.0
    compression: float = 0.0
    feedback: float = 0.0
    write_io: float = 0.0
    metadata_parsing: float = 0.0
    decompression: float = 0.0
    read_feedback: float = 0.0
    read_io: float = 0.0
    write_ops: int = 0
    read_ops: int = 0

    #: The seconds fields above — the Fig. 3 categories — in export order.
    PHASES = (
        "hcdp_engine", "library_selection", "compression", "feedback",
        "write_io", "metadata_parsing", "decompression", "read_feedback",
        "read_io",
    )
    #: The family this accounting exports (``Observability.mirror``).
    METRICS = (
        Metric(
            "hcompress_anatomy_seconds_total",
            "per-stage time accounting (Fig. 3 categories)",
            lambda anatomy: {
                (phase,): getattr(anatomy, phase) for phase in Anatomy.PHASES
            },
            ("phase",),
        ),
    )

    def write_breakdown(self) -> dict[str, float]:
        """Write-op fractions (sums to 1.0 when any write happened)."""
        parts = {
            "hcdp_engine": self.hcdp_engine,
            "library_selection": self.library_selection,
            "compression": self.compression,
            "feedback": self.feedback,
            "write": self.write_io,
        }
        total = sum(parts.values())
        return {k: (v / total if total else 0.0) for k, v in parts.items()}

    def read_breakdown(self) -> dict[str, float]:
        parts = {
            "metadata_parsing": self.metadata_parsing,
            "library_selection": 0.0,  # folded into metadata on reads
            "decompression": self.decompression,
            "feedback": self.read_feedback,
            "read": self.read_io,
        }
        total = sum(parts.values())
        return {k: (v / total if total else 0.0) for k, v in parts.items()}


class HCompress:
    """Hierarchical data compression engine over a storage hierarchy.

    Args:
        hierarchy: The multi-tiered storage stack to manage.
        config: Runtime knobs; defaults are the paper's.
        seed: Profiler output to bootstrap the cost model. When omitted,
            the config's ``seed_path`` is loaded if set, else a quick
            profiling pass runs inline (the paper's HP-before-application
            step, collapsed for convenience).
        clock: Optional time source for the System Monitor (e.g. a
            simulation's ``lambda: sim.now``).
        crashpoints: Optional :class:`~repro.recovery.Crashpoints` arbiter
            threaded through the manager, SHI, and journal so the crash
            harness can kill the engine at instrumented sites.
        obs: Optional pre-built :class:`~repro.obs.Observability` to adopt
            instead of constructing one from the config — lets
            :meth:`restore` continue a crashed engine's registry/trace.
    """

    #: The one family the engine exports of its own state (its components
    #: carry their own ``METRICS``): degraded-mode replans.
    METRICS = (
        Metric(
            "hcompress_replans_total", "mirror of the HCDP engine counters",
            "replans",
        ),
    )

    def __init__(
        self,
        hierarchy: StorageHierarchy,
        config: HCompressConfig | None = None,
        seed: SeedData | None = None,
        clock=None,
        crashpoints=None,
        obs=None,
    ) -> None:
        self.config = config if config is not None else HCompressConfig()
        self.hierarchy = hierarchy
        self.crashpoints = crashpoints
        self._clock = clock
        # Observability is strictly opt-in: when disabled, no telemetry
        # object exists and instrumented paths pay one ``is None`` check.
        if obs is not None:
            self.obs = obs
        else:
            self.obs = (
                Observability(self.config.observability, modeled_clock=clock)
                if self.config.observability.enabled
                else None
            )
        self.pool = CompressionLibraryPool(self.config.libraries)
        self.analyzer = InputAnalyzer()
        self.monitor = SystemMonitor(
            hierarchy,
            clock=clock,
            interval=self.config.monitor_interval,
            capacity_bands=self.config.plan_cache.capacity_bands,
        )
        # The predictor's feature vocabulary is keyed off the pool roster,
        # so non-default rosters (e.g. EXTENDED_LIBRARIES with the
        # cache-line codecs) get interaction terms for every member. For
        # the default roster this encoder is identical to the default one.
        self.predictor = CompressionCostPredictor(
            FeatureEncoder(codecs=self.pool.names)
        )
        if seed is None:
            if self.config.seed_path is not None:
                seed = load_seed(self.config.seed_path)
            else:
                profiler = HCompressProfiler(
                    self.pool, rng=np.random.default_rng(0)
                )
                seed = profiler.quick_seed()
        self.seed = seed
        self.predictor.fit_seed(seed.observations)
        self.engine = HcdpEngine(
            self.predictor,
            self.monitor,
            self.pool,
            priority=self.config.priority,
            grain=self.config.grain,
            load_factor=self.config.load_factor,
            drain_penalty=self.config.drain_penalty,
            plan_cache=self.config.plan_cache,
            obs=self.obs,
        )
        # Write-ahead journal: opened (and torn-tail-repaired) before the
        # manager exists so no catalog mutation can precede it.
        recovery = self.config.recovery
        self.journal = (
            Journal(
                Path(recovery.directory) / JOURNAL_NAME,
                fsync_every=recovery.fsync_every,
                fsync=recovery.fsync,
                crashpoints=crashpoints,
            )
            if recovery.enabled
            else None
        )
        self.recovery_report: RecoveryReport | None = None
        # QoS governor: strictly opt-in, like observability. When disabled
        # no governor exists, the SHI carries ``qos=None``, and every
        # request path is byte-identical to a build without the subsystem.
        self.qos = (
            QosGovernor(
                self.config.qos, hierarchy, clock=clock, obs=self.obs
            )
            if self.config.qos.enabled
            else None
        )
        self.shi = StorageHardwareInterface(
            hierarchy, resilience=self.config.resilience, obs=self.obs,
            crashpoints=crashpoints, qos=self.qos,
        )
        self.manager = CompressionManager(
            self.pool, self.shi, executor=self.config.executor, obs=self.obs,
            journal=self.journal, crashpoints=crashpoints,
            content_digests=self.config.scrub.content_digests,
            verify_digests=self.config.scrub.verify_reads,
            predict_stored=self.predict_stored,
        )
        # Lifecycle daemon: strictly opt-in, same contract as QoS. When
        # disabled no daemon exists, the read/write paths pay one
        # ``is None`` check, and behavior is byte-identical to a build
        # without the subsystem. Stepping is cooperative — callers drive
        # ``self.lifecycle.step()`` on the simulated clock.
        self.lifecycle = (
            LifecycleDaemon(self, self.config.lifecycle)
            if self.config.lifecycle.enabled
            else None
        )
        # Background scrubber: same opt-in contract. Stepping is
        # cooperative — callers drive ``self.scrub.step()`` alongside the
        # lifecycle daemon's.
        self.scrub = (
            Scrubber(self, self.config.scrub)
            if self.config.scrub.enabled
            else None
        )
        # Degraded-mode replans: writes that failed against a stale system
        # view and were re-planned against a fresh monitor sample.
        self.replans = 0
        self.feedback = FeedbackLoop(
            self.predictor, every_n=self.config.feedback_every_n
        )
        self.anatomy = Anatomy()
        # Named-file manifests for the interception facade (repro.core.api).
        self.file_manifests: dict[str, list[str]] = {}
        self._finalized = False

    # -- paper API: compress / decompress -----------------------------------------

    def compress(
        self,
        data: bytes | None = None,
        *,
        task: IOTask | None = None,
        hints: MetadataHints | None = None,
        modeled_size: int | None = None,
        task_id: str | None = None,
        deadline: float | None = None,
        qos_class: QosClass | None = None,
        tenant: str | None = None,
    ) -> WriteResult:
        """Compress-and-place one write task: :meth:`compress_batch` of one.

        Either pass raw ``data`` (with optional analyzer ``hints`` and a
        ``modeled_size`` for representative-sample scaling) or a prebuilt
        :class:`IOTask`.

        ``deadline`` is an optional budget in modeled seconds: planning
        prunes tiers/codecs that cannot complete in time and execution
        checks the remaining budget before each piece, raising
        :class:`~repro.errors.DeadlineExceededError` (honoured with or
        without QoS enabled). ``qos_class`` is the task's service class
        for admission control; with QoS enabled, overloaded intake sheds
        low classes with :class:`~repro.errors.TaskShedError`. ``tenant``
        scopes the task to a tenant for QoS purposes: the tenant's
        configured service class applies when ``qos_class`` is not given,
        and per-tenant backlog quotas count the task against its tenant.
        """
        return self.compress_batch(
            [{"data": data, "task": task, "hints": hints,
              "modeled_size": modeled_size, "task_id": task_id}],
            deadline=deadline, qos_class=qos_class, tenant=tenant,
        )[0]

    def compress_batch(
        self,
        items,
        *,
        deadline: float | None = None,
        qos_class: QosClass | None = None,
        tenant: str | None = None,
    ) -> list[WriteResult]:
        """Compress-and-place a batch of write tasks in submission order.

        The one write driver: every task of every batch — of one or of
        thousands, on a bare or a fully armed engine — takes the same
        per-task step (:meth:`_write_step`), so planning, execution and
        feedback interleave per task (a task's plan depends on the
        capacity its predecessors consumed and on model updates their
        feedback triggered) and catalogs, schemas, journals and telemetry
        are identical however the tasks are grouped into calls.

        Each item is raw ``bytes``, a prebuilt :class:`IOTask`, or a dict
        of :meth:`compress` keyword arguments (``data``, ``hints``,
        ``modeled_size``, ``task_id``, ``tenant``). Every item is
        validated before anything is admitted or written, and task ids
        are assigned in item order. A dict item's
        ``tenant`` overrides the call-level one (it only matters with QoS
        active, or for routing in :class:`~repro.shard.ShardedHCompress`).

        A batch of more than one task without observability, QoS,
        crash-points or a ``deadline`` opens the run lane: tasks are
        analysed up front with one prefetched ECC table pass, each step's
        plan also opens the engine's run-lane ledger, and a clean step may
        be continued by :meth:`_write_run`, which copies its receipts for
        the identical tasks that follow.
        """
        self._check_open()
        specs = [self._write_spec(item) for item in items]
        total = len(specs)
        planner = tasks = None
        # The planner is the run lane's ledger and nothing else, so a call
        # builds one iff the run lane is open: several tasks, no QoS
        # constraint or deadline (they bypass the schema cache whose hits
        # a run records), and both bodies' gates — whose inputs (obs, QoS,
        # crash-points, cache policy) cannot change mid-batch, so one
        # check covers the whole loop.
        if (
            total > 1
            and self.qos is None
            and deadline is None
            and self.engine.batch_fast_path_ok()
            and self.manager._batch_fastpath_ok()
        ):
            planner = self.engine.batch_planner()
            analysis_memo: dict[tuple[int, int], tuple] = {}
            tasks = [self._write_task(spec, analysis_memo) for spec in specs]
            self.engine.prefetch_candidates(tasks)
        ctx = self.manager.batch_context()
        step = self._write_step if self.obs is None else self._write_step_traced
        results: list[WriteResult] = []
        index = 0
        while index < total:
            result = step(
                specs[index], tasks[index] if tasks else None, planner, ctx,
                deadline, qos_class, tenant,
            )
            results.append(result)
            index += 1
            if planner is not None and index < total:
                run = self._write_run(tasks, index, result, planner, ctx)
                results.extend(run)
                index += len(run)
        return results

    def _write_step_traced(
        self, spec: dict, task: IOTask | None, *args
    ) -> WriteResult:
        """:meth:`_write_step` inside its ``hcompress.compress`` region.

        The task is named on the span before the step runs, so a shed or
        deadline-exceeded write's span says which task it refused.
        """
        with self.obs.region("hcompress.compress") as sp:
            if task is None:
                task = self._write_task(spec)
            sp.set_attr("task", task.task_id)
            sp.set_attr("size", task.size)
            try:
                result = self._write_step(spec, task, *args)
            except TaskShedError as exc:
                sp.set_attr("qos_class", QosClass(exc.qos_class).name)
                raise
            sp.charge_modeled(result.compress_seconds + result.io_seconds)
            self.obs.record_write(result)
        return result

    def _write_step(
        self, spec: dict, task: IOTask | None, planner, ctx,
        deadline: float | None, qos_class: QosClass | None, tenant: str | None,
    ) -> WriteResult:
        """One task through the write pipeline — the only per-task write
        code in the engine: analyse, admit, plan, select libraries,
        execute (re-planning once in degraded mode), feed the cost model.

        ``task`` is prebuilt when the batch planner needed the whole
        batch up front or the traced wrapper analysed it inside the task's
        own telemetry region; otherwise it is analysed here.
        """
        scale = self.config.python_to_native
        anatomy = self.anatomy
        perf = time.perf_counter
        if task is None:
            task = self._write_task(spec)

        budget = deadline
        status = None
        if self.qos is not None:
            # Admission + brownout happen before any planning work: a shed
            # task must cost nothing beyond the analyzer pass. Nothing
            # touches a tier between here and the plan, so the planner
            # reuses this snapshot: one monitor sample per armed task.
            status = self.monitor.status()
            self.qos.observe(status)
            self.qos.admit(
                task.task_id, task.size, qos_class,
                tenant=spec.get("tenant", tenant),  # the item's own wins
            )
            if budget is None:
                budget = self.config.qos.default_deadline
        dl = Deadline(budget, clock=self._clock) if budget is not None else None

        try:
            wall = perf()
            if planner is not None:
                schema = planner.plan(task)
            else:
                schema = self.engine.plan(
                    task, status=status, **self._plan_constraints(dl)
                )
            anatomy.hcdp_engine += (perf() - wall) / scale

            wall = perf()
            for piece in schema.pieces:  # factory lookups (library selection)
                self.pool.codec(piece.codec)
            anatomy.library_selection += (perf() - wall) / scale

            try:
                result = self.manager.execute_write_batched(schema, ctx, dl)
            except (
                TierUnavailableError, RetryExhaustedError, CapacityError,
                TierError,
            ):
                # Degraded-mode replan (§IV-E): the plan was built against a
                # stale SystemStatus — a tier flapped or filled between the
                # monitor's sample and the write landing. The partial write
                # was rolled back by the manager; take a fresh sample so the
                # HCDP engine sees the outage (and any breaker quarantine)
                # and plans around it, then re-execute.
                if planner is not None:
                    planner.invalidate()
                wall = perf()
                self.monitor.sample()
                schema = self.engine.plan(task, **self._plan_constraints(dl))
                self.replans += 1
                anatomy.hcdp_engine += (perf() - wall) / scale
                result = self.manager.execute_write_batched(schema, ctx, dl)
        except DeadlineExceededError:
            if self.qos is not None:
                self.qos.record_deadline_exceeded("write")
            raise
        if planner is not None:
            planner.note_result(result)
        if dl is not None and self.obs is not None:
            self.obs.record_deadline_slack(
                "write",
                dl.remaining(result.compress_seconds + result.io_seconds),
            )
        result.schema = schema
        anatomy.compression += result.compress_seconds
        anatomy.write_io += result.io_seconds

        wall = perf()
        if self.obs is not None:
            with self.obs.region(
                "ccp.feedback", events=len(result.observations)
            ):
                for observation in result.observations:
                    self.feedback.record(observation)
        else:
            for observation in result.observations:
                self.feedback.record(observation)
        anatomy.feedback += (perf() - wall) / scale
        anatomy.write_ops += 1
        if self.lifecycle is not None:
            self.lifecycle.note_write(task.task_id)
        return result

    def _write_run(
        self, tasks: list[IOTask], index: int, template: WriteResult,
        planner, ctx,
    ) -> list[WriteResult]:
        """The run lane (DESIGN.md §12): continue a clean step in bulk.

        A burst repeats one (size, analysis, sample) shape for many
        tasks. When ``template`` — the step just taken for
        ``tasks[index - 1]`` — is a clean modeled write and the planner
        can prove the next k identical tasks replan to the same plan (no
        band/clamp/pressure crossing), their plan/debit/receipt cycles
        collapse: the manager copies the template's receipts under each
        task's keys with one ledger debit per tier, counters and
        feedback fold in bulk. A feedback flush would end the run (the
        model changed), so it stops strictly before one, and the driver
        resumes per task exactly where the sequential path would replan.
        Returns the run's results — empty when no run is provable.
        """
        task = template.task
        schema = template.schema
        # A valid ledger was opened by this very step's plan (a replan, an
        # empty task or a receipt that moved the key leaves it invalid).
        if not planner._model_valid or task.materialised:
            return []
        size = task.size
        analysis = task.analysis
        data = task.data
        scan = index
        total = len(tasks)
        while scan < total:
            peer = tasks[scan]
            if (
                peer.size != size
                or peer.analysis is not analysis
                or peer.data is not data
                or peer.operation is not Operation.WRITE
            ):
                break
            scan += 1
        if scan == index:
            return []
        count = min(scan - index, planner.run_quota(task, template))
        observations = template.observations
        if observations:
            # Stop the run strictly before a feedback flush could fire:
            # the flush-triggering task replans per-task, where the model
            # update lands between its plan and the next — exactly the
            # sequential interleaving.
            headroom = self.feedback.every_n - 1 - self.feedback.pending
            count = min(count, headroom // len(observations))
        if count <= 0:
            return []
        scale = self.config.python_to_native
        anatomy = self.anatomy
        perf = time.perf_counter
        wall = perf()
        emit = planner.emit_schema
        schemas = [emit(t) for t in tasks[index:index + count]]
        anatomy.hcdp_engine += (perf() - wall) / scale
        wall = perf()
        for piece in schema.pieces:  # library selection, once per run
            self.pool.codec(piece.codec)
        anatomy.library_selection += (perf() - wall) / scale

        results = self.manager._execute_write_run(schemas, template, ctx)
        executed = len(results)
        if not executed:
            return results
        planner.commit_run(executed, size)
        # Every run result carries the template's modeled costs, so the
        # per-task property sums collapse to two constants (the
        # accumulation itself stays one addition per task — repeated
        # float addition, bit-identical to the sequential path's).
        comp_seconds = template.compress_seconds
        io_seconds = template.io_seconds
        comp_acc = anatomy.compression
        io_acc = anatomy.write_io
        for run_schema, result in zip(schemas, results):
            result.schema = run_schema
            comp_acc += comp_seconds
            io_acc += io_seconds
        anatomy.compression = comp_acc
        anatomy.write_io = io_acc
        wall = perf()
        if observations:
            # One bulk append: the run's results re-emit the template's
            # observation objects, and the headroom clamp keeps the whole
            # run below the flush cadence.
            self.feedback.record_run(observations, executed)
        anatomy.feedback += (perf() - wall) / scale
        anatomy.write_ops += executed
        if self.lifecycle is not None:
            for result in results:
                self.lifecycle.note_write(result.task.task_id)
        return results

    @staticmethod
    def _write_spec(item) -> dict:
        """One write item as :meth:`compress` kwargs.

        Rejects a malformed item here, before anything is analysed,
        admitted or written — on every engine configuration alike.
        """
        if isinstance(item, dict):
            if item.get("task") is None:
                if item.get("data") is None:
                    raise HCompressError("compress() needs data or a task")
            elif item.get("data") is not None:
                raise HCompressError("pass either data or a task, not both")
            return item
        if isinstance(item, IOTask):
            return {"task": item}
        if isinstance(item, (bytes, bytearray, memoryview)):
            return {"data": bytes(item)}
        raise HCompressError(
            "compress_batch items must be bytes, IOTask, or dicts "
            f"of compress() kwargs, got {type(item).__name__}"
        )

    def _write_task(self, spec: dict, memo: dict | None = None) -> IOTask:
        """The :class:`IOTask` of one validated spec (analysing raw data).

        Fully-hinted analysis is pure and counter-free (the analyzer
        short-circuits before its cache), so a batch passes ``memo`` and a
        burst reusing one buffer and hint set shares a single
        InputAnalysis object — which is how the run lane recognises
        its peers.
        """
        task = spec.get("task")
        if task is not None:
            return task
        data = spec["data"]
        hints = spec.get("hints")
        hit = key = None
        if (
            memo is not None
            and hints
            and hints.dtype
            and hints.data_format
            and hints.distribution
        ):
            key = (id(data), id(hints))
            hit = memo.get(key)
        if hit is not None and hit[0] is data and hit[1] is hints:
            analysis = hit[2]
        else:
            if self.obs is not None:
                with self.obs.region("analyzer.analyze", nbytes=len(data)):
                    analysis = self.analyzer.analyze(data, hints)
            else:
                analysis = self.analyzer.analyze(data, hints)
            if key is not None:
                memo[key] = (data, hints, analysis)
        modeled_size = spec.get("modeled_size")
        return IOTask(
            task_id=spec.get("task_id") or next_task_id(),
            size=modeled_size if modeled_size is not None else len(data),
            analysis=analysis,
            operation=Operation.WRITE,
            data=data,
        )

    def predict_stored(self, data: bytes, codec: str) -> int:
        """Stored bytes (header included) the cost predictor expects
        ``codec`` to make of ``data`` — the analyzer + CCP pair every write
        is planned with, asked by ``relocate`` before it runs a codec."""
        features = self.analyzer.analyze(data).feature_key()
        ratio = self.predictor.predict(
            ObservationKey(*features, codec, len(data))
        ).ratio
        return HEADER_SIZE + math.ceil(len(data) / ratio)

    def _plan_constraints(self, dl: Deadline | None) -> dict:
        """QoS constraints for one :meth:`HcdpEngine.plan` call.

        Empty (the engine's fast path) when QoS is disabled and no
        deadline was passed.
        """
        kwargs: dict = {}
        if self.qos is not None:
            codec_filter = self.qos.codec_filter()
            if codec_filter is not None:
                kwargs["codec_filter"] = codec_filter
            blocked = self.qos.quarantined_tiers()
            if blocked:
                kwargs["blocked_tiers"] = blocked
        if dl is not None:
            kwargs["deadline_budget"] = dl.remaining()
        return kwargs

    def decompress(
        self,
        task_id: str,
        offset: int | None = None,
        length: int | None = None,
        deadline: float | None = None,
    ) -> ReadResult:
        """Read-and-decompress one previously written task.

        Passing ``offset``/``length`` performs a random-access partial
        read: only the sub-tasks overlapping the range are fetched and
        decompressed (each piece is independently decodable via its
        16-byte header). ``deadline`` bounds the read's modeled time like
        :meth:`compress`'s.
        """
        if self.obs is None:
            return self._decompress(task_id, offset, length, deadline)
        with self.obs.region("hcompress.decompress", task=task_id) as sp:
            result = self._decompress(task_id, offset, length, deadline)
            sp.set_attr("pieces", result.pieces)
            sp.charge_modeled(result.decompress_seconds + result.io_seconds)
            self.obs.record_read(result)
        return result

    def _decompress(
        self,
        task_id: str,
        offset: int | None = None,
        length: int | None = None,
        deadline: float | None = None,
    ) -> ReadResult:
        self._check_open()
        scale = self.config.python_to_native
        budget = deadline
        if budget is None and self.qos is not None:
            budget = self.config.qos.default_deadline
        dl = Deadline(budget, clock=self._clock) if budget is not None else None
        try:
            if offset is not None or length is not None:
                result = self.manager.execute_read_range(
                    task_id, offset or 0,
                    length if length is not None else 2**62, deadline=dl,
                )
            else:
                result = self.manager.execute_read(task_id, deadline=dl)
        except DeadlineExceededError:
            if self.qos is not None:
                self.qos.record_deadline_exceeded("read")
            raise
        self.anatomy.metadata_parsing += result.metadata_seconds / scale
        self.anatomy.decompression += result.decompress_seconds
        self.anatomy.read_io += result.io_seconds
        wall = time.perf_counter()
        self.feedback.flush()
        self.anatomy.read_feedback += (time.perf_counter() - wall) / scale
        self.anatomy.read_ops += 1
        if self.lifecycle is not None:
            self.lifecycle.note_read(task_id)
        return result

    def decompress_batch(
        self, task_ids, *, deadline: float | None = None
    ) -> list[ReadResult]:
        """Read-and-decompress a batch of written tasks in order.

        Exactly :meth:`decompress` per id (full reads only): one read
        pipeline serves both, so results, telemetry and deadlines match.
        """
        return [
            self.decompress(task_id, deadline=deadline) for task_id in task_ids
        ]

    # -- runtime control -----------------------------------------------------

    def set_priority(self, priority: Priority) -> None:
        """Swap the workload priority at runtime (paper §IV-F2)."""
        self.engine.set_priority(priority)

    def accuracy(self) -> float | None:
        """Live cost-model accuracy (mean sliding R^2 over the ECC heads)."""
        return self.predictor.mean_accuracy()

    def sync_telemetry(self) -> Observability:
        """Mirror the counters of every subsystem this engine runs into the
        metrics registry — each from its own ``METRICS`` table — and
        return the engine's :class:`~repro.obs.Observability` object, ready
        to export (see docs/OBSERVABILITY.md).

        Raises :class:`HCompressError` when observability is disabled —
        enable it with
        ``HCompressConfig(observability=ObservabilityConfig(enabled=True))``.
        """
        if self.obs is None:
            raise HCompressError(
                "observability is disabled; construct the engine with "
                "HCompressConfig(observability=ObservabilityConfig("
                "enabled=True))"
            )
        for source in (
            self.engine.stats, self, self.anatomy, self.shi.stats,
            self.manager, self.feedback, self.predictor, self.monitor,
            self.analyzer, self.journal, self.qos, self.lifecycle, self.scrub,
        ):
            if source is not None:  # the subsystem is off: no families
                self.obs.mirror(source, source.METRICS)
        return self.obs

    def finalize(self, seed_path=None) -> SeedData:
        """Flush feedback, export the evolved model into the seed, and
        (optionally) write it back to JSON — the paper's MPI_Finalize hook.

        The engine refuses further operations afterwards.
        """
        self._check_open()
        self.feedback.flush()
        updated = SeedData(
            observations=self.seed.observations,
            system_signature=HCompressProfiler.system_signature(self.hierarchy),
            weights={
                "compression": self.engine.priority.compression,
                "ratio": self.engine.priority.ratio,
                "decompression": self.engine.priority.decompression,
            },
        )
        path = seed_path if seed_path is not None else self.config.seed_path
        if path is not None:
            save_seed(updated, path)
        self.close()
        return updated

    def close(self) -> None:
        """Release engine resources deterministically (idempotent).

        Shuts down the manager's piece thread pool (joining its workers,
        so repeated engine construction in one process never accumulates
        threads) and syncs + closes the write-ahead journal. The engine
        refuses further operations afterwards. Also the context-manager
        exit: ``with HCompress(...) as engine: ...``.
        """
        self.manager.shutdown()
        if self.journal is not None:
            self.journal.close()
        self._finalized = True

    def __enter__(self) -> "HCompress":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._finalized:
            raise HCompressError("engine already finalized")

    # -- crash recovery (docs/RECOVERY.md) -----------------------------------

    def checkpoint(self, directory: str | Path | None = None) -> Path:
        """Snapshot recoverable engine state; returns the snapshot path.

        Captures the placement catalog, CCP parameters/``model_version``,
        monitor epoch, resilience counters, file manifests, and the tier
        capacity ledger into an atomically-renamed ``snapshot.json``. With
        journaling enabled, pending records are synced first and the
        journal is compacted down to the suffix the snapshot does not
        cover, so restore replays only post-checkpoint mutations.
        """
        self._check_open()
        if directory is None:
            directory = self.config.recovery.directory
        if directory is None:
            raise RecoveryError(
                "checkpoint needs a directory: pass one or enable "
                "RecoveryConfig with a recovery directory"
            )
        if self.obs is None:
            return self._checkpoint(Path(directory))
        with self.obs.region("recovery.checkpoint") as sp:
            path = self._checkpoint(Path(directory))
            sp.set_attr("snapshot_bytes", path.stat().st_size)
            self.obs.record_checkpoint(path.stat().st_size)
        return path

    def _checkpoint(self, directory: Path) -> Path:
        if self.journal is not None:
            self.journal.sync()
            lsn = self.journal.durable_lsn
        else:
            lsn = 0
        stats = self.shi.stats
        snapshot = EngineSnapshot(
            journal_lsn=lsn,
            catalog=self.manager.catalog_snapshot(),
            file_manifests={
                name: list(tasks) for name, tasks in self.file_manifests.items()
            },
            ccp_theta=self.predictor.export_theta(),
            ccp_model_version=self.predictor.model_version,
            ccp_observations=self.predictor.observations_seen,
            monitor_epoch=self.monitor.state_epoch,
            monitor_samples=self.monitor.samples_taken,
            resilience={
                "retries": stats.retries,
                "failovers": stats.failovers,
                "backoff_seconds": stats.backoff_seconds,
                "exhausted": stats.exhausted,
            },
            tier_used={tier.spec.name: tier.used for tier in self.hierarchy},
            replans=self.replans,
            qos=self.qos.export_state() if self.qos is not None else {},
        )
        path = write_snapshot(
            directory, snapshot, fsync=self.config.recovery.fsync
        )
        if self.journal is not None:
            self.journal.compact(lsn)
        return path

    @classmethod
    def restore(
        cls,
        directory: str | Path,
        hierarchy: StorageHierarchy,
        config: HCompressConfig | None = None,
        seed: SeedData | None = None,
        clock=None,
        crashpoints=None,
        obs=None,
    ) -> "HCompress":
        """Rebuild an engine from a recovery directory's snapshot + journal.

        The hierarchy models durable external services, so its contents
        survive the crash and are handed back in; what restore rebuilds is
        the process state — catalog (snapshot, then the journal suffix
        with ``lsn > snapshot.journal_lsn``, tolerating a torn tail), CCP
        parameters/version, monitor epoch, resilience counters — and then
        reconciles the tiers against the restored catalog: unreferenced
        extents (unacknowledged writes) are evicted so no capacity leaks,
        and duplicated extents (a crash between the flusher's copy and
        evict) are reduced to the copy ``find()`` prefers. The outcome is
        recorded in :attr:`recovery_report`.

        The restored engine journals into the same directory, so the
        crash/restore cycle composes.
        """
        directory = Path(directory)
        snapshot = read_snapshot(directory)
        base = config if config is not None else HCompressConfig()
        if (
            not base.recovery.enabled
            or base.recovery.directory is None
            or Path(base.recovery.directory) != directory
        ):
            base = replace(
                base,
                recovery=replace(
                    base.recovery, enabled=True, directory=directory
                ),
            )
        engine = cls(
            hierarchy, base, seed=seed, clock=clock, crashpoints=crashpoints,
            obs=obs,
        )
        if engine.obs is None:
            engine._apply_restore(snapshot)
            return engine
        with engine.obs.region("recovery.restore") as sp:
            engine._apply_restore(snapshot)
            report = engine.recovery_report
            sp.set_attr("records_replayed", report.records_replayed)
            sp.set_attr("orphans_evicted", report.orphans_evicted)
            engine.obs.record_restore(
                report.records_replayed,
                report.orphans_evicted,
                report.duplicates_evicted,
            )
        return engine

    def _apply_restore(self, snapshot: EngineSnapshot) -> None:
        replay = self.journal.recovered
        catalog, suffix = replay_catalog(snapshot, replay.records)
        self.manager.restore_catalog(catalog)
        # A compacted-to-empty journal file carries no LSN high-water mark;
        # re-seed it from the snapshot so post-restore records never reuse
        # LSNs the snapshot already covers (the next restore would skip them).
        self.journal.ensure_lsn_floor(snapshot.journal_lsn)
        if snapshot.ccp_theta:
            self.predictor.restore_state(
                snapshot.ccp_theta,
                snapshot.ccp_model_version,
                snapshot.ccp_observations,
            )
        self.monitor.restore_state(
            snapshot.monitor_epoch, snapshot.monitor_samples
        )
        stats = self.shi.stats
        stats.retries = int(snapshot.resilience.get("retries", 0))
        stats.failovers = int(snapshot.resilience.get("failovers", 0))
        stats.backoff_seconds = snapshot.resilience.get("backoff_seconds", 0.0)
        stats.exhausted = int(snapshot.resilience.get("exhausted", 0))
        self.file_manifests = {
            name: list(tasks)
            for name, tasks in snapshot.file_manifests.items()
        }
        self.replans = snapshot.replans
        if self.qos is not None and snapshot.qos:
            # Conservative: a breaker checkpointed open (or mid-probe)
            # restores as open with a fresh quarantine window, so a
            # restart never resurrects a sick tier as healthy.
            self.qos.restore_state(snapshot.qos)
        orphans, duplicates, missing = self._reconcile_tiers()
        self.recovery_report = RecoveryReport(
            snapshot_lsn=snapshot.journal_lsn,
            records_replayed=len(suffix),
            journal_truncated=replay.truncated,
            orphans_evicted=orphans,
            duplicates_evicted=duplicates,
            missing_keys=missing,
            tier_drift={
                tier.spec.name: tier.used - snapshot.tier_used.get(
                    tier.spec.name, 0
                )
                for tier in self.hierarchy
                if tier.used != snapshot.tier_used.get(tier.spec.name, 0)
            },
        )
        # Re-baseline the monitor against the reconciled hierarchy so the
        # first plan sees post-recovery capacity (and the restored epoch).
        self.monitor.sample()

    def _reconcile_tiers(self) -> tuple[int, int, int]:
        """Sweep the tiers against the restored catalog.

        Returns ``(orphans evicted, duplicates evicted, missing keys)``.
        Walks top-down in ``find()`` order so the kept copy of a
        duplicated key is exactly the one reads resolve to. ``evict`` is
        ledger cleanup and works on down tiers too.
        """
        referenced = {
            entry[0]
            for entries in self.manager.catalog_snapshot().values()
            for entry in entries
        }
        claimed: set[str] = set()
        orphans = duplicates = 0
        for tier in self.hierarchy:
            for key in tier.keys():
                if key not in referenced:
                    tier.evict(key)
                    orphans += 1
                elif key in claimed:
                    tier.evict(key)
                    duplicates += 1
                else:
                    claimed.add(key)
        return orphans, duplicates, len(referenced - claimed)
