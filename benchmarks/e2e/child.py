"""One run of one workload, in a process of its own.

``run.py`` starts this once per run so every workload gets a clean
``ru_maxrss`` and no allocator carry-over. The process loads the shared
profiler seed, generates the inputs from ``--seed``, repeats rounds for
``--seconds`` (each on a fresh engine over identical inputs) and writes
one JSON document: the run's metrics (the median over the rounds, wall
times expressed at a reference host speed), every round's raw values, and
the audit's findings.

With ``--trace 1`` the first two rounds run untraced (a warm-up and the
reference wall) and every later round runs under the outside-in tracer;
the document then also carries the per-layer metrics and the result of
the workload-validity checks.

``--build-seed`` instead builds the profiler seed and saves it.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.ccp import load_seed, save_seed
from repro.core import HCompressProfiler
from repro.units import KiB

from tracing import LAYERS, Tracer
from workloads import ARMED, SIZES, TINY, WORKLOADS, make_inputs

BURSTS = ("armed_burst", "bare_burst", "sharded_burst")
SHARDED = ("sharded_rw", "sharded_burst")


def build_seed(path: Path) -> None:
    start = time.perf_counter()
    profiler = HCompressProfiler(rng=np.random.default_rng(0))
    seed = profiler.quick_seed(sizes=(8 * KiB, 32 * KiB))
    elapsed = time.perf_counter() - start
    save_seed(seed, path)
    path.with_suffix(".meta.json").write_text(
        json.dumps({"quick_seed_s": elapsed})
    )


def _percentile_us(samples: list[float], q: float) -> float:
    return float(np.percentile(samples, q)) * 1e6


#: Calibration lap of the reference host state (this box, undisturbed).
LAP_REF_S = 0.0055


def host_slowdown(round_) -> dict[str, float]:
    """How much slower than the reference the host ran each phase of a
    round: the mean of the calibration laps around the phase / reference.
    (Interleaved workloads have no lap between write and read.)"""
    laps = round_.laps
    mean = lambda a, b: (a + b) / 2 / LAP_REF_S  # noqa: E731
    return {
        "setup": mean(laps[0], laps[1]),
        "write": mean(laps[1], laps[2]),
        "read": mean(laps[-2], laps[-1]),
    }


def round_values(round_) -> dict[str, float]:
    """The end-to-end metrics of one round. Wall-clock numbers are
    expressed at the reference host speed: each phase's time is divided
    by how much slower than the reference the calibration loop ran around
    that phase."""
    slow = host_slowdown(round_)
    return {
        "setup_s": round_.setup_s / slow["setup"],
        "write_tasks_per_s": (
            round_.write_tasks / round_.write_wall_s * slow["write"]
        ),
        "write_call_p50_us": (
            _percentile_us(round_.write_calls_s, 50) / slow["write"]
        ),
        "read_tasks_per_s": (
            round_.read_tasks / round_.read_wall_s * slow["read"]
        ),
        "read_call_p50_us": (
            _percentile_us(round_.read_calls_s, 50) / slow["read"]
        ),
        "stored_bytes_per_user_byte": round_.stored_bytes / round_.user_bytes,
        "modeled_write_makespan_s": round_.modeled_write_s,
        "modeled_read_makespan_s": round_.modeled_read_s,
    }


def end_to_end(rounds: list) -> tuple[dict, dict]:
    """(run value, per-round values) per end-to-end metric: the median
    over the rounds of each round's own value."""
    per_round: dict[str, list[float]] = {}
    for round_ in rounds:
        for name, value in round_values(round_).items():
            per_round.setdefault(name, []).append(value)
    values = {name: statistics.median(v) for name, v in per_round.items()}
    values["peak_rss_mib"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    return values, per_round


def per_layer(plain: list, traced: list, totals: list[dict], seed_s) -> dict:
    """Per-layer metrics: traced self times, the layers' own counters,
    and the diagnostics that are too noisy to gate."""
    count = len(totals)
    root_s = sum(t["root_s"] for t in totals)
    layers = {
        layer: {
            "calls": sum(t["layers"][layer]["calls"] for t in totals) / count,
            "self_s": sum(t["layers"][layer]["self_s"] for t in totals) / count,
            "work": sum(t["layers"][layer]["work"] for t in totals) / count,
        }
        for layer in LAYERS
    }
    sites: dict[str, dict] = {}
    for t in totals:
        for label, entry in t["sites"].items():
            merged = sites.setdefault(
                label, {"layer": entry["layer"], "calls": 0, "self_s": 0.0,
                        "work": 0},
            )
            for key in ("calls", "self_s", "work"):
                merged[key] += entry[key] / count
    metrics = {}
    for layer, entry in layers.items():
        metrics[f"{layer}.calls"] = entry["calls"]
        metrics[f"{layer}.self_s"] = entry["self_s"]
        metrics[f"{layer}.self_share"] = entry["self_s"] * count / root_s
    metrics.update(traced[-1].counters)

    def through(layer: str, suffix: str) -> tuple[float, float]:
        """(work, self seconds) through one layer's sites named *suffix."""
        entries = [
            e for label, e in sites.items()
            if e["layer"] == layer and label.endswith(suffix)
        ]
        return sum(e["work"] for e in entries), sum(e["self_s"] for e in entries)

    def mb_per_s(layer: str, suffix: str) -> float:
        work, seconds = through(layer, suffix)
        return work / seconds / 1e6 if seconds else 0.0

    metrics["codecs.compress_mb_per_s"] = mb_per_s("codecs", ".compress")
    metrics["codecs.decompress_mb_per_s"] = mb_per_s("codecs", ".decompress")
    metrics["codecs.compress_bytes_in"] = through("codecs", ".compress")[0]
    metrics["hashing.mb_per_s"] = mb_per_s("hashing", ".content_hash64")
    metrics["hashing.bytes_hashed"] = layers["hashing"]["work"]
    placed = layers["tiers"]["work"]
    batched = sites.get("Tier.put_many", {"work": 0})["work"]
    metrics["tiers.put_many_item_share"] = batched / placed if placed else 0.0
    for daemon in ("lifecycle", "scrub"):
        metrics[f"{daemon}.step_share_of_read_phase"] = statistics.median(
            r.daemon_s.get(daemon, 0.0) / r.read_wall_s for r in plain
        )
    for side in ("write", "read"):
        pooled = [s for r in plain for s in getattr(r, f"{side}_calls_s")]
        for q in (90, 99):
            metrics[f"core.hcompress.{side}_call_p{q}_us"] = _percentile_us(
                pooled, q
            )
    useful = sum(
        layers[layer]["self_s"] for layer in ("codecs", "tiers", "core.shi")
    )
    metrics["core.hcompress.engine_overhead_share"] = (
        1.0 - useful * count / root_s
    )
    metrics["core.profiler.quick_seed_s"] = seed_s

    def timed_wall(round_) -> float:
        slow = host_slowdown(round_)
        return (
            round_.write_wall_s / slow["write"]
            + round_.read_wall_s / slow["read"]
        )

    reference = timed_wall(plain[-1])
    under_trace = statistics.median(timed_wall(r) for r in traced)
    metrics["trace.overhead_share"] = (under_trace - reference) / reference
    metrics["bench.host_slowdown"] = statistics.median(
        host_slowdown(r)["write"] for r in plain + traced
    )
    metrics["trace.root_s"] = root_s / count
    metrics["trace.self_sum_s"] = sum(e["self_s"] for e in layers.values())
    return {"metrics": metrics, "sites": sites}


def validity(name: str, metrics: dict) -> list[str]:
    """Workload-validity checks: a workload that stopped stressing the
    layer it exists for fails the command instead of reporting numbers
    that mean something else."""
    share = lambda *layers: sum(  # noqa: E731
        metrics[f"{layer}.self_share"] for layer in layers
    )
    calls = lambda *layers: sum(  # noqa: E731
        metrics[f"{layer}.calls"] for layer in layers
    )
    problems = []

    def require(ok: bool, what: str) -> None:
        if not ok:
            problems.append(what)

    if name == "real_mixed":
        require(share("codecs") >= 0.5, "codecs.self_share < 0.5")
        require(
            metrics["codecs.distinct_selected"] >= 4,
            "fewer than 4 distinct non-identity codecs selected",
        )
        require(metrics["lifecycle.migrations"] > 0, "no lifecycle migration")
    if name in BURSTS:
        require(share("codecs") <= 0.10, "codecs.self_share > 0.10")
    if name == "armed_burst":
        require(
            share("qos", "obs", "recovery", "ccp") >= 0.35,
            "qos+obs+recovery+ccp self_share < 0.35",
        )
    if name == "bare_burst":
        require(
            calls("qos", "obs", "recovery") == 0,
            "bare engine reached qos/obs/recovery",
        )
    if name in SHARDED:
        require(
            min(calls("shard"), calls("replication")) > 0
            and share("shard", "replication") >= 0.03,
            "shard+replication self_share < 0.03",
        )
    else:
        require(
            calls("shard", "replication") == 0,
            "unsharded engine reached shard/replication",
        )
    require(metrics["qos.shed"] == 0, "qos shed a task")
    drift = abs(metrics["trace.self_sum_s"] / metrics["trace.root_s"] - 1.0)
    require(drift <= 0.02, f"layer self times off root time by {drift:.1%}")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build-seed", type=Path, default=None)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seed-file", type=Path)
    parser.add_argument("--scratch", type=Path)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--trace-out", type=Path, default=None)
    parser.add_argument(
        "--tiny", action="store_true", help="smoke-test sizes"
    )
    parser.add_argument(
        "--rounds", type=int, default=None,
        help="run exactly this many rounds instead of timing out",
    )
    args = parser.parse_args(argv)
    if args.build_seed is not None:
        build_seed(args.build_seed)
        return 0

    seed_data = load_seed(args.seed_file)
    seed_meta = json.loads(args.seed_file.with_suffix(".meta.json").read_text())
    name = args.workload
    sizes = (TINY if args.tiny else SIZES)[name]
    inputs = make_inputs(name, args.seed, sizes)

    def one_round(inputs: dict, sizes: dict, tracer=None):
        workdir = Path(tempfile.mkdtemp(dir=args.scratch))
        try:
            return WORKLOADS[name](inputs, seed_data, workdir, sizes, tracer)
        finally:
            if tracer is not None:
                tracer.remove()
            shutil.rmtree(workdir, ignore_errors=True)
            # Reference cycles keep a round's engine and tier payloads
            # alive; collect so the next round starts from the same heap.
            gc.collect()

    # Process warm-up, unrecorded: the first engine pays numpy's lazy
    # linear-algebra start-up (~1 s) and every code path its first-run cost.
    one_round(make_inputs(name, args.seed, TINY[name]), TINY[name])

    untraced = 2 if args.trace else 0
    least = args.rounds or untraced + 1
    deadline = time.monotonic() + args.seconds
    plain, traced, totals = [], [], []
    tracer = None
    while len(plain) + len(traced) < least or (
        args.rounds is None and time.monotonic() < deadline
    ):
        if args.trace and len(plain) >= untraced:
            tracer = Tracer()
            traced.append(one_round(inputs, sizes, tracer))
            totals.append(tracer.layer_totals())
        else:
            plain.append(one_round(inputs, sizes))
    rounds = plain + traced
    document = {
        "workload": name,
        "seed": args.seed,
        "rounds": len(rounds),
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "findings": [f for r in rounds for f in r.findings][:20],
        "counters": rounds[-1].counters,
        "env": {
            "python": sys.version.split()[0], "numpy": np.__version__,
            "armed": ARMED,
        },
        "rounds_raw": [
            {
                "traced": r in traced,
                "wall": {
                    "setup_s": r.setup_s, "write_s": r.write_wall_s,
                    "read_s": r.read_wall_s,
                },
                "host_slowdown": host_slowdown(r),
                "at_reference_speed": round_values(r),
            }
            for r in rounds
        ],
    }
    if args.trace:
        layer_report = per_layer(
            plain, traced, totals, seed_meta["quick_seed_s"]
        )
        document["per_layer"] = layer_report["metrics"]
        document["sites"] = layer_report["sites"]
        # The validity thresholds describe the full-size workloads.
        document["invalid"] = (
            [] if args.tiny else validity(name, layer_report["metrics"])
        )
        if args.trace_out is not None:
            args.trace_out.write_text(json.dumps(tracer.chrome_trace()))
    else:
        values, per_round = end_to_end(plain)
        document["end_to_end"] = values
        document["per_round"] = per_round
    args.out.write_text(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())
