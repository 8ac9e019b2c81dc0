"""End-to-end benchmark of the armed HCompress engine.

    python3 benchmarks/e2e/run.py [--workload W] [--seed N] [--seconds S]
                                  [--trace 0|1 | --traced] [--runs K]

Runs each selected workload (default: all five) in a process of its own
(``child.py``), prints every metric by name with its unit, checks the
outputs, and writes a result file. With one workload and one run — the
way the PR driver calls it — the last line of standard output is the
JSON object the driver reads. ``--trace 1`` reports the per-layer metrics
instead of the end-to-end ones and fails when a workload-validity check
does. ``--runs K`` repeats every workload on seeds ``N .. N+K-1`` and
reports the median, quartiles and noise (quartile distance / median)
across the runs; ``compare.py`` reads two such files.

The metric names, units, directions and bounds live in the root
``BENCHMARK.json``; ``README.md`` explains the workloads and the tables.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "e2e"


def summarise(values: list[float]) -> dict:
    """Median, quartiles and noise of one metric's samples."""
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {
        "median": median, "q1": q1, "q3": q3, "n": len(values),
        "noise": (q3 - q1) / abs(median) if median else 0.0,
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE), *filter(None, [env.get("PYTHONPATH")])]
    )
    return env


def ensure_seed() -> Path:
    """The shared profiler seed, built once per source tree.

    Keyed by a digest of ``src/repro`` so an edited codec or profiler
    never plans from a stale seed.
    """
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    seed_file = BUILD / f"seed-{digest.hexdigest()[:16]}.json"
    if not seed_file.with_suffix(".meta.json").exists():
        BUILD.mkdir(parents=True, exist_ok=True)
        subprocess.run(
            [sys.executable, str(HERE / "child.py"), "--build-seed",
             str(seed_file)],
            check=True, env=child_env(), cwd=ROOT,
        )
    return seed_file


def run_child(name: str, seed: int, seed_file: Path, args) -> dict:
    out = BUILD / f"run-{os.getpid()}.json"
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", name, "--seed", str(seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--seed-file", str(seed_file), "--scratch", str(BUILD),
        "--out", str(out),
    ]
    if args.tiny:
        command.append("--tiny")
    if args.rounds is not None:
        command += ["--rounds", str(args.rounds)]
    if args.trace_out is not None:
        command += ["--trace-out", str(args.trace_out.resolve())]
    try:
        subprocess.run(command, check=True, env=child_env(), cwd=ROOT)
        return json.loads(out.read_text())
    finally:
        out.unlink(missing_ok=True)


def git_commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
            capture_output=True, text=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"  # the driver's checkout is not a git repository


def metadata(args) -> dict:
    return {
        "seed": args.seed, "runs": args.runs, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "rounds": args.rounds,
        "nproc": os.cpu_count(), "commit": git_commit(),
    }


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "repro").is_dir():
        print(f"run.py: no program to measure under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=names, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--traced", dest="trace", action="store_const", const=1,
        help="same as --trace 1",
    )
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument(
        "--trace-out", type=Path, default=None,
        help="write the last traced round as Chrome-trace JSON",
    )
    parser.add_argument("--tiny", action="store_true", help="smoke sizes")
    parser.add_argument("--rounds", type=int, default=None)
    args = parser.parse_args(argv)

    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: m for m in spec[kind]}
    seed_file = ensure_seed()
    selected = [args.workload] if args.workload else names
    result = {
        "schema": "hcompress.e2e.v1", "meta": metadata(args), "workloads": {},
    }
    ok = True
    for name in selected:
        runs = [
            run_child(name, args.seed + k, seed_file, args)
            for k in range(args.runs)
        ]
        missing = set(metrics) - set(runs[0][kind])
        if missing:
            raise SystemExit(f"{name}: child reported no {sorted(missing)}")
        if args.runs > 1:
            samples = {m: [run[kind][m] for run in runs] for m in metrics}
        else:
            samples = {
                m: runs[0].get("per_round", {}).get(m, [runs[0][kind][m]])
                for m in metrics
            }
        summary = {m: summarise(values) for m, values in samples.items()}
        attempted = sum(run["attempted"] for run in runs)
        failed = sum(run["failed"] for run in runs)
        invalid = [text for run in runs for text in run.get("invalid", [])]
        correct = failed == 0 and not invalid
        ok = ok and correct
        result["meta"].update(runs[0]["env"])
        result["workloads"][name] = {
            "correct": correct, "attempted": attempted, "failed": failed,
            "failed_op_share": failed / attempted, "invalid": invalid,
            "summary": summary, "samples": samples, "runs": runs,
        }

        print(f"== {name}: {len(runs)} run(s), "
              f"{sum(run['rounds'] for run in runs)} rounds, "
              f"{failed}/{attempted} operations failed")
        for finding in [f for run in runs for f in run["findings"]] + invalid:
            print(f"   !! {finding}")
        for m, info in metrics.items():
            stats = summary[m]
            print(
                f"   {m:<42} {stats['median']:>16.6g} {info['unit']:<10}"
                f" q1 {stats['q1']:.6g} q3 {stats['q3']:.6g}"
                f" n {stats['n']} noise {stats['noise']:.1%}"
            )

    out = args.out or BUILD / (
        f"result-{args.workload or 'all'}-seed{args.seed}-trace{args.trace}"
        ".json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1))
    print(f"wrote {out}", file=sys.stderr)

    if args.workload and args.runs == 1:
        entry = result["workloads"][args.workload]
        print(json.dumps({
            "correct": entry["correct"],
            "attempted": entry["attempted"],
            "failed": entry["failed"],
            "metrics": {
                m: {"value": entry["runs"][0][kind][m], "unit": info["unit"]}
                for m, info in metrics.items()
            },
        }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
