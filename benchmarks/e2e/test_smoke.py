"""Smoke test of the end-to-end benchmark at tiny sizes.

Not part of tier-1 (``testpaths`` is ``tests/``); run it explicitly::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_smoke.py -q

Checks the determinism the result files promise: two runs on one seed
agree exactly on every modeled metric and every public counter, a
different seed changes the inputs, and the line the PR driver reads has
the contracted shape.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

from tracing import Tracer  # noqa: E402
from workloads import TINY, make_inputs  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT = (
    "stored_bytes_per_user_byte", "modeled_write_makespan_s",
    "modeled_read_makespan_s",
)


def _run(name: str, seed: int, out: Path, trace: int = 0) -> tuple[dict, dict]:
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(seed), "--tiny", "--rounds", "3" if trace else "1",
            "--trace", str(trace), "--out", str(out),
        ],
        check=True, capture_output=True, text=True, cwd=ROOT,
    )
    line = json.loads(done.stdout.strip().splitlines()[-1])
    return line, json.loads(out.read_text())["workloads"][name]["runs"][0]


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_repeats_exactly(name: str, tmp_path: Path) -> None:
    line, first = _run(name, 7, tmp_path / "a.json")
    _, second = _run(name, 7, tmp_path / "b.json")
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    assert list(line["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for metric in SPEC["end_to_end"]:
        reported = line["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert reported["value"] > 0
    for metric in EXACT:
        assert first["end_to_end"][metric] == second["end_to_end"][metric]
    assert first["counters"] == second["counters"]


@pytest.mark.parametrize("name", WORKLOADS)
def test_seed_drives_the_inputs(name: str) -> None:
    def flat(inputs: dict) -> str:
        return json.dumps(inputs, default=lambda o: o.hex() if isinstance(
            o, bytes) else repr(o), sort_keys=True)

    base = flat(make_inputs(name, 1, TINY[name]))
    assert base == flat(make_inputs(name, 1, TINY[name]))
    assert base != flat(make_inputs(name, 2, TINY[name]))


def test_traced_run_reports_every_layer_metric(tmp_path: Path) -> None:
    line, run = _run("real_mixed", 7, tmp_path / "t.json", trace=1)
    assert list(line["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    layers = run["per_layer"]
    assert layers["codecs.calls"] > 0 and layers["shard.calls"] == 0
    assert layers["trace.self_sum_s"] == pytest.approx(layers["trace.root_s"])


class _Pipeline:
    """Stand-in for manager -> pool -> codec: ``outer`` does a little work
    of its own, farms two ``inner`` calls out to a pool and waits."""

    def __init__(self, pool: ThreadPoolExecutor) -> None:
        self.pool = pool

    def outer(self) -> None:
        time.sleep(0.01)
        for future in [self.pool.submit(self.inner) for _ in range(2)]:
            future.result()

    def inner(self) -> bytes:
        time.sleep(0.04)
        return bytes(8)


def test_tracer_charges_pool_work_to_the_worker_layer() -> None:
    tracer = Tracer()
    tracer.install([
        (_Pipeline, "outer", "core.manager", None),
        (_Pipeline, "inner", "codecs", lambda args, result: len(result)),
    ])
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            _Pipeline(pool).outer()
    finally:
        tracer.remove()
    assert "__wrapped__" not in vars(_Pipeline.outer)
    totals = tracer.layer_totals()
    layers = totals["layers"]
    assert totals["roots"] == 1 and totals["spans"] == 3
    assert layers["codecs"]["calls"] == 2 and layers["codecs"]["work"] == 16
    # the two workers overlap: ~40 ms of waiting moves to codecs, the
    # manager keeps its own ~10 ms, and the layers add up to the root
    assert 0.03 < layers["codecs"]["self_s"] < 0.06
    assert 0.005 < layers["core.manager"]["self_s"] < 0.03
    assert sum(e["self_s"] for e in layers.values()) == pytest.approx(
        totals["root_s"]
    )
    events = tracer.chrome_trace()["traceEvents"]
    assert {e["tid"] for e in events} == {0, 1, 2}
