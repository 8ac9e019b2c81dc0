"""Micro-benchmarks: real wall-clock speed of every pool codec, beside the
nominal profile the simulator charges.

These measure OUR implementations (the simulator charges time from the
nominal profile table instead — see DESIGN.md §2) on the shapes the
end-to-end benchmark's ``real_mixed`` workload writes: every dtype ×
distribution of ``synthetic_buffer`` at 64 KiB. They exist to track
regressions in the from-scratch codecs and to put a number on the
measured/nominal gap per library (ROADMAP item 2(d), first step).

Usage::

    pytest benchmarks/bench_codecs.py --benchmark-only   # per codec x shape
    PYTHONPATH=src python benchmarks/bench_codecs.py     # the per-library table
"""

from __future__ import annotations

import time
from functools import cache

import numpy as np
import pytest

from repro.codecs import codec_names, get_codec, get_profile
from repro.datagen import DISTRIBUTIONS, DTYPES, synthetic_buffer
from repro.experiments.common import ExperimentTable
from repro.units import KiB, MB

SHAPES = [(dtype, distribution) for dtype in DTYPES for distribution in DISTRIBUTIONS]
SHAPE_BYTES = 64 * KiB
ROUNDS = 3

_CODECS = codec_names(include_identity=False)


@cache
def shape_buffer(dtype: str, distribution: str) -> bytes:
    rng = np.random.default_rng(SHAPES.index((dtype, distribution)))
    return synthetic_buffer(dtype, distribution, SHAPE_BYTES, rng)


def _best(fn, arg) -> tuple[float, bytes]:
    """Fastest of ``ROUNDS`` timed calls, and the (consumed) result."""
    best = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        result = fn(arg)
        best = min(best, time.perf_counter() - start)
    return best, result


def library_table() -> ExperimentTable:
    """Per library: nominal MB/s beside MB/s measured over all ``SHAPES``
    (total bytes ÷ total best-of-``ROUNDS`` seconds) and the pooled ratio."""
    table = ExperimentTable(
        "Codec speed: nominal profile vs measured",
        f"{len(SHAPES)} shapes (dtype x distribution) of {SHAPE_BYTES // KiB} KiB, "
        f"best of {ROUNDS}; MB/s of uncompressed bytes.",
        ["library", "compress nominal", "compress measured",
         "decompress nominal", "decompress measured", "ratio"],
    )
    for name in _CODECS:
        codec, profile = get_codec(name), get_profile(name)
        compress_s = decompress_s = stored = 0.0
        for shape in SHAPES:
            data = shape_buffer(*shape)
            seconds, payload = _best(codec.compress, data)
            compress_s += seconds
            stored += len(payload)
            seconds, restored = _best(codec.decompress, payload)
            decompress_s += seconds
            assert restored == data
        total = len(SHAPES) * SHAPE_BYTES
        table.add_row(
            name, profile.compress_mbps, total / MB / compress_s,
            profile.decompress_mbps, total / MB / decompress_s, total / stored,
        )
    return table


@pytest.mark.parametrize("shape", SHAPES, ids="-".join)
@pytest.mark.parametrize("codec_name", _CODECS)
def test_compress_throughput(benchmark, codec_name, shape) -> None:
    codec, data = get_codec(codec_name), shape_buffer(*shape)
    payload = benchmark.pedantic(codec.compress, (data,), rounds=ROUNDS)
    benchmark.extra_info["ratio"] = len(data) / max(len(payload), 1)
    benchmark.extra_info["input_bytes"] = len(data)
    benchmark.extra_info["nominal_mbps"] = get_profile(codec_name).compress_mbps


@pytest.mark.parametrize("shape", SHAPES, ids="-".join)
@pytest.mark.parametrize("codec_name", _CODECS)
def test_decompress_throughput(benchmark, codec_name, shape) -> None:
    codec, data = get_codec(codec_name), shape_buffer(*shape)
    payload = codec.compress(data)
    restored = benchmark.pedantic(codec.decompress, (payload,), rounds=ROUNDS)
    assert restored == data
    benchmark.extra_info["input_bytes"] = len(data)
    benchmark.extra_info["nominal_mbps"] = get_profile(codec_name).decompress_mbps


def test_subtask_header_wrap(benchmark) -> None:
    from repro.codecs import wrap_payload

    benchmark(wrap_payload, shape_buffer("float64", "gamma")[:4096], 0, "lz4")


def test_subtask_header_unwrap(benchmark) -> None:
    from repro.codecs import unwrap_payload, wrap_payload

    blob, _ = wrap_payload(shape_buffer("float64", "gamma")[:4096], 0, "lz4")
    benchmark(unwrap_payload, blob)


if __name__ == "__main__":
    print(library_table().to_markdown())
