"""Round-trip correctness of every codec over every data shape."""

from __future__ import annotations

import numpy as np
import pytest

from repro.codecs import codec_names, get_codec
from repro.codecs.lz77 import MODE_CODED

_RNG = np.random.default_rng(99)

DATASETS = {
    "empty": b"",
    "one_byte": b"\x00",
    "two_bytes": b"ab",
    "short_text": b"hello",
    "repeated": b"A" * 10_000,
    "text": b"the quick brown fox jumps over the lazy dog. " * 400,
    "zeros": bytes(40_000),
    "single_run_then_noise": bytes(5_000)
    + _RNG.integers(0, 256, 5_000, dtype=np.uint8).tobytes(),
    "uniform_bytes": _RNG.integers(0, 256, 50_000, dtype=np.uint8).tobytes(),
    "normal_f64": _RNG.normal(0, 1, 6_000).astype(np.float64).tobytes(),
    "gamma_f32": _RNG.gamma(2.0, 2.0, 12_000).astype(np.float32).tobytes(),
    "ascending_i32": np.arange(12_000, dtype=np.int32).tobytes(),
    "periodic": (b"\x01\x02\x03\x04\x05\x06\x07\x08" * 4_000),
    "all_values": bytes(range(256)) * 64,
    "alternating": b"\x00\xff" * 8_000,
}


@pytest.mark.parametrize("codec_name", codec_names())
@pytest.mark.parametrize("dataset", sorted(DATASETS))
def test_roundtrip(codec_name: str, dataset: str) -> None:
    codec = get_codec(codec_name)
    data = DATASETS[dataset]
    payload = codec.compress(data)
    assert codec.decompress(payload) == data


#: Literal runs past 64 KiB: the widest literal length snappy's element
#: format can carry, and past every codec's one-byte length forms.
_NOISE = _RNG.integers(0, 256, 70_000, dtype=np.uint8).tobytes()
LONG_LITERALS = {
    "incompressible": _NOISE,
    "literals_then_match": _NOISE + _NOISE[-4096:],
}


@pytest.mark.parametrize("codec_name", [n for n in codec_names() if n != "bsc"])
@pytest.mark.parametrize("dataset", sorted(LONG_LITERALS))
def test_roundtrip_long_literal_run(codec_name: str, dataset: str) -> None:
    codec = get_codec(codec_name)
    data = LONG_LITERALS[dataset]
    assert codec.decompress(codec.compress(data)) == data


def test_snappy_splits_literal_runs_past_64_kib() -> None:
    """Regression: a literal run longer than 65 536 bytes overflowed the
    two-byte length extension (``OverflowError`` out of ``compress``)."""
    codec = get_codec("snappy")
    data = np.random.default_rng(1).integers(0, 256, 70_000, dtype=np.uint8).tobytes()
    assert codec.decompress(codec.compress(data)) == data
    # Followed by a match the run is *coded*, not stored: two elements.
    data = LONG_LITERALS["literals_then_match"]
    payload = codec.compress(data)
    assert payload[0] == MODE_CODED and len(payload) < len(data)
    assert codec.decompress(payload) == data


@pytest.mark.parametrize("codec_name", codec_names(include_identity=False))
def test_compressible_data_shrinks(codec_name: str) -> None:
    """Every real codec must reduce trivially redundant input."""
    codec = get_codec(codec_name)
    # Runs of four satisfy even the RLE codec's minimum-run threshold.
    data = b"aaaabbbb" * 5_000
    assert len(codec.compress(data)) < len(data)


@pytest.mark.parametrize("codec_name", codec_names())
def test_incompressible_data_bounded_expansion(codec_name: str) -> None:
    """Stored-mode fallbacks cap expansion at frame-header size."""
    codec = get_codec(codec_name)
    data = _RNG.integers(0, 256, 65_536, dtype=np.uint8).tobytes()
    payload = codec.compress(data)
    # Our from-scratch codecs store raw (+frame); stdlib bzip2 may expand
    # ~1% — the paper's own "compressed data might even be bigger" case.
    assert len(payload) <= len(data) * 1.02 + 64
    assert codec.decompress(payload) == data


@pytest.mark.parametrize("codec_name", codec_names())
def test_ratio_convention(codec_name: str) -> None:
    """ratio() is original/compressed and 1.0 on empty input."""
    codec = get_codec(codec_name)
    assert codec.ratio(b"") == 1.0
    data = b"xy" * 5_000
    ratio = codec.ratio(data)
    assert ratio == len(data) / len(codec.compress(data))


@pytest.mark.parametrize("codec_name", codec_names())
def test_bytearray_and_memoryview_inputs(codec_name: str) -> None:
    codec = get_codec(codec_name)
    data = b"some bytes worth compressing " * 100
    for view in (bytearray(data), memoryview(data)):
        assert codec.decompress(codec.compress(view)) == data


@pytest.mark.parametrize("codec_name", codec_names())
def test_rejects_non_bytes(codec_name: str) -> None:
    codec = get_codec(codec_name)
    with pytest.raises(TypeError):
        codec.compress("a string")  # type: ignore[arg-type]
    with pytest.raises(TypeError):
        codec.decompress(12345)  # type: ignore[arg-type]


@pytest.mark.parametrize("codec_name", codec_names())
def test_compress_is_deterministic(codec_name: str) -> None:
    codec = get_codec(codec_name)
    data = DATASETS["gamma_f32"]
    assert codec.compress(data) == codec.compress(data)
