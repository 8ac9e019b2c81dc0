"""Cache-line-class RAM-tier codecs: bdi and fpc.

Round-trip properties over seeded corpora (aligned, unaligned, empty,
NaN/Inf floats), every control/pattern path, typed failures for
truncated and bit-flipped payloads, the vectorised 16-byte header
batch helpers, and the pool/profile wiring that makes HCDP prefer
these codecs for RAM-tier pieces.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.codecs import (
    EXTENDED_LIBRARIES,
    CompressionLibraryPool,
    get_codec,
)
from repro.codecs.cacheline import (
    bdi_decode,
    bdi_encode,
    fpc_decode,
    fpc_encode,
)
from repro.errors import CodecError, CorruptDataError

SEED = 0xCAC4E11
CODECS = ("bdi", "fpc")


def _corpora(rng: random.Random) -> list[bytes]:
    """Aligned, unaligned, empty, and float NaN/Inf buffers."""
    out = [b""]
    for n in (64, 256, 4096):  # line-aligned
        out.append(rng.randbytes(n))
    for n in (1, 3, 63, 65, 100, 1000, 4097):  # unaligned tails
        out.append(rng.randbytes(n))
    # low-entropy shapes each control path favours
    out.append(bytes(512))  # all zero
    out.append(b"\x07" * 640)  # repeated byte
    base = np.arange(64, dtype="<i8") * 3 + 10**12
    out.append(base.tobytes())  # small 8-byte deltas
    base32 = (np.arange(256, dtype="<i4") % 100 + 50_000).astype("<i4")
    out.append(base32.tobytes())  # small 4-byte deltas
    halves = np.full(128, 0x00AB00AB, dtype="<u4")
    out.append(halves.tobytes())  # repeated halfwords (fpc pattern 4)
    # floats with NaN/Inf mixed in
    floats = np.array(
        [0.0, -0.0, 1.5, np.nan, np.inf, -np.inf, 1e308, 5e-324] * 16,
        dtype="<f8",
    )
    out.append(floats.tobytes())
    f32 = np.array([np.nan, np.inf, -np.inf, 0.25] * 33, dtype="<f4")
    out.append(f32.tobytes()[:-2])  # unaligned float tail
    return out


@pytest.mark.parametrize("name", CODECS)
def test_seeded_roundtrip(name: str) -> None:
    codec = get_codec(name)
    rng = random.Random(SEED)
    for data in _corpora(rng):
        payload = codec.compress(data)
        assert codec.decompress(payload) == data


@pytest.mark.parametrize("name", CODECS)
def test_compressible_shapes_actually_shrink(name: str) -> None:
    """The codec earns its nominal ratio on its favourite shapes."""
    codec = get_codec(name)
    zero = bytes(64 * 1024)
    assert len(codec.compress(zero)) < len(zero) / 4
    deltas = (np.arange(8192, dtype="<i8") + 7).tobytes()
    assert len(codec.compress(deltas)) < len(deltas)


def test_bdi_grain_selection_covers_both_word_sizes() -> None:
    """8-byte deltas pick grain 0; 4-byte-friendly input picks grain 1."""
    wide = (np.arange(512, dtype="<i8") * 5 + 2**40).tobytes()
    narrow_words = np.tile(
        np.arange(16, dtype="<i4") + 1_000_000, 64
    ).tobytes()
    grains = set()
    for data in (wide, narrow_words):
        body = bdi_encode(data)
        grains.add(body[0])
        assert bdi_decode(body, len(data)) == data
    assert grains == {0, 1}


def test_fpc_every_pattern_roundtrips() -> None:
    """One word per FPC pattern class, decoded back exactly."""
    words = np.array(
        [
            0x00000000,  # zero
            0x0000007F,  # sign-extended int8
            0xFFFFFF80,  # negative int8
            0x3B3B3B3B,  # repeated byte
            0x00007FFF,  # sign-extended int16
            0x00AB00AB,  # repeated halfword
            0x12340000,  # high half only
            0xDEADBEEF,  # raw
        ],
        dtype="<u4",
    )
    data = words.tobytes()
    assert fpc_decode(fpc_encode(data), len(data)) == data


@pytest.mark.parametrize("name", CODECS)
def test_truncated_payload_raises_typed(name: str) -> None:
    codec = get_codec(name)
    rng = random.Random(SEED ^ 1)
    data = (np.arange(1024, dtype="<i8") * 3).tobytes()
    payload = codec.compress(data)
    for cut in range(1, min(len(payload), 24)):
        try:
            out = codec.decompress(payload[:-cut])
        except CodecError:
            continue
        assert isinstance(out, bytes)  # never a numpy/struct surprise
    # and a hard truncation inside the frame header
    with pytest.raises(CodecError):
        codec.decompress(payload[:3])
    del rng


@pytest.mark.parametrize("name", CODECS)
def test_bitflipped_payload_detected_or_typed(name: str) -> None:
    codec = get_codec(name)
    rng = random.Random(SEED ^ 2)
    data = (np.arange(512, dtype="<i4") % 97).astype("<i4").tobytes()
    payload = bytearray(codec.compress(data))
    for _ in range(32):
        pos = rng.randrange(len(payload))
        flipped = bytearray(payload)
        flipped[pos] ^= 1 << rng.randrange(8)
        try:
            out = codec.decompress(bytes(flipped))
        except CodecError:
            continue
        assert isinstance(out, bytes)


def test_bdi_raw_body_validation() -> None:
    data = random.Random(SEED ^ 3).randbytes(256)
    body = bdi_encode(data)
    with pytest.raises(CorruptDataError):
        bdi_decode(b"", 256)  # empty body, non-empty payload
    with pytest.raises(CorruptDataError):
        bdi_decode(b"\x07" + body[1:], 256)  # unknown grain flag
    with pytest.raises(CorruptDataError):
        bdi_decode(body[:2], 256)  # truncated control section
    with pytest.raises(CorruptDataError):
        bdi_decode(body + b"\x00", 256)  # body length mismatch
    with pytest.raises(CorruptDataError):
        bdi_decode(b"\x00", 0)  # non-empty body for empty payload
    assert bdi_decode(b"", 0) == b""


def test_fpc_raw_body_validation() -> None:
    data = random.Random(SEED ^ 4).randbytes(256)
    body = fpc_encode(data)
    with pytest.raises(CorruptDataError):
        fpc_decode(body[:10], 256)  # truncated
    with pytest.raises(CorruptDataError):
        fpc_decode(body + b"\x00", 256)  # length mismatch
    with pytest.raises(CorruptDataError):
        fpc_decode(b"\x00", 0)
    assert fpc_decode(b"", 0) == b""
    # a prefix nibble forced above the raw code must be rejected
    bad = bytearray(fpc_encode(bytes(8)))
    bad[0] = 0xFF
    with pytest.raises(CorruptDataError):
        fpc_decode(bytes(bad), 8)


# -- pool wiring --------------------------------------------------------------


def test_extended_pool_carries_cacheline_profiles() -> None:
    assert "bdi" in EXTENDED_LIBRARIES and "fpc" in EXTENDED_LIBRARIES
    pool = CompressionLibraryPool(EXTENDED_LIBRARIES)
    for name in CODECS:
        profile = pool.profile(name)
        # ~GB/s nominal class: faster than any byte-LZ in the paper set
        assert profile.compress_mbps >= 2000.0
        assert profile.decompress_mbps >= 4000.0
        assert get_codec(name).meta.family == "cacheline"
