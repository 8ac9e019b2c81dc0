"""LZ77 machinery: matcher invariants, frames, varints, copy semantics."""

from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.codecs import get_codec
from repro.codecs.brotli_codec import _PARAMS as BROTLI
from repro.codecs.lz4_codec import _PARAMS as LZ4
from repro.codecs.lz77 import (
    MODE_CODED,
    MODE_STORED,
    MatchParams,
    copy_match,
    find_tokens,
    frame_parse,
    frame_wrap,
    read_varint,
    write_varint,
)
from repro.codecs.lzo_codec import _PARAMS as LZO
from repro.codecs.pithy_codec import _PARAMS as PITHY
from repro.codecs.quicklz_codec import _PARAMS as QUICKLZ
from repro.codecs.snappy_codec import _PARAMS as SNAPPY
from repro.datagen import synthetic_buffer, synthetic_text
from repro.errors import CorruptDataError


def _matches(data: bytes, params: MatchParams) -> list[tuple[int, int, int]]:
    starts, offsets, lengths = find_tokens(data, params)
    assert len(starts) == len(offsets) == len(lengths)
    assert starts.typecode == offsets.typecode == lengths.typecode == "i"
    return list(zip(starts, offsets, lengths))


def _assert_tiling(data: bytes, params: MatchParams) -> None:
    """Matches are in order, disjoint and inside the input — so literal
    runs and matches tile it — and each is a true back-reference within
    the parameter point's window and length bounds."""
    cursor = 0
    for start, offset, length in _matches(data, params):
        assert start >= cursor
        assert params.min_match <= length <= params.max_match
        assert 1 <= offset <= params.window
        assert offset <= start
        # The match must reproduce the actual bytes (it may overlap itself).
        assert all(data[start + k] == data[start + k - offset] for k in range(length))
        cursor = start + length
    assert cursor <= len(data)


def _reference_matches(data: bytes, params: MatchParams) -> list[tuple[int, int, int]]:
    """The matcher as one naive loop (PR 19's ``find_tokens``, hashes
    computed where visited, extension bytewise): what the optimised column
    matcher must reproduce match for match."""
    n = len(data)
    span = 4 if params.min_match >= 4 else 3
    shift = 32 - params.hash_bits
    table: dict[int, int] = {}
    found = []
    i = misses = 0
    while i <= n - span - 4:
        prefix = int.from_bytes(data[i : i + span], "little")
        h = ((prefix * 2654435761) & 0xFFFFFFFF) >> shift
        cand = table.get(h, -1)
        table[h] = i
        if (
            cand >= 0
            and i - cand <= params.window
            and data[cand : cand + params.min_match] == data[i : i + params.min_match]
        ):
            limit = min(n - i, params.max_match)
            length = params.min_match
            while length < limit and data[cand + length] == data[i + length]:
                length += 1
            found.append((i, i - cand, length))
            i += length
            misses = 0
        else:
            misses += 1
            i += 1 + (misses >> params.skip_trigger)
    return found


#: The six parameter points in use (pithy's ``min_match`` 6 is wider than
#: the 4-byte hash span) and one whose ``max_match`` is easy to hit.
_POINTS = {
    "lz4": LZ4,
    "lzo": LZO,
    "snappy": SNAPPY,
    "quicklz": QUICKLZ,
    "pithy": PITHY,
    "brotli": BROTLI,
    "short_max": MatchParams(hash_bits=10, min_match=5, max_match=40, window=300),
}


def _corpus() -> dict[str, bytes]:
    rng = np.random.default_rng(20)
    noise = rng.integers(0, 256, 6000, dtype=np.uint8).tobytes()
    corpus = {
        "gamma_f64": synthetic_buffer("float64", "gamma", 16384, rng),
        "normal_i32": synthetic_buffer("int32", "normal", 16384, rng),
        "text": synthetic_text(8192, rng),
        "low_entropy": rng.integers(0, 4, 8192, dtype=np.uint8).tobytes(),
        "noise": noise,
        "noise_twice": noise + noise,  # matches at the far end of small windows
        "period7": b"\x01\x02\x03\x04\x05\x06\x07" * 1200,
        # One match longer than every max_match but brotli's.
        "zeros": bytes(70_000),
    }
    # Shorter than, at and just past ``span + 4``: no position may match.
    for size in range(13):
        corpus[f"tiny{size}"] = bytes(size)
    return corpus


class TestMatcher:
    @pytest.mark.parametrize(
        "params",
        [
            MatchParams(),
            MatchParams(hash_bits=12, min_match=3, window=8192, skip_trigger=4),
            MatchParams(hash_bits=14, min_match=6, max_match=64, window=1 << 20),
        ],
    )
    def test_tokens_tile_input(self, params: MatchParams) -> None:
        rng = np.random.default_rng(11)
        for data in (
            b"",
            b"abc",
            b"abcabcabcabcabcabc" * 50,
            rng.integers(0, 8, 5000, dtype=np.uint8).tobytes(),
            rng.integers(0, 256, 5000, dtype=np.uint8).tobytes(),
            bytes(3000),
        ):
            _assert_tiling(data, params)

    def test_empty_input_no_tokens(self) -> None:
        assert _matches(b"", MatchParams()) == []

    def test_repetitive_input_finds_matches(self) -> None:
        assert _matches(b"0123456789" * 500, MatchParams())

    def test_random_input_mostly_literals(self) -> None:
        rng = np.random.default_rng(3)
        data = rng.integers(0, 256, 20_000, dtype=np.uint8).tobytes()
        matched = sum(length for _, _, length in _matches(data, MatchParams()))
        assert matched < len(data) * 0.05

    @pytest.mark.parametrize("point", sorted(_POINTS))
    def test_equals_the_reference_loop(self, point: str) -> None:
        params = _POINTS[point]
        for name, data in _corpus().items():
            assert _matches(data, params) == _reference_matches(data, params), name

    def test_a_match_stops_at_max_match(self) -> None:
        for params in _POINTS.values():
            lengths = [length for _, _, length in _matches(bytes(70_000), params)]
            assert max(lengths) == min(params.max_match, 70_000 - 1)

    def test_no_match_starts_in_the_last_bytes(self) -> None:
        """No match *starts* in the final ``span + 4`` bytes (it may end
        there): short inputs have no match at all."""
        for params in _POINTS.values():
            span = 4 if params.min_match >= 4 else 3
            for size in range(span + 4 + 1):
                assert _matches(bytes(size), params) == []
            assert _matches(bytes(span + 5), params)

    @pytest.mark.parametrize("name", ["lz4", "lzo"])
    def test_one_instance_from_four_threads(self, name: str) -> None:
        """The manager's piece pool shares codec instances across threads:
        the kernels keep no scratch state between calls."""
        codec = get_codec(name)
        rng = np.random.default_rng(5)
        buffers = [
            synthetic_buffer(dtype, "gamma", 8192 + 512 * i, rng)
            for i, dtype in enumerate(("float64", "float32", "int64", "int32") * 4)
        ]
        serial = [codec.compress(data) for data in buffers]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                packed = list(pool.map(codec.compress, buffers, timeout=60))
                restored = list(pool.map(codec.decompress, packed, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert packed == serial
        assert restored == buffers

    def test_params_validation(self) -> None:
        with pytest.raises(ValueError):
            MatchParams(hash_bits=4)
        with pytest.raises(ValueError):
            MatchParams(min_match=2)
        with pytest.raises(ValueError):
            MatchParams(min_match=8, max_match=7)
        with pytest.raises(ValueError):
            MatchParams(window=0)


class TestCopyMatch:
    def test_non_overlapping(self) -> None:
        out = bytearray(b"abcdef")
        copy_match(out, offset=6, length=3)
        assert out == b"abcdefabc"

    def test_overlapping_run(self) -> None:
        out = bytearray(b"x")
        copy_match(out, offset=1, length=7)
        assert out == b"x" * 8

    def test_overlapping_pattern(self) -> None:
        out = bytearray(b"ab")
        copy_match(out, offset=2, length=5)
        assert out == b"abababa"

    def test_bad_offset(self) -> None:
        with pytest.raises(CorruptDataError):
            copy_match(bytearray(b"abc"), offset=4, length=2)
        with pytest.raises(CorruptDataError):
            copy_match(bytearray(b"abc"), offset=0, length=2)


class TestFrame:
    def test_roundtrip(self) -> None:
        framed = frame_wrap(MODE_CODED, 1234, b"body")
        mode, size, body = frame_parse(framed, "test")
        assert (mode, size, body) == (MODE_CODED, 1234, b"body")

    def test_stored_length_checked(self) -> None:
        framed = frame_wrap(MODE_STORED, 10, b"short")
        with pytest.raises(CorruptDataError):
            frame_parse(framed, "test")

    def test_truncated_header(self) -> None:
        with pytest.raises(CorruptDataError):
            frame_parse(b"\x00", "test")

    def test_unknown_mode(self) -> None:
        with pytest.raises(CorruptDataError):
            frame_parse(frame_wrap(5, 0, b""), "test")


class TestVarint:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 2**20, 2**40, 2**63 - 1])
    def test_roundtrip(self, value: int) -> None:
        buf = bytearray()
        write_varint(buf, value)
        decoded, pos = read_varint(bytes(buf), 0)
        assert decoded == value
        assert pos == len(buf)

    def test_negative_rejected(self) -> None:
        with pytest.raises(ValueError):
            write_varint(bytearray(), -1)

    def test_truncated(self) -> None:
        with pytest.raises(CorruptDataError):
            read_varint(b"\x80\x80", 0)

    def test_overlong(self) -> None:
        with pytest.raises(CorruptDataError):
            read_varint(b"\x80" * 12, 0)

    def test_sequential_reads(self) -> None:
        buf = bytearray()
        write_varint(buf, 5)
        write_varint(buf, 500)
        a, pos = read_varint(bytes(buf), 0)
        b, pos = read_varint(bytes(buf), pos)
        assert (a, b) == (5, 500)
