"""Shared LZ77 machinery for the from-scratch byte-LZ codec family.

Each pool member (lz4-like, lzo-like, snappy-like, quicklz-like, pithy-like,
brotli-like) runs the same greedy hash-chain matcher with its own parameter
point (hash width, minimum match, window, skip acceleration) and its own
token serialisation, which is what gives the family genuinely different
speed/ratio trade-offs — mirroring how the original C libraries differ.

The matcher is the engine's hot loop on real bytes: compressible input
yields a short match every few bytes, so its cost is per *token*. It inserts
into the hash table only at the positions it visits — the stored bytes
depend on that — so it stays one sequential loop (DESIGN.md §5, "LZ
kernels") with everything else hoisted out: hashes and prefix values come
from numpy and are read back through memoryviews, extension is inline, and
the result is three int32 columns the serialisers consume vectorised. Skip
acceleration (as in LZ4) keeps it sub-linear on incompressible input.
"""

from __future__ import annotations

import struct
from array import array
from dataclasses import dataclass

import numpy as np

from ..errors import CorruptDataError

__all__ = [
    "MatchParams",
    "find_tokens",
    "gather_runs",
    "frame_wrap",
    "frame_parse",
    "write_varint",
    "read_varint",
]

_FRAME = struct.Struct("<BQ")

#: Knuth multiplicative hash constant (golden-ratio derived).
_HASH_MULT = np.uint32(2654435761)


@dataclass(frozen=True)
class MatchParams:
    """Parameter point for the greedy matcher.

    Attributes:
        hash_bits: log2 of the hash-table size; wider tables find more
            matches (better ratio, more cache pressure in the original C).
        min_match: Shortest match worth emitting.
        max_match: Longest match the serialisation can express.
        window: Largest back-reference offset.
        skip_trigger: After ``2**skip_trigger`` consecutive misses the scan
            step doubles (LZ4-style acceleration on incompressible data).
    """

    hash_bits: int = 16
    min_match: int = 4
    max_match: int = 1 << 16
    window: int = 65535
    skip_trigger: int = 6

    def __post_init__(self) -> None:
        if not 8 <= self.hash_bits <= 24:
            raise ValueError(f"hash_bits out of range: {self.hash_bits}")
        if self.min_match < 3:
            raise ValueError(f"min_match must be >= 3, got {self.min_match}")
        if self.max_match < self.min_match:
            raise ValueError("max_match < min_match")
        if self.window < 1:
            raise ValueError("window must be positive")


def find_tokens(data: bytes, params: MatchParams) -> tuple[array, array, array]:
    """Greedy single-pass tokenisation of ``data``.

    Returns three parallel int32 columns ``(match_starts, offsets,
    match_lengths)``, one entry per match in input order (int32: inputs are
    the engine's pieces, far below 2 GiB). The bytes between
    one match's end and the next one's start (and after the last match) are
    literals. Invariants (validated by the property tests): matches do not
    overlap; every offset is within ``params.window`` and every match length
    within ``[min_match, max_match]``.
    """
    n = len(data)
    starts, offsets, lengths = array("i"), array("i"), array("i")
    span = 4 if params.min_match >= 4 else 3
    # Leave the final 4 bytes unmatched (mirrors LZ4's end-of-block rule and
    # guarantees a terminal literal run exists for formats that need one).
    match_limit = n - span - 4
    if match_limit < 0:
        return starts, offsets, lengths
    # Little-endian value of the ``span``-byte prefix at every position and
    # its multiplicative hash, built in place: two arrays, no temporaries.
    arr = np.frombuffer(data, dtype=np.uint8)
    m = n - span + 1
    prefix = arr[span - 1 : span - 1 + m].astype(np.uint32)
    for k in range(span - 2, -1, -1):
        prefix <<= np.uint32(8)
        prefix |= arr[k : k + m]
    hash_array = prefix * _HASH_MULT
    hash_array >>= np.uint32(32 - params.hash_bits)
    hashes, prefixes = memoryview(hash_array), memoryview(prefix)

    min_match = params.min_match
    window = params.window
    max_match = params.max_match
    skip_trigger = params.skip_trigger
    # An empty slot holds a position that is always out of the window.
    table = [-window - 1] * (1 << params.hash_bits)
    i = 0
    misses = 0
    while i <= match_limit:
        h = hashes[i]
        cand = table[h]
        table[h] = i
        if (
            i - cand <= window
            and prefixes[cand] == prefixes[i]
            and (
                min_match == span
                or data[cand + span : cand + min_match]
                == data[i + span : i + min_match]
            )
        ):
            j = i + min_match
            c = cand + min_match
            end = n if n - i < max_match else i + max_match
            # Most matches are a few bytes long: probe bytewise first.
            stop = j + 16 if j + 16 < end else end
            while j < stop and data[c] == data[j]:
                j += 1
                c += 1
            if j == stop:  # a long one: compare slices, coarse to fine
                for step in (1024, 64, 8, 1):
                    while j + step <= end and data[c : c + step] == data[j : j + step]:
                        j += step
                        c += step
            starts.append(i)
            offsets.append(i - cand)
            lengths.append(j - i)
            i = j
            misses = 0
        else:
            misses += 1
            i += 1 + (misses >> skip_trigger)
    return starts, offsets, lengths


def gather_runs(
    body: np.ndarray, targets: np.ndarray, data: bytes, sources: np.ndarray,
    counts: np.ndarray,
) -> None:
    """``body[targets[k]:][:counts[k]] = data[sources[k]:][:counts[k]]`` for
    every k in one indexed copy: the many short literal runs of a block."""
    first = np.cumsum(counts, dtype=np.intc) - counts
    run = np.arange(int(counts.sum()), dtype=np.intc)
    body[np.repeat(targets - first, counts) + run] = np.frombuffer(
        data, dtype=np.uint8
    )[np.repeat(sources - first, counts) + run]


def copy_match(out: bytearray, offset: int, length: int) -> None:
    """Append a back-reference of ``length`` bytes at ``offset`` to ``out``.

    Handles the overlapping case (offset < length) by doubling the
    replicated pattern, which is the standard RLE-via-LZ trick.
    """
    if offset <= 0 or offset > len(out):
        raise CorruptDataError(f"lz: invalid match offset {offset}")
    if offset >= length:
        start = len(out) - offset
        out += out[start : start + length]
        return
    pattern = bytes(out[-offset:])
    reps = length // offset
    out += pattern * reps + pattern[: length % offset]


# -- common outer frame ------------------------------------------------------

MODE_CODED = 0
MODE_STORED = 1


def frame_wrap(mode: int, original_size: int, body: bytes) -> bytes:
    """Prefix a codec body with the common (mode, original size) frame."""
    return _FRAME.pack(mode, original_size) + body


def frame_parse(payload: bytes, codec_name: str) -> tuple[int, int, bytes]:
    """Split a framed payload into (mode, original_size, body).

    For stored mode the body length is validated against the declared size.
    """
    if len(payload) < _FRAME.size:
        raise CorruptDataError(f"{codec_name}: payload shorter than frame header")
    mode, size = _FRAME.unpack_from(payload)
    body = payload[_FRAME.size :]
    if mode == MODE_STORED and len(body) != size:
        raise CorruptDataError(
            f"{codec_name}: stored body length {len(body)} != declared {size}"
        )
    if mode not in (MODE_CODED, MODE_STORED):
        raise CorruptDataError(f"{codec_name}: unknown frame mode {mode}")
    return mode, size, body


# -- varints (LEB128, unsigned) ----------------------------------------------


def write_varint(out: bytearray, value: int) -> None:
    """Append an unsigned LEB128 varint."""
    if value < 0:
        raise ValueError(f"varint must be non-negative, got {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def read_varint(buf: bytes, pos: int) -> tuple[int, int]:
    """Read an unsigned LEB128 varint at ``pos``; returns (value, new_pos)."""
    value = 0
    shift = 0
    while True:
        if pos >= len(buf):
            raise CorruptDataError("varint: truncated")
        byte = buf[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7
        if shift > 63:
            raise CorruptDataError("varint: overlong encoding")
