"""From-scratch LZ4-style codec (pool member ``lz4``).

Uses the LZ4 block format: per sequence a token byte packs the literal run
length (high nibble) and match length minus 4 (low nibble), both with
255-extension bytes, followed by the literals and a 2-byte little-endian
offset. The final sequence is literals-only. Fast scan, modest ratio — the
"speed" end of the pool's spectrum.
"""

from __future__ import annotations

import numpy as np

from ..errors import CorruptDataError
from .base import Codec, CodecMeta, ensure_bytes, register_codec
from .lz77 import (
    MODE_CODED,
    MODE_STORED,
    MatchParams,
    find_tokens,
    frame_parse,
    frame_wrap,
    gather_runs,
)

_PARAMS = MatchParams(
    hash_bits=16, min_match=4, max_match=1 << 16, window=65535, skip_trigger=6
)
_MIN_MATCH = 4


def _put_length(out: memoryview, pos: int, value: int) -> None:
    """Write LZ4-style 255-extension bytes for a nibble overflow value."""
    full = value // 255
    out[pos : pos + full] = b"\xff" * full
    out[pos + full] = value % 255


@register_codec
class Lz4Codec(Codec):
    """Greedy hash-match LZ77 with LZ4 block-format serialisation."""

    meta = CodecMeta(name="lz4", codec_id=5, family="byte-lz")

    def compress(self, data: bytes) -> bytes:
        data = ensure_bytes(data)
        n = len(data)
        if n < 16:
            return frame_wrap(MODE_STORED, n, data)
        starts, offsets, lengths = (
            np.frombuffer(column, dtype=np.intc)
            for column in find_tokens(data, _PARAMS)
        )
        # One sequence per match: token byte, literal-length extension, the
        # literals since the previous match, 2-byte offset, match-length
        # extension; then the terminal literals-only sequence.
        ends = starts + lengths
        anchors = np.zeros_like(starts)
        anchors[1:] = ends[:-1]
        lits = starts - anchors
        mlens = lengths - _MIN_MATCH
        # Extension bytes of a nibble: floor division makes it 0 below 15.
        lit_ext = (lits - 15) // 255 + 1
        sizes = 3 + lit_ext + lits + (mlens - 15) // 255 + 1
        tail = n - int(ends[-1]) if ends.size else n
        tail_at = int(sizes.sum())
        total = tail_at + (1 + (tail - 15) // 255 + 1 + tail if tail else 0)
        if total >= n:
            return frame_wrap(MODE_STORED, n, data)

        body = np.zeros(total, dtype=np.uint8)
        at = np.cumsum(sizes, dtype=np.intc) - sizes
        body[at] = (np.minimum(lits, 15) << 4) | np.minimum(mlens, 15)
        lit_at = at + 1 + lit_ext
        offset_at = lit_at + lits
        body[offset_at] = offsets & 0xFF
        body[offset_at + 1] = offsets >> 8
        # Literal runs below 15 bytes — nearly all of them — in one gather;
        # the rare sequences with an extension in a short Python loop.
        gather_runs(body, lit_at, data, anchors, np.where(lits < 15, lits, 0))
        out = memoryview(body)
        for k in np.flatnonzero(lits >= 15).tolist():
            lit, dst, src = int(lits[k]), int(lit_at[k]), int(anchors[k])
            _put_length(out, int(at[k]) + 1, lit - 15)
            out[dst : dst + lit] = data[src : src + lit]
        for k in np.flatnonzero(mlens >= 15).tolist():
            _put_length(out, int(offset_at[k]) + 2, int(mlens[k]) - 15)
        if tail:
            out[tail_at] = min(tail, 15) << 4
            if tail >= 15:
                _put_length(out, tail_at + 1, tail - 15)
            out[total - tail :] = data[n - tail :]
        return frame_wrap(MODE_CODED, n, body.tobytes())

    def decompress(self, payload: bytes) -> bytes:
        payload = ensure_bytes(payload, "payload")
        mode, size, body = frame_parse(payload, "lz4")
        if mode == MODE_STORED:
            return bytes(body)
        # One loop, no calls: extensions and ``lz77.copy_match`` inlined.
        out = bytearray()
        have = 0  # == len(out)
        pos = 0
        n = len(body)
        while pos < n:
            token = body[pos]
            pos += 1
            lit = token >> 4
            if lit == 15:
                byte = 255
                while byte == 255:
                    if pos >= n:
                        raise CorruptDataError("lz4: truncated length extension")
                    byte = body[pos]
                    pos += 1
                    lit += byte
            if lit:
                if pos + lit > n:
                    raise CorruptDataError("lz4: literal run past end of payload")
                out += body[pos : pos + lit]
                pos += lit
                have += lit
            if pos == n:
                break  # terminal literals-only sequence
            if pos + 2 > n:
                raise CorruptDataError("lz4: truncated match offset")
            offset = body[pos] | body[pos + 1] << 8
            pos += 2
            length = (token & 0x0F) + 4  # _MIN_MATCH, spelt out in the hot loop
            if length == 19:
                byte = 255
                while byte == 255:
                    if pos >= n:
                        raise CorruptDataError("lz4: truncated length extension")
                    byte = body[pos]
                    pos += 1
                    length += byte
            if offset <= 0 or offset > have:
                raise CorruptDataError(f"lz: invalid match offset {offset}")
            if offset >= length:
                start = have - offset
                out += out[start : start + length]
            else:  # overlapping: replicate the pattern (RLE via LZ)
                pattern = bytes(out[-offset:])
                out += pattern * (length // offset) + pattern[: length % offset]
            have += length
        if len(out) != size:
            raise CorruptDataError(
                f"lz4: reconstructed {len(out)} bytes, expected {size}"
            )
        return bytes(out)
