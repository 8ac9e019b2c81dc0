"""From-scratch LZO-style codec (pool member ``lzo``).

Short-range, short-match LZ: 3-byte minimum matches against an 8 KiB window
with 13-bit offsets packed into two bytes. Catches fine-grained repetition
that 4-byte-minimum codecs skip, at the cost of denser token overhead —
the classic LZO trade-off.

Control byte grammar:
    0            extended literal run: varint k follows, then k + 32 bytes
    1..31        literal run of that many bytes
    >= 32        match: length-2 in bits 5-7 (7 = +varint extension),
                 offset-1 in bits 0-4 plus one extension byte (13 bits)
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
    read_varint,
    write_varint,
)

_PARAMS = MatchParams(
    hash_bits=13, min_match=3, max_match=1 << 12, window=8192, skip_trigger=5
)


#: A varint is one byte, plus one for every threshold its value has reached.
_VARINT_STEPS = 1 << np.arange(7, 35, 7)


@register_codec
class LzoCodec(Codec):
    """Short-window LZ with 3-byte minimum matches."""

    meta = CodecMeta(name="lzo", codec_id=6, family="byte-lz")

    def compress(self, data: bytes) -> bytes:
        data = ensure_bytes(data)
        n = len(data)
        if n < 16:
            return frame_wrap(MODE_STORED, n, data)
        starts, offsets, lengths = (
            np.frombuffer(column, dtype=np.intc)
            for column in find_tokens(data, _PARAMS)
        )
        # One row per match: the literal run before it (control byte, varint
        # past 31 bytes, the bytes), the 2-byte match record, its varint past
        # length 8. The last literal run is one more row with no match.
        ends = starts + lengths
        anchors = np.zeros(starts.size + 1, dtype=np.intc)
        anchors[1:] = ends
        lits = np.append(starts, np.intc(n)) - anchors
        len_codes = lengths - 2
        lit_ext, match_ext = (
            (value >= 0) * (np.searchsorted(_VARINT_STEPS, value, side="right") + 1)
            for value in (lits - 32, len_codes - 7)
        )
        sizes = (lits > 0) + lit_ext + lits
        sizes[:-1] += 2 + match_ext
        total = int(sizes.sum())
        if total >= n:
            return frame_wrap(MODE_STORED, n, data)

        body = np.zeros(total, dtype=np.uint8)
        at = np.cumsum(sizes, dtype=np.intc) - sizes
        lit_at = at + (lits > 0) + lit_ext
        match_at = (lit_at + lits)[:-1]
        packed = offsets - 1
        body[match_at] = (np.minimum(len_codes, 7) << 5) | (packed >> 8)
        body[match_at + 1] = packed & 0xFF
        # Literal runs up to 31 bytes — nearly all of them — in one scatter
        # of control bytes and one gather of the bytes; the rare rows that
        # carry a varint in a short Python loop.
        short = np.flatnonzero((lits > 0) & (lits <= 31))
        body[at[short]] = lits[short]
        gather_runs(body, lit_at[short], data, anchors[short], lits[short])
        out = memoryview(body)
        ext = bytearray()
        for k in np.flatnonzero(lits > 31).tolist():
            lit, dst, src = int(lits[k]), int(lit_at[k]), int(anchors[k])
            ext.clear()
            write_varint(ext, lit - 32)
            out[dst - len(ext) : dst] = ext  # the control byte before it is 0
            out[dst : dst + lit] = data[src : src + lit]
        for k in np.flatnonzero(len_codes >= 7).tolist():
            ext.clear()
            write_varint(ext, int(len_codes[k]) - 7)
            dst = int(match_at[k]) + 2
            out[dst : dst + len(ext)] = ext
        return frame_wrap(MODE_CODED, n, body.tobytes())

    def decompress(self, payload: bytes) -> bytes:
        payload = ensure_bytes(payload, "payload")
        mode, size, body = frame_parse(payload, "lzo")
        if mode == MODE_STORED:
            return bytes(body)
        # One loop, no call per token: ``lz77.copy_match`` and the match
        # length's ``read_varint`` are inlined.
        out = bytearray()
        have = 0  # == len(out)
        pos = 0
        n = len(body)
        while pos < n:
            control = body[pos]
            pos += 1
            if control >= 32:
                if pos >= n:
                    raise CorruptDataError("lzo: truncated match")
                length = (control >> 5) + 2
                offset = (((control & 0x1F) << 8) | body[pos]) + 1
                pos += 1
                if length == 9:
                    shift = 0
                    byte = 0x80
                    while byte & 0x80:
                        if shift > 63:
                            raise CorruptDataError("varint: overlong encoding")
                        if pos >= n:
                            raise CorruptDataError("varint: truncated")
                        byte = body[pos]
                        pos += 1
                        length += (byte & 0x7F) << shift
                        shift += 7
                    if length > size:  # a forged varint must not size a copy
                        raise CorruptDataError("lzo: match past declared size")
                if offset > have:  # offset >= 1 by construction
                    raise CorruptDataError(f"lz: invalid match offset {offset}")
                if offset >= length:
                    start = have - offset
                    out += out[start : start + length]
                else:  # overlapping: replicate the pattern (RLE via LZ)
                    pattern = bytes(out[-offset:])
                    out += pattern * (length // offset) + pattern[: length % offset]
                have += length
            else:
                run = control
                if control == 0:  # a call, but one per >= 32 bytes copied
                    run, pos = read_varint(body, pos)
                    run += 32
                if pos + run > n:
                    raise CorruptDataError("lzo: literal run past end")
                out += body[pos : pos + run]
                pos += run
                have += run
        if len(out) != size:
            raise CorruptDataError(
                f"lzo: reconstructed {len(out)} bytes, expected {size}"
            )
        return bytes(out)
