"""From-scratch Pithy-style codec (pool member ``pithy``).

Pithy is historically a Snappy fork tuned for raw scan speed; here that
translates to the most aggressive parameter point in the byte-LZ family: a
narrow 12-bit hash, long 6-byte minimum matches, early skip acceleration,
and a wide 1 MiB window reached through 3-byte offsets. It trades ratio for
the fewest matcher stalls — the fastest, lightest member of the pool.

Element grammar (after the common frame):
    tag 0x00   literal run: varint length, then the bytes
    tag 0x01   copy: u8 (length - 6), u24 little-endian offset
"""

from __future__ import annotations

from ..errors import CorruptDataError
from .base import Codec, CodecMeta, ensure_bytes, register_codec
from .lz77 import (
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

_PARAMS = MatchParams(
    hash_bits=12, min_match=6, max_match=255 + 6, window=1 << 20, skip_trigger=4
)

_TAG_LITERAL = 0
_TAG_COPY = 1


def _emit_literal(out: bytearray, run: bytes) -> None:
    out.append(_TAG_LITERAL)
    write_varint(out, len(run))
    out += run


@register_codec
class PithyCodec(Codec):
    """Speed-first wide-window LZ with 6-byte minimum matches."""

    meta = CodecMeta(name="pithy", codec_id=9, family="byte-lz")

    def compress(self, data: bytes) -> bytes:
        data = ensure_bytes(data)
        n = len(data)
        if n < 16:
            return frame_wrap(MODE_STORED, n, data)
        out = bytearray()
        anchor = 0
        for start, offset, length in zip(*find_tokens(data, _PARAMS)):
            if start > anchor:
                _emit_literal(out, data[anchor:start])
            out.append(_TAG_COPY)
            out.append(length - 6)
            out += offset.to_bytes(3, "little")
            anchor = start + length
        if anchor < n:
            _emit_literal(out, data[anchor:])
        if len(out) >= n:
            return frame_wrap(MODE_STORED, n, data)
        return frame_wrap(MODE_CODED, n, bytes(out))

    def decompress(self, payload: bytes) -> bytes:
        payload = ensure_bytes(payload, "payload")
        mode, size, body = frame_parse(payload, "pithy")
        if mode == MODE_STORED:
            return bytes(body)
        out = bytearray()
        pos = 0
        n = len(body)
        while pos < n:
            tag = body[pos]
            pos += 1
            if tag == _TAG_LITERAL:
                run, pos = read_varint(body, pos)
                if pos + run > n:
                    raise CorruptDataError("pithy: literal run past end")
                out += body[pos : pos + run]
                pos += run
            elif tag == _TAG_COPY:
                if pos + 4 > n:
                    raise CorruptDataError("pithy: truncated copy")
                length = body[pos] + 6
                offset = int.from_bytes(body[pos + 1 : pos + 4], "little")
                pos += 4
                copy_match(out, offset, length)
            else:
                raise CorruptDataError(f"pithy: unknown tag {tag}")
        if len(out) != size:
            raise CorruptDataError(
                f"pithy: reconstructed {len(out)} bytes, expected {size}"
            )
        return bytes(out)
