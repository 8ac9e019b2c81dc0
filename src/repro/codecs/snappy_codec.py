"""From-scratch Snappy-style codec (pool member ``snappy``).

Follows the Snappy element format: a varint uncompressed length preamble,
then a stream of tagged elements — literals (tag low bits 00, length in the
tag or in 1-2 extension bytes) and two-byte-offset copies (tag low bits 10,
length-1 in the tag's upper six bits). Tuned toward textual/byte-structured
data with a slightly narrower hash than lz4.
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
    hash_bits=14, min_match=4, max_match=64, window=65535, skip_trigger=5
)

_TAG_LITERAL = 0
_TAG_COPY1 = 1
_TAG_COPY2 = 2
_TAG_COPY4 = 3
_MAX_LITERAL = 1 << 16


def _emit_literal(out: bytearray, run: bytes) -> None:
    # The widest length extension emitted is two bytes (length - 1), so a
    # longer run is split into 64 KiB elements.
    for start in range(0, len(run), _MAX_LITERAL):
        chunk = run[start : start + _MAX_LITERAL]
        length = len(chunk) - 1
        if length < 60:
            out.append((length << 2) | _TAG_LITERAL)
        elif length < 1 << 8:
            out.append((60 << 2) | _TAG_LITERAL)
            out.append(length)
        else:
            out.append((61 << 2) | _TAG_LITERAL)
            out += length.to_bytes(2, "little")
        out += chunk


def _emit_copy2(out: bytearray, offset: int, length: int) -> None:
    # Copy lengths are capped at 64 by the matcher params; the tag's upper
    # six bits hold length - 1.
    out.append(((length - 1) << 2) | _TAG_COPY2)
    out += offset.to_bytes(2, "little")


@register_codec
class SnappyCodec(Codec):
    """Snappy element-format LZ with 64-byte match cap."""

    meta = CodecMeta(name="snappy", codec_id=7, family="byte-lz")

    def compress(self, data: bytes) -> bytes:
        data = ensure_bytes(data)
        n = len(data)
        if n < 16:
            return frame_wrap(MODE_STORED, n, data)
        out = bytearray()
        write_varint(out, n)
        anchor = 0
        for start, offset, length in zip(*find_tokens(data, _PARAMS)):
            if start > anchor:
                _emit_literal(out, data[anchor:start])
            _emit_copy2(out, offset, length)
            anchor = start + length
        if anchor < n:
            _emit_literal(out, data[anchor:])
        if len(out) >= n:
            return frame_wrap(MODE_STORED, n, data)
        return frame_wrap(MODE_CODED, n, bytes(out))

    def decompress(self, payload: bytes) -> bytes:
        payload = ensure_bytes(payload, "payload")
        mode, size, body = frame_parse(payload, "snappy")
        if mode == MODE_STORED:
            return bytes(body)
        declared, pos = read_varint(body, 0)
        if declared != size:
            raise CorruptDataError(
                f"snappy: preamble length {declared} != frame length {size}"
            )
        out = bytearray()
        n = len(body)
        while pos < n:
            tag = body[pos]
            pos += 1
            kind = tag & 3
            if kind == _TAG_LITERAL:
                length = tag >> 2
                if length < 60:
                    length += 1
                elif length == 60:
                    if pos >= n:
                        raise CorruptDataError("snappy: truncated literal length")
                    length = body[pos] + 1
                    pos += 1
                elif length == 61:
                    if pos + 2 > n:
                        raise CorruptDataError("snappy: truncated literal length")
                    length = int.from_bytes(body[pos : pos + 2], "little") + 1
                    pos += 2
                else:
                    raise CorruptDataError("snappy: oversized literal tag")
                if pos + length > n:
                    raise CorruptDataError("snappy: literal run past end")
                out += body[pos : pos + length]
                pos += length
            elif kind == _TAG_COPY1:
                if pos >= n:
                    raise CorruptDataError("snappy: truncated copy1")
                length = ((tag >> 2) & 0x7) + 4
                offset = ((tag >> 5) << 8) | body[pos]
                pos += 1
                copy_match(out, offset, length)
            elif kind == _TAG_COPY2:
                if pos + 2 > n:
                    raise CorruptDataError("snappy: truncated copy2")
                length = (tag >> 2) + 1
                offset = int.from_bytes(body[pos : pos + 2], "little")
                pos += 2
                copy_match(out, offset, length)
            else:
                if pos + 4 > n:
                    raise CorruptDataError("snappy: truncated copy4")
                length = (tag >> 2) + 1
                offset = int.from_bytes(body[pos : pos + 4], "little")
                pos += 4
                copy_match(out, offset, length)
        if len(out) != size:
            raise CorruptDataError(
                f"snappy: reconstructed {len(out)} bytes, expected {size}"
            )
        return bytes(out)
