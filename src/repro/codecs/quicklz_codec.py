"""From-scratch QuickLZ-style codec (pool member ``quicklz``).

Bitmap-controlled token stream: every group of up to 32 entries is preceded
by a 32-bit little-endian control word whose bits (LSB first) say whether
the entry is a single literal byte (0) or a 3-byte match record (1) packing
a 13-bit offset-1 and an 11-bit length-3. Dense control flow makes it strong
on integer-like data with short repeating strides — the paper cites QuickLZ
as the integer-data specialist.
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
)

_PARAMS = MatchParams(
    hash_bits=13, min_match=4, max_match=(1 << 11) - 1 + 3, window=8192, skip_trigger=5
)

_GROUP = 32


@register_codec
class QuicklzCodec(Codec):
    """Bitmap-control LZ with 3-byte match records."""

    meta = CodecMeta(name="quicklz", codec_id=8, family="byte-lz")

    def compress(self, data: bytes) -> bytes:
        data = ensure_bytes(data)
        n = len(data)
        if n < 16:
            return frame_wrap(MODE_STORED, n, data)
        # Flatten literals and matches into (is_match, payload) entries.
        entries: list[tuple[bool, bytes]] = []
        anchor = 0
        for start, offset, length in zip(*find_tokens(data, _PARAMS)):
            for j in range(anchor, start):
                entries.append((False, data[j : j + 1]))
            record = ((offset - 1) << 11) | (length - 3)
            entries.append((True, record.to_bytes(3, "little")))
            anchor = start + length
        entries.extend((False, data[j : j + 1]) for j in range(anchor, n))

        out = bytearray()
        for g in range(0, len(entries), _GROUP):
            group = entries[g : g + _GROUP]
            bitmap = 0
            for idx, (is_match, _) in enumerate(group):
                if is_match:
                    bitmap |= 1 << idx
            out += bitmap.to_bytes(4, "little")
            for _, blob in group:
                out += blob
        if len(out) >= n:
            return frame_wrap(MODE_STORED, n, data)
        return frame_wrap(MODE_CODED, n, bytes(out))

    def decompress(self, payload: bytes) -> bytes:
        payload = ensure_bytes(payload, "payload")
        mode, size, body = frame_parse(payload, "quicklz")
        if mode == MODE_STORED:
            return bytes(body)
        out = bytearray()
        pos = 0
        n = len(body)
        while pos < n and len(out) < size:
            if pos + 4 > n:
                raise CorruptDataError("quicklz: truncated control word")
            bitmap = int.from_bytes(body[pos : pos + 4], "little")
            pos += 4
            for idx in range(_GROUP):
                if len(out) >= size:
                    break
                if pos >= n:
                    # Short final group: remaining bitmap bits are padding.
                    break
                if bitmap & (1 << idx):
                    if pos + 3 > n:
                        raise CorruptDataError("quicklz: truncated match record")
                    record = int.from_bytes(body[pos : pos + 3], "little")
                    pos += 3
                    copy_match(out, (record >> 11) + 1, (record & 0x7FF) + 3)
                else:
                    out.append(body[pos])
                    pos += 1
        if len(out) != size:
            raise CorruptDataError(
                f"quicklz: reconstructed {len(out)} bytes, expected {size}"
            )
        return bytes(out)
