"""From-scratch Brotli-style codec (pool member ``brotli``).

Two-stage design mirroring Brotli's architecture: a wide-window LZ77 pass
(4 MiB window, deep hash table) produces a compact token serialisation
(varint literal length + literals + varint match length + varint offset),
which is then entropy-coded with the canonical Huffman stage. Sits between
the byte-LZ family and the block-sorting family on the speed/ratio curve —
the paper's Fig. 1 uses it as the "light but effective" choice for VPIC.
"""

from __future__ import annotations

from ..errors import CorruptDataError
from .base import Codec, CodecMeta, ensure_bytes, get_codec, register_codec
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
    hash_bits=17, min_match=4, max_match=1 << 20, window=1 << 22, skip_trigger=7
)


@register_codec
class BrotliCodec(Codec):
    """Wide-window LZ77 with a Huffman entropy stage."""

    meta = CodecMeta(name="brotli", codec_id=10, family="dictionary")

    def compress(self, data: bytes) -> bytes:
        data = ensure_bytes(data)
        n = len(data)
        if n < 64:
            return frame_wrap(MODE_STORED, n, data)
        serial = bytearray()
        anchor = 0
        for start, offset, length in zip(*find_tokens(data, _PARAMS)):
            write_varint(serial, start - anchor)
            serial += data[anchor:start]
            write_varint(serial, length)
            write_varint(serial, offset)
            anchor = start + length
        if anchor < n:
            # Terminal literals-only sequence: match length 0, no offset.
            write_varint(serial, n - anchor)
            serial += data[anchor:]
            write_varint(serial, 0)
        payload = get_codec("huffman").compress(bytes(serial))
        if len(payload) >= n:
            return frame_wrap(MODE_STORED, n, data)
        return frame_wrap(MODE_CODED, n, payload)

    def decompress(self, payload: bytes) -> bytes:
        mode, size, body = frame_parse(ensure_bytes(payload, "payload"), "brotli")
        if mode == MODE_STORED:
            return bytes(body)
        serial = get_codec("huffman").decompress(body)
        out = bytearray()
        pos = 0
        n = len(serial)
        while pos < n:
            lit_len, pos = read_varint(serial, pos)
            if pos + lit_len > n:
                raise CorruptDataError("brotli: literal run past end")
            out += serial[pos : pos + lit_len]
            pos += lit_len
            match_len, pos = read_varint(serial, pos)
            if match_len:
                offset, pos = read_varint(serial, pos)
                copy_match(out, offset, match_len)
        if len(out) != size:
            raise CorruptDataError(
                f"brotli: reconstructed {len(out)} bytes, expected {size}"
            )
        return bytes(out)
