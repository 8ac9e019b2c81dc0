"""The 16-byte sub-task header (paper §IV-G2, "HCDP Algorithm metadata").

Because the engine may pick a different library for every sub-task and tier,
each stored payload is decorated with a fixed 16-byte header carrying the
4-tuple {start-offset, length, compression library, resulting size}. The
decompression path reads the codec id straight from the data, so any process
can decode independently of the engine that produced the schema.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from ..errors import SchemaError, UnknownCodecError
from .base import get_codec

__all__ = [
    "SubTaskHeader",
    "HEADER_SIZE",
    "wrap_payload",
    "unwrap_payload",
]

_STRUCT = struct.Struct("<IIII")
HEADER_SIZE: int = _STRUCT.size
assert HEADER_SIZE == 16, "paper specifies a 16-byte header"

_U32_MAX = 0xFFFFFFFF


@dataclass(frozen=True)
class SubTaskHeader:
    """{start-offset, length, compression library, resulting size}.

    Attributes:
        start_offset: Byte offset of this piece within the original task
            buffer.
        length: Uncompressed length of the piece.
        codec_id: Registry id of the library applied (0 = none).
        resulting_size: Stored (compressed) payload length.
    """

    start_offset: int
    length: int
    codec_id: int
    resulting_size: int

    def __post_init__(self) -> None:
        for fname in ("start_offset", "length", "codec_id", "resulting_size"):
            value = getattr(self, fname)
            if not 0 <= value <= _U32_MAX:
                raise SchemaError(f"header field {fname}={value} outside u32 range")
        # The piece's end offset must itself be u32-addressable, or the
        # reassembly slice ``buffer[start:start+length]`` could silently
        # mis-place data from a corrupted header.
        if self.start_offset + self.length > _U32_MAX:
            raise SchemaError(
                f"piece end offset {self.start_offset + self.length} "
                f"(start {self.start_offset} + length {self.length}) "
                f"overflows u32"
            )

    def pack(self) -> bytes:
        return _STRUCT.pack(
            self.start_offset, self.length, self.codec_id, self.resulting_size
        )

    @classmethod
    def unpack(cls, blob: bytes) -> "SubTaskHeader":
        """Decode the leading 16 bytes; trailing bytes are ignored.

        Raises :class:`~repro.errors.SchemaError` on a short buffer, a
        field outside u32 bounds, or a codec id with no registered
        implementation — corrupt metadata must never reach the slicing or
        decompression machinery as a surprise ``KeyError``/``IndexError``.
        """
        if len(blob) < HEADER_SIZE:
            raise SchemaError(
                f"sub-task header needs {HEADER_SIZE} bytes, got {len(blob)}"
            )
        header = cls(*_STRUCT.unpack_from(blob))
        try:
            get_codec(header.codec_id)
        except UnknownCodecError:
            raise SchemaError(
                f"sub-task header carries unknown codec id {header.codec_id}"
            ) from None
        return header


def wrap_payload(
    data: bytes, start_offset: int, codec_name: str | int
) -> tuple[bytes, SubTaskHeader]:
    """Compress one piece and decorate it with its header.

    Returns ``(header + payload, header)``; the header's ``resulting_size``
    reflects the payload only (header excluded), matching the paper's
    accounting of compressed footprint.
    """
    codec = get_codec(codec_name)
    payload = codec.compress(data)
    header = SubTaskHeader(
        start_offset=start_offset,
        length=len(data),
        codec_id=codec.meta.codec_id,
        resulting_size=len(payload),
    )
    return header.pack() + payload, header


def unwrap_payload(blob: bytes) -> tuple[bytes, SubTaskHeader]:
    """Decode a header-decorated piece back to its original bytes.

    The blob must be exactly ``header + payload``: a short blob means the
    payload was truncated, a long one means ``resulting_size`` no longer
    matches the stored bytes — both are typed :class:`SchemaError`s, as is
    a decompressed length that disagrees with the header.
    """
    header = SubTaskHeader.unpack(blob)
    stored = len(blob) - HEADER_SIZE
    if stored != header.resulting_size:
        raise SchemaError(
            f"payload size mismatch: header says {header.resulting_size}, "
            f"blob carries {stored}"
        )
    payload = blob[HEADER_SIZE:]
    data = get_codec(header.codec_id).decompress(payload)
    if len(data) != header.length:
        raise SchemaError(
            f"decompressed length {len(data)} != header length {header.length}"
        )
    return data, header
