"""Seeded fuzz: every codec round-trips or fails with a typed error.

Complements the hypothesis property tests (test_properties.py): those
prove well-formed inputs round-trip; this file feeds every registered
codec adversarial *payloads* — random garbage, truncated encodings,
bit-flipped encodings — and pins the decode contract: ``decompress``
either returns bytes or raises :class:`CodecError`. It must never leak a
raw ``struct.error`` / ``IndexError`` / ``KeyError`` / segfault-shaped
surprise into the read path, and a successful decode of a corrupted
payload must never be silently wrong for the framed codecs (those with a
checksum detect the corruption instead).

Deterministic by construction: one seeded PRNG, no hypothesis shrinking.
"""

from __future__ import annotations

import random
import zlib

import pytest

from repro.codecs import codec_names, get_codec
from repro.codecs.lz77 import MODE_CODED, frame_wrap
from repro.errors import CodecError, CorruptDataError

SEED = 0xC0DEC
ROUNDS = 12  # per codec per corruption mode

#: bsc's pure-Python BWT is O(n log n) with a big constant; keep it small.
_MAX_LEN = {"bsc": 512}


def _corpus(rng: random.Random, max_len: int) -> bytes:
    """Mixed-entropy buffers: random, runs, repeated blocks, empty."""
    shape = rng.randrange(4)
    n = rng.randrange(max_len + 1)
    if shape == 0:
        return rng.randbytes(n)
    if shape == 1:
        return bytes(rng.randrange(4) for _ in range(n))  # low entropy
    if shape == 2:
        block = rng.randbytes(max(rng.randrange(16), 1))
        return (block * (n // max(len(block), 1) + 1))[:n]
    return b""


def _decode_contract(codec, payload: bytes) -> None:
    """decompress(payload) returns bytes or raises CodecError — nothing else."""
    try:
        out = codec.decompress(payload)
    except CodecError:
        return
    assert isinstance(out, bytes)


@pytest.mark.parametrize("name", codec_names())
def test_roundtrip_under_seeded_corpus(name: str) -> None:
    codec = get_codec(name)
    rng = random.Random(SEED ^ zlib.crc32(name.encode()))
    for _ in range(ROUNDS):
        data = _corpus(rng, _MAX_LEN.get(name, 4096))
        assert codec.decompress(codec.compress(data)) == data


@pytest.mark.parametrize("name", [n for n in codec_names() if n != "bsc"])
def test_long_literal_runs_roundtrip_and_corrupt_typed(name: str) -> None:
    """Past 64 KiB of literals (incompressible, then with a match after
    them) every length form of every format is in play: the payloads
    round-trip, and cut or bit-flipped they keep the decode contract."""
    codec = get_codec(name)
    rng = random.Random(SEED ^ zlib.crc32(name.encode()) ^ 5)
    noise = rng.randbytes(70_000)
    for data in (noise, noise + noise[-4096:]):
        payload = codec.compress(data)
        assert codec.decompress(payload) == data
        _decode_contract(codec, payload[: rng.randrange(len(payload))])
        flipped = bytearray(payload)
        flipped[rng.randrange(len(flipped))] ^= 1 << rng.randrange(8)
        _decode_contract(codec, bytes(flipped))


#: One hand-made body per check of the two call-free decoders (``a`` = 0x61).
_MALFORMED = {
    "lz4": [
        (b"\xf0", "truncated length extension"),
        (b"\x50ab", "literal run past end"),
        (b"\x10a\x01", "truncated match offset"),
        (b"\x1fa\x01\x00\xff", "truncated length extension"),
        (b"\x10a\x00\x00", "invalid match offset 0"),
        (b"\x10a\x05\x00", "invalid match offset 5"),
        (b"\x10a\x01\x00", "reconstructed 5 bytes"),
    ],
    "lzo": [
        (b"\x01a\x20", "truncated match"),
        (b"\x00\x80", "varint: truncated"),
        (b"\x00" + b"\x80" * 11, "varint: overlong"),
        (b"\x05ab", "literal run past end"),
        (b"\x01a\x20\x04", "invalid match offset 5"),
        (b"\x01a\xe0\x00\x80", "varint: truncated"),
        # Would replicate ``a`` 2**35 times (MemoryError before PR 20).
        (b"\x01a\xe0\x00\xff\xff\xff\xff\x7f", "match past declared size"),
        (b"\x01a\x20\x00", "reconstructed 4 bytes"),
    ],
}


@pytest.mark.parametrize("name", sorted(_MALFORMED))
def test_lz_decoders_reject_each_malformed_form(name: str) -> None:
    for body, message in _MALFORMED[name]:
        with pytest.raises(CorruptDataError, match=message):
            get_codec(name).decompress(frame_wrap(MODE_CODED, 64, body))


@pytest.mark.parametrize("name", codec_names())
def test_random_garbage_decodes_or_raises_typed(name: str) -> None:
    codec = get_codec(name)
    rng = random.Random(SEED ^ zlib.crc32(name.encode()) ^ 1)
    for _ in range(ROUNDS):
        _decode_contract(codec, rng.randbytes(rng.randrange(2048)))


@pytest.mark.parametrize("name", codec_names())
def test_truncated_payload_decodes_or_raises_typed(name: str) -> None:
    codec = get_codec(name)
    rng = random.Random(SEED ^ zlib.crc32(name.encode()) ^ 2)
    for _ in range(ROUNDS):
        data = _corpus(rng, _MAX_LEN.get(name, 4096))
        payload = codec.compress(data)
        if not payload:
            continue
        cut = rng.randrange(len(payload))
        _decode_contract(codec, payload[:cut])


@pytest.mark.parametrize("name", codec_names())
def test_bitflipped_payload_decodes_or_raises_typed(name: str) -> None:
    codec = get_codec(name)
    rng = random.Random(SEED ^ zlib.crc32(name.encode()) ^ 3)
    for _ in range(ROUNDS):
        data = _corpus(rng, _MAX_LEN.get(name, 4096))
        payload = bytearray(codec.compress(data))
        if not payload:
            continue
        for _ in range(rng.randrange(1, 4)):
            payload[rng.randrange(len(payload))] ^= 1 << rng.randrange(8)
        _decode_contract(codec, bytes(payload))


@pytest.mark.parametrize("name", ["bdi", "fpc"])
def test_cacheline_raw_body_decodes_or_raises_typed(name: str) -> None:
    """The unframed cache-line decoders share the decode contract.

    The framed tests above only reach ``bdi_decode``/``fpc_decode``
    through an intact frame; a corrupt *body* behind a valid frame is the
    case the read path actually sees after a payload bit-flip, so the raw
    decoders get their own adversarial pass: random bodies, truncated
    encodings, and flipped control/prefix sections against arbitrary
    expected sizes must return bytes or raise CodecError — never a numpy
    shape error or overallocation.
    """
    from repro.codecs.cacheline import bdi_decode, bdi_encode, fpc_decode, fpc_encode

    encode, decode = (
        (bdi_encode, bdi_decode) if name == "bdi" else (fpc_encode, fpc_decode)
    )
    rng = random.Random(SEED ^ zlib.crc32(name.encode()) ^ 4)
    for _ in range(ROUNDS * 4):
        size = rng.randrange(4096)
        mode = rng.randrange(3)
        if mode == 0:
            body = rng.randbytes(rng.randrange(2048))
        else:
            body = bytearray(encode(_corpus(rng, 2048)))
            if not body:
                body = bytearray(b"\x00")
            if mode == 1:
                body = bytes(body[: rng.randrange(len(body))])
            else:
                for _ in range(rng.randrange(1, 4)):
                    body[rng.randrange(len(body))] ^= 1 << rng.randrange(8)
                body = bytes(body)
        try:
            out = decode(bytes(body), size)
        except CodecError:
            continue
        assert isinstance(out, bytes) and len(out) == size
