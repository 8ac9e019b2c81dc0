"""Every compressed byte of every from-scratch codec, pinned.

``tests/codecs/`` otherwise only round-trips, so a kernel rewrite that
changed a stored byte would show nowhere but in the end-to-end benchmark's
``stored_bytes_per_user_byte``. ``tests/golden/codec_digests.txt`` holds
``len`` and CRC32 of ``compress(x)`` for every registered from-scratch
codec over the input shapes the engine sees (the 4 dtypes × 4 distributions
of ``synthetic_buffer``, log-like text) and the ones that corner an LZ
kernel (zeros, incompressible, period-7, literals-then-matches), at sizes
that straddle every stored-mode and end-of-block threshold.

It was recorded before the LZ kernels were rewritten (PR 20); an
optimisation must reproduce it exactly, under any ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import zlib
from functools import cache
from pathlib import Path

import numpy as np
import pytest

from repro.codecs import get_codec, iter_codecs
from repro.datagen import DISTRIBUTIONS, DTYPES, synthetic_buffer, synthetic_text
from repro.units import KiB

from .test_fuzz import _MAX_LEN  # bsc's pure-Python BWT is capped at its fuzz size

GOLDEN = Path(__file__).resolve().parent.parent / "golden/codec_digests.txt"

SIZES = (0, 1, 15, 16, 17, 300, 4 * KiB, 64 * KiB, 256 * KiB)

CODECS = sorted(
    codec.meta.name
    for codec in iter_codecs()
    if not codec.meta.stdlib and codec.meta.name != "none"
)


@cache
def _shapes(size: int) -> dict[str, bytes]:
    """The inputs of one size, a pure function of the size."""
    rng = np.random.default_rng(size)
    shapes = {
        f"{dtype}.{distribution}": synthetic_buffer(dtype, distribution, size, rng)
        for dtype in DTYPES
        for distribution in DISTRIBUTIONS
    }
    shapes["text"] = synthetic_text(size, rng)
    shapes["zeros"] = bytes(size)
    noise = rng.integers(0, 256, size, dtype=np.uint8).tobytes()
    shapes["incompressible"] = noise
    shapes["period7"] = (b"\x01\x02\x03\x04\x05\x06\x07" * (size // 7 + 1))[:size]
    # Literals first, then back-references of every length into them.
    head = noise[: (size + 1) // 2]
    tail = bytearray()
    while head and len(tail) < size - len(head):
        start = int(rng.integers(0, len(head)))
        tail += head[start : start + int(rng.integers(3, 400))]
    shapes["literals_then_matches"] = head + bytes(tail[: size - len(head)])
    return shapes


def digest_lines(name: str) -> list[str]:
    codec = get_codec(name)
    lines = []
    for size in SIZES:
        if size > _MAX_LEN.get(name, size):
            continue
        for shape, data in _shapes(size).items():
            assert len(data) == size
            payload = codec.compress(data)
            lines.append(
                f"{name} {shape} {size} {len(payload)} {zlib.crc32(payload):08x}"
            )
    return lines


def test_every_from_scratch_codec_is_pinned() -> None:
    pinned = {line.split()[0] for line in GOLDEN.read_text().splitlines()}
    assert pinned == set(CODECS)


@pytest.mark.parametrize("name", CODECS)
def test_compressed_bytes_match_the_golden(name: str) -> None:
    """Regenerate on purpose with ``python -m tests.codecs.test_golden_digests``
    (``PYTHONPATH=src``) — never to make a kernel change pass."""
    golden = [
        line for line in GOLDEN.read_text().splitlines() if line.split()[0] == name
    ]
    assert digest_lines(name) == golden


if __name__ == "__main__":
    GOLDEN.write_text(
        "\n".join(line for name in CODECS for line in digest_lines(name)) + "\n"
    )
