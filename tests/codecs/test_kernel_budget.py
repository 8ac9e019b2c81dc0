"""The LZ kernels' per-token cost, as a deterministic call count.

On real bytes the matcher emits a short match every few bytes, so the
engine's write speed is set by what the lz4 / lzo kernels do *per token*.
A timing gate would drown in scheduler noise; the number of Python-level
calls a ``compress`` or ``decompress`` makes repeats exactly. The gate
keeps a per-token helper call from creeping back in: the matcher and the
decoders are single loops, and the serialisers touch tokens only through
numpy, apart from the rare ones that carry a length extension.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.codecs import get_codec, lz4_codec, lzo_codec
from repro.codecs.lz77 import find_tokens
from repro.datagen import synthetic_buffer
from repro.units import KiB

#: Python calls per token. Measured on the buffer below (8 191 / 8 194
#: tokens): lz4 43 calls per compress (0.005 a token) and 4 per decompress,
#: lzo 59 and 4 — numpy's Python wrappers, plus one ``_put_length`` /
#: ``write_varint`` per token that carries a length extension (and, in
#: lzo's decoder, one ``read_varint`` per literal run of 32+ bytes).
#: Before the kernels were rewritten (PR 20): lz4 16 391 / 8 195 (2.0 /
#: 1.0 a token: ``_extend_match`` + ``Token.__init__``, then
#: ``copy_match``), lzo 32 774 / 8 198 (4.0 / 1.0: those plus
#: ``_emit_literals`` + ``_emit_match``).
BUDGET = 0.05

_PARAMS = {"lz4": lz4_codec._PARAMS, "lzo": lzo_codec._PARAMS}


def _python_calls(fn) -> int:
    """Python-level calls made by ``fn()`` (C functions do not count)."""
    count = 0

    def profile(_frame, event, _arg) -> None:
        nonlocal count
        if event == "call":
            count += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return count


@pytest.mark.parametrize("name", sorted(_PARAMS))
def test_kernels_make_no_call_per_token(name: str) -> None:
    codec = get_codec(name)
    data = synthetic_buffer("float64", "gamma", 64 * KiB, np.random.default_rng(0))
    tokens = len(find_tokens(data, _PARAMS[name])[0])
    assert tokens > 5_000, "the buffer must be token-dense to gate anything"
    payload = codec.compress(data)
    for fn in (lambda: codec.compress(data), lambda: codec.decompress(payload)):
        calls = _python_calls(fn)
        assert calls == _python_calls(fn), "the count must repeat exactly to be a gate"
        assert calls / tokens <= BUDGET
