"""What a migration costs in codec work, as an exact count.

A timing gate on ``lifecycle.step`` drowns in the box's noise; the number
of codec ``compress`` calls made under ``relocate`` repeats exactly. The
budget: **one encode per re-encoded piece that landed**, plus an
enumerated list of knife-edge attempts — the predictor said the re-encode
fits, the real bytes did not, and the copies were rolled back.

Measured with this suite's seed fixture, before ``relocate`` sized a
re-encode ahead of its codec (PR 21's parent):

* ``real_mixed``: 12 ``relocate`` calls ran 15 encodes to land 6
  re-encoded pieces — 7 attempts (9 encodes) were encoded and rolled back;
* zipf trace: 63 calls, 63 encodes, 33 landed re-encoded pieces — 28
  encoded and rolled back, and 2 ``lz4 -> lz4`` landings re-ran a
  pure-Python encoder to produce the bytes they already held.

Now: 6 and 33 encodes, every refusal ``predicted_unfit``, no knife edge on
either trace — with the same ledger (``test_ledger_golden.py``).
"""

from __future__ import annotations

import pytest

from repro.core import HCompress, HCompressConfig
from repro.core.manager import Move
from repro.lifecycle import LifecycleConfig, Migration
from repro.tiers import ares_hierarchy
from repro.units import MiB

from .traces import recorded

#: trace -> (relocate calls, landed re-encoded pieces, refusals by reason)
EXPECTED = {
    "real_mixed": (12, 6, {"predicted_unfit": 7}),
    "zipf": (63, 33, {"predicted_unfit": 28}),
}

#: Attempts ("step/task") whose prediction fit and whose bytes did not.
KNIFE_EDGES: dict[str, list[str]] = {"real_mixed": [], "zipf": []}


@pytest.mark.parametrize("name", list(EXPECTED))
def test_one_encode_per_landed_reencode(name: str, relocation_traces) -> None:
    trace = relocation_traces[name]
    calls, landed, refused = EXPECTED[name]
    assert trace.relocations == calls
    assert trace.landed_reencodes == landed
    assert trace.encoded_then_refused == KNIFE_EDGES[name]
    assert trace.encodes == landed  # + the knife edges' encodes, were there any
    assert trace.refused == refused


def test_same_codec_move_copies_the_stored_bytes(seed, gamma_f64) -> None:
    hierarchy = ares_hierarchy(4 * MiB, 8 * MiB, 64 * MiB, nodes=2)
    engine = HCompress(
        hierarchy,
        HCompressConfig(lifecycle=LifecycleConfig(enabled=True)),
        seed=seed,
    )
    engine.compress(gamma_f64, task_id="t")
    src, dst = list(hierarchy)[1], list(hierarchy)[-1]
    engine.manager.relocate("t", [Move(0, (src,), "lz4")], cause="lifecycle")
    (entry,) = engine.manager.task_entries("t")
    blob = src.get(entry.key)
    plan = Migration(
        "t", src.spec.name, dst.spec.name, entry.codec, entry.codec,
        "demote", 0, 0.0, 0.0,
    )
    with recorded() as trace:
        done = engine.lifecycle._migrate(plan)
    assert trace.encodes == 0
    assert done.bytes_moved == len(blob)
    (moved,) = engine.manager.task_entries("t")
    assert dst.get(moved.key) == blob
    assert moved[1:] == entry[1:]  # length, codec, CRC and digest ride along
    assert engine.decompress("t").data == gamma_f64
    engine.close()
