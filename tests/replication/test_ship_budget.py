"""What shipping one acked write costs, as exact call counts.

A wall-clock gate on a ~4 µs saving drowns in host noise; the number of
JSON encodes and decodes per shipped record repeats exactly. The journal
builds a record's wire frame once and hands it to its observers, the
standby decodes it once to verify it, and writes it once.
"""

from __future__ import annotations

import sys

from repro.core import HCompressConfig
from repro.core.config import RecoveryConfig
from repro.recovery import JournalRecord
from repro.replication import ReplicationConfig
from repro.shard import ShardConfig, ShardedHCompress
from repro.tiers import ares_specs
from repro.units import GiB, MiB

WRITES = 12


def _calls(fn, *codes) -> list[int]:
    """How often ``fn()`` enters each of the given code objects."""
    counts = dict.fromkeys(codes, 0)

    def profile(frame, event, _arg) -> None:
        if event == "call" and frame.f_code in counts:
            counts[frame.f_code] += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return [counts[code] for code in codes]


def test_one_encode_one_decode_one_write_per_shipped_record(
    seed, tmp_path, gamma_f64
) -> None:
    sharded = ShardedHCompress(
        ares_specs(16 * MiB, 32 * MiB, 1 * GiB, nodes=1),
        HCompressConfig(recovery=RecoveryConfig(fsync=False, fsync_every=8)),
        ShardConfig(
            shards=1,
            directory=tmp_path / "deploy",
            replication=ReplicationConfig(enabled=True, replicas=1),
        ),
        seed=seed,
    )
    standby = sharded.replication.standbys[0][0]
    sharded.compress(gamma_f64, task_id="warm")
    shipped = sharded.replication.shipped_records[0]
    durable_writes = standby.journal.syncs

    def write() -> None:
        for i in range(WRITES):
            sharded.compress(gamma_f64, task_id=f"t{i}")

    encodes, decodes = _calls(
        write,
        JournalRecord.to_payload.__code__,
        JournalRecord.from_payload.__func__.__code__,
    )
    assert sharded.replication.shipped_records[0] - shipped == WRITES
    assert encodes == WRITES  # 2 per write while ``ship`` re-encoded
    assert decodes == WRITES  # the standby verifies what it persists
    assert standby.journal.syncs - durable_writes == WRITES
    assert standby.journal.pending == 0
    assert standby.journal.durable_lsn == standby.applied_lsn == WRITES + 1
    sharded.close()
