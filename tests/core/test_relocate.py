"""``CompressionManager.relocate``: the one copy -> journal -> evict primitive.

Lifecycle migration and scrub repair are policy over this call; their
crash sweeps (tests/lifecycle/test_crash.py, tests/scrub/test_crash.py)
cover the crash windows. These tests pin the primitive's own contract:
what it verifies, what a refusal leaves behind (nothing), and how it
names the extents it creates.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.core import HCompress, HCompressConfig
from repro.core.config import RecoveryConfig, ScrubConfig
from repro.core.manager import CatalogEntry, CompressionManager, Move
from repro.faults import LatentCorruptionInjector
from repro.recovery import JOURNAL_NAME
from repro.tiers import Tier, TierSpec, ares_hierarchy
from repro.units import GiB, KiB
from tests.lifecycle.traces import recorded


@pytest.fixture()
def engine(seed, gamma_f64, tmp_path):
    config = HCompressConfig(
        recovery=RecoveryConfig(enabled=True, directory=tmp_path, fsync=False),
        scrub=ScrubConfig(content_digests=True, verify_reads=True),
    )
    hierarchy = ares_hierarchy(64 * KiB, 128 * KiB, 1 * GiB, nodes=2)
    engine = HCompress(hierarchy, config, seed=seed)
    written = engine.compress(gamma_f64, task_id="t")
    assert len(written.pieces) >= 2  # tiny RAM tier: the task must split
    yield engine
    engine.close()


def _state(engine) -> tuple:
    """Ledger, catalog and journal bytes — everything a refusal must not
    touch."""
    engine.journal.sync()
    return (
        {
            tier.spec.name: (tier.used, sorted(tier.keys()))
            for tier in engine.hierarchy
        },
        engine.manager.catalog_snapshot(),
        (engine.config.recovery.directory / JOURNAL_NAME).read_bytes(),
        engine.journal.last_lsn,
    )


def _full_tier() -> Tier:
    return Tier(TierSpec(name="full", capacity=8, bandwidth=1e9,
                         latency=1e-6, lanes=1))


@contextmanager
def _tier_calls():
    """Count ``Tier.put`` / ``Tier.evict`` calls, on any tier."""
    calls = {"put": 0, "evict": 0}

    def counting(name, method):
        def counted(tier, *args, **kwargs):
            calls[name] += 1
            return method(tier, *args, **kwargs)
        return counted

    with pytest.MonkeyPatch.context() as patch:
        for name in calls:
            patch.setattr(Tier, name, counting(name, getattr(Tier, name)))
        yield calls


def _everywhere(engine, codec=None) -> list[Move]:
    """Every piece of task ``t`` to the bottom tier."""
    pfs = (list(engine.hierarchy)[-1],)
    return [
        Move(index, pfs, codec)
        for index in range(len(engine.manager.task_keys("t")))
    ]


class TestRelocate:
    def test_moves_reencodes_and_journals_once(self, engine, gamma_f64) -> None:
        manager = engine.manager
        old_keys = manager.task_keys("t")
        lsn = engine.journal.last_lsn
        done = manager.relocate(
            "t", _everywhere(engine, "zlib"), cause="lifecycle"
        )
        assert done is not None
        assert done.keys == [f"t/g1/{i}" for i in range(len(old_keys))]
        assert set(done.tiers) == {list(engine.hierarchy)[-1].spec.name}
        assert manager.task_keys("t") == done.keys
        assert {e.codec for e in manager.task_entries("t")} == {"zlib"}
        assert engine.journal.last_lsn == lsn + 1  # one commit record
        assert all(engine.hierarchy.find(key) is None for key in old_keys)
        assert done.bytes_moved == sum(
            engine.hierarchy.find(k).extent(k).accounted_size
            for k in done.keys
        )
        assert engine.decompress("t").data == gamma_f64
        again = manager.relocate("t", _everywhere(engine), cause="lifecycle")
        assert again.keys == [f"t/g2/{i}" for i in range(len(old_keys))]
        assert engine.decompress("t").data == gamma_f64

    def test_rollback_leaves_ledger_catalog_and_journal_identical(
        self, engine, gamma_f64
    ) -> None:
        before = _state(engine)
        moves = _everywhere(engine, "zlib")
        moves[-1] = moves[-1]._replace(targets=(_full_tier(),))
        # A predictor that lies low waves the call through: every piece
        # but the last is encoded and copied before the last one's real
        # bytes fit no target, and the half-placed copies are rolled back.
        engine.manager.predict_stored = lambda data, codec: 1
        with _tier_calls() as calls, recorded() as trace:
            assert engine.manager.relocate("t", moves, cause="lifecycle") is None
        assert trace.encodes == len(moves)
        assert calls["put"] == calls["evict"] == len(moves) - 1
        assert engine.manager.relocations_refused == {"unfit_after_encode": 1}
        assert _state(engine) == before
        assert engine.decompress("t").data == gamma_f64

    @pytest.mark.parametrize("unfit", ["every", "last"])
    def test_predicted_unfit_is_refused_before_any_codec_or_tier_work(
        self, engine, gamma_f64, unfit
    ) -> None:
        before = _state(engine)
        moves = _everywhere(engine, "zlib")
        first = 0 if unfit == "every" else len(moves) - 1
        moves[first:] = [
            move._replace(targets=(_full_tier(),)) for move in moves[first:]
        ]
        with _tier_calls() as calls, recorded() as trace:
            assert engine.manager.relocate("t", moves, cause="lifecycle") is None
        assert trace.encodes == 0
        assert calls == {"put": 0, "evict": 0}
        assert engine.manager.relocations_refused == {"predicted_unfit": 1}
        assert _state(engine) == before
        assert engine.decompress("t").data == gamma_f64

    def test_predictions_debit_a_running_remaining(self, engine) -> None:
        moves = _everywhere(engine, "zlib")
        sizes = []

        def sized(data, codec):
            sizes.append(engine.predict_stored(data, codec))
            return sizes[-1]

        engine.manager.predict_stored = sized
        assert engine.manager.relocate("t", moves, cause="lifecycle")
        # Room for every piece but one byte of the last: each fits alone.
        snug = Tier(TierSpec(name="snug", capacity=sum(sizes) - 1,
                             bandwidth=1e9, latency=1e-6, lanes=1))
        moves = [move._replace(targets=(snug,), codec="lzo") for move in moves]
        engine.manager.predict_stored = lambda data, codec: sizes.pop(0)
        with recorded() as trace:
            assert engine.manager.relocate("t", moves, cause="lifecycle") is None
        assert trace.encodes == 0 and not snug.keys()

    def test_moves_that_keep_their_codec_never_ask_the_predictor(
        self, engine, gamma_f64
    ) -> None:
        def never(data, codec):
            raise AssertionError("a copy is sized by its stored bytes")

        engine.manager.predict_stored = never
        assert engine.manager.relocate("t", _everywhere(engine), cause="scrub")
        assert engine.decompress("t").data == gamma_f64

    def test_a_manager_without_an_engine_relocates_unsized(self, engine) -> None:
        bare = CompressionManager(engine.pool, engine.shi)
        bare.restore_catalog(engine.manager.catalog_snapshot())
        assert bare.predict_stored is None
        done = bare.relocate("t", _everywhere(engine, "zlib"), cause="lifecycle")
        assert {e.codec for e in bare.task_entries("t")} == {"zlib"}
        assert done.keys == bare.task_keys("t")

    def test_restored_engine_sizes_its_first_relocation(
        self, engine, seed, tmp_path
    ) -> None:
        engine.checkpoint()
        restored = HCompress.restore(
            tmp_path, engine.hierarchy, engine.config, seed=seed
        )
        moves = [
            move._replace(targets=(_full_tier(),))
            for move in _everywhere(restored, "zlib")
        ]
        with recorded() as trace:
            assert restored.manager.relocate("t", moves, cause="lifecycle") is None
        assert trace.encodes == 0
        assert restored.manager.relocations_refused == {"predicted_unfit": 1}
        restored.close()

    @pytest.mark.parametrize("codec", [None, "zlib"])
    def test_corrupt_source_is_refused(self, engine, codec) -> None:
        LatentCorruptionInjector(engine.hierarchy, seed=1).corrupt()
        before = _state(engine)
        moves = _everywhere(engine, codec)
        assert engine.manager.relocate("t", moves, cause="lifecycle") is None
        assert engine.manager.relocations_refused == {"corrupt": 1}
        assert _state(engine) == before

    def test_supplied_blob_must_pass_validate_entry(
        self, engine, gamma_f64
    ) -> None:
        manager = engine.manager
        key = manager.task_keys("t")[0]
        tier = engine.hierarchy.find(key)
        pristine = tier.get(key)
        rotten = bytes([pristine[0] ^ 0xFF]) + pristine[1:]
        before = _state(engine)
        bad = Move(0, (tier,), blob=rotten)
        assert manager.relocate("t", [bad], cause="scrub") is None
        assert _state(engine) == before
        LatentCorruptionInjector(engine.hierarchy, seed=1).corrupt(keys=[key])
        manager.quarantined.add(key)
        # In place when it fits, else the first tier with room (the
        # scrubber's target order).
        targets = (tier, *(t for t in engine.hierarchy if t is not tier))
        good = Move(0, targets, blob=pristine)
        done = manager.relocate("t", [good], cause="scrub")
        assert done.keys == ["t/g1/0"]
        assert engine.hierarchy.find("t/g1/0").spec.name == done.tiers[0]
        assert manager.task_keys("t")[0] == "t/g1/0"
        untouched = [entry[0] for entry in before[1]["t"]][1:]
        assert manager.task_keys("t")[1:] == untouched
        assert key not in manager.quarantined
        assert engine.hierarchy.find(key) is None
        assert engine.decompress("t").data == gamma_f64

    def test_unknown_task_is_refused(self, engine) -> None:
        assert engine.manager.relocate("ghost", [], cause="scrub") is None
        assert engine.manager.relocations_refused == {"lost": 1}

    def test_generation_keys_never_collide(self) -> None:
        fresh = [CatalogEntry("t/0", 10, "lz4", None)]
        assert CompressionManager._next_generation("t", fresh) == 1
        migrated = [CatalogEntry("t/g3/0", 10, "lzma", None)]
        assert CompressionManager._next_generation("t", migrated) == 4
