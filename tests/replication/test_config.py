"""ReplicationConfig: validation and the feature-off default shape."""

from __future__ import annotations

import pytest

from repro.replication import ReplicationConfig, replica_dirname


class TestDefaults:
    def test_disabled_by_default(self) -> None:
        config = ReplicationConfig()
        assert not config.enabled
        assert config.replicas == 1

    def test_frozen(self) -> None:
        config = ReplicationConfig()
        with pytest.raises(AttributeError):
            config.enabled = True  # type: ignore[misc]


class TestValidation:
    def test_replicas_must_be_positive(self) -> None:
        with pytest.raises(ValueError):
            ReplicationConfig(replicas=0)

    def test_promotion_window_must_be_nonnegative(self) -> None:
        with pytest.raises(ValueError):
            ReplicationConfig(promotion_seconds=-0.1)

    def test_zero_window_is_legal(self) -> None:
        assert ReplicationConfig(promotion_seconds=0.0).promotion_seconds == 0


def test_replica_dirname_is_flat_and_zero_padded() -> None:
    assert replica_dirname(3, 1) == "shard-03-r1"
    assert replica_dirname(12, 0) == "shard-12-r0"
