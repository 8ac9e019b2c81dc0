"""TCO cost model: modeled dollars per tier, derived from the TierSpecs.

Real tier pricing tracks speed: DRAM costs orders of magnitude more per
GB·s than a parallel file system. The reproduction has no price sheet, so
the model derives one from the only spec field that cleanly orders the
hierarchy — access latency — and anchors it at the slowest tier:

    price(tier) = storage_price * sqrt(latency_slowest / latency_tier)

per GB·second. On the Ares specs (DESIGN.md §2) that yields roughly
1x (PFS) : 5x (burst buffer) : 16x (NVMe) : 71x (RAM) — a compressed but
correctly-ordered version of real $/GB spreads, and monotone for *any*
hierarchy whose latencies order its tiers. The square root keeps the top
tier affordable enough that hot data can earn it (docs/LIFECYCLE.md walks
a worked example).

The second half of the objective prices time: every expected second a
reader waits (tier I/O + codec decode) costs ``access_price`` modeled
dollars. Storage cost pushes cold data down; access cost pulls hot data
up; the daemon migrates when the net saving amortizes the migration's own
I/O within the configured horizon.
"""

from __future__ import annotations

import math

from ..codecs.profiles import get_profile
from ..units import MB, GiB

__all__ = ["TierCostModel"]


class TierCostModel:
    """Modeled $/GB·s per tier plus the access/migration cost terms.

    Args:
        hierarchy: The :class:`~repro.tiers.StorageHierarchy` to price.
        storage_price: Dollars per GB·second on the slowest tier.
        access_price: Dollars per second of expected reader wait.
    """

    def __init__(
        self,
        hierarchy,
        storage_price: float = 1.0,
        access_price: float = 1.0,
    ) -> None:
        self.hierarchy = hierarchy
        self.access_price = access_price
        anchor = max(tier.spec.latency for tier in hierarchy)
        if anchor <= 0:
            anchor = 1.0
        self._per_byte_second: dict[str, float] = {}
        for tier in hierarchy:
            latency = tier.spec.latency if tier.spec.latency > 0 else anchor
            grade = math.sqrt(anchor / latency)
            self._per_byte_second[tier.spec.name] = (
                storage_price * grade / GiB
            )

    def dollars_per_gb_s(self, tier_name: str) -> float:
        """The tier's modeled price in dollars per GB·second."""
        return self._per_byte_second[tier_name] * GiB

    def storage_rate(self, tier_name: str, nbytes: int) -> float:
        """Dollars per second to keep ``nbytes`` resident on the tier."""
        return nbytes * self._per_byte_second[tier_name]

    def read_seconds(self, tier, nbytes: int, codec: str, length: int) -> float:
        """Expected modeled seconds for one read of a blob: tier I/O on
        the stored footprint plus nominal decode time on the logical
        length (``codec == "none"`` decodes for free)."""
        seconds = tier.io_seconds(nbytes)
        if codec != "none":
            profile = get_profile(codec)
            seconds += length / (profile.decompress_mbps * MB)
        return seconds

    def access_rate(
        self, tier, nbytes: int, codec: str, length: int, read_rate: float
    ) -> float:
        """Dollars per second of expected reader wait at ``read_rate``
        reads per modeled second."""
        return (
            read_rate
            * self.read_seconds(tier, nbytes, codec, length)
            * self.access_price
        )

    def cost_rate(
        self, tier, nbytes: int, codec: str, length: int, read_rate: float
    ) -> float:
        """The full objective for one blob: storage + access, $/second."""
        return self.storage_rate(tier.spec.name, nbytes) + self.access_rate(
            tier, nbytes, codec, length, read_rate
        )

    def migration_dollars(
        self,
        src,
        dst,
        src_bytes: int,
        dst_bytes: int,
        old_codec: str,
        new_codec: str,
        length: int,
    ) -> float:
        """One-time cost of moving a blob: read it off the source, decode
        the old codec, encode the new one, write the destination — every
        modeled second priced at ``access_price`` (migration I/O competes
        with readers for the same lanes)."""
        seconds = src.io_seconds(src_bytes) + dst.io_seconds(dst_bytes)
        if old_codec != "none":
            seconds += length / (get_profile(old_codec).decompress_mbps * MB)
        if new_codec != "none":
            seconds += length / (get_profile(new_codec).compress_mbps * MB)
        return seconds * self.access_price

    def expected_ratio(self, codec: str) -> float:
        """Generic expected compression ratio of a codec: the mean of its
        profile's distribution hints (1.0 when the profile carries none).
        Sizes every re-encode candidate the lifecycle scan ranks and
        every re-encoded *modeled* piece; it has not seen the blob, so it
        ranks — it does not decide what fits (``relocate`` does)."""
        if codec == "none":
            return 1.0
        hints = get_profile(codec).ratio_hints
        if not hints:
            return 1.0
        return sum(hints.values()) / len(hints)
