"""Configuration of the end-to-end integrity subsystem (``repro.scrub``)."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ScrubConfig", "READ_REPAIR_RETRIES"]

#: Rung 1 of the repair ladder (docs/INTEGRITY.md), on foreground reads
#: and scrub steps alike: extra re-reads attempted on a checksum mismatch
#: before escalating (transient media/bus corruption heals on re-read).
READ_REPAIR_RETRIES = 2


@dataclass(frozen=True)
class ScrubConfig:
    """End-to-end integrity policy: content digests + background scrubbing.

    Everything defaults off; a default-constructed engine records no
    digests, constructs no scrubber, and produces byte-identical
    catalogs, journals, and snapshots to a build without the subsystem.

    Attributes:
        enabled: Run the background :class:`~repro.scrub.Scrubber`
            daemon. Like the lifecycle daemon it is strictly
            cooperative — it scans only when ``step()`` is called.
        content_digests: Record an end-to-end digest of every
            materialised piece's *uncompressed* bytes
            (:func:`repro.hashing.content_hash64`) in its catalog entry
            at write, batch, migration, and repair time. Digest-less
            entries keep the legacy 4-element serialized form, so old
            checkpoints restore and feature-off state is byte-identical.
        verify_reads: Verify the content digest on every decode, after
            the per-tier CRC — catches corruption the stored-blob CRC
            cannot see. Requires ``content_digests``.
        scan_interval: Modeled seconds between scrub steps (the daemon
            self-rate-limits; ``step(force=True)`` overrides).
        bytes_per_step: Re-read budget per step, in accounted bytes. The
            walk stops starting new tasks once the budget is consumed
            (at least one task is always scanned), bounding the
            foreground interference of one step.
        max_repairs_per_step: Cap on repair *rewrites* executed in one
            step; corruptions found beyond it wait for the next step.
        max_brownout_level: Highest QoS brownout rung at which scrubbing
            still runs; above it the step pauses (counted) — background
            re-reads must never compound an overload.
    """

    enabled: bool = False
    content_digests: bool = False
    verify_reads: bool = False
    scan_interval: float = 8.0
    bytes_per_step: int = 8 * 1024 * 1024
    max_repairs_per_step: int = 4
    max_brownout_level: int = 0

    def __post_init__(self) -> None:
        if self.verify_reads and not self.content_digests:
            raise ValueError(
                "verify_reads requires content_digests (there would be "
                "no recorded digest to verify)"
            )
        if self.scan_interval < 0:
            raise ValueError("scan_interval must be >= 0")
        if self.bytes_per_step < 1:
            raise ValueError("bytes_per_step must be >= 1")
        if self.max_repairs_per_step < 1:
            raise ValueError("max_repairs_per_step must be >= 1")
        if self.max_brownout_level < 0:
            raise ValueError("max_brownout_level must be >= 0")
