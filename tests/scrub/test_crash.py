"""Crash-consistency of scrub repairs: the swept ``scrub.*`` sites."""

from __future__ import annotations

import pytest

from repro.errors import HCompressError
from repro.faults import run_scenario, scenario
from repro.recovery import CRASH_SITES

SCRUB_SITES = tuple(s for s in CRASH_SITES if s.startswith("scrub."))


class TestConfig:
    def test_corrupt_every_requires_scrub(self) -> None:
        with pytest.raises(HCompressError):
            scenario("crash", corrupt_every=2)

    def test_scrub_sites_are_registered(self) -> None:
        assert SCRUB_SITES == (
            "scrub.pre_repair",
            "scrub.post_copy",
            "scrub.post_journal",
            "scrub.post_evict",
        )


class TestScrubCrashSites:
    @pytest.mark.parametrize("site", SCRUB_SITES)
    def test_crash_mid_repair_holds(self, site) -> None:
        outcome = run_scenario(scenario("scrub", crash_site=site))
        assert outcome.crashed, site
        assert outcome.holds, outcome.summary()
        assert outcome.corruptions_planted > 0
        # The restored store ends fully healed: nothing quarantined,
        # fsck-clean, every acked write byte-identical.
        assert "fsck_clean" in outcome.config.invariants
        assert "fsck_clean" not in outcome.violated

    def test_uncrashed_scrub_run_heals_everything(self) -> None:
        outcome = run_scenario(scenario("scrub"))
        assert not outcome.crashed
        assert outcome.holds, outcome.summary()
        assert outcome.corruptions_planted > 0
        assert outcome.scrub_repairs >= outcome.corruptions_planted
        assert "fsck_clean" not in outcome.violated
