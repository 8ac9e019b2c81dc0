"""The hcompress command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self) -> None:
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_profile_defaults(self) -> None:
        args = build_parser().parse_args(["profile"])
        assert args.mode == "nominal"
        assert args.sizes == ["8", "32"]

    def test_report_flags(self) -> None:
        args = build_parser().parse_args(["report", "--fast"])
        assert args.fast

    def test_metrics_defaults(self) -> None:
        args = build_parser().parse_args(["metrics"])
        assert (args.nprocs, args.steps, args.scale) == (320, 10, 4096)
        assert not args.json
        assert args.output is None

    def test_trace_defaults(self) -> None:
        args = build_parser().parse_args(["trace"])
        assert (args.nprocs, args.steps, args.scale) == (320, 10, 4096)


class TestCommands:
    def test_profile_writes_seed(self, tmp_path, capsys) -> None:
        out = tmp_path / "seed.json"
        code = main(["profile", "--output", str(out), "--sizes", "4", "8"])
        assert code == 0
        from repro.ccp import load_seed

        seed = load_seed(out)
        assert len(seed.observations) > 100

    def test_profile_with_signature(self, tmp_path) -> None:
        out = tmp_path / "seed.json"
        assert main([
            "profile", "--output", str(out), "--sizes", "4", "8",
            "--signature",
        ]) == 0
        from repro.ccp import load_seed

        assert load_seed(out).system_signature

    def test_codecs_listing(self, capsys) -> None:
        assert main(["codecs", "--kib", "16"]) == 0
        output = capsys.readouterr().out
        assert "zlib" in output
        assert "ratio" in output

    def test_demo_roundtrip(self, capsys) -> None:
        assert main(["demo", "--kib", "64"]) == 0
        assert "round-trip OK" in capsys.readouterr().out

    def test_stats_reports_cache_counters(self, capsys) -> None:
        assert main(["stats", "--tasks", "32", "--kib", "16"]) == 0
        output = capsys.readouterr().out
        assert "plan cache  : on" in output
        assert "hits=" in output
        assert "DP memo" in output
        assert "executor    : on" in output

    def test_stats_no_cache(self, capsys) -> None:
        assert main([
            "stats", "--tasks", "8", "--kib", "16", "--no-cache"
        ]) == 0
        output = capsys.readouterr().out
        assert "plan cache  : off" in output
        assert "hits=0 misses=0" in output

    def test_stats_zero_tasks_is_well_formed(self, capsys) -> None:
        """Regression: an empty burst must yield a complete report, not a
        division error or a partial table."""
        assert main(["stats", "--tasks", "0", "--kib", "16"]) == 0
        output = capsys.readouterr().out
        assert "burst: 0 x" in output
        assert "(0 tasks/s)" in output
        assert "plan cache  :" in output
        assert "cost model  :" in output

    def test_stats_json_zero_tasks(self, capsys) -> None:
        assert main(["stats", "--tasks", "0", "--kib", "16", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["burst"]["tasks"] == 0
        assert report["burst"]["tasks_per_second"] == 0.0
        assert report["plan_cache"]["hits"] == 0

    def test_stats_json_counts_the_burst(self, capsys) -> None:
        assert main(["stats", "--tasks", "16", "--kib", "16", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["plans"]["tasks_planned"] == 16
        hits = report["plan_cache"]["hits"]
        misses = report["plan_cache"]["misses"]
        assert hits + misses == 16

    def test_stats_json_is_one_document_sharded_or_not(self, capsys) -> None:
        """One builder over a list of engines: a sharded run is the
        single-engine document, summed, plus a ``shards`` section."""
        burst = ["stats", "--tasks", "16", "--kib", "16", "--json"]
        assert main(burst) == 0
        single = json.loads(capsys.readouterr().out)
        assert main([*burst, "--shards", "2"]) == 0
        sharded = json.loads(capsys.readouterr().out)
        assert list(sharded) == [*single, "shards"]
        for name, section in single.items():
            assert list(sharded[name]) == list(section)
        assert single["plans"]["tasks_planned"] == 16
        assert sharded["plans"]["tasks_planned"] == 16
        assert sharded["shards"]["count"] == 2
        assert sum(sharded["shards"]["tasks_by_shard"].values()) == 16
        # A list of one sums to itself: counts stay ints, rates floats.
        assert type(single["plan_cache"]["hits"]) is int
        assert single["plan_cache"]["hit_rate"] == (
            single["plan_cache"]["hits"] / 16
        )


class TestObservabilityCommands:
    """``hcompress metrics`` / ``hcompress trace`` — tiny instrumented runs."""

    RUN = ["--nprocs", "4", "--steps", "2", "--scale", "4096"]

    def test_metrics_json_schema(self, capsys) -> None:
        assert main(["metrics", *self.RUN, "--json"]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["schema"] == "hcompress.metrics.v1"
        metrics = snap["metrics"]
        for family in (
            "hcompress_plans_total",
            "hcompress_tasks_total",
            "hcompress_tier_bytes_total",
            "hcompress_codec_ratio",
            "hcompress_plan_cache_hits_total",
            "hcompress_flusher_polls_total",
        ):
            assert family in metrics, f"missing {family}"
        tasks = metrics["hcompress_tasks_total"]["series"]
        assert {"labels": {"op": "write"}, "value": 8.0} in tasks

    def test_metrics_table_output(self, capsys) -> None:
        assert main(["metrics", *self.RUN]) == 0
        output = capsys.readouterr().out
        assert "run: 8 tasks" in output
        assert "hcompress_plans_total" in output

    def test_metrics_output_file(self, tmp_path, capsys) -> None:
        out = tmp_path / "metrics.json"
        assert main(["metrics", *self.RUN, "--output", str(out)]) == 0
        snap = json.loads(out.read_text())
        assert snap["schema"] == "hcompress.metrics.v1"

    def test_metrics_sharded_merges_every_registry(self, capsys) -> None:
        """No engine declares a ``shard``-labelled family of its own (the
        replication ones come from the coordinator of a replicated
        deployment), so unreplicated registries merge under ``shard``."""
        assert main(["metrics", "--shards", "2", "--steps", "1", "--json"]) == 0
        metrics = json.loads(capsys.readouterr().out)["metrics"]
        assert all(f["labels"][-1] == "shard" for f in metrics.values())
        tasks = metrics["hcompress_tasks_total"]["series"]
        assert {s["labels"]["shard"] for s in tasks} == {"0", "1"}
        assert not any("replication" in name for name in metrics)

    def test_trace_rollup_output(self, capsys) -> None:
        assert main(["trace", *self.RUN]) == 0
        output = capsys.readouterr().out
        assert "hcdp.plan" in output
        assert "shi.write" in output
        assert "spans recorded" in output

    def test_trace_chrome_export(self, tmp_path) -> None:
        out = tmp_path / "trace.json"
        assert main(["trace", *self.RUN, "--output", str(out)]) == 0
        trace = json.loads(out.read_text())
        assert trace["displayTimeUnit"] == "ms"
        events = trace["traceEvents"]
        names = {e["name"] for e in events if e["ph"] == "X"}
        assert "hcompress.compress" in names
        assert all(e["dur"] > 0 for e in events if e["ph"] == "X")


TINY_STORM = ["--shards", "2", "--shard-tasks", "16", "--tenants", "4"]


class TestChaosCommands:
    """Every chaos mode through ``main``: exit code and verdict line."""

    def _run(self, capsys, *argv) -> tuple[int, str]:
        code = main(list(argv))
        return code, capsys.readouterr().out

    def test_comparison_mode_exits_zero_though_baselines_fail(
        self, capsys
    ) -> None:
        code, out = self._run(capsys, "chaos")
        hc, base, mtnc = out.strip().splitlines()[-3:]
        assert code == 0
        assert hc.startswith("[chaos/HC]") and hc.endswith("contract holds")
        assert "CONTRACT VIOLATED" in base and "CONTRACT VIOLATED" in mtnc

    def test_single_backend_exit_code_is_its_verdict(self, capsys) -> None:
        assert self._run(capsys, "chaos", "--backend", "BASE")[0] == 1
        code, out = self._run(capsys, "chaos", "--backend", "HC", "-v")
        assert code == 0 and "contract holds" in out
        assert "degraded_plans=" in out

    def test_crash_at_one_site(self, capsys) -> None:
        code, out = self._run(
            capsys, "chaos", "--crash-at", "manager.write.piece_placed"
        )
        assert code == 0
        assert "fired_site=manager.write.piece_placed" in out
        assert out.strip().endswith("contract holds")

    def test_recover_dies_restores_and_verifies(self, capsys, tmp_path) -> None:
        code, out = self._run(
            capsys, "recover", "--crash-at", "flusher.post_copy",
            "--dir", str(tmp_path),
        )
        assert code == 0
        assert "fired_site=flusher.post_copy" in out
        assert "recovered (replayed" in out and "contract holds" in out
        assert (tmp_path / "journal.wal").exists()

    def test_scrub_alone_plants_and_heals(self, capsys) -> None:
        """``--scrub`` without ``--crash-at`` used to fall through to the
        HC/BASE/MTNC comparison and exit 0 whatever happened."""
        import re

        code, out = self._run(capsys, "chaos", "--scrub")
        planted, repairs = map(int, re.search(
            r"corruptions_planted=(\d+) scrub_repairs=(\d+)", out
        ).groups())
        assert code == 0 and out.startswith("[crash/HC]")
        assert planted > 0 and repairs >= planted
        assert "contract holds" in out

    def test_scrub_that_plants_nothing_fails(self, capsys) -> None:
        code, out = self._run(
            capsys, "chaos", "--scrub", "--corrupt-every", "0"
        )
        assert code == 1 and "corruptions_planted" not in out

    def test_scrub_crash_site_implies_scrub(self, capsys) -> None:
        code, out = self._run(
            capsys, "chaos", "--crash-at", "scrub.post_journal"
        )
        assert code == 0
        assert "fired_site=scrub.post_journal" in out
        assert "corruptions_planted=" in out

    def test_overload_storm(self, capsys) -> None:
        code, out = self._run(
            capsys, "chaos", "--overload", "--overload-tasks", "24"
        )
        assert code == 0
        assert " shed_by_class={" in out and "breaker_transitions=" in out
        assert out.strip().endswith("contract holds")

    def test_overload_storm_dies_and_restores(self, capsys) -> None:
        code, out = self._run(
            capsys, "chaos", "--overload", "--overload-tasks", "24",
            "--crash-at", "manager.write.post_journal", "--crash-hit", "10",
        )
        assert code == 0
        assert "fired_site=manager.write.post_journal" in out
        assert "recovered (replayed" in out

    def test_resized_shard_storm_still_kills(self, capsys) -> None:
        """The default kill point (task 24) is past a 16-task storm: the
        run used to kill nothing, print "undisturbed" and exit 0."""
        code, out = self._run(
            capsys, "chaos", "--kill-shard", "auto", "--shards", "4",
            "--shard-tasks", "16", "-v",
        )
        assert code == 0
        assert "killed_shard=3" in out and " unavailable=" in out
        assert "recovered (replayed" in out and "contract holds" in out
        assert "      shard 3: " in out  # -v: the per-shard table

    def test_undisturbed_shard_storm(self, capsys) -> None:
        code, out = self._run(
            capsys, "chaos", "--kill-shard", "none", *TINY_STORM
        )
        assert code == 0
        assert "killed" not in out and "completed=16 " in out

    def test_bad_kill_target_is_a_usage_error(self, capsys) -> None:
        assert main(["chaos", "--kill-shard", "bogus"]) == 2
        assert main(["chaos", "--kill-shard", "9", "--shards", "2"]) == 2
        assert main(
            ["chaos", "--failover", "--crash-at", "journal.pre_sync"]
        ) == 2
        capsys.readouterr()

    def test_failover_promotes(self, capsys) -> None:
        code, out = self._run(capsys, "chaos", "--failover", *TINY_STORM)
        assert code == 0
        assert "promotions=1" in out and "contract holds" in out

    def test_failover_crash_sweep(self, capsys) -> None:
        code, out = self._run(
            capsys, "chaos", "--failover", "--crash-at", "all", *TINY_STORM
        )
        assert code == 0
        assert out.count("ok   replication.") == 4
        assert "4 crash points: 4 fired, 0 contract violations" in out
