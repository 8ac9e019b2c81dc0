"""Documentation health: links resolve, snippets run, CLI help is pinned.

Thin pytest wrapper over ``tools/check_docs.py`` so doc rot fails the
tier-1 suite, not just the CI docs job.
"""

from __future__ import annotations

from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_markdown_links_resolve(check_docs) -> None:
    assert check_docs.check_links() == []


def test_doc_snippets_run(check_docs) -> None:
    assert check_docs.check_snippets() == []


def test_cli_help_matches_golden(check_docs) -> None:
    errors = check_docs.check_cli_help()
    assert errors == [], (
        "CLI --help drifted from tests/golden/; if the change is "
        "intentional, update README/docs and run "
        "`python tools/check_docs.py --update-golden`"
    )


def test_required_docs_exist() -> None:
    for path in (
        "docs/ARCHITECTURE.md",
        "docs/OBSERVABILITY.md",
        "DESIGN.md",
        "EXPERIMENTS.md",
        "README.md",
    ):
        assert (REPO / path).is_file(), f"missing {path}"


def test_observability_doc_names_real_metrics(check_docs) -> None:
    """The metric reference of OBSERVABILITY.md names exactly the families
    ``src/repro`` declares, and every family is declared exactly once —
    in ``Observability.__init__`` (a push) or in one ``Metric`` table row
    (a mirror), never both."""
    assert check_docs.check_metric_reference() == []


def test_baselines_and_ci_jobs_named_in_docs_exist(check_docs) -> None:
    """EXPERIMENTS.md's baseline table has one row per committed
    ``BENCH_*.json``, and a "``<name>`` CI job" in README / EXPERIMENTS /
    DESIGN / ``docs/`` is a job of the workflow."""
    assert check_docs.check_baselines() == []


def test_backticked_code_names_in_the_durability_docs_resolve(check_docs) -> None:
    """A `` `repro.x.y` `` path, a `` `Class.attr` `` or a CamelCase name in
    RECOVERY / SHARDING / INTEGRITY is a real object of ``src/repro`` —
    deleting a class without touching its docs fails here."""
    assert check_docs.check_symbols() == []
    assert check_docs._resolves("Journal.persist")
    assert check_docs._resolves("ShardConfig.directory")  # a dataclass field
    assert not check_docs._resolves("JournalCursor")
    assert not check_docs._resolves("repro.recovery.journal.JournalCursor")


def test_metric_reference_shorthand_is_expanded(check_docs) -> None:
    assert check_docs.documented_families(
        "`hcompress_a_{hits,misses}_total{kind}`, the hcompress_shi_* "
        "pushes and `hcompress_lag_records{shard,replica}`"
    ) == {
        "hcompress_a_hits_total", "hcompress_a_misses_total",
        "hcompress_lag_records",
    }
