#!/usr/bin/env python
"""Documentation checks: links, runnable snippets, CLI help drift.

Run from the repository root (CI's docs job does)::

    PYTHONPATH=src python tools/check_docs.py            # run every check
    PYTHONPATH=src python tools/check_docs.py --update-golden

The checks, each also importable for the pytest wrapper
(``tests/test_docs.py``):

* **check_links** — every relative markdown link in the repo's ``*.md``
  files (root + ``docs/``) resolves to an existing file or directory.
* **check_snippets** — every ```` ```pycon ```` block in README.md and
  ``docs/*.md`` runs under doctest (so the documented telemetry examples
  cannot rot), and every ```` ```python ```` block at least compiles.
* **check_cli_help** — ``hcompress --help`` (and each subcommand's help)
  matches the committed golden files in ``tests/golden/`` at a fixed
  80-column width. Regenerate with ``--update-golden`` after an
  intentional CLI change; unexplained drift means README/docs and the
  parser disagree.
* **check_orphans** — every page under ``docs/`` is reachable from
  README.md (directly, or via a page README links). An orphan page is a
  page nobody can discover; link it or delete it.
* **check_metric_reference** — the ``hcompress_*`` family names in
  ``docs/OBSERVABILITY.md`` (brace groups expanded) are exactly the set
  ``src/repro`` declares — passed to ``counter`` / ``gauge`` /
  ``histogram`` or listed in a ``Metric`` table row — and every family is
  declared exactly once.
* **check_baselines** — every committed root ``BENCH_*.json`` has a row
  in EXPERIMENTS.md's baseline table, and every "``<name>`` CI job" the
  docs mention is a job of ``.github/workflows/ci.yml``.
* **check_symbols** — every `` `repro.x.y` `` path, `` `Name.attr` `` and
  CamelCase name the recovery, sharding and integrity pages put in
  backticks still resolves against ``src/repro`` (a deleted class or a
  renamed method fails here, not in a reader's terminal).
"""

from __future__ import annotations

import argparse
import ast
import collections
import contextlib
import doctest
import importlib
import io
import os
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
GOLDEN_DIR = REPO / "tests" / "golden"

#: Markdown files whose links are checked.
DOC_FILES = sorted(REPO.glob("*.md")) + sorted((REPO / "docs").glob("*.md"))

#: Files whose ```pycon blocks must pass doctest.
SNIPPET_FILES = [REPO / "README.md", *sorted((REPO / "docs").glob("*.md"))]

#: CLI help surfaces pinned by golden files ("" is the top-level parser).
HELP_SUBCOMMANDS = (
    "", "profile", "codecs", "report", "demo", "chaos", "checkpoint",
    "recover", "fsck", "lifecycle", "replication", "stats", "metrics",
    "trace",
)

_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_FENCE_RE = re.compile(r"```(\w+)\n(.*?)```", re.DOTALL)


def check_links() -> list[str]:
    """Every relative link target in the doc set exists on disk."""
    errors = []
    for doc in DOC_FILES:
        for target in _LINK_RE.findall(doc.read_text()):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue
            resolved = (doc.parent / path).resolve()
            if not resolved.exists():
                errors.append(
                    f"{doc.relative_to(REPO)}: broken link -> {target}"
                )
    return errors


def _fences(text: str, language: str) -> list[str]:
    return [body for lang, body in _FENCE_RE.findall(text) if lang == language]


def check_snippets() -> list[str]:
    """```pycon blocks pass doctest; ```python blocks compile."""
    errors = []
    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner(
        optionflags=doctest.ELLIPSIS | doctest.NORMALIZE_WHITESPACE
    )
    for doc in SNIPPET_FILES:
        text = doc.read_text()
        rel = doc.relative_to(REPO)
        for i, block in enumerate(_fences(text, "pycon")):
            test = parser.get_doctest(block, {}, f"{rel}[pycon #{i}]", str(rel), 0)
            out = io.StringIO()
            result = runner.run(test, out=out.write)
            if result.failed:
                errors.append(
                    f"{rel}: pycon block #{i} failed doctest:\n{out.getvalue()}"
                )
        for i, block in enumerate(_fences(text, "python")):
            try:
                compile(block, f"{rel}[python #{i}]", "exec")
            except SyntaxError as exc:
                errors.append(f"{rel}: python block #{i} does not compile: {exc}")
    return errors


def _render_help(subcommand: str) -> str:
    """The CLI's help text at a deterministic 80-column width."""
    os.environ["COLUMNS"] = "80"
    from repro.cli import build_parser

    argv = [subcommand, "--help"] if subcommand else ["--help"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            pass
    return out.getvalue()


def _golden_path(subcommand: str) -> Path:
    return GOLDEN_DIR / f"help_{subcommand or 'hcompress'}.txt"


def check_cli_help() -> list[str]:
    """Live ``--help`` output matches the committed golden files."""
    errors = []
    for sub in HELP_SUBCOMMANDS:
        golden = _golden_path(sub)
        if not golden.exists():
            errors.append(f"missing golden file {golden.relative_to(REPO)}")
            continue
        live = _render_help(sub)
        if live != golden.read_text():
            errors.append(
                f"CLI help drift for {sub or 'top-level'!r}: update docs, "
                f"then regenerate with tools/check_docs.py --update-golden"
            )
    return errors


def check_orphans() -> list[str]:
    """Every ``docs/*.md`` page is reachable from README.md."""
    reachable: set[Path] = set()
    frontier = [REPO / "README.md"]
    while frontier:
        doc = frontier.pop()
        if doc in reachable or not doc.exists():
            continue
        reachable.add(doc)
        for target in _LINK_RE.findall(doc.read_text()):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            path = target.split("#", 1)[0]
            if not path or not path.endswith(".md"):
                continue
            frontier.append((doc.parent / path).resolve())
    return [
        f"docs/{page.name}: orphan page — not linked (even transitively) "
        "from README.md"
        for page in sorted((REPO / "docs").glob("*.md"))
        if page.resolve() not in reachable
    ]


_FAMILY_RE = re.compile(r"hcompress_[a-z0-9_]*(?:\{[a-z0-9_,]+\}[a-z0-9_]*)*")
_GROUP_RE = re.compile(r"\{([a-z0-9_,]+)\}")


def documented_families(text: str) -> set[str]:
    """Family names a doc mentions: ``a_{x,y}_total`` is two names, a
    trailing ``{label,...}`` is a label list, ``hcompress_shi_*`` (a
    prefix, left ending in ``_``) is prose."""
    names: set[str] = set()
    for token in _FAMILY_RE.findall(text):
        token = re.sub(r"\{[a-z0-9_,]+\}$", "", token)
        expanded = [token]
        while any("{" in name for name in expanded):
            expanded = [
                name.replace(match.group(0), part, 1)
                for name in expanded
                if (match := _GROUP_RE.search(name))
                for part in match.group(1).split(",")
            ]
        names.update(name for name in expanded if not name.endswith("_"))
    return names


def declared_families() -> collections.Counter:
    """How often ``src/repro`` declares each family: a string literal
    handed first to ``.counter()`` / ``.gauge()`` / ``.histogram()`` or to
    a ``Metric(...)`` row."""
    declared: collections.Counter = collections.Counter()
    for path in sorted((REPO / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call) and node.args):
                continue
            func = node.func
            callee = getattr(func, "attr", getattr(func, "id", None))
            first = node.args[0]
            if (
                callee in ("counter", "gauge", "histogram", "Metric")
                and isinstance(first, ast.Constant)
                and isinstance(first.value, str)
                and first.value.startswith("hcompress_")
            ):
                declared[first.value] += 1
    return declared


def check_metric_reference() -> list[str]:
    """docs/OBSERVABILITY.md names exactly the declared families, and each
    family has one declaration."""
    declared = declared_families()
    documented = documented_families(
        (REPO / "docs" / "OBSERVABILITY.md").read_text()
    )
    return [
        f"{name}: declared {count} times under src/repro"
        for name, count in sorted(declared.items())
        if count != 1
    ] + [
        f"{name}: declared under src/repro, missing from docs/OBSERVABILITY.md"
        for name in sorted(set(declared) - documented)
    ] + [
        f"{name}: in docs/OBSERVABILITY.md, declared nowhere under src/repro"
        for name in sorted(documented - set(declared))
    ]


_JOB_MENTION_RE = re.compile(r"`([a-z0-9-]+)`\s+(?:CI\s+)?job\b")
_JOB_KEY_RE = re.compile(r"^  ([a-z0-9-]+):$", re.MULTILINE)


def check_baselines() -> list[str]:
    """EXPERIMENTS.md lists every committed ``BENCH_*.json``, and every CI
    job the docs name exists in the workflow."""
    rows = set(
        re.findall(r"^\| `(BENCH_\w+\.json)` \|",
                   (REPO / "EXPERIMENTS.md").read_text(), re.MULTILINE)
    )
    committed = {path.name for path in REPO.glob("BENCH_*.json")}
    workflow = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    jobs = set(_JOB_KEY_RE.findall(workflow.split("\njobs:\n", 1)[1]))
    # ROADMAP / CHANGES / ISSUE are logs and may name retired jobs.
    current = [
        doc for doc in DOC_FILES
        if doc.parent != REPO
        or doc.name in ("README.md", "EXPERIMENTS.md", "DESIGN.md")
    ]
    return [
        f"{name}: committed, no row in EXPERIMENTS.md's baseline table"
        for name in sorted(committed - rows)
    ] + [
        f"{name}: a row in EXPERIMENTS.md's baseline table, no such file"
        for name in sorted(rows - committed)
    ] + [
        f"{doc.relative_to(REPO)}: `{job}` job is not in ci.yml"
        for doc in current
        for job in sorted(set(_JOB_MENTION_RE.findall(doc.read_text())) - jobs)
    ]


#: Pages whose backticked code names are resolved, and where a bare or
#: leading class name is looked up (first hit wins).
SYMBOL_DOCS = ("RECOVERY.md", "SHARDING.md", "INTEGRITY.md")
SYMBOL_MODULES = (
    "repro", "repro.errors", "repro.recovery", "repro.recovery.journal",
    "repro.replication", "repro.shard", "repro.shard.manifest",
    "repro.scrub", "repro.core", "repro.core.manager", "repro.qos",
    "repro.faults", "repro.obs",
)
_SPAN_RE = re.compile(r"`([^`\n]+)`")
_DOTTED_RE = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*$")
_CLASS_RE = re.compile(r"[A-Z][A-Za-z0-9]*[a-z][A-Za-z0-9]*\.")  # ``Journal.sync``
_CAMEL_RE = re.compile(r"[A-Z][a-z0-9]+(?:[A-Z][a-z0-9]*)+$")  # bare names


def _resolves(name: str) -> bool:
    """Whether a dotted doc name is a real object: ``repro.a.b`` by
    import + attribute walk, ``Class.attr...`` from :data:`SYMBOL_MODULES`
    (fields of dataclasses and named tuples count as attributes)."""
    head, *rest = name.split(".")
    if head == "repro":
        parts = name.split(".")
        for cut in range(len(parts), 0, -1):
            try:
                obj = importlib.import_module(".".join(parts[:cut]))
            except ModuleNotFoundError:
                continue
            rest = parts[cut:]
            break
    else:
        modules = map(importlib.import_module, SYMBOL_MODULES)
        obj = next((vars(m)[head] for m in modules if head in vars(m)), None)
        if obj is None:
            return False
    for attr in rest:
        if attr in getattr(obj, "__annotations__", ()):
            return True  # a field: its type is not ours to follow
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def check_symbols() -> list[str]:
    """Backticked ``repro.*`` paths, ``Class.attr`` and CamelCase names in
    the recovery / sharding / integrity pages resolve."""
    errors = []
    for page in SYMBOL_DOCS:
        text = _FENCE_RE.sub("", (REPO / "docs" / page).read_text())
        for span in sorted(set(_SPAN_RE.findall(text))):
            name = span.split("(", 1)[0]
            if not _DOTTED_RE.match(name):
                continue
            if not (
                name.split(".", 1)[0] == "repro"
                or _CLASS_RE.match(name)
                or _CAMEL_RE.match(name)
            ):
                continue
            if not _resolves(name):
                errors.append(f"docs/{page}: `{span}` does not resolve")
    return errors


def update_golden() -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for sub in HELP_SUBCOMMANDS:
        path = _golden_path(sub)
        path.write_text(_render_help(sub))
        print(f"wrote {path.relative_to(REPO)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update-golden", action="store_true",
        help="regenerate the CLI help golden files and exit",
    )
    args = parser.parse_args(argv)
    if args.update_golden:
        update_golden()
        return 0
    failures = 0
    for check in (
        check_links, check_snippets, check_cli_help, check_orphans,
        check_metric_reference, check_baselines, check_symbols,
    ):
        errors = check()
        status = "ok" if not errors else f"{len(errors)} problem(s)"
        print(f"{check.__name__}: {status}")
        for error in errors:
            print(f"  - {error}", file=sys.stderr)
        failures += len(errors)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
