#!/usr/bin/env python
"""Config-field lint: no ``*Config`` knob that nothing ever sets.

Run from the repository root (CI's lint job does)::

    python tools/check_config_fields.py

Every annotated field of every ``*Config`` class under ``src/`` must be
passed by keyword in some call outside its defining module (another
module, a test, a benchmark, an example, the CLI). A field nobody sets
is a constant with extra steps: make it one next to its use, or justify
it in ``ALLOWLIST`` (``"Class.field": "one-line reason"``).
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SCAN_DIRS = ("src", "tests", "benchmarks", "examples", "tools")
ALLOWLIST: dict[str, str] = {}


def unset_fields(sources: dict[str, str]) -> list[str]:
    """``path: Class.field`` for each ``*Config`` field (classes under
    ``src/``) that no *other* module of ``sources`` passes by keyword."""
    trees = {path: ast.parse(text, filename=path) for path, text in sources.items()}
    passed = {
        path: {kw.arg for node in ast.walk(tree) if isinstance(node, ast.Call)
               for kw in node.keywords}
        for path, tree in trees.items()
    }
    return [
        f"{path}: {cls.name}.{stmt.target.id}"
        for path, tree in trees.items() if path.startswith("src/")
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and cls.name.endswith("Config")
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
        and f"{cls.name}.{stmt.target.id}" not in ALLOWLIST
        and not any(stmt.target.id in kws for p, kws in passed.items() if p != path)
    ]


def main() -> int:
    unset = unset_fields({
        path.relative_to(REPO).as_posix(): path.read_text()
        for base in SCAN_DIRS for path in sorted((REPO / base).rglob("*.py"))
    })
    for line in unset:
        print(f"{line} is set by no caller: make it a constant or allow-list it")
    print(f"check_config_fields: {len(unset)} unset" if unset else "check_config_fields: ok")
    return int(bool(unset))


if __name__ == "__main__":
    sys.exit(main())
