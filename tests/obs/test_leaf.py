"""``repro.obs`` is a leaf: every layer imports it, it imports none of them.

Subsystems hand their counters over as ``Metric`` tables, so the facade
needs no knowledge of any of them. An import of a sibling package — even
one deferred into a function body, which is how ``sync_qos`` once reached
``repro.qos.breaker`` — is a cycle waiting to happen; this scan finds it
wherever it hides.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro.obs

OBS_DIR = Path(repro.obs.__file__).resolve().parent
ALLOWED = {"errors"}


def _sibling_packages(tree: ast.AST) -> set[str]:
    """Top-level ``repro`` subpackages a module imports, other than its own."""
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0:
                targets = [node.module or ""]
            elif node.level == 1:
                continue  # from .registry import ...: inside repro.obs
            else:  # from ..errors import X / from .. import errors
                targets = (
                    [f"repro.{node.module}"] if node.module
                    else [f"repro.{alias.name}" for alias in node.names]
                )
        elif isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        else:
            continue
        for target in targets:
            parts = target.split(".")
            if parts[0] == "repro" and len(parts) > 1 and parts[1] != "obs":
                found.add(parts[1])
    return found


def test_repro_obs_imports_no_sibling_package_but_errors() -> None:
    offenders = {
        path.name: sorted(extra)
        for path in sorted(OBS_DIR.glob("*.py"))
        if (extra := _sibling_packages(ast.parse(path.read_text())) - ALLOWED)
    }
    assert not offenders, f"repro.obs must stay a leaf package: {offenders}"


def test_the_scan_sees_deferred_and_absolute_imports() -> None:
    source = (
        "from ..errors import HCompressError\n"
        "from .registry import Metric\n"
        "import repro.tiers\n"
        "def sync_qos(self, governor):\n"
        "    from ..qos.breaker import OPEN\n"
        "    from .. import lifecycle\n"
    )
    assert _sibling_packages(ast.parse(source)) == {
        "errors", "tiers", "qos", "lifecycle",
    }
