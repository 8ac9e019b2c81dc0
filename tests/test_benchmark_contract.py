"""The end-to-end benchmark's tracer must find every site it wraps.

``benchmarks/e2e/tracing.py`` resolves each site with ``vars(owner)[attr]``,
so a method that a refactor renames, deletes, or moves onto a base class
is a ``KeyError`` under ``--trace 1`` — a failed benchmark run. This makes
that a unit-test failure instead.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "benchmarks/e2e/tracing.py"


def test_every_tracer_site_is_defined_on_its_owner() -> None:
    spec = importlib.util.spec_from_file_location("e2e_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    sites = tracing.default_sites()
    assert sites
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _layer, _work in sites
        if attr not in vars(owner)
    ]
    assert not missing, f"tracer sites not defined on their owner: {missing}"
    assert {layer for _o, _a, layer, _w in sites} <= set(tracing.LAYERS)
