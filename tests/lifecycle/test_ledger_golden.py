"""Every migration of two daemon traces, pinned line by line.

``tests/golden/relocation_ledger.txt`` holds one line per
``CompressionManager.relocate`` call of the traces in ``traces.py``: the
daemon step, the task, source -> destination tier, old -> new codec,
``landed`` or ``refused``, and for a landing the accounted bytes placed
and the CRC32 of every placed blob. A trace's last line is its modeled
outcome (read wait of ``real_mixed``, dollar bill of the zipf trace).

It was recorded before ``relocate`` learned to size a re-encode ahead of
the codec (PR 21): a change to how a relocation is *executed* must
reproduce it exactly, under any ``PYTHONHASHSEED``; a change of *policy*
moves lines, and lists and explains each one.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from .traces import Recording, run_traces

GOLDEN = Path(__file__).resolve().parent.parent / "golden/relocation_ledger.txt"


def ledger_lines(name: str, recording: Recording) -> list[str]:
    return [
        *(f"{name} {line}" for line in recording.lines),
        f"{name} outcome={recording.outcome!r}",
    ]


@pytest.mark.parametrize("name", ["real_mixed", "zipf"])
def test_relocations_match_the_golden(name: str, relocation_traces) -> None:
    """Regenerate on purpose with ``python -m tests.lifecycle.test_ledger_golden``
    (``PYTHONPATH=src``) — never to make an executor change pass."""
    golden = [
        line for line in GOLDEN.read_text().splitlines()
        if line.split()[0] == name
    ]
    assert ledger_lines(name, relocation_traces[name]) == golden


if __name__ == "__main__":
    import tempfile

    from repro.faults import default_seed

    with tempfile.TemporaryDirectory() as scratch:
        traces = run_traces(default_seed(), Path(scratch))
    GOLDEN.write_text(
        "\n".join(
            line for name, trace in traces.items()
            for line in ledger_lines(name, trace)
        ) + "\n"
    )
