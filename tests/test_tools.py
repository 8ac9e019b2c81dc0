"""Exception-hygiene lint: the AST checks work and the tree is clean.

Thin pytest wrapper over ``tools/check_exceptions.py`` so a silently
swallowed error fails the tier-1 suite, not just the CI lint job — and
over ``tools/check_config_fields.py``, so a ``*Config`` field nothing
sets does too.
"""

from __future__ import annotations

import importlib.util
import sys
import textwrap
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def check_exceptions():
    spec = importlib.util.spec_from_file_location(
        "check_exceptions", REPO / "tools" / "check_exceptions.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules["check_exceptions"] = module
    spec.loader.exec_module(module)
    return module


def _lint(check_exceptions, source: str) -> list[tuple[int, str]]:
    return check_exceptions.check_file(textwrap.dedent(source))


def test_bare_except_flagged(check_exceptions) -> None:
    found = _lint(check_exceptions, """
        try:
            work()
        except:
            pass
    """)
    assert len(found) == 1 and "bare" in found[0][1]


def test_silent_broad_handler_flagged(check_exceptions) -> None:
    found = _lint(check_exceptions, """
        try:
            work()
        except Exception:
            pass
    """)
    assert len(found) == 1 and "swallows" in found[0][1]


def test_broad_handler_in_tuple_flagged(check_exceptions) -> None:
    found = _lint(check_exceptions, """
        try:
            work()
        except (ValueError, BaseException):
            pass
    """)
    assert len(found) == 1


def test_broad_handler_that_reraises_passes(check_exceptions) -> None:
    assert _lint(check_exceptions, """
        try:
            work()
        except Exception:
            cleanup()
            raise
    """) == []


def test_broad_handler_that_records_passes(check_exceptions) -> None:
    # Converting or recording the error is not a swallow.
    assert _lint(check_exceptions, """
        try:
            work()
        except Exception as exc:
            errors.append(exc)
    """) == []


def test_narrow_silent_handler_passes(check_exceptions) -> None:
    # Suppressing a *specific* exception is a legitimate idiom
    # (e.g. FileNotFoundError on an optional file).
    assert _lint(check_exceptions, """
        try:
            work()
        except FileNotFoundError:
            pass
    """) == []


def test_allowlist_parses_and_filters(check_exceptions, tmp_path) -> None:
    listing = tmp_path / "allow.txt"
    listing.write_text(
        "# comment\n"
        "\n"
        "src/pkg/mod.py:42  # justified\n"
    )
    assert check_exceptions.load_allowlist(listing) == {("src/pkg/mod.py", 42)}
    assert check_exceptions.load_allowlist(tmp_path / "missing.txt") == set()


def test_repo_is_clean(check_exceptions, capsys) -> None:
    """The whole tree passes with the committed (empty) allowlist."""
    assert check_exceptions.main([]) == 0
    assert "check_exceptions: ok" in capsys.readouterr().out


def test_config_field_nobody_sets_is_flagged_and_repo_is_clean(capsys) -> None:
    spec = importlib.util.spec_from_file_location(
        "check_config_fields", REPO / "tools" / "check_config_fields.py"
    )
    lint = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(lint)
    defining = textwrap.dedent("""
        class DemoConfig:
            used: int = 1
            unused: int = 2
            also_set_here_only: int = 3
        DemoConfig(also_set_here_only=4)
    """)
    sources = {"src/demo.py": defining, "tests/test_demo.py": "DemoConfig(used=5)"}
    assert lint.unset_fields(sources) == [
        "src/demo.py: DemoConfig.unused",
        "src/demo.py: DemoConfig.also_set_here_only",
    ]
    assert lint.main() == 0
    assert "check_config_fields: ok" in capsys.readouterr().out
