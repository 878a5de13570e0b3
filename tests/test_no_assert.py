"""No module of the package holds an ``assert`` statement: ``python -O``
strips them, so every internal check raises ``AssertionError`` itself."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mucrit"


def _assert_lines(source: str):
    """The line numbers of the ``assert`` statements in ``source``."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")), ids=lambda path: path.name)
def test_no_assert_statement(path):
    assert _assert_lines(path.read_text()) == []


def test_package_is_scanned():
    assert {"checks.py", "cli.py", "fp.py", "hp.py", "residues.py", "search.py"} <= {
        path.name for path in PACKAGE.rglob("*.py")
    }


def test_negative_control_planted_assert_is_flagged():
    planted = 'def f(x):\n    """assert in a docstring is text"""\n    assert x, "x"\n'
    assert _assert_lines(planted) == [3]
    assert _assert_lines("if x:\n    raise AssertionError('x')\n") == []
