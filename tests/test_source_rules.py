"""Rules on the library source itself."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "regimes"
SOURCES = sorted(PACKAGE.glob("*.py"))
# The library's and the command line's entry points.
ENTRY_POINTS = ("__init__.py", "cli.py")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    """``python -O`` strips asserts, so library invariants must raise."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} has assert statements on lines {lines}"


def _package_imports(path: Path) -> set[str]:
    """Modules of the package that ``path`` imports (``from .m import`` or
    ``from . import m``)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names.update([node.module] if node.module else (a.name for a in node.names))
    return names


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name not in ENTRY_POINTS], ids=lambda p: p.name
)
def test_module_is_imported_by_an_entry_point(path):
    """Code that only the tests read lives under ``tests/``: every module
    of the package is imported by ``regimes/__init__.py`` or the CLI."""
    imported = set().union(*(_package_imports(PACKAGE / name) for name in ENTRY_POINTS))
    assert path.stem in imported, f"{path.name} is imported by neither {' nor '.join(ENTRY_POINTS)}"
