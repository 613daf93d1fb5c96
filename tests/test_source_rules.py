"""Rules on the library source itself."""

import ast
import inspect
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "regimes"
SOURCES = sorted(PACKAGE.glob("*.py"))
# The library's and the command line's entry points.
ENTRY_POINTS = ("__init__.py", "cli.py")


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    """``python -O`` strips asserts, so library invariants must raise."""
    tree = _tree(path)
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} has assert statements on lines {lines}"


def _package_imports(path: Path) -> set[str]:
    """Modules of the package that ``path`` imports (``from .m import`` or
    ``from . import m``)."""
    names = set()
    for node in ast.walk(_tree(path)):
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


def _loaded(tree: ast.AST) -> set[str]:
    """Bare names that ``tree`` reads."""
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def _export_uses() -> set[str]:
    """Exported names the package itself uses: imported by a module other
    than ``__init__.py``, read as an attribute of a package module bound by
    ``from . import m as alias``, or read as a bare name in the module
    that ``__init__.py`` imports it from."""
    home = {}
    for node in _tree(PACKAGE / "__init__.py").body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            home.update((alias.name, node.module) for alias in node.names)
    used = set()
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = _tree(path)
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module:
                    used.update(alias.name for alias in node.names)
                else:
                    modules.update(alias.asname or alias.name for alias in node.names)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
            ):
                used.add(node.attr)
        used.update(name for name in _loaded(tree) if home.get(name) == path.stem)
    return used


def _readme_names() -> set[str]:
    """Names the README gives in backticks, each part of a dotted path
    (``regimes.parser.format_model`` names ``format_model``)."""
    readme = (PACKAGE.parent.parent / "README.md").read_text(encoding="utf-8")
    return {n for path in re.findall(r"`([A-Za-z_][\w.]*)", readme) for n in path.split(".")}


def test_every_export_is_used():
    """A public name is part of the product: the package uses it, or the
    README names it."""
    import regimes

    exports = {n for n in regimes.__all__ if not inspect.ismodule(getattr(regimes, n))}
    unused = sorted(exports - _export_uses() - _readme_names())
    assert unused == [], f"exported but unused: {unused}"


def test_every_public_method_is_used():
    """So is a public method or property of an exported class, or of a
    package class it inherits from: the package reads it as an attribute
    somewhere, or the README names it.  Dunders are exempt."""
    import regimes

    read = {
        node.attr
        for path in SOURCES
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    kinds = (property, classmethod, staticmethod)
    classes = {
        cls
        for name in regimes.__all__
        if inspect.isclass(getattr(regimes, name))
        for cls in getattr(regimes, name).__mro__
        if cls.__module__.startswith("regimes.")
    }
    unused = sorted(
        f"{cls.__name__}.{name}"
        for cls in classes
        for name, member in vars(cls).items()
        if not name.startswith("_")
        and (inspect.isfunction(member) or isinstance(member, kinds))
        and name not in read | _readme_names()
    )
    assert unused == [], f"public but unused: {unused}"


def _bound_imports(tree: ast.Module) -> dict[str, int]:
    """Names bound by the module's import statements, with their lines."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update((alias.asname or alias.name, node.lineno) for alias in node.names)
        elif isinstance(node, ast.Import):
            bound.update(
                ((alias.asname or alias.name.split(".")[0]), node.lineno) for alias in node.names
            )
    return bound


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_no_unused_imports(path):
    """Every name a module imports is read somewhere in it (``__init__.py``
    imports to re-export, so it is exempt)."""
    tree = _tree(path)
    unused = sorted(
        (line, name) for name, line in _bound_imports(tree).items() if name not in _loaded(tree)
    )
    assert unused == [], f"{path.name} imports names it never reads: {unused}"
