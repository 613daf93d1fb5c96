"""The README's library example runs and gives what it says, and every
package name it cites in backticks exists."""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import regimes

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
# Heads of backticked names that are not the package's: builtins and numpy.
FOREIGN = {"str", "np"}
FILE = re.compile(r"\.(json|py|id|txt)$")
MODULES = {
    name: importlib.import_module(f"regimes.{name}")
    for _, name, _ in pkgutil.iter_modules(regimes.__path__)
}


def library_block() -> str:
    """The README's first ``python`` block, the Library example."""
    return re.search(r"```python\n(.*?)```", README, re.S).group(1)


def run_library_block(monkeypatch) -> tuple[dict, list]:
    """Run the example from the repo root: its namespace, and the value of
    each of its bare expressions in order."""
    monkeypatch.chdir(ROOT)
    namespace, values = {}, []
    for node in ast.parse(library_block()).body:
        if isinstance(node, ast.Expr):
            values.append(eval(compile(ast.Expression(node.value), "README", "eval"), namespace))
        else:
            exec(compile(ast.Module([node], []), "README", "exec"), namespace)
    return namespace, values


def test_library_example_gives_the_stated_results(monkeypatch):
    _, (graphical, recursion, oracle) = run_library_block(monkeypatch)
    assert graphical is False  # "False, with witnesses"
    assert abs(recursion - oracle) <= 1e-9


def cited_names() -> set[str]:
    """Dotted names (``model._conditional``) and called names
    (``marginal(m)``) that open a backticked span outside code blocks."""
    prose = re.sub(r"```.*?```", "", README, flags=re.S)
    names = set()
    for span in re.findall(r"`([^`]+)`", prose):
        dotted = re.match(r"[A-Za-z_]\w*(?:\.\w+)+", span)
        called = re.match(r"([A-Za-z_][\w.]*)\(", span)
        if dotted and not FILE.search(dotted.group(0)):
            names.add(dotted.group(0))
        if called:
            names.add(called.group(1))
    return names


def members() -> dict:
    """Everything the package defines, by bare name: its exports, its
    modules, their globals and the attributes and fields of their classes."""
    found = {"regimes": regimes, **MODULES}
    for module in MODULES.values():
        for name, value in vars(module).items():
            found.setdefault(name, value)
            if inspect.isclass(value) and value.__module__.startswith("regimes."):
                for attr in dir(value) + list(getattr(value, "__dataclass_fields__", ())):
                    found.setdefault(attr, value)
    return found


def resolves(name: str, heads: dict) -> bool:
    head, *rest = name.split(".")
    if head not in heads:
        return False
    obj = heads[head]
    for part in rest:
        if part in getattr(obj, "__dataclass_fields__", ()) and part == rest[-1]:
            return True
        try:
            obj = getattr(obj, part)
        except AttributeError:
            return False
    return True


def test_cited_names_exist(monkeypatch):
    namespace, _ = run_library_block(monkeypatch)
    diagram = namespace["diagram"]
    # The README's ``report`` is a check's report, ``diagram`` the example's.
    heads = {**members(), **namespace,
             "report": regimes.check_simple_stability_graphical(diagram)}
    cited = cited_names()
    assert {"model._conditional", "RecursionTable.values", "live_frontier", "marginal"} <= cited
    missing = sorted(n for n in cited if n.split(".")[0] not in FOREIGN and not resolves(n, heads))
    assert missing == [], f"README cites names the package does not have: {missing}"


@pytest.mark.parametrize("name", ["SupportSet", "check_cond6", "InfoBase.codes", "model.nothing"])
def test_a_missing_name_does_not_resolve(name):
    assert not resolves(name, members())
