"""Small reference diagrams for the test suite.

The shipped ``models/*.id`` documents hold these builds at their default
seeds, as ``format_model`` prints them; ``test_parser`` checks that they
still agree.  The module lives with the tests because the package never
reads it.

Each builder returns ``(diagram, strategies)``.  Table entries are drawn
from a symmetric Dirichlet with unit concentration under a seeded
counter-based generator, so every build is reproducible and generic
(strictly positive, no accidental independencies).  Each table takes one
batch of rows, parent configurations in row-major order, in the order
the builder names them: the diagram's tables first, then the strategies'.
"""

from __future__ import annotations

import math

import numpy as np

from regimes.model import Cpt, InfluenceDiagram, Policy, Strategy, Table, Variable

B = ("0", "1")


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def _table(rng, parents: tuple[str, ...], width: int) -> Table:
    """Random binary-parent table: one Dirichlet row per configuration."""
    states = (B,) * len(parents)
    rows = rng.dirichlet(np.ones(width), size=math.prod(map(len, states)))
    return Table(states, rows.reshape(tuple(map(len, states)) + (width,)))


def _random_cpts(rng, parent_map) -> dict[str, Cpt]:
    return {v: Cpt(v, tuple(ps), _table(rng, tuple(ps), 2)) for v, ps in parent_map.items()}


def _policy(rng, *parents: str) -> Policy:
    return Policy(parents, _table(rng, parents, 2))


def static_strategy(name: str, assignments, states) -> Strategy:
    """Fixed action sequence, ignoring all observations."""
    policies = {}
    for action, chosen in assignments.items():
        row = tuple(1.0 if s == chosen else 0.0 for s in states[action])
        if not any(row):
            raise ValueError(f"{chosen!r} is not a state of {action}")
        policies[action] = Policy((), {(): row})
    return Strategy(name, policies)


def complete_stable(n_actions: int = 2, seed: int = 1):
    """Fully connected diagram over (L1, A1, ..., LN, AN, Y), no hidden
    variables, regime arrows into actions only.  Stable by construction."""
    names = []
    for i in range(1, n_actions + 1):
        names += [f"L{i}", f"A{i}"]
    names.append("Y")
    kinds = {v: ("act" if v.startswith("A") else "obs") for v in names}
    kinds["Y"] = "resp"
    variables = [Variable(v, kinds[v], B) for v in names]
    edges = [(u, v) for i, u in enumerate(names) for v in names[i + 1 :]]
    edges += [("sigma", a) for a in names if kinds[a] == "act"]
    states = {v: B for v in names}
    parent_map = {v: tuple(names[:i]) for i, v in enumerate(names)}
    rng = _rng(seed)
    diagram = InfluenceDiagram(variables, edges, _random_cpts(rng, parent_map))
    actions = range(1, n_actions + 1)
    identity = {("0",): (1.0, 0.0), ("1",): (0.0, 1.0)}
    strategies = {
        "stat": static_strategy("stat", {a: "1" for a in diagram.actions}, states),
        "dyn": Strategy("dyn", {f"A{i}": Policy((f"L{i}",), identity) for i in actions}),
        "mix": Strategy("mix", {f"A{i}": _policy(rng, f"L{i}") for i in actions}),
    }
    return diagram, strategies


def f1(seed: int = 1):
    """Two-stage fully connected stable diagram."""
    return complete_stable(2, seed)


def f2(seed: int = 2, wide: bool = False):
    """Two-stage diagram with hidden confounders where plain stability
    fails but the mixed-diagram route succeeds for strategies whose second
    action looks only at the first.

    ``wide=True`` declares the second action's interventional parents as
    (A1, L2), the variant for which the stage-1 graphical check fails.
    """
    variables = [
        Variable("U1", "hid", B),
        Variable("A1", "act", B),
        Variable("U2", "hid", B),
        Variable("L2", "obs", B),
        Variable("A2", "act", B),
        Variable("Y", "resp", B),
    ]
    edges = [
        ("U1", "A1"),
        ("U1", "L2"),
        ("U2", "L2"),
        ("A1", "L2"),
        ("A1", "A2"),
        ("L2", "A2"),
        ("U2", "Y"),
        ("A2", "Y"),
        ("sigma", "A1"),
        ("sigma", "A2"),
    ]
    parent_map = {
        "U1": (),
        "A1": ("U1",),
        "U2": (),
        "L2": ("U1", "A1", "U2"),
        "A2": ("A1", "L2"),
        "Y": ("U2", "A2"),
    }
    rng = _rng(seed)
    diagram = InfluenceDiagram(
        variables,
        edges,
        _random_cpts(rng, parent_map),
        obs_parents={"A1": ("U1",), "A2": ("A1", "L2")},
        int_parents={"A1": (), "A2": ("A1", "L2") if wide else ("A1",)},
    )
    strategies = {
        "e2": Strategy("e2", {"A1": _policy(rng), "A2": _policy(rng, "A1")}),
        "e2wide": Strategy("e2wide", {"A1": _policy(rng), "A2": _policy(rng, "A1", "L2")}),
    }
    return diagram, strategies


def f3(seed: int = 3):
    """Two unordered actions with a hidden common cause; only the ordering
    that intervenes on B first admits a licensed recursion."""
    variables = [
        Variable("U", "hid", B),
        Variable("B", "act", B),
        Variable("L", "obs", B),
        Variable("A", "act", B),
        Variable("Y", "resp", B),
    ]
    edges = [
        ("U", "A"),
        ("U", "L"),
        ("B", "L"),
        ("L", "Y"),
        ("A", "Y"),
        ("sigma", "A"),
        ("sigma", "B"),
    ]
    parent_map = {"U": (), "B": (), "L": ("U", "B"), "A": ("U",), "Y": ("L", "A")}
    rng = _rng(seed)
    diagram = InfluenceDiagram(variables, edges, _random_cpts(rng, parent_map))
    strategies = {"e": Strategy("e", {"B": _policy(rng), "A": _policy(rng, "L")})}
    return diagram, strategies


def f4(seed: int = 4, two_actions: bool = False):
    """Single confounded action: a hidden variable drives both the
    observational action choice and the response.  With ``two_actions``
    a second confounded action follows, so no admissible ordering exists."""
    variables = [
        Variable("U", "hid", B),
        Variable("A1", "act", B),
    ]
    edges = [("U", "A1"), ("U", "Y"), ("A1", "Y"), ("sigma", "A1")]
    parent_map = {"U": (), "A1": ("U",)}
    if two_actions:
        variables += [
            Variable("L2", "obs", B),
            Variable("A2", "act", B),
        ]
        edges += [
            ("A1", "L2"),
            ("L2", "A2"),
            ("U", "A2"),
            ("A2", "Y"),
            ("sigma", "A2"),
        ]
        parent_map.update({"L2": ("A1",), "A2": ("U", "L2"), "Y": ("U", "A1", "A2")})
    else:
        parent_map["Y"] = ("U", "A1")
    variables.append(Variable("Y", "resp", B))
    states = {v.name: B for v in variables}
    rng = _rng(seed)
    diagram = InfluenceDiagram(variables, edges, _random_cpts(rng, parent_map))
    strategies = {
        "e": Strategy("e", {a: _policy(rng) for a in diagram.actions}),
        "pick1": static_strategy("pick1", {a: "1" for a in diagram.actions}, states),
    }
    return diagram, strategies


def f5(seed: int = 5):
    """Two actions where the stage-one covariate pool is separation
    redundant: the constructed per-stage pools give ({Z}, {X}) but the
    pruned sequence (-, {X}) is already admissible."""
    variables = [
        Variable("Z", "obs", B),
        Variable("A1", "act", B),
        Variable("X", "obs", B),
        Variable("A2", "act", B),
        Variable("Y", "resp", B),
    ]
    edges = [
        ("Z", "X"),
        ("A1", "X"),
        ("X", "A2"),
        ("X", "Y"),
        ("A2", "Y"),
        ("sigma", "A1"),
        ("sigma", "A2"),
    ]
    parent_map = {"Z": (), "A1": (), "X": ("Z", "A1"), "A2": ("X",), "Y": ("X", "A2")}
    rng = _rng(seed)
    diagram = InfluenceDiagram(variables, edges, _random_cpts(rng, parent_map))
    strategies = {"e": Strategy("e", {"A1": _policy(rng), "A2": _policy(rng, "X")})}
    return diagram, strategies
