"""Random instance generators shared across the test modules, and the
label-level reference oracle.

Tables are drawn from a symmetric Dirichlet with unit concentration under
seeded counter-based generators, so every suite is deterministic and the
parameters are generic (no accidental independencies).  ``prob`` and
``conditional`` read a joint array by labels, one assignment at a time,
independently of the stage arrays the engines use.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Mapping

import numpy as np

from fixtures import f4
from regimes.errors import InputError
from regimes.graph import Dag, separated
from regimes.grecursion import build_dag_i
from regimes.model import (
    SIGMA,
    Cpt,
    ExactSource,
    InfluenceDiagram,
    Policy,
    Strategy,
    Table,
    Variable,
    factor_array,
)

B = ("0", "1")


def rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def random_dag(gen: np.random.Generator, n_nodes: int, p_edge: float = 0.4) -> Dag:
    names = tuple(f"v{i}" for i in range(n_nodes))
    edges = [
        (names[i], names[j])
        for i in range(n_nodes)
        for j in range(i + 1, n_nodes)
        if gen.random() < p_edge
    ]
    return Dag(names, edges)


def dirichlet_row(gen: np.random.Generator, width: int) -> tuple[float, ...]:
    return tuple(map(float, gen.dirichlet(np.ones(width))))


def cpt_for(gen, child, parents, states) -> Cpt:
    """A label-keyed table with one Dirichlet row per parent configuration,
    drawn in one call: the values and the generator's position equal one
    ``dirichlet_row`` per configuration in row-major order."""
    configs = list(itertools.product(*(states[p] for p in parents)))
    rows = gen.dirichlet(np.ones(len(states[child])), size=len(configs))
    return Cpt(child, tuple(parents), dict(zip(configs, map(tuple, rows.tolist()))))


def random_extended_id(
    seed: int,
    n_actions: int = 2,
    hidden_to_action: bool = False,
    hidden_only_into_actions: bool = False,
    p_edge: float = 0.6,
    p_hidden: float = 0.8,
    p_obs: float = 0.8,
) -> InfluenceDiagram:
    """Random binary diagram with interleaved hidden/observed covariates.

    ``hidden_to_action`` forces at least one hidden parent of an action
    plus a hidden arrow into the response (a genuine confounder);
    ``hidden_only_into_actions`` restricts hidden out-edges to actions and
    later hidden variables, so covariates never depend on hidden history.
    """
    gen = rng(seed)
    order: list[Variable] = []
    for i in range(1, n_actions + 1):
        if gen.random() < p_hidden:
            order.append(Variable(f"U{i}", "hid", B))
        if gen.random() < p_obs:
            order.append(Variable(f"L{i}", "obs", B))
        order.append(Variable(f"A{i}", "act", B))
    order.append(Variable("Y", "resp", B))
    names = [v.name for v in order]
    kinds = {v.name: v.kind for v in order}

    def allowed(u: str, v: str) -> bool:
        if kinds[u] == "hid":
            if hidden_only_into_actions and kinds[v] in ("obs", "resp"):
                return False
            if not hidden_to_action and not hidden_only_into_actions and kinds[v] == "act":
                return False
            if hidden_to_action and kinds[v] == "act":
                return False  # placed explicitly below
        return True

    edges = []
    for i, u in enumerate(names):
        for v in names[i + 1 :]:
            if allowed(u, v) and gen.random() < p_edge:
                edges.append((u, v))
    hidden = [v for v in names if kinds[v] == "hid"]
    if hidden_to_action and hidden:
        u = hidden[0]
        a_after = next(a for a in names if kinds[a] == "act" and names.index(a) > names.index(u))
        for e in [(u, a_after), (u, "Y")]:
            if e not in edges:
                edges.append(e)
    edges += [("sigma", v) for v in names if kinds[v] == "act"]

    states = {v: B for v in names}
    dag = Dag(("sigma",) + tuple(names), edges)
    cpts = {
        v: cpt_for(gen, v, [p for p in dag.parents(v) if p != "sigma"], states)
        for v in names
    }
    return InfluenceDiagram(order, edges, cpts)


def random_strategy(
    diagram: InfluenceDiagram, seed: int, deterministic: bool | None = None
) -> Strategy:
    """Control strategy with random policy parents and random rows."""
    return Strategy(f"rand{seed}", random_policies(rng(seed), diagram.base, deterministic))


def random_policies(gen, base, deterministic: bool | None) -> dict[str, Policy]:
    """Each action's policy reads a random subset of the observed past.  Its
    rows are one-hot (``deterministic``), Dirichlet (not), or either at
    random per row (None).  Dirichlet-only tables are drawn in one call,
    which gives the rows and generator position of one draw per row."""
    policies = {}
    for i, action in enumerate(base.actions, start=1):
        preceding = base.vars[: base.after_l(i)]
        parents = tuple(p for p, u in zip(preceding, gen.random(len(preceding))) if u < 0.5)
        states = tuple(base.states[p] for p in parents)
        width = len(base.states[action])
        if deterministic is False:
            rows = gen.dirichlet(np.ones(width), size=math.prod(map(len, states)))
        else:
            rows = []
            for _ in itertools.product(*states):
                hard = deterministic if deterministic is not None else gen.random() < 0.5
                if hard:
                    chosen = gen.integers(width)
                    rows.append([1.0 if j == chosen else 0.0 for j in range(width)])
                else:
                    rows.append(dirichlet_row(gen, width))
        array = np.array(rows, dtype=float).reshape(tuple(map(len, states)) + (width,))
        policies[action] = Policy(parents, Table(states, array))
    return policies


def wide_binary_document(observables: int) -> str:
    """A model document of this many binary observables, the last the
    response, each a root with a uniform row, and no action."""
    names = [f"L{i}" for i in range(1, observables)] + ["Y"]
    lines = [f"var {v} kind={'resp' if v == 'Y' else 'obs'} states=0,1" for v in names]
    lines.append("order " + " ".join(names))
    for v in names:
        lines += [f"cpt {v} | -", "row - : 0.5 0.5"]
    return "\n".join(lines) + "\n"


def f4_without_action_one():
    """f4 with both observational A1 rows set to (1, 0): A1=1 never occurs."""
    d, strats = f4()
    cpts = dict(d.cpts)
    cpts["A1"] = Cpt("A1", ("U",), {("0",): (1.0, 0.0), ("1",): (1.0, 0.0)})
    return InfluenceDiagram(d.variables, d.dag.edges, cpts), strats


def zero_action_rows(diagram: InfluenceDiagram, seed: int) -> InfluenceDiagram:
    """The diagram with some observational action rows made deterministic,
    so that strategy-positive actions can fall outside the support.  A
    strategy's joint never reads these rows, so no consequence changes."""
    return _point_mass_rows(diagram, seed, diagram.actions)


def zero_covariate_rows(diagram: InfluenceDiagram, seed: int) -> InfluenceDiagram:
    """The diagram with some rows of its observed and hidden covariates made
    deterministic: every strategy's joint reads these rows, so consequences
    change and histories can drop out of every regime's support."""
    covariates = [v for v in diagram.order if diagram.kinds[v] in ("obs", "hid")]
    return _point_mass_rows(diagram, seed, covariates)


def _point_mass_rows(diagram: InfluenceDiagram, seed: int, variables) -> InfluenceDiagram:
    """Each row of the variables' tables, in order, becomes a point mass on
    a random state with probability 0.3."""
    gen = rng(seed)
    cpts = dict(diagram.cpts)
    for v in variables:
        cpt = diagram.cpts[v]
        table = dict(cpt.table)
        for config in table:
            if gen.random() < 0.3:
                chosen = gen.integers(len(diagram.states[v]))
                table[config] = tuple(
                    1.0 if j == chosen else 0.0 for j in range(len(diagram.states[v]))
                )
        cpts[v] = Cpt(v, cpt.parents, table)
    return InfluenceDiagram(
        diagram.variables, diagram.dag.edges, cpts, diagram.obs_parents, diagram.int_parents
    )


def build_dag_i_prime(
    diagram: InfluenceDiagram, i: int, action_order: tuple[str, ...] | None = None
) -> Dag:
    """Variant of the stage-i diagram without the regime node and without
    arrows out of the stage-i action."""
    actions = tuple(action_order) if action_order else diagram.actions
    if not 1 <= i <= len(actions):
        raise InputError(f"stage index {i} outside 1..{len(actions)}")
    d = build_dag_i(diagram, i, actions)
    a_i = actions[i - 1]
    return Dag(
        tuple(v for v in d.nodes if v != SIGMA),
        [(u, v) for u, v in d.edges if u not in (SIGMA, a_i)],
    )


def graphsep_by_action(diagram: InfluenceDiagram) -> tuple[tuple[int, bool], ...]:
    """The stages of ``check_graphsep`` by the other separation test: the
    response from the stage action in ``build_dag_i_prime``, given the
    observed past before the stage action."""
    base = diagram.base
    stages = []
    for i in range(1, diagram.n + 1):
        cond = [v for j in range(i) for v in base.lblocks[j]]
        cond += [base.action(j) for j in range(1, i)]
        d = build_dag_i_prime(diagram, i)
        stages.append((i, separated(d, {diagram.response}, {base.action(i)}, cond)))
    return tuple(stages)


def _axes(diagram: InfluenceDiagram, probs: np.ndarray) -> tuple[str, ...]:
    """The variables of an array's axes: ``diagram.order`` for a joint over
    every variable, else the first ``probs.ndim`` variables of the
    observable base."""
    if probs.ndim == len(diagram.order):
        return diagram.order
    return diagram.base.vars[: probs.ndim]


def _locate(diagram: InfluenceDiagram, names, assignment: Mapping[str, str]) -> tuple:
    """Index of a label assignment into an array over ``names``: the
    state's index on each assigned axis, a full slice on the others."""
    idx = [slice(None)] * len(names)
    for var, label in assignment.items():
        if var not in names:
            raise InputError(f"unknown variable {var!r}")
        if label not in diagram.states[var]:
            raise InputError(f"{label!r} is not a state of {var}")
        idx[names.index(var)] = diagram.states[var].index(label)
    return tuple(idx)


def prob(diagram: InfluenceDiagram, probs: np.ndarray, assignment: Mapping[str, str]) -> float:
    """Probability of a label assignment under a joint array (see ``_axes``)."""
    return float(probs[_locate(diagram, _axes(diagram, probs), assignment)].sum())


def conditional(
    diagram: InfluenceDiagram, probs: np.ndarray, target: Iterable[str], given: Mapping[str, str]
):
    """Normalized slice over ``target`` configurations, or None.

    ``probs`` is a joint array (see ``_axes``).  Returns a mapping from
    target configuration (in the array's variable order) to probability
    when the conditioning event has positive mass, None otherwise.
    """
    names = _axes(diagram, probs)
    target = [v for v in names if v in set(target)]
    if set(target) & set(given):
        raise InputError("target and conditioning variables overlap")
    sub = probs[_locate(diagram, names, given)]
    remaining = [v for v in names if v not in given]
    drop = tuple(i for i, v in enumerate(remaining) if v not in set(target))
    table = sub.sum(axis=drop) if drop else sub
    denom = float(table.sum())
    if denom <= 0.0:
        return None
    table = table / denom
    out = {}
    for config in itertools.product(*(diagram.states[v] for v in target)):
        idx = tuple(diagram.states[v].index(s) for v, s in zip(target, config))
        out[config] = float(table[idx])
    return out


def labels(base, masks: Mapping[int, np.ndarray]) -> frozenset:
    """Every history true in a dict of boundary masks on ``base`` (a
    source's ``support()``, a live frontier), as a tuple of state labels."""
    return frozenset(h for mask in masks.values() for h in base.histories(mask))


def support_labels(diagram: InfluenceDiagram, regime) -> frozenset:
    """The observable histories with positive probability under a regime."""
    return labels(diagram.base, ExactSource(diagram, regime).support())


def mechanism(diagram: InfluenceDiagram, regime, var: str):
    """``(parents, array)`` of the table that generates ``var`` under a
    regime, read off the diagram and the strategy alone: an action's entry
    of a mixed regime (a list) first, then the strategy's policy for an
    action under a strategy, the diagram's table otherwise."""
    if isinstance(regime, list) and var in diagram.actions:
        regime = regime[diagram.actions.index(var)]
    act = diagram.kinds[var] == "act" and regime != "obs"
    table = regime.policies[var] if act else diagram.cpts[var]
    return table.parents, table.array


def support_propagation(
    diagram: InfluenceDiagram, strategies: Iterable[Strategy] = ()
) -> dict[str, np.ndarray]:
    """Zero/non-zero possibility marking over all joint configurations,
    derived from the zero pattern of the tables alone.

    Matches exact support by construction at this scale: a configuration
    is possible exactly when every factor entry along it is positive.
    """
    out = {}
    for regime in ("obs", *strategies):
        if regime != "obs":
            diagram.base.validate_strategy(regime)
        mask = np.ones(diagram.cards(), dtype=bool)
        for v in diagram.order:
            # One AND per factor: a product of tiny entries could underflow to 0.
            mask &= factor_array(diagram.order, v, *mechanism(diagram, regime, v)) > 0.0
        out[regime if regime == "obs" else regime.name] = mask
    return out
