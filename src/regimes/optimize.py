"""Backward-induction strategy selection, with an exhaustive oracle.

The optimizer runs the recursion's backward engine with the
action-averaging step replaced by a max (or min) over action states,
stage array by stage array.  Ties go to the lexicographically smallest
state label, and histories that cannot occur observationally get that
same default, which makes the returned policy deterministic in every row.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import CapacityError
from .grecursion import _backward
from .model import (
    InfluenceDiagram,
    Policy,
    Strategy,
    Table,
    consequence_direct,
)

MAX_ENUMERATED = 10**6


def optimal_strategy(source, k, sense: str = "max") -> tuple[Strategy, float]:
    """Best non-randomized strategy over the full observed history.

    The caller is responsible for having verified stability and
    positivity for the whole strategy class; with all-positive
    observational action rows every control strategy is covered.
    """
    if sense not in ("max", "min"):
        raise ValueError(f"sense must be 'max' or 'min', not {sense!r}")
    base = source.base
    support = source.support().masks
    choices = {}

    def best_action(i: int, values: np.ndarray) -> np.ndarray:
        states = base.states[base.action(i)]
        possible = support[base.after_a(i)]
        # NaN marks rows without a possible state yet; the first one always wins.
        best = np.full(values.shape[:-1], np.nan)
        choice = np.full(values.shape[:-1], states.index(min(states)))
        for j in _label_order(states):
            v = values[..., j]
            take = possible[..., j] & ~(v <= best if sense == "max" else v >= best)
            best = np.where(take, v, best)
            choice[take] = j
        choices[i] = choice.ravel()
        return best

    _, values = _backward(source, k, best_action)
    picks = [choices[i] for i in range(1, base.n + 1)]
    return _pure_strategy(base, sense + "-backward", picks), float(values[0])


def _label_order(states) -> list[int]:
    return sorted(range(len(states)), key=states.__getitem__)


def _rows(base, i: int) -> int:
    """Number of full observed pasts before the i-th action."""
    return math.prod(len(base.states[v]) for v in base.vars[: base.after_l(i)])


def _pure_strategy(base, name: str, choices) -> Strategy:
    """Non-randomized full-history strategy: the i-th action takes state
    index ``choices[i - 1][r]`` after the r-th past (row-major order)."""
    policies = {}
    for i, action in enumerate(base.actions, start=1):
        parents = base.vars[: base.after_l(i)]
        states = tuple(base.states[v] for v in parents)
        width = len(base.states[action])
        one_hot = np.eye(width)[np.asarray(choices[i - 1])]
        shape = tuple(map(len, states)) + (width,)
        policies[action] = Policy(parents, Table(states, one_hot.reshape(shape)))
    return Strategy(name, policies)


def enumerate_strategies(
    diagram: InfluenceDiagram, k, sense: str = "max"
) -> tuple[Strategy, float]:
    """Evaluate every non-randomized full-history strategy directly.

    Infeasible beyond small problems by design; this is the oracle the
    backward pass is checked against.  Ties keep the first strategy in
    the enumeration order (state labels ascending, later rows varying
    fastest).
    """
    if sense not in ("max", "min"):
        raise ValueError(f"sense must be 'max' or 'min', not {sense!r}")
    total = strategy_count(diagram)
    if total > MAX_ENUMERATED:
        raise CapacityError(f"{total} strategies exceed the enumeration cap")
    base = diagram.base
    better = max if sense == "max" else min
    best: tuple[Strategy, float] | None = None
    choice_lists = [
        list(itertools.product(_label_order(base.states[action]), repeat=_rows(base, i)))
        for i, action in enumerate(base.actions, start=1)
    ]
    for picks in itertools.product(*choice_lists):
        strategy = _pure_strategy(base, "enumerated", picks)
        value = consequence_direct(diagram, strategy, k)
        if best is None or better(value, best[1]) != best[1]:
            best = (strategy, value)
    return best


def strategy_count(diagram: InfluenceDiagram) -> int:
    """Number of non-randomized full-history strategies."""
    base = diagram.base
    total = 1
    for i, action in enumerate(base.actions, start=1):
        total *= len(base.states[action]) ** _rows(base, i)
    return total
