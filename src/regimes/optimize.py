"""Backward-induction strategy selection, with an exhaustive oracle.

The optimizer runs the recursion's backward engine with the action step a
max (or min) over action states, stage array by stage array.  Ties go to
the smallest state label, as do histories impossible observationally, so
every policy row is deterministic.  The oracle scores every pure strategy
in batches on a strategy axis, bitwise equal to scoring them one by one.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CapacityError, InputError
from .grecursion import _backward
from .model import InfluenceDiagram, Policy, Strategy, Table, response_weights
from .model import _check_capacity, _consequences

MAX_ENUMERATED = 10**6
BATCH_CELLS = 1 << 16  # joint cells of all the strategies one enumeration pass evaluates


def optimal_strategy(source, k, sense: str = "max") -> tuple[Strategy, float]:
    """Best non-randomized strategy over the full observed history.

    The caller is responsible for having verified stability and
    positivity for the whole strategy class; with all-positive
    observational action rows every control strategy is covered.
    """
    _check_sense(sense)
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
        # Rows off the support have no possible state: 0 replaces their NaN.
        return np.where(support[base.after_l(i)], best, 0.0)

    _, values = _backward(source, k, best_action)
    picks = [choices[i] for i in range(1, base.n + 1)]
    return _pure_strategy(base, sense + "-backward", picks), float(values[0])


def _check_sense(sense: str) -> None:
    if sense not in ("max", "min"):
        raise InputError(f"sense must be 'max' or 'min', not {sense!r}")


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
    backward pass is checked against.  Ties keep the first strategy in the
    enumeration order (earlier actions and rows slowest, labels ascending).
    """
    _check_sense(sense)
    total = strategy_count(diagram)
    if total > MAX_ENUMERATED:
        raise CapacityError(f"{total} strategies exceed the enumeration cap")
    _check_capacity(diagram.cards())
    chunk = max(1, BATCH_CELLS // math.prod(diagram.cards()))
    weights, sign = response_weights(diagram.base, k), 1.0 if sense == "max" else -1.0
    best, best_score = None, -math.inf
    for lo in range(0, total, chunk):
        picks, factors = _batch(diagram, np.arange(lo, min(lo + chunk, total)))
        scores = sign * np.array(_consequences(diagram, factors, weights))
        j = int(scores.argmax())
        if best is None or scores[j] > best_score:
            best, best_score = [choices[j] for choices in picks], scores[j]
    return _pure_strategy(diagram.base, "enumerated", best), float(sign * best_score)


def _batch(diagram: InfluenceDiagram, index: np.ndarray):
    """The ``_pure_strategy`` choices of the strategies at these indices of the
    enumeration, and their policies on ``diagram.order`` behind a strategy axis."""
    base, picks, factors = diagram.base, [], []
    for i in range(base.n, 0, -1):
        states = base.states[base.action(i)]
        width, rows = len(states), _rows(base, i)
        digits = index[:, None] // width ** np.arange(rows - 1, -1, -1) % width
        index = index // width**rows
        picks.insert(0, np.array(_label_order(states))[digits])
        own = base.vars[: base.after_a(i)]
        shape = [len(diagram.states[v]) if v in own else 1 for v in diagram.order]
        factors.insert(0, np.eye(width)[picks[0]].reshape([len(digits)] + shape))
    return picks, factors


def strategy_count(diagram: InfluenceDiagram) -> int:
    """Number of non-randomized full-history strategies."""
    base = diagram.base
    return math.prod(len(base.states[a]) ** _rows(base, i) for i, a in enumerate(base.actions, 1))
