"""Backward-induction strategy selection, with an exhaustive oracle.

The optimizer runs the recursion's backward engine with the
action-averaging step replaced by a max (or min) over action states.
Ties go to the lexicographically smallest state label, and histories
that cannot occur observationally get that same default, which makes the
returned policy deterministic in every row.
"""

from __future__ import annotations

import itertools
import math

from .errors import CapacityError, PositivityError
from .grecursion import _backward
from .model import (
    InfluenceDiagram,
    PartialHistory,
    Policy,
    Strategy,
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
    better = max if sense == "max" else min
    argmax = {}

    def best_action(i: int, h: PartialHistory, value_before_block) -> float:
        action = base.action(i)
        best_state, best_value = None, None
        for state in sorted(base.states[action]):
            h2 = h + (state,)
            if not source.possible(h2):
                continue
            v = value_before_block(i + 1, h2)
            if best_value is None or better(v, best_value) != best_value:
                best_state, best_value = state, v
        if best_state is None:
            raise PositivityError(h)
        argmax[h] = best_state
        return best_value

    values = _backward(source, k, best_action)
    return _strategy_from_argmax(base, argmax, sense), float(values[()])


def _strategy_from_argmax(base, argmax: dict, sense: str) -> Strategy:
    policies = {}
    for i, action in enumerate(base.actions, start=1):
        parents = base.vars[: base.after_l(i)]
        default = min(base.states[action])
        table = {}
        for config in itertools.product(*(base.states[v] for v in parents)):
            chosen = argmax.get(config, default)
            table[config] = tuple(
                1.0 if s == chosen else 0.0 for s in base.states[action]
            )
        policies[action] = Policy(parents, table)
    return Strategy(sense + "-backward", policies)


def _policy_space(diagram: InfluenceDiagram, action: str, i: int):
    """All deterministic rows for one action, choices in label order."""
    base = diagram.base
    parents = base.vars[: base.after_l(i)]
    configs = list(itertools.product(*(base.states[v] for v in parents)))
    states = sorted(base.states[action])
    return parents, configs, states


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
    spaces = [
        _policy_space(diagram, action, i)
        for i, action in enumerate(base.actions, start=1)
    ]

    better = max if sense == "max" else min
    best: tuple[Strategy, float] | None = None
    choice_lists = [
        list(itertools.product(states, repeat=len(configs)))
        for _, configs, states in spaces
    ]
    for picks in itertools.product(*choice_lists):
        policies = {}
        for (parents, configs, _), chosen_rows, action in zip(
            spaces, picks, base.actions
        ):
            policies[action] = Policy(
                parents,
                {
                    c: tuple(1.0 if s == chosen else 0.0 for s in base.states[action])
                    for c, chosen in zip(configs, chosen_rows)
                },
            )
        strategy = Strategy("enumerated", policies)
        value = consequence_direct(diagram, strategy, k)
        if best is None or better(value, best[1]) != best[1]:
            best = (strategy, value)
    return best


def strategy_count(diagram: InfluenceDiagram) -> int:
    """Number of non-randomized full-history strategies."""
    base = diagram.base
    total = 1
    for i, action in enumerate(base.actions, start=1):
        rows = math.prod(
            len(base.states[v]) for v in base.vars[: base.after_l(i)]
        )
        total *= len(base.states[action]) ** rows
    return total
