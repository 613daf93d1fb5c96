"""The shared test generators draw what they always drew.

``random_policies`` draws a Dirichlet-only table in one call; these tests
pin it against a copy of the per-row loop it replaced, so that every
suite built on ``random_strategy`` keeps its data.
"""

import itertools

import numpy as np
import pytest

from fixtures import complete_stable, f1, f4
from helpers import dirichlet_row, random_policies, random_strategy, rng
from regimes.model import Policy


def old_random_policies(gen, base, deterministic):
    """The per-row helper as it was: one draw per parent configuration."""
    policies = {}
    for i, action in enumerate(base.actions, start=1):
        preceding = base.vars[: base.after_l(i)]
        parents = tuple(p for p in preceding if gen.random() < 0.5)
        table = {}
        for config in itertools.product(*(base.states[p] for p in parents)):
            hard = deterministic if deterministic is not None else gen.random() < 0.5
            if hard:
                chosen = gen.integers(len(base.states[action]))
                table[config] = tuple(
                    1.0 if j == chosen else 0.0
                    for j in range(len(base.states[action]))
                )
            else:
                table[config] = dirichlet_row(gen, len(base.states[action]))
        policies[action] = Policy(parents, table)
    return policies


DIAGRAMS = {
    "f1": f1()[0],
    "f4": f4()[0],  # its action follows no observed variable
    "complete1": complete_stable(1, seed=7)[0],
    "complete2": complete_stable(2, seed=8)[0],
}


@pytest.mark.parametrize("name", DIAGRAMS)
@pytest.mark.parametrize("deterministic", [False, None, True])
def test_random_policies_match_the_per_row_helper(name, deterministic):
    base = DIAGRAMS[name].base
    for seed in range(0, 4000, 97):
        old_gen, new_gen = rng(seed), rng(seed)
        old = old_random_policies(old_gen, base, deterministic)
        new = random_policies(new_gen, base, deterministic)
        assert list(old) == list(new)
        for action in old:
            assert old[action].parents == new[action].parents
            # repr tells every bit of a float apart, -0.0 from 0.0 included
            assert repr(list(old[action].table.items())) == repr(list(new[action].table.items()))
        assert repr(old_gen.bit_generator.state) == repr(new_gen.bit_generator.state), seed


def test_random_strategy_is_checked_and_named_by_seed():
    diagram = DIAGRAMS["complete2"]
    strategy = random_strategy(diagram, 12, deterministic=False)
    diagram.base.validate_strategy(strategy)
    assert strategy.name == "rand12"
    for policy in strategy.policies.values():
        assert np.allclose(policy.array.sum(axis=-1), 1.0)
