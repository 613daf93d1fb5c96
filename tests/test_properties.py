"""Property tests guarding the shared backward engine.

The averaging recursion must reproduce the exact oracle wherever the
mixed-diagram check and positivity license it, and the max/min recursion
must find the same optimum as exhaustive enumeration.
"""

import itertools

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import dirichlet_row, random_extended_id, rng
from regimes.fixtures import complete_stable
from regimes.grecursion import check_cond6, check_graphsep, recursion_table
from regimes.model import (
    ExactSource,
    Policy,
    Strategy,
    consequence_direct,
    support,
)
from regimes.optimize import enumerate_strategies, optimal_strategy

K01 = {"0": 0.0, "1": 1.0}


def int_parent_strategy(diagram, seed):
    """Random strategy whose policies read every declared int-parent;
    rows are a mix of deterministic and Dirichlet draws."""
    gen = rng(seed)
    policies = {}
    for a in diagram.actions:
        parents = diagram.int_parents[a]
        width = len(diagram.states[a])
        table = {}
        for config in itertools.product(*(diagram.states[p] for p in parents)):
            if gen.random() < 0.5:
                chosen = gen.integers(width)
                table[config] = tuple(1.0 if j == chosen else 0.0 for j in range(width))
            else:
                table[config] = dirichlet_row(gen, width)
        policies[a] = Policy(parents, table)
    return Strategy(f"int{seed}", policies)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 10**6),
    st.integers(1, 3),
    st.booleans(),
    st.integers(0, 10**6),
)
def test_recursion_matches_oracle_when_licensed(seed, n_actions, confounded, strategy_seed):
    diagram = random_extended_id(seed, n_actions=n_actions, hidden_to_action=confounded)
    strategy = int_parent_strategy(diagram, strategy_seed)
    assume(check_graphsep(diagram, strategy).overall)
    assume(check_cond6(support(diagram, "obs"), strategy)[0])
    root = recursion_table(ExactSource(diagram), strategy, K01).root
    assert abs(root - consequence_direct(diagram, strategy, K01)) <= 1e-9


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 2), st.sampled_from(["max", "min"]))
def test_optimizer_matches_enumeration(seed, n_actions, sense):
    diagram, _ = complete_stable(n_actions, seed=seed)
    _, value = optimal_strategy(ExactSource(diagram), K01, sense)
    _, best = enumerate_strategies(diagram, K01, sense)
    assert abs(value - best) <= 1e-9
