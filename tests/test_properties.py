"""Property tests guarding the shared backward engine.

The averaging recursion must reproduce the exact oracle wherever the
mixed-diagram check and positivity license it, and the max/min recursion
must find the same optimum as exhaustive enumeration.  The live-frontier
masks must agree with per-history definitions of the frontier and of
the positivity witness, and the artificial joints must satisfy the three
conditions that hold by their construction.
"""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fixtures import complete_stable
from helpers import (
    dirichlet_row,
    labels,
    random_extended_id,
    random_strategy,
    rng,
    zero_action_rows,
)
from regimes.errors import PositivityError
from regimes.grecursion import _policy_arrays, live_frontier, recursion_table
from regimes.model import (
    ExactSource,
    Policy,
    Strategy,
    consequence_direct,
    factor_array,
)
from regimes.optimize import enumerate_strategies, optimal_strategy
from regimes.stability import check_graphsep, verify_general_conditions

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
    assume(live_frontier(ExactSource(diagram), _policy_arrays(diagram.base, strategy))[1] is None)
    root = recursion_table(ExactSource(diagram), strategy, K01).root
    assert abs(root - consequence_direct(diagram, strategy, K01)) <= 1e-9


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 2), st.sampled_from(["max", "min"]))
def test_optimizer_matches_enumeration(seed, n_actions, sense):
    diagram, _ = complete_stable(n_actions, seed=seed)
    _, value = optimal_strategy(ExactSource(diagram), K01, sense)
    _, best = enumerate_strategies(diagram, K01, sense)
    assert abs(value - best) <= 1e-9


def naive_gamma(base, obs_support, strategy):
    """Per-history definition: observationally possible histories whose
    every action the strategy gives positive probability."""
    live = set()
    for h in labels(base, obs_support):
        ok = True
        for i, action in enumerate(base.actions, start=1):
            cut = base.after_a(i)
            if len(h) < cut:
                break
            pol = strategy.policies[action]
            row = pol.table[tuple(h[base.vars.index(p)] for p in pol.parents)]
            if row[base.states[action].index(h[cut - 1])] <= 0.0:
                ok = False
                break
        if ok:
            live.add(h)
    return live


def naive_cond6(base, obs_support, strategy):
    """Per-history definition: the first strategy-positive extension of a
    live history (support order, then declared action order) that is
    observationally impossible."""
    possible = labels(base, obs_support)
    live = naive_gamma(base, obs_support, strategy)
    for h in sorted(live, key=lambda h: (len(h), h)):
        for i, action in enumerate(base.actions, start=1):
            if len(h) == base.after_l(i):
                pol = strategy.policies[action]
                row = pol.table[tuple(h[base.vars.index(p)] for p in pol.parents)]
                for state, p in zip(base.states[action], row):
                    if p > 0.0 and h + (state,) not in possible:
                        return False, h + (state,)
    return True, None


def by_construction_conditions(diagram, strategy, tol=1e-9):
    """(support biconditional, l-factors, action factors), computed on the
    artificial joints over histories live under the strategy and P_{i-1}:
    the checks ``verify_general_conditions`` leaves to the construction."""
    base = diagram.base
    p = [ExactSource(diagram, ["obs"] * i + [strategy] * (base.n - i)) for i in range(base.n + 1)]
    obs = ExactSource(diagram)
    gamma = live_frontier(obs, _policy_arrays(base, strategy))[0]

    def differs(left, right):
        return np.any(np.abs(left - right) > tol, axis=-1)

    support_ok = l_ok = a_ok = True
    for i, lo, hi, _ in base.stages:
        on = gamma[lo] & p[i - 1].support()[lo]
        l_ok &= not (on & differs(p[i - 1].given(lo, hi), obs.given(lo, hi))).any()
    for i in range(1, base.n + 1):
        lo, m, pol = base.after_l(i), base.after_a(i), strategy.policies[base.action(i)]
        support_ok &= np.array_equal(p[i].marginal(m) > 0.0, obs.marginal(m) > 0.0)
        policy = factor_array(base.vars[:m], base.action(i), pol.parents, pol.array)
        on = gamma[lo] & p[i - 1].support()[lo]
        a_ok &= not (on & differs(p[i - 1].given(lo, m), policy)).any()
    return support_ok, l_ok, a_ok


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 10**6),
    st.integers(1, 3),
    st.booleans(),
    st.integers(0, 10**6),
)
def test_live_masks_match_per_history_definitions(seed, n_actions, confounded, other_seed):
    diagram = zero_action_rows(
        random_extended_id(seed, n_actions=n_actions, hidden_to_action=confounded), other_seed
    )
    strategy = random_strategy(diagram, other_seed)
    base, obs = diagram.base, ExactSource(diagram)
    gamma, witness = live_frontier(obs, _policy_arrays(base, strategy))
    ok = witness is None
    assert labels(base, gamma) == naive_gamma(base, obs.support(), strategy)
    assert (ok, witness) == naive_cond6(base, obs.support(), strategy)
    if not ok:
        with pytest.raises(PositivityError) as err:
            recursion_table(ExactSource(diagram), strategy, K01)
        assert err.value.history == witness
    # These three hold by construction of the artificial distributions.
    assert by_construction_conditions(diagram, strategy) == (True, True, True)
    report = verify_general_conditions(diagram, strategy)
    assert report.support_biconditional and report.l_factors and report.action_factors
    assert report.positivity == ok


def test_zeroed_action_rows_break_positivity():
    """The generator behind the mask property reaches failing cases."""
    verdicts = set()
    for seed in range(30):
        diagram = zero_action_rows(random_extended_id(seed, n_actions=2), seed)
        policies = _policy_arrays(diagram.base, random_strategy(diagram, seed))
        verdicts.add(live_frontier(ExactSource(diagram), policies)[1] is None)
    assert verdicts == {True, False}
