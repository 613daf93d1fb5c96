"""Backward evaluation of strategy consequences from observational ingredients.

The evaluator alternates an action-averaging step (strategy probabilities)
and a covariate-averaging step (observational conditionals) from full
histories down to the empty one.  Its conditionals come from a
``PrefixSource``, the prefix marginals of one table over the observable
base, so the same engine runs on the exact joint and on frequency counts;
the optimizer reuses it with the action average replaced by a max or min.
The module also builds the auxiliary mixed-regime diagrams and artificial
joint distributions used to justify the recursion when plain stability
fails, together with their graphical and numeric checks, which read each
artificial distribution through a source of the same type.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, PositivityError
from .graph import Dag, separated
from .model import (
    SIGMA,
    UNDEFINED,
    ExactSource,
    InfluenceDiagram,
    InfoBase,
    JointTable,
    PartialHistory,
    PrefixSource,
    Strategy,
    SupportSet,
    consequence_direct,
    joint_with_action_selector,
    response_weights,
)

TOL = 1e-9


@dataclass
class RecursionTable:
    """Values f(h) computed over the live frontier.

    Histories absent from ``values`` were pruned because they are
    observationally impossible or off-strategy; their value is 0 by
    convention.  A strategy-positive action state that is observationally
    impossible is never pruned: the recursion raises ``PositivityError``
    with that extended history instead of dropping its strategy mass.
    """

    base: InfoBase
    strategy: str
    source: str
    values: dict = field(default_factory=dict)

    @property
    def root(self) -> float:
        return self.values[()]


def _normalize_k(base: InfoBase, k):
    if callable(k):
        return k
    weights = response_weights(base, k)
    y_index = {s: i for i, s in enumerate(base.states[base.response])}
    return lambda h: float(weights[y_index[h[-1]]])


def _backward(source, k, action_step) -> dict:
    """Backward recursion from full histories down to the empty one.

    Covariate blocks are averaged over the source's observational
    conditionals and full histories take their ``k`` value; the value of
    a history ending just before the i-th action is
    ``action_step(i, h, value_before_block)``, where
    ``value_before_block(i + 1, h + (state,))`` values one extension.
    Returns every computed value keyed by history.
    """
    base = source.base
    kfun = _normalize_k(base, k)
    values = {}

    def value_before_block(i: int, h: PartialHistory) -> float:
        # h = (lbar_{i-1}, abar_{i-1}); the i-th covariate block comes next,
        # then the i-th action, or nothing when i == N+1.
        cond = source.l_conditional(i, h)
        if cond is UNDEFINED:
            raise PositivityError(h)
        total = 0.0
        for config, p in zip(base.block_configs(i), cond):
            if p <= 0.0:
                continue
            h2 = h + config
            v = kfun(h2) if i == base.n + 1 else action_step(i, h2, value_before_block)
            values[h2] = v
            total += float(p) * v
        values[h] = total
        return total

    value_before_block(1, ())
    return values


def _policy_positions(base: InfoBase, strategy: Strategy) -> dict:
    """Positions in a history of each action's policy parents."""
    return {
        a: tuple(base.position(p) for p in strategy.policies[a].parents)
        for a in base.actions
    }


def recursion_table(source, strategy: Strategy, k) -> RecursionTable:
    """Run the backward recursion and keep every computed value."""
    base = source.base
    positions = _policy_positions(base, strategy)

    def average(i: int, h: PartialHistory, value_before_block) -> float:
        action = base.action(i)
        row = strategy.policies[action].row(tuple(h[p] for p in positions[action]))
        total = 0.0
        for state, p in zip(base.states[action], row):
            if p <= 0.0:
                continue
            h2 = h + (state,)
            if not source.possible(h2):
                raise PositivityError(h2)
            total += float(p) * value_before_block(i + 1, h2)
        return total

    values = _backward(source, k, average)
    return RecursionTable(base, strategy.name, source.label, values)


def g_recursion(source, strategy: Strategy, k) -> float:
    """Consequence of the strategy from observational ingredients."""
    return recursion_table(source, strategy, k).root


def gamma_support(obs_support: SupportSet, strategy: Strategy) -> SupportSet:
    """Live recursion frontier: histories in the observational support
    whose action prefix the strategy can generate."""
    base = obs_support.base
    positions = _policy_positions(base, strategy)
    state_pos = {a: {s: j for j, s in enumerate(base.states[a])} for a in base.actions}
    live = set()
    for h in obs_support.histories:
        ok = True
        for i in range(1, base.n + 1):
            cut = base.after_a(i)
            if len(h) < cut:
                break
            action = base.action(i)
            row = strategy.policies[action].row(tuple(h[p] for p in positions[action]))
            if row[state_pos[action][h[cut - 1]]] <= 0.0:
                ok = False
                break
        if ok:
            live.add(h)
    return SupportSet(base, frozenset(live))


def check_cond6(obs_support: SupportSet, strategy: Strategy):
    """Whether every strategy-positive extension of a live history is
    observationally possible.  Returns (verdict, first offending history)."""
    base = obs_support.base
    gamma = gamma_support(obs_support, strategy)
    positions = _policy_positions(base, strategy)
    for h in gamma:
        for i in range(1, base.n + 1):
            if len(h) == base.after_l(i):
                action = base.action(i)
                row = strategy.policies[action].row(tuple(h[p] for p in positions[action]))
                for state, p in zip(base.states[action], row):
                    if p > 0.0 and h + (state,) not in obs_support:
                        return False, h + (state,)
    return True, None


def construct_p_i(diagram: InfluenceDiagram, strategy: Strategy, i: int) -> JointTable:
    """Artificial joint: the first i actions follow the observational
    tables, the remaining ones follow the strategy."""
    if not 0 <= i <= diagram.n:
        raise InputError(f"stage index {i} outside 0..{diagram.n}")
    diagram.validate_strategy(strategy)
    order = {a: j + 1 for j, a in enumerate(diagram.actions)}
    return joint_with_action_selector(
        diagram, lambda a: "obs" if order[a] <= i else strategy
    )


def build_dag_i(
    diagram: InfluenceDiagram, i: int, action_order: tuple[str, ...] | None = None
) -> Dag:
    """Mixed-regime diagram: actions before stage i keep their
    observational parents, actions after it their interventional parents,
    and the stage-i action receives the only arrow out of the regime node."""
    actions = tuple(action_order) if action_order else diagram.actions
    if set(actions) != set(diagram.actions):
        raise InputError("action_order must be a permutation of the diagram's actions")
    if not 0 <= i <= len(actions) + 1:
        raise InputError(f"stage index {i} outside 0..{len(actions) + 1}")
    assignments = {}
    for j, a in enumerate(actions, start=1):
        if j < i:
            assignments[a] = diagram.obs_parents[a]
        elif j > i:
            assignments[a] = diagram.int_parents[a]
        else:
            assignments[a] = diagram.domain_parents[a] + (SIGMA,)
    return diagram.dag.with_parents(assignments)


def build_dag_i_prime(
    diagram: InfluenceDiagram, i: int, action_order: tuple[str, ...] | None = None
) -> Dag:
    """Variant of the stage-i diagram without the regime node and without
    arrows out of the stage-i action."""
    actions = tuple(action_order) if action_order else diagram.actions
    if not 1 <= i <= len(actions):
        raise InputError(f"stage index {i} outside 1..{len(actions)}")
    d = build_dag_i(diagram, i, actions).drop([SIGMA])
    a_i = actions[i - 1]
    return Dag(d.nodes, [(u, v) for u, v in d.edges if u != a_i])


def _check_int_strategy(diagram: InfluenceDiagram, strategy: Strategy | None) -> None:
    """Raise unless the strategy is absent or valid with every policy on
    its action's declared int-parents."""
    if strategy is None:
        return
    diagram.validate_strategy(strategy)
    for a, pol in strategy.policies.items():
        extra = set(pol.parents) - set(diagram.int_parents[a])
        if extra:
            raise InputError(
                f"strategy {strategy.name!r} lets {a} depend on {sorted(extra)}, "
                f"outside its declared int-parents"
            )


@dataclass(frozen=True)
class GraphsepReport:
    stages: tuple[tuple[int, bool], ...]

    @property
    def overall(self) -> bool:
        return all(ok for _, ok in self.stages)

    def stage(self, i: int) -> bool:
        return dict(self.stages)[i]


def check_graphsep(diagram: InfluenceDiagram, strategy: Strategy | None = None) -> GraphsepReport:
    """Per-stage separation of the response from the regime node in the
    mixed diagrams; licenses the recursion without plain stability."""
    _check_int_strategy(diagram, strategy)
    base = diagram.base
    y = diagram.response
    stages = []
    for i in range(1, diagram.n + 1):
        cond = [v for j in range(1, i + 1) for v in base.block(j)]
        cond += [base.action(j) for j in range(1, i + 1)]
        d_i = build_dag_i(diagram, i)
        ok = separated(d_i, {y}, {SIGMA}, cond)
        d_ip = build_dag_i_prime(diagram, i)
        ok_prime = separated(d_ip, {y}, {base.action(i)}, cond[:-1])
        if ok != ok_prime:
            raise AssertionError(f"stage {i}: the two separation tests disagree")
        stages.append((i, ok))
    return GraphsepReport(tuple(stages))


@dataclass(frozen=True)
class GeneralConditionsReport:
    """Numeric verification of the conditions licensing the recursion."""

    support_biconditional: bool
    l_factors: bool
    action_factors: bool
    y_bridge: bool
    y_bridge_failures: tuple  # (stage, history) of the first few mismatches
    positivity: bool  # strategy-positive extensions stay observationally possible
    consequence_delta: float | None  # max |recursion - oracle| when everything holds

    @property
    def overall(self) -> bool:
        return (
            self.support_biconditional
            and self.l_factors
            and self.action_factors
            and self.y_bridge
            and self.positivity
        )


def verify_general_conditions(
    diagram: InfluenceDiagram, strategy: Strategy, tol: float = TOL
) -> GeneralConditionsReport:
    """Check the artificial-distribution route stage by stage.

    All comparisons run only over conditioning histories that are live
    under both the relevant artificial distribution and the strategy.
    When every condition holds, the recursion output is compared with the
    direct oracle for each response state.
    """
    base = diagram.base
    diagram.validate_strategy(strategy)
    p = {}
    for i in range(diagram.n):
        table = construct_p_i(diagram, strategy, i).marginal(base.vars).probs
        p[i] = PrefixSource(base, table, f"p{i}")
    # Stage n keeps every action observational: it is the observational source.
    obs = p[diagram.n] = ExactSource(diagram)
    obs_support = obs.support()
    gamma = {}
    for h in gamma_support(obs_support, strategy):
        gamma.setdefault(len(h), []).append(h)

    # Support biconditional: after stage i, the artificial distribution and
    # the observational one agree on which (lbar_i, abar_i) are possible.
    support_ok = True
    for i in range(1, base.n + 1):
        m = base.after_a(i)
        if not np.array_equal(p[i].marginal(m) > 0.0, obs.marginal(m) > 0.0):
            support_ok = False

    l_ok = True
    a_ok = True
    positions = _policy_positions(base, strategy)
    for i in range(1, base.n + 2):
        for h in gamma.get(base.before_l(i), ()):
            if not p[i - 1].possible(h):
                continue
            left, right = p[i - 1].l_conditional(i, h), obs.l_conditional(i, h)
            if np.any(np.abs(left - right) > tol):
                l_ok = False
    for i in range(1, base.n + 1):
        action = base.action(i)
        pol = strategy.policies[action]
        for h in gamma.get(base.after_l(i), ()):
            if not p[i - 1].possible(h):
                continue
            left = p[i - 1].after(h, base.after_a(i))
            row = pol.row(tuple(h[q] for q in positions[action]))
            if np.any(np.abs(left - row) > tol):
                a_ok = False

    y_ok = True
    y_failures = []
    width = len(base.states[base.response])
    for i in range(1, base.n + 1):
        for h in gamma.get(base.after_a(i), ()):
            if not (p[i - 1].possible(h) and p[i].possible(h)):
                continue
            # Response given h: the rest of the base given h, summed down to y.
            left = p[i - 1].after(h, len(base.vars)).reshape(-1, width).sum(axis=0)
            right = p[i].after(h, len(base.vars)).reshape(-1, width).sum(axis=0)
            if np.any(np.abs(left - right) > tol):
                y_ok = False
                if len(y_failures) < 3:
                    y_failures.append((i, h))

    pos_ok, _ = check_cond6(obs_support, strategy)

    delta = None
    if support_ok and l_ok and a_ok and y_ok and pos_ok:
        delta = 0.0
        for y_state in base.states[base.response]:
            k = {s: 1.0 if s == y_state else 0.0 for s in base.states[base.response]}
            lhs = g_recursion(obs, strategy, k)
            rhs = consequence_direct(diagram, strategy, k)
            delta = max(delta, abs(lhs - rhs))
        if not delta <= 1e-9:
            raise AssertionError(f"recursion disagrees with the oracle by {delta}")

    return GeneralConditionsReport(
        support_ok, l_ok, a_ok, y_ok, tuple(y_failures), pos_ok, delta
    )
