"""The conditions that license the backward recursion: simple stability,
sequential randomization and irrelevance, the mixed-regime diagrams
(``build_dag_i``) with their separation check ``graphsep`` and their
numeric check ``verify_general_conditions``, and the positivity variants.

Every stage-wise check returns one ``StabilityReport`` of
``StageVerdict``s.  Graphical checks run separation tests on the full
diagram (hidden variables included), or on the mixed diagrams for
``check_graphsep``; numeric checks compare exact conditionals across
regimes on positive-probability events to the absolute tolerance ``TOL``.
Failed stages always carry a witness: an offending path for graphical
checks, a conditioning event with the two differing probability vectors
for numeric ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .errors import InputError
from .graph import Dag, connecting_path
from .model import (
    SIGMA,
    ExactSource,
    InfluenceDiagram,
    InfoBase,
    Policy,
    PrefixSource,
    Strategy,
    Table,
    _action_factors,
    _conditional,
    _joint,
    _observed,
    _response_rows,
    _row_sums,
    _row_test,
    joint_distribution,
)
from .grecursion import _policy_arrays, g_recursion, live_frontier

TOL = 1e-9  # absolute tolerance of every numeric check


@dataclass(frozen=True)
class PathWitness:
    path: tuple[str, ...]

    def __str__(self):
        return "-".join(self.path)


@dataclass(frozen=True)
class DivergenceWitness:
    event: tuple[tuple[str, str], ...]
    left: str
    right: str
    left_probs: tuple[float, ...]
    right_probs: tuple[float, ...]

    def __str__(self):
        ev = ",".join(f"{v}={s}" for v, s in self.event) or "()"
        return f"{ev}:{self.left}!={self.right}"


@dataclass(frozen=True)
class StageVerdict:
    stage: int
    passed: bool
    witness: PathWitness | DivergenceWitness | None = None


@dataclass(frozen=True)
class StabilityReport:
    stages: tuple[StageVerdict, ...]  # stage i at index i - 1
    extended_positivity: Mapping[str, bool] = field(default_factory=dict)

    @property
    def overall(self) -> bool:
        return all(s.passed for s in self.stages)


def _separation(i: int, dag: Dag, a: Iterable[str], c: Iterable[str]) -> StageVerdict:
    """Stage ``i`` passes when ``c`` separates ``a`` from the regime node
    (always, for an empty block ``a``); otherwise its witness is the
    connecting path."""
    path = connecting_path(dag, a, {SIGMA}, c)
    return StageVerdict(i, path is None, None if path is None else PathWitness(path))


def _labels(diagram: InfluenceDiagram, names, flat) -> tuple[tuple[str, str], ...]:
    """``(name, state)`` pairs of the row-major configuration ``flat`` of ``names``."""
    dims = [len(diagram.states[v]) for v in names]
    return tuple((v, diagram.states[v][j]) for v, j in zip(names, np.unravel_index(flat, dims)))


def check_simple_stability_graphical(diagram: InfluenceDiagram) -> StabilityReport:
    """Separation of each covariate block from the regime node given the
    observed past, on the full diagram."""
    base = diagram.base
    stages = (
        _separation(i, diagram.dag, base.vars[lo:hi], base.vars[:lo])
        for i, lo, hi, _ in base.stages
    )
    return StabilityReport(tuple(stages))


def _uniform_strategy(base: InfoBase) -> Strategy:
    """The strategy named ``uniform`` that takes every action's states with
    equal probability whatever the observed past: the uniform full-history
    strategy, whose rows are all equal, so its policies read no parent."""
    policies = {}
    for a in base.actions:
        width = len(base.states[a])
        policies[a] = Policy((), Table((), np.full(width, 1.0 / width)))
    return Strategy("uniform", policies)


def check_simple_stability_numeric(
    diagram: InfluenceDiagram, strategies: Iterable[Strategy]
) -> StabilityReport:
    """Equality of covariate-block conditionals between the observational
    regime and each supplied strategy, wherever both are defined.  The
    witness is the first past configuration in row-major order that
    differs, and on a tie the first strategy supplied.

    Two strategies are never compared with each other: their joints
    differ only in action factors, which read observed variables alone
    and so cancel from every conditional of a block given the observed
    past.  Each strategy's source is dropped before the next is built.

    With no strategy the check covers the whole class of control
    strategies: it compares with ``_uniform_strategy``, which by that
    cancellation agrees with every strategy wherever that one is
    defined, and whose support holds every strategy's support."""
    base = diagram.base
    obs = ExactSource(diagram)
    first = {}  # stage -> (row, witness) of its earliest divergence so far
    for strategy in list(strategies) or [_uniform_strategy(base)]:
        other = ExactSource(diagram, strategy)
        for i, lo, hi, _ in base.stages:
            if lo == hi:
                continue
            left, right = obs.given(lo, hi), other.given(lo, hi)
            defined = obs.support()[lo] & other.support()[lo]
            bad = (defined & _row_test(np.abs(left - right) > TOL)).reshape(-1)
            row = int(np.argmax(bad))
            if bad[row] and (i not in first or row < first[i][0]):
                event = np.unravel_index(row, defined.shape)
                first[i] = row, DivergenceWitness(
                    _labels(diagram, base.vars[:lo], row), "obs", strategy.name,
                    tuple(left[event]), tuple(right[event]),
                )
        del other
    stages = (
        StageVerdict(i, False, first[i][1]) if i in first else StageVerdict(i, True)
        for i, *_ in base.stages
    )
    return StabilityReport(tuple(stages))


def check_sequential_randomization(diagram: InfluenceDiagram) -> bool:
    """Structural test: no action has a hidden parent in the diagram.
    (Regime arrows enter actions only: ``InfluenceDiagram`` rejects any
    other.)"""
    hidden = set(diagram.hidden)
    return not any(hidden & set(diagram.domain_parents[a]) for a in diagram.actions)


def _covered(p: np.ndarray, q: np.ndarray) -> bool:
    """Whether ``q`` is positive wherever ``p`` is (absolute continuity)."""
    return bool(np.all((p <= 0.0) | (q > 0.0)))


def check_sequential_irrelevance_numeric(
    diagram: InfluenceDiagram, strategies: Iterable[Strategy] = ()
) -> StabilityReport:
    """Independence of each covariate block from all earlier hidden
    variables given the observed past, tested on the observational joint.

    The check is numeric by design: this condition is not representable
    as a single diagram.  Extended positivity against each supplied
    strategy is reported alongside.
    """
    base = diagram.base
    joint = joint_distribution(diagram, "obs")
    index = diagram.index
    stages = []
    for i, lo, hi, _ in base.stages:
        if i == 1 or lo == hi:
            u_past: tuple[str, ...] = ()
        else:
            a_prev = base.action(i - 1)
            u_past = tuple(u for u in diagram.hidden if index[u] < index[a_prev])
        if not u_past:
            stages.append(StageVerdict(i, True))
            continue
        past = base.vars[:lo]
        wanted = past + u_past + base.vars[lo:hi]
        dims = [len(diagram.states[v]) for v in wanted]
        kept = sorted(index[v] for v in wanted)
        marginal = joint.sum(axis=tuple(j for j in range(joint.ndim) if j not in kept))
        arr = np.transpose(marginal, [kept.index(index[v]) for v in wanted]).reshape(
            math.prod(dims[:lo]), math.prod(dims[lo : lo + len(u_past)]), -1
        )
        # The block given (past, hidden past), compared in each past row
        # with the first defined hidden configuration of that row.
        cond, defined = _conditional(arr), _row_sums(arr) > 0.0
        first = np.argmax(defined, axis=1)
        far = _row_test(np.abs(cond - cond[np.arange(len(arr)), first][:, None]) > TOL)
        hits = np.argwhere(defined & far)
        if not len(hits):
            stages.append(StageVerdict(i, True))
            continue
        row, ucol = hits[0]
        u_event = _labels(diagram, u_past, ucol)
        witness = DivergenceWitness(
            _labels(diagram, past, row) + u_event,
            "given " + ",".join(f"{v}={s}" for v, s in _labels(diagram, u_past, first[row])),
            "given " + ",".join(f"{v}={s}" for v, s in u_event),
            tuple(cond[row, first[row]]),
            tuple(cond[row, ucol]),
        )
        stages.append(StageVerdict(i, False, witness))
    extras = {s.name: _covered(joint_distribution(diagram, s), joint) for s in strategies}
    return StabilityReport(tuple(stages), extras)


def _check_int_strategy(diagram: InfluenceDiagram, strategy: Strategy | None) -> None:
    """Raise unless the strategy is absent or valid with every policy on
    its action's declared int-parents."""
    if strategy is None:
        return
    diagram.base.validate_strategy(strategy)
    for a, pol in strategy.policies.items():
        extra = set(pol.parents) - set(diagram.int_parents[a])
        if extra:
            raise InputError(
                f"strategy {strategy.name!r} lets {a} depend on {sorted(extra)}, "
                f"outside its declared int-parents"
            )


def _action_order(diagram: InfluenceDiagram, action_order) -> tuple[str, ...]:
    """``action_order`` as a tuple, the diagram's own order for None;
    InputError unless it lists every action exactly once."""
    if action_order is None:
        return diagram.actions
    order = tuple(action_order)
    if sorted(order) != sorted(diagram.actions):
        raise InputError("action order must be a permutation of the diagram's actions")
    return order


def build_dag_i(
    diagram: InfluenceDiagram, i: int, action_order: tuple[str, ...] | None = None
) -> Dag:
    """Mixed-regime diagram for stage i in 0..n: actions before stage i
    keep their observational parents, actions after it their
    interventional parents, and the stage-i action receives the only arrow
    out of the regime node (none at stage 0, the interventional diagram)."""
    actions = _action_order(diagram, action_order)
    if not 0 <= i <= len(actions):
        raise InputError(f"stage index {i} outside 0..{len(actions)}")
    assignments = {}
    for j, a in enumerate(actions, start=1):
        if j < i:
            assignments[a] = diagram.obs_parents[a]
        elif j > i:
            assignments[a] = diagram.int_parents[a]
        else:
            assignments[a] = diagram.domain_parents[a] + (SIGMA,)
    return diagram.dag.with_parents(assignments)


def check_graphsep(diagram: InfluenceDiagram, strategy: Strategy | None = None) -> StabilityReport:
    """Per-stage separation of the response from the regime node in the
    mixed diagrams, given the observed past up to and including the stage
    action; licenses the recursion without plain stability.  A failing
    stage carries the connecting path, from the response to the regime
    node.  (Separating the response from the stage action in the mixed
    diagram without the regime node and the action's out-arrows is
    equivalent; the tests hold that lemma.)"""
    _check_int_strategy(diagram, strategy)
    base = diagram.base
    stages = (
        _separation(i, build_dag_i(diagram, i), (diagram.response,), base.vars[:m])
        for i, _, _, m in base.stages[: base.n]
    )
    return StabilityReport(tuple(stages))


@dataclass(frozen=True)
class GeneralConditionsReport:
    """Numeric verification of the conditions licensing the recursion.

    The mixed regime P_i runs the first i actions on their observational
    tables and the rest on the strategy.  Three of the conditions hold for
    these joints by construction, so they are reported true without being
    computed:

    - l-factors: P_{i-1} and the observational joint share every factor of
      the variables before A_i, and the later factors sum out of the
      marginal over them, so both give the same distribution of each
      covariate block given the observed past before A_i;
    - action factors: under P_{i-1} the action A_i follows its policy,
      whose parents are earlier observables, so A_i given the observed
      past is that policy's row;
    - support biconditional: P_i and the observational joint share every
      factor up to and including A_i, so they give the same marginal, and
      the same support, over the base up to A_i.
    """

    y_bridge: bool
    y_bridge_failures: tuple  # first 3 (stage, history) mismatches: stage, then row-major
    positivity: bool  # strategy-positive extensions stay observationally possible
    consequence_delta: float | None  # max |recursion - oracle| when everything holds
    support_biconditional = l_factors = action_factors = True  # by construction

    @property
    def overall(self) -> bool:
        return self.y_bridge and self.positivity


def verify_general_conditions(
    diagram: InfluenceDiagram, strategy: Strategy
) -> GeneralConditionsReport:
    """Check the artificial-distribution route stage by stage.

    The response bridge compares, after each action, the response given
    the observed past under P_{i-1} and P_i, over histories live under
    both and under the strategy; the other three conditions hold by
    construction (see ``GeneralConditionsReport``).  When every condition
    holds, the recursion output is compared with the direct oracle for
    each response state.
    """
    base = diagram.base
    obs = ExactSource(diagram)
    gamma, witness = live_frontier(obs, _policy_arrays(base, strategy))
    full = len(base.vars)

    def mixed(i: int) -> np.ndarray:
        """P_i as a bare table over the base; P_n is obs."""
        if i == base.n:
            return obs.marginal(full)
        regime = ["obs"] * i + [strategy] * (base.n - i)
        return _observed(diagram, joint_distribution(diagram, regime))

    def response(p: np.ndarray, m: int):
        """P's support after m positions, and its response given each history
        there; ``einsum`` sums the axes between several times faster than ``sum``."""
        rows = np.einsum(p, range(full), [*range(m), full - 1])
        return _row_sums(rows) > 0.0, _conditional(rows)

    # Each P_{i-1} is dropped before P_i is built, so two tables are held at
    # a time, obs and one other, each summed only at the boundaries read.
    y_failures, p = [], mixed(0)
    for i in range(1, base.n + 1):
        m = base.after_a(i)
        on_left, left = response(p, m)
        del p
        p = mixed(i)
        on_right, right = response(p, m)
        bad = gamma[m] & on_left & on_right & _row_test(np.abs(left - right) > TOL)
        y_failures += [(i, h) for h in base.histories(bad, 3 - len(y_failures))]
        del on_left, left, on_right, right, bad  # before the next P_i or the oracle

    y_ok, delta = not y_failures, None
    if y_ok and witness is None:
        # One joint: an entry is bitwise ``consequence_direct`` of its indicator k.
        oracle = _response_rows(diagram, _action_factors(diagram, strategy))[0].tolist()
        delta = 0.0
        for y_state, direct in zip(base.states[base.response], oracle):
            k = {s: 1.0 if s == y_state else 0.0 for s in base.states[base.response]}
            delta = max(delta, abs(g_recursion(obs, strategy, k) - direct))
        if not delta <= TOL:
            raise AssertionError(f"recursion disagrees with the oracle by {delta}")

    return GeneralConditionsReport(y_ok, tuple(y_failures), witness is None, delta)


@dataclass(frozen=True)
class PositivityReport:
    simple: bool
    extended: bool
    parent_child: bool
    general: bool


def check_positivity(diagram: InfluenceDiagram, strategy: Strategy) -> PositivityReport:
    """The four positivity variants for one strategy against the
    observational regime."""
    fe, fo = _action_factors(diagram, strategy), _action_factors(diagram, "obs")
    je, jo = _joint(diagram, fe)[0], _joint(diagram, fo)[0]
    obs = _observed(diagram, jo)
    # A prefix's mass sums its full histories' non-negative masses, so it is
    # positive exactly when one of them is: the full histories decide simple
    # positivity for every prefix.
    simple = _covered(_observed(diagram, je), obs)
    extended = _covered(je, jo)

    # Each action's two factors broadcast over the union of their parents.
    parent_child = not any(np.any((pe > 0.0) & (po <= 0.0)) for pe, po in zip(fe, fo))

    policies = _policy_arrays(diagram.base, strategy)
    general = live_frontier(PrefixSource(diagram.base, obs), policies)[1] is None

    if (parent_child or extended) and not simple:
        raise AssertionError("parent-child and extended positivity must each imply simple")
    return PositivityReport(simple, extended, parent_child, general)
