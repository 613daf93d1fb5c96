"""Backward evaluation of strategy consequences from observational ingredients.

The evaluator alternates an action-averaging step (strategy probabilities)
and a covariate-averaging step (observational conditionals) from full
histories down to the empty one, one stage array at a time: each step
handles every history of a stage boundary at once.  Its conditionals are
the ``given`` arrays of a ``PrefixSource``, the prefix marginals of one
table over the observable base, so the same engine runs on the exact
joint and on frequency counts; the optimizer reuses it with the action
average replaced by a max or min.  ``live_frontier`` computes the
histories the engine visits, as one mask per boundary like a source's
``support()``, and the positivity witness that the recursion and the
numeric checks share.  The module also builds the auxiliary mixed-regime
diagrams used to justify the recursion when plain stability fails, and
checks the mixed regimes P_i numerically, reading each as a bare table
over the base and holding two at a time, the observational P_n and one
other; their graphical check, ``check_graphsep``, is in ``stability``
with the other stage-wise checks.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .errors import InputError, PositivityError
from .graph import Dag
from .model import (
    SIGMA,
    ExactSource,
    InfluenceDiagram,
    InfoBase,
    Strategy,
    _action_factors,
    _conditional,
    _observed,
    _response_rows,
    factor_array,
    joint_distribution,
    response_weights,
)

TOL = 1e-9  # absolute tolerance of every numeric check


class HistoryValues(Mapping):
    """Read-only label view of per-boundary value arrays on boundary masks:
    ``view[h]`` is the value of the label tuple ``h`` (KeyError for any key
    off the masks), and iteration runs over the boundaries in ascending
    order, each in row-major order."""

    def __init__(self, base: InfoBase, live: dict, arrays: dict):
        self.base, self.live, self.arrays = base, live, arrays

    def __getitem__(self, h) -> float:
        if not isinstance(h, tuple) or len(h) not in self.live:
            raise KeyError(h)
        states = [self.base.states[v] for v in self.base.vars[: len(h)]]
        idx = tuple(st.index(s) for st, s in zip(states, h) if s in st)
        if len(idx) < len(h) or not self.live[len(h)][idx]:
            raise KeyError(h)
        return float(self.arrays[len(h)][idx])

    def __iter__(self):
        for mask in self.live.values():
            yield from self.base.histories(mask)

    def __len__(self) -> int:
        return sum(int(mask.sum()) for mask in self.live.values())


@dataclass(eq=False)
class RecursionTable:
    """Values f(h) computed over the live frontier.

    ``live`` and ``arrays`` hold one mask and one value array per stage
    boundary of ``base``; ``values`` is a read-only view of the same numbers
    keyed by history; compare tables by ``values``.  Histories absent from
    ``values`` were pruned because they are observationally impossible or
    off-strategy; their value is 0 by convention.  A strategy-positive
    action state that is observationally impossible is never pruned: the
    recursion raises ``PositivityError`` with that extended history
    instead of dropping its strategy mass.
    """

    base: InfoBase
    live: dict
    arrays: dict

    @property
    def values(self) -> HistoryValues:
        return HistoryValues(self.base, self.live, self.arrays)

    @property
    def root(self) -> float:
        return float(self.arrays[0])


def _policy_arrays(base: InfoBase, strategy: Strategy) -> list[np.ndarray]:
    """Each action's policy as a dense array over the base up to and
    including that action; raises unless the strategy is valid on the base."""
    base.validate_strategy(strategy)
    arrays = []
    for i, a in enumerate(base.actions, start=1):
        pol = strategy.policies[a]
        arrays.append(factor_array(base.vars[: base.after_a(i)], a, pol.parents, pol.array))
    return arrays


def live_frontier(source, policies: list[np.ndarray] | None = None):
    """The live frontier and the first positivity witness.

    The frontier keeps the histories of ``source.support()`` whose every
    action the strategy allows (``policies`` as built by ``_policy_arrays``;
    None allows every action), as one mask per stage boundary.  The witness
    is the first strategy-positive action extension of a live history that
    lies outside the support: earliest stage first, then histories in
    label order and action states in declared order.  It is None when
    there is no such extension.
    """
    base, support = source.base, source.support()
    masks, witness, prev = {}, None, None
    for m in base.boundaries:
        mask = support[m]
        if prev is not None:
            parent = masks[prev][(...,) + (None,) * (m - prev)]
            if policies is not None and m in base.stage_of:
                parent = parent & (policies[base.stage_of[m] - 1] > 0.0)
                live = mask & parent
                # Strategy-positive extensions that are observationally impossible.
                if witness is None and np.count_nonzero(live) < np.count_nonzero(parent):
                    states = base.states[base.vars[m - 1]]
                    witness = min(
                        base.histories(parent > mask),
                        key=lambda h: (h[:-1], states.index(h[-1])),
                    )
                mask = live
            else:
                mask = mask & parent
        masks[m] = mask
        prev = m
    return masks, witness


def _average(weights: np.ndarray, values: np.ndarray):
    """Sum over the last axis of ``weights * values``, one state at a time
    in declared order from 0.0, so every history adds its terms in the
    same order as a scalar loop would."""
    total = 0.0
    for j in range(weights.shape[-1]):
        total = total + weights[..., j] * values[..., j]
    return total


def _backward(source, k, action_step, policies=None):
    """Backward recursion over stage arrays, from full histories down to
    the empty one.

    Live full histories take the ``k`` value of their response state
    (``response_weights``) and covariate blocks are averaged over
    ``source.given``; ``action_step(i, values)`` maps the value array
    after the i-th action to the one before it, 0 off the live frontier.
    Raises ``PositivityError`` with the ``live_frontier`` witness.
    Returns the live frontier and one value array per stage boundary, 0
    off it.

    Only the leaves are masked.  The frontier is prefix-closed, so every
    extension of a pruned history is pruned and holds 0; an average of
    those zeros with finite non-negative weights, summed from 0.0, is 0.0
    again, which is exactly what masking it would store.
    """
    base = source.base
    live, witness = live_frontier(source, policies)
    if witness is not None:
        raise PositivityError(witness)
    if not live[0]:
        raise PositivityError(())
    full = len(base.vars)
    values = {full: np.where(live[full], response_weights(base, k), 0.0)}
    v = values[full]
    for i, lo, hi, _ in reversed(base.stages):
        if i <= base.n:
            v = values[hi] = action_step(i, v)
        cond = source.given(lo, hi)
        v = values[lo] = _average(cond, v.reshape(cond.shape))
    values[0] = np.asarray(v)  # the average over one row is a numpy scalar
    return live, values


def recursion_table(source, strategy: Strategy, k) -> RecursionTable:
    """Run the backward recursion and keep every computed value."""
    policies = _policy_arrays(source.base, strategy)
    live, arrays = _backward(
        source, k, lambda i, v: _average(policies[i - 1], v), policies
    )
    return RecursionTable(source.base, live, arrays)


def g_recursion(source, strategy: Strategy, k) -> float:
    """Consequence of the strategy from observational ingredients."""
    return recursion_table(source, strategy, k).root


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
    """Mixed-regime diagram: actions before stage i keep their
    observational parents, actions after it their interventional parents,
    and the stage-i action receives the only arrow out of the regime node."""
    actions = _action_order(diagram, action_order)
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
    y_bridge_failures: tuple  # (stage, history) of the first few mismatches
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
        return rows.sum(axis=-1) > 0.0, _conditional(rows)

    # Each P_{i-1} is dropped before P_i is built, so two tables are held at
    # a time, obs and one other, each summed only at the boundaries read.
    y_failures, p = [], mixed(0)
    for i in range(1, base.n + 1):
        m = base.after_a(i)
        on_left, left = response(p, m)
        del p
        p = mixed(i)
        on_right, right = response(p, m)
        bad = gamma[m] & on_left & on_right & np.any(np.abs(left - right) > TOL, axis=-1)
        y_failures += [(i, h) for h in sorted(base.histories(bad))][: 3 - len(y_failures)]
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
