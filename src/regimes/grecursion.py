"""Backward evaluation of strategy consequences from observational ingredients.

The evaluator alternates an action-averaging step (strategy probabilities)
and a covariate-averaging step (observational conditionals) from full
histories down to the empty one, one stage array at a time: each step is
one broadcast product of weights and values over every history of a stage
boundary, summed over the states by ``model._fold`` in declared order from
0.0, as a per-history loop adds.  Its conditionals are the ``given``
arrays of a ``PrefixSource``, the prefix marginals of one table over the
observable base, so the same engine runs on the exact joint and on
frequency counts; the optimizer reuses it with the action average replaced
by a max or min.  ``live_frontier`` computes the histories the engine
visits, as one mask per boundary like a source's ``support()``, and the
positivity witness that the recursion and the numeric checks share, both
read off the source's support and the policies' zeros.  Whether its
numbers are the strategy's consequences is for ``stability`` to license.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .errors import PositivityError
from .model import InfoBase, Strategy, _fold, factor_array, response_weights


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
        return sum(np.count_nonzero(mask) for mask in self.live.values())


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
    None allows every action), one read-only mask per stage boundary: the
    support is prefix-closed, so that is the support's mask and the positive
    cells of every policy so far.  The witness is the first cell of the
    source's ``gaps()`` that the strategy allows, earliest stage first, then
    in row-major order of declared states; only it is labelled.  It is None
    when there is none, and for None policies.
    """
    base, support = source.base, source.support()
    masks, witness, allowed = {}, None, None
    for m in base.boundaries:
        if allowed is not None:
            allowed = allowed[(...,) + (None,) * (m - allowed.ndim)]
        i = base.stage_of.get(m) if policies is not None else None
        if i is not None:
            pos = policies[i - 1] > 0.0
            if not pos.all():  # a policy with no zero prunes nothing
                allowed = pos if allowed is None else allowed & pos
            gap = source.gaps()[i - 1]
            if witness is None and gap is not None:
                holes = gap if allowed is None else gap & allowed
                if holes.any():
                    witness = base.histories(holes, 1)[0]
        if allowed is None:
            masks[m] = support[m]
        else:
            masks[m] = support[m] & allowed
            masks[m].flags.writeable = False
    return masks, witness


def _backward(source, k, action_step, policies=None):
    """Backward recursion over stage arrays, from full histories down to
    the empty one.

    Live full histories take the ``k`` value of their response state
    (``response_weights``) and covariate blocks are averaged over
    ``source.given`` by ``_fold``; ``action_step(i, values)`` maps the
    value array after the i-th action to the one before it, 0 off the live
    frontier.  Raises ``PositivityError`` with the ``live_frontier``
    witness.  Returns the live frontier and one value array per stage
    boundary, 0 off it.

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
        v = values[lo] = _fold(cond * v.reshape(cond.shape), np.add)
    return live, values


def recursion_table(source, strategy: Strategy, k) -> RecursionTable:
    """Run the backward recursion and keep every computed value."""
    policies = _policy_arrays(source.base, strategy)
    live, arrays = _backward(source, k, lambda i, v: _fold(policies[i - 1] * v, np.add), policies)
    return RecursionTable(source.base, live, arrays)


def g_recursion(source, strategy: Strategy, k) -> float:
    """Consequence of the strategy from observational ingredients."""
    return recursion_table(source, strategy, k).root
