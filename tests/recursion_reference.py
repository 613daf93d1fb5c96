"""Scalar reference for the backward recursion, one history at a time.

``reference_arrays`` walks every boundary history of the base with dicts
keyed by label tuples.  A history is live when the source deems it
possible and the strategy gives each of its actions positive probability;
its value sums the states of the next block or action in declared order,
from 0.0, and a pruned history holds 0.0.  The numbers it adds are the
source's own conditionals (one row of ``given``, read by the history's
state indices) and the policies' own rows (``Policy.table``), so the
stage-array engine must match it bit for bit.

``reference_witness`` finds the positivity witness by brute force: every
strategy-positive action extension of a live history that the source
deems impossible, the least by stage, then history labels, then the
action's declared state order.
"""

from __future__ import annotations

import itertools

import numpy as np

from regimes.errors import InputError, PositivityError


def _histories(base, m: int):
    return itertools.product(*(base.states[v] for v in base.vars[:m]))


def _action_prob(base, strategy, h, i: int) -> float:
    """The probability the strategy gives the i-th action's state in ``h``."""
    action = base.action(i)
    policy = strategy.policies[action]
    row = policy.table[tuple(h[base.vars.index(p)] for p in policy.parents)]
    return row[base.states[action].index(h[base.after_a(i) - 1])]


def codes(base, h) -> tuple[int, ...]:
    """The state index of each label of a boundary history; InputError for
    a label that is not a state of its variable or a length that is not a
    stage boundary."""
    if len(h) not in base.boundaries:
        raise InputError(f"history length {len(h)} does not end on a stage boundary")
    for var, label in zip(base.vars, h):
        if label not in base.states[var]:
            raise InputError(f"{label!r} is not a state of {var}")
    return tuple(base.states[v].index(s) for v, s in zip(base.vars, h))


def possible(source, h) -> bool:
    """Whether a boundary history has positive mass (or is smoothed) in the
    source; InputError for a bad label or length (``codes``)."""
    idx = codes(source.base, h)
    return bool(source.support()[len(h)][idx])


def _live(source, strategy, h) -> bool:
    base = source.base
    return possible(source, h) and all(
        _action_prob(base, strategy, h, i) > 0.0
        for i in range(1, base.n + 1)
        if base.after_a(i) <= len(h)
    )


def reference_witness(source, strategy):
    base = source.base
    for i in range(1, base.n + 1):
        states = base.states[base.action(i)]
        bad = [
            (h, j)
            for h in _histories(base, base.after_l(i))
            if _live(source, strategy, h)
            for j, s in enumerate(states)
            if _action_prob(base, strategy, h + (s,), i) > 0.0 and not possible(source, h + (s,))
        ]
        if bad:
            h, j = min(bad)
            return h + (states[j],)
    return None


def reference_arrays(source, strategy, k) -> dict[int, np.ndarray]:
    """One value array per stage boundary, as ``recursion_table`` returns
    them; raises ``PositivityError`` as it does."""
    base = source.base
    witness = reference_witness(source, strategy)
    if witness is not None:
        raise PositivityError(witness)
    if not possible(source, ()):
        raise PositivityError(())
    full = len(base.vars)
    value = {
        h: float(k[h[-1]]) if _live(source, strategy, h) else 0.0
        for h in _histories(base, full)
    }
    for i, lo, hi, _ in reversed(base.stages):
        if i <= base.n:
            states = base.states[base.action(i)]
            for h in _histories(base, hi):
                total = 0.0
                if _live(source, strategy, h):
                    for s in states:
                        total = total + _action_prob(base, strategy, h + (s,), i) * value[h + (s,)]
                value[h] = total
        block = list(itertools.product(*(base.states[v] for v in base.vars[lo:hi])))
        for h in _histories(base, lo):
            total = 0.0
            if _live(source, strategy, h):
                row = source.given(lo, hi)[codes(base, h)].tolist()
                for c, ext in zip(row, block):
                    total = total + c * value[h + ext]
            value[h] = total
    cards = tuple(len(base.states[v]) for v in base.vars)
    return {
        m: np.array([value[h] for h in _histories(base, m)]).reshape(cards[:m])
        for m in base.boundaries
    }
