"""Reference copies of the numeric stability check, the conditional rows
and the oracle's response rows, written with numpy's own reductions.

The package sums a short last axis column by column (``model._row_sums``)
and the oracle's middle axes with ``einsum``; these copies keep the plain
``sum``, ``np.any`` and ``np.all`` calls that those replace, so every
number of the package must match them bit for bit.  ``ReferenceSource``
holds the prefix marginals of one table as an eager ``sum`` over the
trailing axes, its ``given`` rows from ``conditional`` and its support.
"""

from __future__ import annotations

import numpy as np

from regimes.model import _joint, _observed, joint_distribution
from regimes.stability import TOL, DivergenceWitness, StabilityReport, StageVerdict, _labels


def conditional(rows: np.ndarray, alpha: float = 0.0) -> np.ndarray:
    """Each row divided by its ``sum``, smoothed by ``alpha`` when positive;
    else the rows of empty events are zero."""
    total = rows.sum(axis=-1, keepdims=True)
    if alpha > 0.0:
        return (rows + alpha) / (total + alpha * rows.shape[-1])
    return np.divide(rows, total, out=np.zeros(rows.shape), where=total > 0.0)


def response_rows(diagram, factors) -> np.ndarray:
    """Each joint of a batch summed over every axis but the strategy and the
    response."""
    probs = _joint(diagram, factors)
    return probs.sum(axis=tuple(range(1, probs.ndim - 1)))


class ReferenceSource:
    """The marginals, conditionals and support of a ``PrefixSource`` over
    the same table, each built by ``sum`` over the trailing axes."""

    def __init__(self, base, table: np.ndarray, alpha: float = 0.0):
        self.base, self.table, self.alpha = base, table, alpha

    def marginal(self, m: int) -> np.ndarray:
        if m == self.table.ndim:
            return self.table
        return self.table.sum(axis=tuple(range(m, self.table.ndim)))

    def given(self, lo: int, hi: int) -> np.ndarray:
        rows = self.marginal(hi).reshape(self.table.shape[:lo] + (-1,))
        return conditional(rows, self.alpha)

    def support(self) -> dict[int, np.ndarray]:
        return {
            m: np.broadcast_to(self.alpha > 0 or self.marginal(m) > 0.0, self.table.shape[:m])
            for m in self.base.boundaries
        }


def exact_source(diagram, regime="obs") -> ReferenceSource:
    return ReferenceSource(diagram.base, _observed(diagram, joint_distribution(diagram, regime)))


def stability_numeric(diagram, strategies) -> StabilityReport:
    """Numeric simple stability against each supplied strategy, read from
    ``ReferenceSource``s: the first differing past in row-major order, the
    first strategy supplied on a tie."""
    base = diagram.base
    obs = exact_source(diagram)
    first = {}
    for strategy in strategies:
        other = exact_source(diagram, strategy)
        for i, lo, hi, _ in base.stages:
            if lo == hi:
                continue
            left, right = obs.given(lo, hi), other.given(lo, hi)
            defined = obs.support()[lo] & other.support()[lo]
            bad = (defined & np.any(np.abs(left - right) > TOL, axis=-1)).reshape(-1)
            row = int(np.argmax(bad))
            if bad[row] and (i not in first or row < first[i][0]):
                event = np.unravel_index(row, defined.shape)
                first[i] = row, DivergenceWitness(
                    _labels(diagram, base.vars[:lo], row), "obs", strategy.name,
                    tuple(left[event]), tuple(right[event]),
                )
    stages = (
        StageVerdict(i, False, first[i][1]) if i in first else StageVerdict(i, True)
        for i, *_ in base.stages
    )
    return StabilityReport(tuple(stages))

