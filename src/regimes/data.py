"""Observational-data simulation and frequency estimation.

Sampling contract (bit-exact across platforms): uniforms come from the
Philox 4x64-10 counter-based generator keyed by the dataset seed.  The
raw 64-bit outputs x_0, x_1, ... are mapped to doubles by
u = (x >> 11) * 2**-53 and consumed in row-major order: draw r*K + j
belongs to row r and domain variable j (in diagram order, hidden
variables included, K variables in total).  Row contents therefore
depend only on (seed, r), so a longer run extends a shorter one.

Estimation is plain relative frequency with optional additive smoothing;
with smoothing the estimated model is strictly positive, while at
alpha=0 unobserved conditioning events stay undefined and genuine
positivity failures surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .model import InfluenceDiagram, InfoBase, PrefixSource, Regime, factor_array, mechanism


@dataclass(frozen=True)
class Dataset:
    """Rows of state labels over the observable information base."""

    columns: tuple[str, ...]
    states: tuple[tuple[str, ...], ...]
    codes: np.ndarray  # (n, len(columns)) state indices
    regime: str
    seed: int

    @property
    def n(self) -> int:
        return int(self.codes.shape[0])

    def rows(self):
        """The rows as tuples of state labels, in order."""
        labels = [
            np.array(states, dtype=object)[self.codes[:, j]].tolist()
            for j, states in enumerate(self.states)
        ]
        return zip(*labels)

    def to_text(self) -> str:
        lines = [" ".join(self.columns)]
        lines.extend(map(" ".join, self.rows()))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str, base: InfoBase, regime: str = "?", seed: int = -1) -> "Dataset":
        lines = [
            ln.strip()
            for ln in text.splitlines()
            if ln.strip() and not ln.lstrip().startswith("#")
        ]
        if not lines:
            raise InputError("empty dataset")
        columns = tuple(lines[0].split())
        if columns != base.vars:
            raise InputError(
                f"dataset columns {columns} do not match the information base {base.vars}"
            )
        states = tuple(base.states[v] for v in columns)
        index = [{s: j for j, s in enumerate(st)} for st in states]
        codes = np.empty((len(lines) - 1, len(columns)), dtype=np.int64)
        for r, line in enumerate(lines[1:]):
            cells = line.split()
            if len(cells) != len(columns):
                raise InputError(f"row {r + 1} has {len(cells)} cells, want {len(columns)}")
            for j, cell in enumerate(cells):
                if cell not in index[j]:
                    raise InputError(f"row {r + 1}: {cell!r} is not a state of {columns[j]}")
                codes[r, j] = index[j][cell]
        return cls(columns, states, codes, regime, seed)


def sample(diagram: InfluenceDiagram, regime: Regime, n: int, seed: int) -> Dataset:
    """n independent draws from the joint under a regime, hidden columns
    dropped.  Identical (seed, n) give bit-identical datasets."""
    if n < 1:
        raise InputError("need n >= 1")
    if not 0 <= seed < 2**64:
        raise InputError(f"seed {seed} outside 0..2**64-1")
    if regime != "obs":
        diagram.validate_strategy(regime)
    k = len(diagram.order)
    raw = np.random.Philox(key=np.uint64(seed)).random_raw(n * k).reshape(n, k)
    # One contiguous row of codes per variable, in the narrowest dtype.
    widest = max(len(diagram.states[v]) for v in diagram.order)
    codes = np.empty((k, n), dtype=np.min_scalar_type(widest - 1))
    radix = np.empty(n, dtype=np.int64)
    col = {v: j for j, v in enumerate(diagram.order)}

    for j, v in enumerate(diagram.order):
        parents, array = mechanism(diagram, regime, v)
        axes = diagram.sort(parents) + (v,)
        width = len(diagram.states[v])
        cum = np.cumsum(factor_array(axes, v, parents, array).reshape(-1, width), axis=1)
        radix.fill(0)
        for p in axes[:-1]:
            radix *= len(diagram.states[p])
            radix += codes[col[p]]
        u = (raw[:, j] >> np.uint64(11)) * 2.0**-53
        out = codes[j]
        out.fill(0)
        # The state is the number of cumulative columns at or below u.  The
        # last one is never counted, so a row summing to just under 1 still
        # places every u < 1.
        for c in range(width - 1):
            out += u >= cum[radix, c]

    del raw
    keep = [j for j, v in enumerate(diagram.order) if diagram.kinds[v] != "hid"]
    name = regime if isinstance(regime, str) else regime.name
    return Dataset(
        diagram.base.vars,
        tuple(diagram.states[v] for v in diagram.base.vars),
        codes[keep].T.astype(np.int64, order="C"),
        name,
        seed,
    )


class EstimatedSource(PrefixSource):
    """Conditional source backed by smoothed relative frequencies.

    Serves block conditionals for the backward recursion.  A history is
    considered possible when some data row extends it; with alpha > 0 the
    smoothed model is strictly positive, so every syntactically valid
    history counts as possible.
    """

    def __init__(self, dataset: Dataset, base: InfoBase, alpha: float = 0.5):
        if dataset.columns != base.vars:
            raise InputError("dataset schema does not match the information base")
        cards = tuple(len(s) for s in dataset.states)
        cells = np.ravel_multi_index(tuple(dataset.codes.T), cards)
        counts = np.bincount(cells, minlength=math.prod(cards)).reshape(cards)
        super().__init__(base, counts.astype(float), "estimated", alpha)


def estimate_conditionals(dataset: Dataset, base: InfoBase, alpha: float = 0.5) -> EstimatedSource:
    """Frequency-estimated recursion ingredients from observational rows."""
    return EstimatedSource(dataset, base, alpha)
