"""Observational-data simulation under every regime ``joint_distribution``
takes, mixed ones included (``sample`` reads the one regime check in
``model``), and frequency estimation.

Sampling contract (bit-exact across platforms): uniforms come from the
Philox 4x64-10 counter-based generator keyed by the dataset seed.  The
raw 64-bit outputs x_0, x_1, ... are mapped to doubles by
u = (x >> 11) * 2**-53 and consumed in row-major order: draw r*K + j
belongs to row r and domain variable j (in diagram order, hidden
variables included, K variables in total).  Row contents therefore
depend only on (seed, r), so a longer run extends a shorter one.  A
variable's state is the number of cumulative probabilities at or below
u among the first w-1 of its row (w states); the last is never counted,
so a row summing to just under 1 still places every u < 1.

Rows are drawn and coded in blocks of ``SAMPLE_ROWS``, each block
continuing the one Philox stream in the same row-major order, so the
block size never changes the output.  The comparison is made on
integers: u = m * 2**-53 with m = x >> 11 < 2**53 is exact, and so is
c * 2**53 for a cumulative probability c >= 0, so u >= c exactly when
m >= ceil(c * 2**53).  A cumulative column above 1 gives a threshold
above 2**53, which no m reaches.

A variable's table row is the radix of its parents' codes in diagram
order.  Within a block the last radix built over two or more parents is
kept: a variable whose parent columns start with that radix's columns
extends it by one digit per further parent, and any other variable
builds its radix from its first parent's code row.  On a complete model
that is one pass per variable.  The radix is the same integer however
it is built, so reusing it changes no sampled code.

A dataset's codes are stored in the smallest unsigned dtype that holds
every state index of its columns, ``np.min_scalar_type(w - 1)`` for the
widest column's w states: uint8 up to 256 states, uint16 up to 65,536.
``sample`` and ``Dataset.from_text`` both follow this rule; the values
are the same state indices in any dtype.  ``estimate_conditionals``
accepts codes of any integer dtype.

Estimation is plain relative frequency with optional additive smoothing;
with smoothing the estimated model is strictly positive, while at
alpha=0 unobserved conditioning events stay undefined and genuine
positivity failures surface.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, InputError
from .model import InfluenceDiagram, InfoBase, PrefixSource, Regime, factor_array
from .model import _action_tables, _check_capacity

SAMPLE_ROWS = 2**13  # rows drawn, coded or read per block; never changes the output


@dataclass(frozen=True)
class Dataset:
    """Rows of state labels over the observable information base."""

    columns: tuple[str, ...]
    states: tuple[tuple[str, ...], ...]
    codes: np.ndarray  # (n, len(columns)) state indices, in _codes_dtype(states)

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
    def from_text(cls, text: str, base: InfoBase) -> "Dataset":
        """Read ``to_text`` output: a header of column names, then one row
        of state labels per line; blank lines and lines starting with
        ``#`` are skipped.  Each block of ``SAMPLE_ROWS`` rows is split
        once and each column's labels mapped through its state dict.  An
        error names the first bad row and, in it, a wrong cell count
        before the first unknown cell."""
        lines = [ln for ln in map(str.strip, text.splitlines()) if ln and ln[0] != "#"]
        if not lines:
            raise InputError("empty dataset")
        columns = tuple(lines[0].split())
        if columns != base.vars:
            raise InputError(
                f"dataset columns {columns} do not match the information base {base.vars}"
            )
        states = tuple(base.states[v] for v in columns)
        index = [{s: j for j, s in enumerate(st)} for st in states]
        k = len(columns)
        codes = np.empty((len(lines) - 1, k), dtype=_codes_dtype(states))
        for start in range(0, len(codes), SAMPLE_ROWS):
            rows = [ln.split() for ln in lines[start + 1 : start + 1 + SAMPLE_ROWS]]
            if set(map(len, rows)) != {k}:
                _first_bad_row(rows, start, columns, index)
            cells = list(itertools.chain.from_iterable(rows))
            block = codes[start : start + len(rows)]
            try:
                for j, labels in enumerate(index):
                    block[:, j] = list(map(labels.__getitem__, cells[j::k]))
            except KeyError:
                _first_bad_row(rows, start, columns, index)
        return cls(columns, states, codes)


def _codes_dtype(states) -> np.dtype:
    """The smallest unsigned dtype that holds every state index of columns
    with these ``states``."""
    return np.min_scalar_type(max(map(len, states)) - 1)


def _first_bad_row(rows, start: int, columns, index) -> None:
    """Raise for the first of ``rows`` (data rows ``start + 1`` on) with a
    wrong cell count or, failing that, a cell outside its column's states."""
    for r, cells in enumerate(rows, start=start + 1):
        if len(cells) != len(columns):
            raise InputError(f"row {r} has {len(cells)} cells, want {len(columns)}")
        for cell, labels, name in zip(cells, index, columns):
            if cell not in labels:
                raise InputError(f"row {r}: {cell!r} is not a state of {name}")


def sample(diagram: InfluenceDiagram, regime: Regime | list, n: int, seed: int) -> Dataset:
    """n independent draws from the joint under a regime, hidden columns
    dropped; a mixed regime is read as ``joint_distribution`` reads it.
    Identical (seed, n) give bit-identical datasets; see the module
    docstring for the contract."""
    try:
        n, seed = operator.index(n), operator.index(seed)
    except TypeError:
        raise InputError(f"n and seed must be integers, got {n!r} and {seed!r}") from None
    if n < 1:
        raise InputError("need n >= 1")
    if not 0 <= seed < 2**64:
        raise InputError(f"seed {seed} outside 0..2**64-1")
    tables = {**diagram.cpts, **dict(zip(diagram.actions, _action_tables(diagram, regime)))}
    k = len(diagram.order)
    col = {v: j for j, v in enumerate(diagram.order)}
    widths = [len(diagram.states[v]) for v in diagram.order]
    plans, chain = [], ()
    for v, width in zip(diagram.order, widths):
        parents, array = tables[v].parents, tables[v].array
        axes = diagram.sort(parents) + (v,)
        cum = np.cumsum(factor_array(axes, v, parents, array).reshape(-1, width), axis=1)
        # One contiguous integer threshold row per counted cumulative column.
        thresholds = np.ceil(cum[:, :-1].T * 2.0**53).astype(np.uint64, order="C")
        key = tuple(col[p] for p in axes[:-1])
        # Extend the last radix over two or more parents where this key
        # starts with their columns, else start from the first parent's row.
        reuse = bool(chain) and key[: len(chain)] == chain
        first = len(chain) if reuse else min(len(key), 1)
        steps, size = [], math.prod(widths[p] for p in key[:first])
        for p in key[first:]:
            size *= widths[p]
            # Every intermediate is below size; the multiplier must fit too.
            steps.append((p, widths[p], np.min_scalar_type(max(size - 1, widths[p]))))
        plans.append((thresholds, key, reuse, steps))
        if len(key) > 1:
            chain = key

    keep = [j for j, v in enumerate(diagram.order) if diagram.kinds[v] != "hid"]
    states = tuple(diagram.states[v] for v in diagram.base.vars)
    try:
        codes = np.empty((n, len(keep)), dtype=_codes_dtype(states))
    except MemoryError:
        raise CapacityError(f"n = {n} rows do not fit in memory") from None
    block = np.empty((k, min(n, SAMPLE_ROWS)), dtype=np.min_scalar_type(max(widths) - 1))
    gen = np.random.Philox(key=np.uint64(seed))
    for start in range(0, n, SAMPLE_ROWS):
        m = min(SAMPLE_ROWS, n - start)
        x = gen.random_raw(m * k).reshape(m, k)
        x >>= np.uint64(11)
        kept = None
        for j, (thresholds, key, reuse, steps) in enumerate(plans):
            # A root's radix is 0: it reads its one threshold without a gather.
            radix = kept if reuse else block[key[0], :m] if key else 0
            for p, w, radix_type in steps:
                radix = np.multiply(radix, w, dtype=radix_type)
                radix += block[p, :m]
            if len(key) > 1:
                kept = radix
            out = block[j, :m]
            if len(thresholds):
                np.greater_equal(x[:, j], thresholds[0].take(radix), out=out)
            else:
                out.fill(0)
            for row in thresholds[1:]:
                out += x[:, j] >= row.take(radix)
        # A hidden variable wider than every observable one makes the block
        # wider than the codes; the kept codes fit the narrower dtype.
        codes[start : start + m] = block[keep, :m].T
        del x  # free this block's draws before the next block's are drawn

    return Dataset(diagram.base.vars, states, codes)


def estimate_conditionals(dataset: Dataset, base: InfoBase, alpha: float = 0.5) -> PrefixSource:
    """Frequency-estimated recursion ingredients from observational rows:
    the source over the count of each full history, smoothed by ``alpha``.
    A history is possible when some row extends it, or always when
    ``alpha > 0``."""
    if dataset.columns != base.vars:
        raise InputError("dataset schema does not match the information base")
    if dataset.states != tuple(base.states[v] for v in base.vars):
        raise InputError("dataset states do not match the information base")
    codes, cards = dataset.codes, tuple(len(s) for s in dataset.states)
    if not isinstance(codes, np.ndarray):
        raise InputError(f"dataset codes must be a numpy array, got {type(codes).__name__}")
    if codes.ndim != 2 or codes.shape[1] != len(cards):
        raise InputError(
            f"dataset codes must have shape (n, {len(cards)}), one column per variable "
            f"of the information base; got {codes.shape}"
        )
    if not np.issubdtype(codes.dtype, np.integer):
        raise InputError(f"dataset codes must have an integer dtype, got {codes.dtype}")
    _check_capacity(cards)  # before the count table, or the cells, is allocated
    # One pass over every code for its least and largest value; a column
    # is read again only when it is no wider than the largest code.  Then
    # the row-major cell of each row, adding the checked codes as intp.
    top = codes.max(initial=0)
    if codes.min(initial=0) < 0 or any(
        codes[:, j].max() >= card for j, card in enumerate(cards) if card <= top
    ):
        raise InputError("dataset codes outside their columns' states")
    cells = np.zeros(len(codes), dtype=np.intp)
    for j, card in enumerate(cards):
        cells *= card
        np.add(cells, codes[:, j], out=cells, dtype=np.intp, casting="unsafe")
    counts = np.bincount(cells, minlength=math.prod(cards)).reshape(cards)
    return PrefixSource(base, counts.astype(float), alpha)
