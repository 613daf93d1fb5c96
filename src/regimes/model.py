"""Influence-diagram data model with a distinguished regime node.

A diagram couples a DAG over typed domain variables (observables, hidden
variables, actions, one response) with one conditional probability table
per non-action variable and an observational table per action.  A
``Strategy`` supplies the interventional action mechanism; the regime,
``"obs"``, a strategy or a list of them with one per action (a mixed
regime), fixes one exact joint distribution, from which marginals,
supports and response expectations are computed by direct enumeration.
``_action_tables`` reads every regime and ``_joint`` builds every exact
joint.  These exact quantities are the oracles that the recursive
evaluator is tested against.

Every table is one array over (its parents..., child) behind a ``Table``
label view: ``Cpt`` and ``Policy`` accept label dicts, convert and check
them once, and return rows by label; the engines read the arrays.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from numbers import Real
from typing import Iterable, Mapping

import numpy as np

from .errors import CapacityError, InputError, ModelError, PolicyError
from .graph import Dag

SIGMA = "sigma"
KINDS = ("obs", "hid", "act", "resp")
ROW_SUM_TOL = 1e-9
MAX_JOINT_CELLS = 1 << 22
SHORT_ROW = 8  # numpy sums a row of fewer cells left to right, a longer one pairwise

_RESERVED_CHARS = set(",:|#=;")


def _check_token(text: str, what: str) -> str:
    """Documents split on every whitespace character, so none may occur."""
    if not text or any(ch.isspace() or ch in _RESERVED_CHARS for ch in text):
        raise ModelError(f"{what} {text!r} is empty or contains a reserved character")
    return text


@dataclass(frozen=True)
class Variable:
    name: str
    kind: str
    states: tuple[str, ...]

    def __post_init__(self):
        _check_token(self.name, "variable name")
        if self.name == "-":
            raise ModelError("variable name '-' is reserved for an empty list")
        if self.name == SIGMA:
            raise ModelError(f"{SIGMA!r} is reserved for the regime node")
        if self.kind not in KINDS:
            raise ModelError(f"unknown kind {self.kind!r} for variable {self.name}")
        if len(self.states) < 1:
            raise ModelError(f"variable {self.name} needs at least one state")
        for s in self.states:
            _check_token(s, f"state of {self.name}")
        if len(set(self.states)) != len(self.states):
            raise ModelError(f"duplicate state label on variable {self.name}")


def _row_sums(rows: np.ndarray) -> np.ndarray:
    """The sum of each row (the last axis), bitwise ``rows.sum(axis=-1)``.
    On a row of fewer than ``SHORT_ROW`` cells numpy adds left to right from
    0.0, but runs one inner loop per row; adding whole columns in that order
    gives the same bits many times faster (``0.0 +`` makes a row of negative
    zeros sum to 0.0, as ``sum`` does).  Longer rows go to ``sum``, which
    adds them pairwise."""
    if rows.shape[-1] >= SHORT_ROW:
        return rows.sum(axis=-1)
    total = 0.0 + rows[..., 0]
    for j in range(1, rows.shape[-1]):
        total += rows[..., j]
    return total


def _row_test(mask: np.ndarray, every: bool = False) -> np.ndarray:
    """Whether any entry (every entry, with ``every``) of each row of a
    boolean array is true: ``np.any`` (``np.all``) over the last axis,
    column by column below ``SHORT_ROW`` cells as ``_row_sums`` adds."""
    if mask.shape[-1] >= SHORT_ROW:
        return mask.all(axis=-1) if every else mask.any(axis=-1)
    combine = np.logical_and if every else np.logical_or
    out = mask[..., 0].copy()
    for j in range(1, mask.shape[-1]):
        combine(out, mask[..., j], out=out)
    return out


def row_problems(probs: np.ndarray) -> tuple[int, str] | None:
    """The first row of a 2-D float array that is not a distribution, as
    ``(index, reason)``, or None.  The comparisons are written so that NaN
    fails them.  Each row is summed left to right from its first entry at
    any width (not pairwise, as ``_row_sums`` does from 8 cells), so any
    batch of rows gets the same verdicts; ``0.0 +`` makes a row of negative
    zeros sum to 0.0, as ``sum`` does."""
    inside = _row_test((probs >= 0.0) & (probs <= 1.0), every=True)
    total = 0.0 + probs[:, 0]
    for c in range(1, probs.shape[1]):
        total += probs[:, c]
    ok = inside & (abs(total - 1.0) <= ROW_SUM_TOL)
    if ok.all():
        return None
    k = int(ok.argmin())
    return k, "has entries outside [0, 1]" if not inside[k] else f"sums to {float(total[k])!r}"


class Table(Mapping):
    """Read-only label view of one dense table.

    ``array`` holds the child's distribution for every parent
    configuration: one axis per parent (``states`` in declared order),
    the child's axis last.  ``table[config]`` returns that row as a tuple
    of floats; iteration runs over the configurations in row-major order.
    The array is trusted: tables built from labels pass ``_checked_array``.
    """

    def __init__(self, states: tuple[tuple[str, ...], ...], array: np.ndarray):
        self.states = states
        self.array = array
        array.flags.writeable = False

    def __getitem__(self, config) -> tuple[float, ...]:
        if not isinstance(config, tuple) or len(config) != len(self.states):
            raise KeyError(config)
        try:
            idx = tuple(states.index(s) for states, s in zip(self.states, config))
        except ValueError:
            raise KeyError(config) from None
        return tuple(self.array[idx].tolist())

    def __iter__(self):
        return itertools.product(*self.states)

    def __len__(self) -> int:
        return math.prod(len(s) for s in self.states)

    def __eq__(self, other) -> bool:
        if isinstance(other, Table) and other.states == self.states:
            return np.array_equal(self.array, other.array)
        return super().__eq__(other)

    def __repr__(self) -> str:
        return f"Table({dict(self)!r})"


def _checked_array(table: Mapping, states, width: int, what: str, error) -> np.ndarray:
    """The rows of a label-keyed table as one array over (parents..., child).
    Raises ``error`` listing up to three missing and three unknown rows
    unless the keys are exactly the parent configurations, else naming the
    first bad row in row-major order."""
    configs = list(itertools.product(*states))
    missing = [c for c in configs if c not in table]
    if missing or len(table) != len(configs):
        known = set(configs)
        unknown = [c for c in table if c not in known]
        raise error(f"{what}: missing rows {missing[:3]}, unknown rows {unknown[:3]}")
    # Rows are checked up to the first that is not ``width`` numbers; a
    # string must not reach the array, which would read "0.5" as 0.5.  The
    # exact types come first: ``np.ndim`` copies a row, and the ``Real``
    # check costs several times a ``float`` one.
    rows = []
    for config in configs:
        row = table[config]
        sequence = isinstance(row, (tuple, list)) or np.ndim(row) == 1
        if not sequence or not all(isinstance(p, float) or isinstance(p, Real) for p in row):
            problem = "is not a sequence of numbers"
            break
        if len(row) != width:
            problem = f"has {len(row)} entries, want {width}"
            break
        rows.append(row)
    probs = np.array(rows, dtype=float).reshape(len(rows), width)
    found = row_problems(probs)
    if found:
        config, problem = configs[found[0]], found[1]
    if found or len(rows) < len(configs):
        raise error(f"{what}: row {config} {problem}")
    return probs.reshape(tuple(map(len, states)) + (width,))


class _Dense:
    """Shared by ``Cpt`` and ``Policy``: the dense form the engines read."""

    @property
    def array(self) -> np.ndarray:
        return self.table.array

    def _densify(self, states, width: int, what: str, error) -> None:
        """Turn ``table`` into a checked ``Table`` over these parent states,
        converting a label dict once; ``_checked_array`` raises ``error`` on
        wrong keys or a bad row."""
        if len(set(self.parents)) != len(self.parents):
            raise error(f"{what} lists a parent twice")
        table = self.table
        if isinstance(table, Table) and table.states == states and table.array.shape[-1] == width:
            return
        array = _checked_array(table, states, width, what, error)
        object.__setattr__(self, "table", Table(states, array))


@dataclass(frozen=True)
class Cpt(_Dense):
    """Distribution of ``child`` for every configuration of ``parents``."""

    child: str
    parents: tuple[str, ...]
    table: Mapping[tuple[str, ...], tuple[float, ...]]

    def validate(self, states: Mapping[str, tuple[str, ...]]) -> None:
        own = tuple(states[p] for p in self.parents)
        self._densify(own, len(states[self.child]), f"cpt for {self.child}", ModelError)


@dataclass(frozen=True)
class Policy(_Dense):
    """One action's interventional mechanism: rows over policy-parent configs."""

    parents: tuple[str, ...]
    table: Mapping[tuple[str, ...], tuple[float, ...]]


@dataclass(frozen=True)
class Strategy:
    name: str
    policies: Mapping[str, Policy]


Regime = "str | Strategy"
PartialHistory = tuple  # labels of a boundary prefix of the observable base


@dataclass(frozen=True)
class InfoBase:
    """Stage structure of the observable information base.

    ``vars`` flattens the base in order and ``actions`` names the N actions
    that cut it into N+1 blocks, the last ending with the response.  Every
    witness is the first offending cell of a mask in row-major order.
    """

    vars: tuple[str, ...]
    states: Mapping[str, tuple[str, ...]]
    actions: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "_pos", {v: i for i, v in enumerate(self.vars)})
        # The recursion's plan: (i, before_l, after_l, after_a) per stage, with
        # after_a None for the response block, and the stage each after_a ends.
        stages, lo = [], 0
        for i, hi in enumerate([*map(self._pos.get, self.actions), len(self.vars)], start=1):
            stages.append((i, lo, hi, hi + 1 if i <= len(self.actions) else None))
            lo = hi + 1
        object.__setattr__(self, "stages", tuple(stages))
        object.__setattr__(self, "stage_of", {s[3]: s[0] for s in stages if s[3] is not None})
        bounds = {0, *(s[2] for s in stages), *self.stage_of}
        object.__setattr__(self, "boundaries", tuple(sorted(bounds)))

    @property
    def n(self) -> int:
        return len(self.actions)

    @property
    def response(self) -> str:
        return self.vars[-1]

    def action(self, i: int) -> str:
        return self.actions[i - 1]

    def after_l(self, i: int) -> int:
        return self.stages[i - 1][2]

    def after_a(self, i: int) -> int:
        return self.stages[i - 1][3]

    def histories(self, mask: np.ndarray, limit: int | None = None) -> list[PartialHistory]:
        """Labels of the true cells of a boundary mask in row-major order of
        declared states, only the first ``limit`` of them (all for None):
        no other cell is labelled."""
        if not mask.ndim:
            return [()][:limit] if mask else []
        idx = np.unravel_index(np.flatnonzero(mask)[:limit], mask.shape)
        columns = [np.array(self.states[v], dtype=object)[j] for v, j in zip(self.vars, idx)]
        return list(zip(*columns))

    def validate_strategy(self, strategy: Strategy) -> None:
        """Raise InputError unless given a Strategy, PolicyError unless it is
        a complete control strategy: one policy per action, reading only
        earlier variables of this base, with one valid row per parent
        configuration."""
        if not isinstance(strategy, Strategy):
            raise InputError(f"a regime is 'obs' or a Strategy, not {strategy!r}")
        for a in self.actions:
            if a not in strategy.policies:
                raise PolicyError(f"strategy {strategy.name!r} has no policy for action {a}")
        for a, pol in strategy.policies.items():
            if a not in self.actions:
                raise PolicyError(f"strategy {strategy.name!r} assigns unknown action {a!r}")
            for p in pol.parents:
                if p not in self._pos:
                    raise PolicyError(f"policy for {a} reads {p!r}, which is hidden or unknown")
                if self._pos[p] >= self._pos[a]:
                    raise PolicyError(f"policy for {a} reads {p}, which does not precede it")
            own = tuple(self.states[p] for p in pol.parents)
            pol._densify(own, len(self.states[a]), f"policy for {a}", PolicyError)


class InfluenceDiagram:
    """Validated diagram: typed variables, DAG with the regime node, tables.

    ``variables`` fixes the total order (the extended information base);
    the DAG, with the regime node first, must respect it, arrows out of
    the regime node may only enter actions, and the single response
    variable comes last.  Per-action parent subsets ``obs_parents`` and
    ``int_parents`` describe which parents the observational and
    interventional mechanisms may use; when omitted they default to all
    domain parents and all non-hidden domain parents respectively, and
    the interventional set is folded into the observational one so that
    int_parents <= obs_parents <= dag parents.  Each cpt may condition on
    any subset of those parents (``obs_parents`` for an action) and keeps
    the parents it was written with; ``factor_array`` lays it out.
    """

    def __init__(
        self,
        variables: Iterable[Variable],
        edges: Iterable[tuple[str, str]],
        cpts: Mapping[str, Cpt],
        obs_parents: Mapping[str, Iterable[str]] | None = None,
        int_parents: Mapping[str, Iterable[str]] | None = None,
    ):
        self.variables = tuple(variables)
        names = tuple(v.name for v in self.variables)
        if len(set(names)) != len(names):
            raise ModelError("duplicate variable name")
        self.order = names
        self.index = {v: i for i, v in enumerate(names)}
        self.kinds = {v.name: v.kind for v in self.variables}
        self.states = {v.name: v.states for v in self.variables}

        responses = [v.name for v in self.variables if v.kind == "resp"]
        if len(responses) != 1:
            raise ModelError(f"need exactly one response variable, found {len(responses)}")
        self.response = responses[0]
        if names[-1] != self.response:
            raise ModelError("the response variable must come last in the order")

        self.actions = tuple(v.name for v in self.variables if v.kind == "act")
        self.hidden = tuple(v.name for v in self.variables if v.kind == "hid")
        self.observables = tuple(v.name for v in self.variables if v.kind in ("obs", "resp"))
        if self.actions:
            last_a = self.index[self.actions[-1]]
            stray = [v for v in self.observables[:-1] if self.index[v] > last_a]
            if stray:
                raise ModelError(f"only the response may follow the last action; found {stray}")

        self.dag = Dag((SIGMA,) + names, edges)
        for v in self.dag.children(SIGMA):
            if self.kinds[v] != "act":
                raise ModelError(f"arrow {SIGMA} -> {v} enters a non-action")

        self.domain_parents = {
            v: tuple(p for p in self.dag.parents(v) if p != SIGMA) for v in names
        }

        self.obs_parents: dict[str, tuple[str, ...]] = {}
        self.int_parents: dict[str, tuple[str, ...]] = {}
        obs_parents = dict(obs_parents or {})
        int_parents = dict(int_parents or {})
        for extra in set(obs_parents) | set(int_parents):
            if extra not in self.actions:
                raise ModelError(f"parent annotation on non-action {extra!r}")
        for a in self.actions:
            dom = self.domain_parents[a]
            op = self._sorted_subset(obs_parents.get(a, dom), dom, f"obs-parents of {a}")
            default_int = tuple(p for p in dom if self.kinds[p] != "hid")
            ip = self._sorted_subset(int_parents.get(a, default_int), dom, f"int-parents of {a}")
            bad = [p for p in ip if self.kinds[p] == "hid"]
            if bad:
                raise ModelError(f"int-parents of {a} include hidden variables {bad}")
            if not set(ip) <= set(op):
                op = self.sort(set(op) | set(ip))
            self.obs_parents[a] = op
            self.int_parents[a] = ip

        for v in names:
            cpt = cpts.get(v)
            if cpt is None:
                raise ModelError(f"no cpt for variable {v}")
            if cpt.child != v:
                raise ModelError(f"the cpt filed under {v} is for {cpt.child!r}")
            want = self.obs_parents[v] if v in self.obs_parents else self.domain_parents[v]
            if set(cpt.parents) - set(want):
                raise ModelError(
                    f"cpt for {v} conditions on {sorted(set(cpt.parents) - set(want))}, "
                    f"not among its parents"
                )
            cpt.validate(self.states)
        if len(cpts) > len(names):
            stray = [v for v in cpts if v not in self.index]
            raise ModelError(f"cpts filed under unknown variables {stray}")
        self.cpts = {v: cpts[v] for v in names}

        seen = tuple(v for v in names if self.kinds[v] != "hid")
        self.base = InfoBase(seen, self.states, self.actions)

    def _sorted_subset(self, got, dom, what) -> tuple[str, ...]:
        got = tuple(got)
        if len(set(got)) != len(got):
            raise ModelError(f"{what}: duplicate entry")
        extra = set(got) - set(dom)
        if extra:
            raise ModelError(f"{what}: {sorted(extra)} are not dag-parents")
        return self.sort(got)

    def sort(self, vars: Iterable[str]) -> tuple[str, ...]:
        return tuple(sorted(set(vars), key=self.index.__getitem__))

    @property
    def n(self) -> int:
        return len(self.actions)

    def cards(self) -> tuple[int, ...]:
        return tuple(len(self.states[v]) for v in self.order)

    def __eq__(self, other):
        return (
            isinstance(other, InfluenceDiagram)
            and self.variables == other.variables
            and self.dag.edges == other.dag.edges
            and self.obs_parents == other.obs_parents
            and self.int_parents == other.int_parents
            and self.cpts == other.cpts
        )

    def __repr__(self):
        return f"InfluenceDiagram({len(self.order)} variables, {len(self.actions)} actions)"


def _check_capacity(cards: Iterable[int]) -> None:
    if math.prod(cards) > MAX_JOINT_CELLS:
        raise CapacityError(
            f"joint table would need {math.prod(cards)} cells (cap {MAX_JOINT_CELLS})"
        )


def factor_array(axes: tuple[str, ...], var: str, parents, array: np.ndarray) -> np.ndarray:
    """One mechanism's ``array`` over (``parents``..., ``var``) laid out on
    ``axes``: its own variables on their axes, size 1 on the others.  The
    parents must precede ``var`` in ``axes``."""
    perm, shape = _layout_plan(axes, (*parents, var), array.shape)
    return array.transpose(perm).reshape(shape)


@functools.lru_cache(maxsize=1024)
def _layout_plan(axes: tuple[str, ...], own: tuple[str, ...], dims: tuple[int, ...]):
    """The axis order and shape ``factor_array`` gives a table over ``own``
    with these ``dims``.  They depend on names and widths only, so every
    table with the same variables shares them: cached, not worked out on
    each call of the recursion and the oracle."""
    perm = tuple(own.index(v) for v in axes if v in own)
    shape = tuple(dims[own.index(v)] if v in own else 1 for v in axes)
    return perm, shape


def _nonaction_product(diagram: InfluenceDiagram) -> np.ndarray:
    """Product of all non-action factors; cached, the tables never change,
    so only the first call checks the capacity."""
    cached = getattr(diagram, "_nonaction_cache", None)
    if cached is None:
        _check_capacity(diagram.cards())
        probs = np.ones(diagram.cards())
        for v, cpt in diagram.cpts.items():
            if diagram.kinds[v] != "act":
                probs *= factor_array(diagram.order, v, cpt.parents, cpt.array)
        diagram._nonaction_cache = cached = probs
    return cached


def _joint(diagram: InfluenceDiagram, factors) -> np.ndarray:
    """The exact joints of a batch of strategies on ``diagram.order``, behind a
    leading strategy axis: a copy of the cached non-action product times each
    action's factor (one per action, in ``diagram.actions`` order, each with
    that axis).  Every exact joint of the package comes from here."""
    probs = np.repeat(_nonaction_product(diagram)[None], len(factors[0]) if factors else 1, 0)
    for factor in factors:
        probs *= factor
    return probs


def _action_tables(diagram: InfluenceDiagram, regime) -> list:
    """The ``Cpt`` or ``Policy`` behind each action, in ``diagram.actions``
    order, under "obs", a strategy or a list with one of them per action.
    The one regime check: each distinct strategy is validated once."""
    mixed = isinstance(regime, list)
    if mixed and len(regime) != diagram.n:
        raise InputError(f"a mixed regime lists {len(regime)} regimes for {diagram.n} actions")
    for r in {id(r): r for r in regime}.values() if mixed else [regime]:
        if r != "obs":
            diagram.base.validate_strategy(r)
    return [
        diagram.cpts[a] if r == "obs" else r.policies[a]
        for a, r in zip(diagram.actions, regime if mixed else [regime] * diagram.n)
    ]


def _action_factors(diagram: InfluenceDiagram, regime) -> list[np.ndarray]:
    """Each of ``_action_tables``'s tables laid out on ``diagram.order``,
    behind a strategy axis of length 1."""
    return [
        factor_array(diagram.order, a, table.parents, table.array)[None]
        for a, table in zip(diagram.actions, _action_tables(diagram, regime))
    ]


def joint_distribution(diagram: InfluenceDiagram, regime: Regime | list) -> np.ndarray:
    """Exact joint on ``diagram.order`` under a regime.  A list gives each
    action its own: P_i, the first i actions observational and the rest on
    a strategy, is ``["obs"] * i + [strategy] * (n - i)``."""
    return _joint(diagram, _action_factors(diagram, regime))[0]


def _observed(diagram: InfluenceDiagram, probs: np.ndarray) -> np.ndarray:
    """A joint on ``diagram.order`` summed over its hidden axes: the table
    over the observable information base."""
    hidden = tuple(diagram.index[v] for v in diagram.hidden)
    return probs.sum(axis=hidden) if hidden else probs


def response_weights(base: InfoBase, k: Mapping[str, float]) -> np.ndarray:
    """The value ``k`` gives each response state, in declared order.  Raises
    ``InputError`` unless ``k`` maps exactly the response states to finite
    real numbers: like a table row, a string is not read as a number."""
    # The recursion and the oracle check k on every call, so the checks make
    # one pass and name a fault only once one shows; a dict skips the
    # ``Mapping`` ABC check, which costs several times a type test.
    if type(k) is not dict and not isinstance(k, Mapping):
        raise InputError(f"k must map response states to numbers, not {k!r}")
    y_states = base.states[base.response]
    try:
        values = [k[s] for s in y_states]
    except KeyError:
        missing = sorted(s for s in y_states if s not in k)
        raise InputError(f"k assigns no value to response states {missing}") from None
    if len(k) != len(y_states):
        unknown = sorted(set(k) - set(y_states), key=repr)
        raise InputError(f"k assigns values to unknown response states {unknown}")
    for s, v in zip(y_states, values):
        if not (isinstance(v, float) or isinstance(v, Real)) or not math.isfinite(v):
            raise InputError(f"k value {v!r} for response state {s} is not a finite number")
    return np.array(values, dtype=float)


def _response_rows(diagram: InfluenceDiagram, factors) -> np.ndarray:
    """The response's distribution under each strategy of a batch, from action
    factors on ``diagram.order`` behind a strategy axis: each joint summed as if
    alone, bitwise ``sum`` over the axes between.  ``einsum`` adds the cells of
    each (strategy, response) pair in row-major order of those axes, as ``sum``
    does, but without running one inner loop per response row.  A response of
    one state goes to ``sum`` itself: its cells are contiguous, and there
    ``sum`` adds them pairwise and ``einsum`` in its own unrolled order."""
    probs = _joint(diagram, factors)
    if probs.shape[-1] == 1:
        return probs.sum(axis=tuple(range(1, probs.ndim - 1)))
    return np.einsum(probs, range(probs.ndim), [0, probs.ndim - 1])


def _consequences(diagram: InfluenceDiagram, factors, weights: np.ndarray) -> list[float]:
    """Expected response ``weights`` under each strategy of a batch.  Each row is a
    (1, w) @ (w,) product of one stacked matmul, which numpy computes with the 1-D dot
    that ``row @ weights`` uses, so batch size never changes a value: weighting the
    rows with a 2-D ``rows @ weights`` or an ``einsum`` rounds differently (the
    response rows themselves come from ``einsum``, see ``_response_rows``)."""
    rows = _response_rows(diagram, factors)
    return np.matmul(rows[:, None, :], weights)[:, 0].tolist()


def consequence_direct(diagram: InfluenceDiagram, regime: Regime, k) -> float:
    """Exact expectation of k over the response under a regime."""
    weights = response_weights(diagram.base, k)
    return _consequences(diagram, _action_factors(diagram, regime), weights)[0]


def _conditional(rows: np.ndarray, alpha: float = 0.0) -> np.ndarray:
    """Each row (the last axis) divided by its sum, after adding ``alpha`` to
    every entry when it is positive; else the rows of empty events are zero.
    The sum is ``_row_sums``, bitwise ``rows.sum(axis=-1)``."""
    total = _row_sums(rows)[..., None]
    if alpha > 0.0:
        return (rows + alpha) / (total + alpha * rows.shape[-1])
    return np.divide(rows, total, out=np.zeros(rows.shape), where=total > 0.0)


class PrefixSource:
    """Conditional source over the prefix marginals of one table on the
    observable information base (probabilities or counts).

    ``given(lo, hi)`` holds, for every prefix of length ``lo``, the
    distribution of the positions ``lo..hi-1``; the backward recursion,
    the mixed-regime checks and the CLI's ``estimate`` read these stage
    arrays whole.  With ``alpha > 0`` every row is additively smoothed, so
    every syntactically valid history counts as possible.  The table is
    non-negative, so a prefix has mass exactly when some extension does.
    """

    def __init__(self, base: InfoBase, table: np.ndarray, alpha: float = 0.0):
        if not 0.0 <= alpha < math.inf:
            raise InputError(f"alpha must be finite and non-negative, not {alpha!r}")
        if not table.min(initial=0.0) >= 0.0:  # NaN fails it too
            raise InputError("a source table must be non-negative, with no NaN entry")
        if alpha and not math.isfinite(alpha * table.size + table.sum()):
            raise InputError(f"alpha {alpha!r} overflows the smoothed row totals")
        self.base, self.alpha, self._table = base, float(alpha), table
        self._marginals, self._given, self._support, self._gaps = {table.ndim: table}, {}, None, None

    def marginal(self, m: int) -> np.ndarray:
        """The table summed over every position from m on; built when first read.
        Those positions are flattened into one row per prefix and summed by
        ``_row_sums``: left to right from 0.0 when a row has fewer than
        ``SHORT_ROW`` cells, else pairwise, bitwise the eager
        ``table.sum(axis=tuple(range(m, ndim)))``."""
        if m not in self._marginals:
            table = self._table
            self._marginals[m] = _row_sums(table.reshape(table.shape[:m] + (-1,)))
        return self._marginals[m]

    def given(self, lo: int, hi: int) -> np.ndarray:
        """Distribution of positions ``lo..hi-1`` given each prefix of length
        ``lo``: one row per prefix, flattened in row-major state order; the
        rows of empty events are zero.  Cached, so read-only."""
        if (lo, hi) not in self._given:
            rows = self.marginal(hi).reshape(self._table.shape[:lo] + (-1,))
            self._given[lo, hi] = cond = _conditional(rows, self.alpha)
            cond.flags.writeable = False
        return self._given[lo, hi]

    def support(self) -> dict[int, np.ndarray]:
        """The prefixes that count as possible, as one boolean mask per stage
        boundary of the base: those with positive mass in the table, or
        every one when smoothed.  Cached, so the masks are read-only views."""
        if self._support is None:
            self._support = {
                m: np.broadcast_to(self.alpha > 0 or self.marginal(m) > 0.0, self._table.shape[:m])
                for m in self.base.boundaries
            }
        return self._support

    def gaps(self) -> list:
        """Per action, the possible histories before it extended by each of its
        impossible states, as a read-only mask after it; None where there is
        none, as for every all-positive or smoothed table.  Cached."""
        if self._gaps is None:
            sup, self._gaps = self.support(), []
            for _, _, lo, hi in self.base.stages[: self.base.n]:
                gap = sup[lo][..., None] & ~sup[hi]
                gap.flags.writeable = False
                self._gaps.append(gap if gap.any() else None)
        return self._gaps


class ExactSource(PrefixSource):
    """Conditional source backed by the exact joint under a regime ("obs" by default)."""

    def __init__(self, diagram: InfluenceDiagram, regime: Regime | list = "obs"):
        super().__init__(diagram.base, _observed(diagram, joint_distribution(diagram, regime)))
