"""Constructing and checking admissible covariate sequences.

For a chosen ordering of the actions, each stage gets a pool of usable
covariates: observables that are non-descendants of the remaining actions
under the interventional mechanism and ancestors of the response in the
stage diagram.  The pool sequence is admissible exactly when each stage
separates the response from the regime node given the pool and the
actions so far; by completeness of the construction, some admissible
sequence exists for an ordering if and only if the pool sequence itself
is admissible.

The orderings searched are the linear extensions of reachability among
the actions, generated directly.  Unrelated actions still give up to N!
of them, hence the cap on N.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import CapacityError, InputError, ModelError
from .graph import ancestral_closure, descendants, separated
from .model import SIGMA, InfluenceDiagram, Strategy
from .stability import _action_order, _check_int_strategy, build_dag_i

MAX_SEARCH_ACTIONS = 8


@dataclass(frozen=True)
class AdmissibleSequence:
    order: tuple[str, ...]
    sets: tuple[tuple[str, ...], ...]
    pools: tuple[tuple[str, ...], ...]  # cumulative per-stage candidate pools
    verdicts: tuple[bool, ...]

    @property
    def admissible(self) -> bool:
        return all(self.verdicts)


def _reaching(diagram: InfluenceDiagram, strategy: Strategy | None):
    """The interventional diagram (every action on its interventional
    parents, the regime node without edges), once the strategy, if any,
    passes ``_check_int_strategy`` and every action is checked to reach
    the response in it: the preconditions of every public call."""
    _check_int_strategy(diagram, strategy)
    d_e = build_dag_i(diagram, 0)
    for a in diagram.actions:
        if diagram.response not in descendants(d_e, {a}):
            raise ModelError(
                f"action {a} is not an ancestor of the response under the "
                f"interventional mechanism"
            )
    return d_e


class _Stages:
    """One ordering's stage diagrams, each built once, with the
    descendants of the remaining actions and the pools M_1 <= ... <= M_N."""

    def __init__(self, diagram: InfluenceDiagram, order: tuple[str, ...], d_e):
        self.diagram, self.order = diagram, order
        self.dags = [build_dag_i(diagram, i, order) for i in range(1, len(order) + 1)]
        self.down = [set(descendants(d_e, order[i:])) for i in range(len(order))]
        observables = set(diagram.observables)
        pools: list[tuple[str, ...]] = []
        for dag, down in zip(self.dags, self.down):
            an_y = set(ancestral_closure(dag, {diagram.response}))
            pool = diagram.sort((observables - down) & an_y)
            if pools and not set(pools[-1]) <= set(pool):
                raise AssertionError("stage pools must be nested")
            pools.append(pool)
        self.pools = tuple(pools)

    def verdict(self, i: int, conditioning) -> bool:
        cond = set(conditioning) | set(self.order[:i])
        return separated(self.dags[i - 1], {self.diagram.response}, {SIGMA}, cond)


def _checked_stages(diagram, action_order, strategy) -> _Stages:
    """Run the preconditions of a public call, then build its stages."""
    d_e = _reaching(diagram, strategy)
    return _Stages(diagram, _action_order(diagram, action_order), d_e)


def _candidate(stages: _Stages) -> AdmissibleSequence:
    sets, prev = [], set()
    for pool in stages.pools:
        sets.append(stages.diagram.sort(set(pool) - prev))
        prev = set(pool)
    verdicts = (stages.verdict(i, pool) for i, pool in enumerate(stages.pools, start=1))
    return AdmissibleSequence(stages.order, tuple(sets), stages.pools, tuple(verdicts))


def compute_candidate_sequence(
    diagram: InfluenceDiagram,
    action_order: Sequence[str] | None = None,
    strategy: Strategy | None = None,
) -> AdmissibleSequence:
    """Stage pools, their increments, and the per-stage verdicts."""
    return _candidate(_checked_stages(diagram, action_order, strategy))


def check_admissible(
    diagram: InfluenceDiagram,
    action_order: Sequence[str] | None,
    sets: Sequence[Iterable[str]],
    strategy: Strategy | None = None,
) -> AdmissibleSequence:
    """Verdicts for a caller-supplied covariate sequence."""
    stages = _checked_stages(diagram, action_order, strategy)
    if len(sets) != len(stages.order):
        raise InputError(f"need {len(stages.order)} covariate sets, got {len(sets)}")
    sets = [tuple(s) for s in sets]
    stray = [v for s in sets for v in s if v not in diagram.observables]
    if stray:
        raise InputError(f"{stray[0]} is not an observable covariate")
    norm = [diagram.sort(s) for s in sets]
    seen: set[str] = set()
    for s in norm:
        for v in s:
            if v in seen:
                raise InputError(f"variable {v} appears in two stage sets")
            seen.add(v)
    cum: set[str] = set()
    verdicts = []
    for i, s in enumerate(norm, start=1):
        cum |= set(s)
        bad = cum & stages.down[i - 1]
        if bad:
            raise InputError(
                f"stage {i}: {diagram.sort(bad)} descend from remaining actions"
            )
        verdicts.append(stages.verdict(i, cum))
    return AdmissibleSequence(stages.order, tuple(norm), stages.pools, tuple(verdicts))


def improve_sequence(
    diagram: InfluenceDiagram,
    action_order: Sequence[str] | None = None,
    strategy: Strategy | None = None,
) -> AdmissibleSequence:
    """Shrink each stage set inside its pool by greedy removal.

    Later-declared variables are dropped first; removal passes repeat per
    stage until no single variable can go.  If a stage pool fails its own
    verdict the process aborts and the candidate sequence
    (``compute_candidate_sequence``) is returned.  The result keeps
    cumulative sets inside the pools, so it is itself admissible.
    """
    stages = _checked_stages(diagram, action_order, strategy)
    sets: list[tuple[str, ...]] = []
    cum: set[str] = set()
    for i, pool in enumerate(stages.pools, start=1):
        if not stages.verdict(i, pool):
            return _candidate(stages)
        keep = set(pool) - cum
        changed = True
        while changed:
            changed = False
            for v in sorted(keep, key=diagram.index.__getitem__, reverse=True):
                if stages.verdict(i, (cum | keep) - {v}):
                    keep.discard(v)
                    changed = True
        sets.append(diagram.sort(keep))
        cum |= keep
    return AdmissibleSequence(stages.order, tuple(sets), stages.pools, (True,) * len(sets))


def _orders_consistent_with(diagram: InfluenceDiagram):
    """Linear extensions of interventional-graph reachability among the
    actions, in declaration-lexicographic order: an action is placed once
    every action it descends from has been placed."""
    actions = diagram.actions
    d_e = build_dag_i(diagram, 0)
    above = {a: set(ancestral_closure(d_e, {a})) & set(actions) - {a} for a in actions}

    def extend(prefix: tuple[str, ...]):
        if len(prefix) == len(actions):
            yield prefix
        for a in actions:
            if a not in prefix and above[a] <= set(prefix):
                yield from extend(prefix + (a,))

    return extend(())


def search_admissible_ordering(
    diagram: InfluenceDiagram, strategy: Strategy | None = None
) -> AdmissibleSequence | None:
    """The pool sequence of the first action ordering for which it is
    admissible; None when no ordering works."""
    if diagram.n > MAX_SEARCH_ACTIONS:
        raise CapacityError(
            f"{diagram.n} actions exceed the ordering-search cap of {MAX_SEARCH_ACTIONS}"
        )
    d_e = _reaching(diagram, strategy)
    for order in _orders_consistent_with(diagram):
        seq = _candidate(_Stages(diagram, order, d_e))
        if seq.admissible:
            return seq
    return None
