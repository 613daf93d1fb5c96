"""Constructing and checking admissible covariate sequences.

For a chosen ordering of the actions, each stage gets a pool of usable
covariates: observables that are non-descendants of the remaining actions
under the interventional mechanism and ancestors of the response in the
stage diagram.  The pool sequence is admissible exactly when each stage
separates the response from the regime node given the pool and the
actions so far; by completeness of the construction, some admissible
sequence exists for an ordering if and only if the pool sequence itself
is admissible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import CapacityError, InputError, ModelError
from .graph import ancestral_closure, descendants, separated
from .grecursion import _check_int_strategy, build_dag_i
from .model import SIGMA, InfluenceDiagram, Strategy

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

    def cumulative(self, i: int) -> tuple[str, ...]:
        out: list[str] = []
        for s in self.sets[:i]:
            out.extend(s)
        return tuple(out)


def _the_order(diagram: InfluenceDiagram, action_order) -> tuple[str, ...]:
    if action_order is None:
        return diagram.actions
    order = tuple(action_order)
    if sorted(order) != sorted(diagram.actions):
        raise InputError("action order must be a permutation of the diagram's actions")
    return order


def _interventional_dag(diagram: InfluenceDiagram):
    """Diagram with every action on its interventional parents, regime
    node removed."""
    return build_dag_i(diagram, 0).drop([SIGMA])


def _require_actions_reach_response(diagram: InfluenceDiagram) -> None:
    d_e = _interventional_dag(diagram)
    for a in diagram.actions:
        if diagram.response not in descendants(d_e, {a}):
            raise ModelError(
                f"action {a} is not an ancestor of the response under the "
                f"interventional mechanism"
            )


def _pools(diagram: InfluenceDiagram, order: tuple[str, ...]):
    """Per-stage candidate pools M_1 <= ... <= M_N."""
    d_e = _interventional_dag(diagram)
    observables = set(diagram.observables)
    pools = []
    for i in range(1, len(order) + 1):
        down = set(descendants(d_e, order[i - 1 :]))
        an_y = set(ancestral_closure(build_dag_i(diagram, i, order), {diagram.response}))
        pool = diagram.sort((observables - down) & an_y)
        pools.append(pool)
        if i > 1 and not set(pools[i - 2]) <= set(pool):
            raise AssertionError("stage pools must be nested")
    return tuple(pools)


def _stage_verdict(diagram, order, i, conditioning) -> bool:
    cond = set(conditioning) | set(order[:i])
    return separated(build_dag_i(diagram, i, order), {diagram.response}, {SIGMA}, cond)


def compute_candidate_sequence(
    diagram: InfluenceDiagram,
    action_order: Sequence[str] | None = None,
    strategy: Strategy | None = None,
) -> AdmissibleSequence:
    """Stage pools, their increments, and the per-stage verdicts."""
    _check_int_strategy(diagram, strategy)
    _require_actions_reach_response(diagram)
    order = _the_order(diagram, action_order)
    pools = _pools(diagram, order)
    sets = []
    prev: set[str] = set()
    verdicts = []
    for i, pool in enumerate(pools, start=1):
        sets.append(diagram.sort(set(pool) - prev))
        prev = set(pool)
        verdicts.append(_stage_verdict(diagram, order, i, pool))
    return AdmissibleSequence(order, tuple(sets), pools, tuple(verdicts))


def check_admissible(
    diagram: InfluenceDiagram,
    action_order: Sequence[str] | None,
    sets: Sequence[Iterable[str]],
    strategy: Strategy | None = None,
) -> AdmissibleSequence:
    """Verdicts for a caller-supplied covariate sequence."""
    _check_int_strategy(diagram, strategy)
    _require_actions_reach_response(diagram)
    order = _the_order(diagram, action_order)
    if len(sets) != len(order):
        raise InputError(f"need {len(order)} covariate sets, got {len(sets)}")
    norm = [diagram.sort(s) for s in sets]
    seen: set[str] = set()
    observables = set(diagram.observables)
    for s in norm:
        for v in s:
            if v in seen:
                raise InputError(f"variable {v} appears in two stage sets")
            if v not in observables:
                raise InputError(f"{v} is not an observable covariate")
            seen.add(v)
    d_e = _interventional_dag(diagram)
    cum: set[str] = set()
    verdicts = []
    for i, s in enumerate(norm, start=1):
        cum |= set(s)
        down = set(descendants(d_e, order[i - 1 :]))
        bad = cum & down
        if bad:
            raise InputError(
                f"stage {i}: {diagram.sort(bad)} descend from remaining actions"
            )
        verdicts.append(_stage_verdict(diagram, order, i, cum))
    pools = _pools(diagram, order)
    return AdmissibleSequence(order, tuple(norm), pools, tuple(verdicts))


def improve_sequence(
    diagram: InfluenceDiagram,
    action_order: Sequence[str] | None = None,
    candidate: AdmissibleSequence | None = None,
    strategy: Strategy | None = None,
) -> AdmissibleSequence:
    """Shrink each stage set inside its pool by greedy removal.

    Later-declared variables are dropped first; removal passes repeat per
    stage until no single variable can go.  If a stage pool fails its own
    verdict the process aborts and the candidate is returned unchanged.
    The result keeps cumulative sets inside the pools, so it is itself
    admissible.
    """
    _check_int_strategy(diagram, strategy)
    order = _the_order(diagram, action_order)
    if candidate is None:
        candidate = compute_candidate_sequence(diagram, order, strategy)
    elif candidate.order != order:
        raise InputError("candidate was computed for a different action order")
    pools = candidate.pools
    sets: list[tuple[str, ...]] = []
    cum: set[str] = set()
    verdicts = []
    for i, pool in enumerate(pools, start=1):
        if not _stage_verdict(diagram, order, i, pool):
            return candidate
        keep = set(pool) - cum
        changed = True
        while changed:
            changed = False
            for v in sorted(keep, key=diagram.index.__getitem__, reverse=True):
                trial = (cum | keep) - {v}
                if _stage_verdict(diagram, order, i, trial):
                    keep.discard(v)
                    changed = True
        sets.append(diagram.sort(keep))
        cum |= keep
        verdicts.append(True)
    return AdmissibleSequence(order, tuple(sets), pools, tuple(verdicts))


def _orders_consistent_with(diagram: InfluenceDiagram):
    """Permutations of the actions respecting interventional-graph
    reachability, in declaration-lexicographic order."""
    d_e = _interventional_dag(diagram)
    below = {
        a: set(descendants(d_e, {a})) & set(diagram.actions) - {a}
        for a in diagram.actions
    }
    for perm in itertools.permutations(diagram.actions):
        ok = True
        for i, a in enumerate(perm):
            if below[a] & set(perm[: i + 1]):
                ok = False
                break
        if ok:
            yield perm


def search_admissible_ordering(
    diagram: InfluenceDiagram, strategy: Strategy | None = None
):
    """First action ordering whose pool sequence is admissible, with that
    sequence; None when no ordering works."""
    if diagram.n > MAX_SEARCH_ACTIONS:
        raise CapacityError(
            f"{diagram.n} actions exceed the ordering-search cap of {MAX_SEARCH_ACTIONS}"
        )
    _check_int_strategy(diagram, strategy)
    _require_actions_reach_response(diagram)
    for order in _orders_consistent_with(diagram):
        seq = compute_candidate_sequence(diagram, order, strategy)
        if seq.admissible:
            return order, seq
    return None
