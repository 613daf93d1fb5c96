"""Identifiability condition checks: stability, randomization, irrelevance
and the positivity variants.

Graphical checks run separation tests on the full diagram (hidden
variables included); numeric checks compare exact conditionals across
regimes on positive-probability events to an absolute tolerance of 1e-9.
Failed stages always carry a witness: an offending path for graphical
checks, a conditioning event with the two differing probability vectors
for numeric ones.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .graph import connecting_path
from .model import (
    SIGMA,
    InfluenceDiagram,
    PrefixSource,
    Strategy,
    factor_array,
    joint_distribution,
    observable_joint,
    support,
)
from .grecursion import check_cond6

TOL = 1e-9


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
    check: str
    stages: tuple[StageVerdict, ...]
    extended_positivity: Mapping[str, bool] = field(default_factory=dict)

    @property
    def overall(self) -> bool:
        return all(s.passed for s in self.stages)

    def stage(self, i: int) -> StageVerdict:
        return next(s for s in self.stages if s.stage == i)


def check_simple_stability_graphical(diagram: InfluenceDiagram) -> StabilityReport:
    """Separation of each covariate block from the regime node given the
    observed past, on the full diagram."""
    base = diagram.base
    stages = []
    for i in range(1, base.n + 2):
        block = base.block(i)
        if not block:
            stages.append(StageVerdict(i, True))
            continue
        past = base.vars[: base.before_l(i)]
        path = connecting_path(diagram.dag, set(block), {SIGMA}, set(past))
        witness = PathWitness(path) if path is not None else None
        stages.append(StageVerdict(i, path is None, witness))
    return StabilityReport("simple_stability_graphical", tuple(stages))


def check_simple_stability_numeric(
    diagram: InfluenceDiagram, strategies: Iterable[Strategy]
) -> StabilityReport:
    """Equality of covariate-block conditionals across the observational
    regime and every supplied strategy, wherever both sides are defined.
    The witness is the first past configuration in row-major order that
    differs, and within it the first differing pair of regimes."""
    base = diagram.base
    regimes = [("obs", "obs")] + [(s.name, s) for s in strategies]
    sources = [PrefixSource(base, observable_joint(diagram, r).probs, name) for name, r in regimes]
    stages = []
    for i in range(1, base.n + 2):
        if not base.block(i):
            stages.append(StageVerdict(i, True))
            continue
        lo, hi = base.before_l(i), base.after_l(i)
        first = None  # (row, left source, right source)
        for a, b in itertools.combinations(sources, 2):
            defined = a.support().masks[lo] & b.support().masks[lo]
            far = np.any(np.abs(a.given(lo, hi) - b.given(lo, hi)) > TOL, axis=-1)
            bad = (defined & far).reshape(-1)
            if bad.any() and (first is None or np.argmax(bad) < first[0]):
                first = (int(np.argmax(bad)), a, b)
        if first is None:
            stages.append(StageVerdict(i, True))
            continue
        row, a, b = first
        event = np.unravel_index(row, a.marginal(lo).shape)
        labels = tuple(base.states[v][j] for v, j in zip(base.vars, event))
        witness = DivergenceWitness(
            tuple(zip(base.vars, labels)), a.label, b.label,
            tuple(a.given(lo, hi)[event]), tuple(b.given(lo, hi)[event]),
        )
        stages.append(StageVerdict(i, False, witness))
    return StabilityReport("simple_stability_numeric", tuple(stages))


def check_sequential_randomization(diagram: InfluenceDiagram) -> bool:
    """Structural test: regime arrows enter actions only, and no action has
    a hidden parent in the diagram."""
    for u, v in diagram.dag.edges:
        if u == SIGMA and diagram.kinds[v] != "act":
            return False
    hidden = set(diagram.hidden)
    return not any(hidden & set(diagram.domain_parents[a]) for a in diagram.actions)


def extended_positivity(diagram: InfluenceDiagram, strategy: Strategy) -> bool:
    """Absolute continuity of the strategy joint with respect to the
    observational one over all variables, hidden included."""
    je = joint_distribution(diagram, strategy).probs
    jo = joint_distribution(diagram, "obs").probs
    return bool(np.all((je <= 0.0) | (jo > 0.0)))


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
    for i in range(1, base.n + 2):
        block = base.block(i)
        if not block:
            stages.append(StageVerdict(i, True))
            continue
        if i == 1:
            u_past: tuple[str, ...] = ()
        else:
            a_prev = base.action(i - 1)
            u_past = tuple(u for u in diagram.hidden if index[u] < index[a_prev])
        if not u_past:
            stages.append(StageVerdict(i, True))
            continue
        past = base.vars[: base.before_l(i)]
        wanted = tuple(past) + u_past + tuple(block)
        past_configs = list(itertools.product(*(base.states[v] for v in past)))
        u_configs = list(itertools.product(*(diagram.states[v] for v in u_past)))
        marginal = joint.marginal(wanted)
        arr = np.transpose(marginal.probs, [marginal.names.index(v) for v in wanted]).reshape(
            len(past_configs), len(u_configs), -1
        )
        # The block given (past, hidden past), compared in each past row
        # with the first defined hidden configuration of that row.
        mass = arr.sum(axis=-1, keepdims=True)
        cond = np.divide(arr, mass, out=np.zeros(arr.shape), where=mass > 0.0)
        defined = mass[..., 0] > 0.0
        first = np.argmax(defined, axis=1)
        far = np.any(np.abs(cond - cond[np.arange(len(arr)), first][:, None]) > TOL, axis=-1)
        hits = np.argwhere(defined & far)
        if not len(hits):
            stages.append(StageVerdict(i, True))
            continue
        row, ucol = hits[0]
        ev = tuple(zip(past, past_configs[row])) + tuple(zip(u_past, u_configs[ucol]))
        ref = tuple(zip(u_past, u_configs[first[row]]))
        witness = DivergenceWitness(
            ev,
            "given " + ",".join(f"{v}={s}" for v, s in ref),
            "given " + ",".join(f"{v}={s}" for v, s in ev[-len(u_past) :]),
            tuple(cond[row, first[row]]),
            tuple(cond[row, ucol]),
        )
        stages.append(StageVerdict(i, False, witness))
    extras = {s.name: extended_positivity(diagram, s) for s in strategies}
    return StabilityReport("sequential_irrelevance_numeric", tuple(stages), extras)


@dataclass(frozen=True)
class PositivityReport:
    simple: bool
    extended: bool
    parent_child: bool
    general: bool


def check_positivity(diagram: InfluenceDiagram, strategy: Strategy) -> PositivityReport:
    """The four positivity variants for one strategy against the
    observational regime."""
    diagram.validate_strategy(strategy)
    obs_support = support(diagram, "obs")
    simple = support(diagram, strategy).issubset(obs_support)
    extended = extended_positivity(diagram, strategy)

    parent_child = True
    for a in diagram.actions:
        pol, cpt = strategy.policies[a], diagram.cpts[a]
        axes = diagram.sort(set(pol.parents) | set(cpt.parents)) + (a,)
        pe = factor_array(axes, a, pol.parents, pol.array)
        po = factor_array(axes, a, cpt.parents, cpt.array)
        if np.any((pe > 0.0) & (po <= 0.0)):
            parent_child = False
            break

    general, _ = check_cond6(obs_support, strategy)

    if (parent_child or extended) and not simple:
        raise AssertionError("parent-child and extended positivity must each imply simple")
    return PositivityReport(simple, extended, parent_child, general)

