"""The numeric stability check, the conditional rows and the oracle match
``numeric_reference``, their copies on numpy's own reductions, bit for bit.

The package adds the columns of a short last axis one at a time and sums
the oracle's middle axes with ``einsum``; an addition in another order
would move a last bit of some row, a witness's probabilities or an
oracle value here.  The cases cover binary and three-state rows, blocks
of 8 and 16 cells, stages that fail (hidden parents of actions), zero
rows (deterministic strategies, sparse counts) and smoothed counts.
"""

from pathlib import Path

import numpy as np
import pytest

from fixtures import complete_stable, f1, f2, f3, f4, f5
from helpers import cpt_for, random_extended_id, random_strategy, rng
from numeric_reference import ReferenceSource, exact_source, response_rows, stability_numeric
from regimes.data import estimate_conditionals, sample
from regimes.graph import Dag
from regimes.model import (
    ExactSource,
    InfluenceDiagram,
    Variable,
    _action_factors,
    _response_rows,
    consequence_direct,
    response_weights,
)
from regimes.parser import parse_model
from regimes.stability import _uniform_strategy, check_simple_stability_numeric

TERNARY = Path(__file__).resolve().parent / "golden" / "ternary.id"
B = ("0", "1")


def wide_block(seed: int, covariates: int) -> InfluenceDiagram:
    """A hidden U, then ``covariates`` binary covariates in one block before
    the only action, then Y: a first block of 2**covariates cells.  U reads
    into the action and Y, so the second stage can fail."""
    gen = rng(seed)
    names = ["U"] + [f"L{j}" for j in range(1, covariates + 1)] + ["A1", "Y"]
    kinds = {"U": "hid", "A1": "act", "Y": "resp"}
    edges = [(u, v) for i, u in enumerate(names) for v in names[i + 1 :]]
    edges.append(("sigma", "A1"))
    dag = Dag(("sigma", *names), edges)
    states = dict.fromkeys(names, B)
    cpts = {v: cpt_for(gen, v, [p for p in dag.parents(v) if p != "sigma"], states) for v in names}
    variables = [Variable(v, kinds.get(v, "obs"), B) for v in names]
    return InfluenceDiagram(variables, edges, cpts)


def cases():
    """(diagram, strategies) pairs, each given a list of strategies."""
    for build in (f1, f2, f3, f4, f5):
        d, strategies = build()
        yield pytest.param(d, list(strategies.values()), id=build.__name__)
    doc = parse_model(TERNARY.read_text())
    yield pytest.param(doc.diagram, list(doc.strategies.values()), id="ternary")
    for n in range(1, 7):
        d, strategies = complete_stable(n)
        yield pytest.param(d, list(strategies.values()), id=f"complete{n}")
    for seed in range(30):
        for confounded in (False, True):
            d = random_extended_id(seed, n_actions=1 + seed % 3, hidden_to_action=confounded)
            strategies = [
                random_strategy(d, 100 + seed),
                random_strategy(d, 200 + seed, deterministic=True),
            ]
            yield pytest.param(d, strategies, id=f"random{seed}{'_hidden' if confounded else ''}")
    for covariates in (3, 4):
        d = wide_block(covariates, covariates)
        yield pytest.param(d, [random_strategy(d, covariates)], id=f"block{2**covariates}")


CASES = list(cases())


def same(got, want):
    """Bitwise equality of two arrays, numbers or tuples of numbers."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def same_report(got, want):
    assert len(got.stages) == len(want.stages)
    for g, w in zip(got.stages, want.stages):
        assert (g.stage, g.passed) == (w.stage, w.passed)
        if w.witness is None:
            assert g.witness is None
            continue
        assert (g.witness.event, g.witness.left, g.witness.right) == (
            w.witness.event, w.witness.left, w.witness.right,
        )
        same(g.witness.left_probs, w.witness.left_probs)
        same(g.witness.right_probs, w.witness.right_probs)


def same_source(got, want):
    """Every marginal, every ``given`` between two boundaries, and the
    support of two sources over one base."""
    bounds = got.base.boundaries
    for m in bounds:
        same(got.marginal(m), want.marginal(m))
    for j, lo in enumerate(bounds):
        for hi in bounds[j + 1 :]:
            same(got.given(lo, hi), want.given(lo, hi))
    got_support, want_support = got.support(), want.support()
    assert got_support.keys() == want_support.keys()
    for m in bounds:
        same(got_support[m], want_support[m])


@pytest.mark.parametrize("d, strategies", CASES)
def test_stability_matches_the_reference(d, strategies):
    uniform = _uniform_strategy(d.base)
    for chosen in (strategies, strategies[::-1], [uniform]):
        same_report(check_simple_stability_numeric(d, chosen), stability_numeric(d, chosen))
    same_report(check_simple_stability_numeric(d, []), stability_numeric(d, [uniform]))


def test_the_cases_reach_both_verdicts():
    verdicts = {
        stage.passed
        for case in CASES
        for stage in stability_numeric(*case.values).stages
    }
    assert verdicts == {True, False}


@pytest.mark.parametrize("d, strategies", CASES)
def test_exact_sources_match_the_reference(d, strategies):
    for regime in ["obs", *strategies]:
        same_source(ExactSource(d, regime), exact_source(d, regime))


@pytest.mark.parametrize("d, strategies", CASES)
def test_oracle_matches_the_reference(d, strategies):
    k = {s: float(j + 1) for j, s in enumerate(d.base.states[d.response])}
    weights = response_weights(d.base, k)
    for s in strategies:
        rows = response_rows(d, _action_factors(d, s))
        same(consequence_direct(d, s, k), np.matmul(rows[:, None, :], weights)[:, 0].tolist()[0])
    # A batch on the strategy axis, each strategy's factors broadcast to one shape.
    per_strategy = [_action_factors(d, s) for s in strategies]
    factors = [np.concatenate(np.broadcast_arrays(*fs)) for fs in zip(*per_strategy)]
    same(_response_rows(d, factors), response_rows(d, factors))


def one_state_response(seed: int) -> InfluenceDiagram:
    """Six random binary covariates, some hidden, then the only action, then
    a response of one state: each strategy's response row is one contiguous
    run of 128 cells."""
    gen = rng(seed)
    names = [f"V{j}" for j in range(1, 7)] + ["A1", "Y"]
    kinds = {v: "hid" if u < 0.3 else "obs" for v, u in zip(names[:6], gen.random(6))}
    kinds.update(A1="act", Y="resp")
    edges = [(u, v) for i, u in enumerate(names) for v in names[i + 1 :] if gen.random() < 0.6]
    edges.append(("sigma", "A1"))
    states = {v: ("0",) if v == "Y" else B for v in names}
    dag = Dag(("sigma", *names), edges)
    cpts = {v: cpt_for(gen, v, [p for p in dag.parents(v) if p != "sigma"], states) for v in names}
    return InfluenceDiagram([Variable(v, kinds[v], states[v]) for v in names], edges, cpts)


@pytest.mark.parametrize("seed", range(20))
def test_one_state_response_rows_match_the_reference(seed):
    d = one_state_response(seed)
    strategies = [random_strategy(d, seed), random_strategy(d, 50 + seed, deterministic=True)]
    for s in ["obs", *strategies]:
        factors = _action_factors(d, s)
        same(_response_rows(d, factors), response_rows(d, factors))


def estimated_cases():
    for build in (f1, f2, f3, f4, f5):
        yield pytest.param(build()[0], id=build.__name__)
    yield pytest.param(parse_model(TERNARY.read_text()).diagram, id="ternary")
    d = random_extended_id(3, n_actions=2, hidden_to_action=True)
    yield pytest.param(d, id="random3_hidden")


@pytest.mark.parametrize("alpha", [0.0, 0.5])
@pytest.mark.parametrize("d", list(estimated_cases()))
def test_estimated_sources_match_the_reference(d, alpha):
    # 300 rows leave many histories unseen, so the unsmoothed rows include zeros.
    source = estimate_conditionals(sample(d, "obs", 300, 7), d.base, alpha)
    same_source(source, ReferenceSource(d.base, source._table, alpha))
