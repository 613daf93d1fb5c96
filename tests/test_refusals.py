"""Refusal paths of the library: each bad input raises its error type with
a message that names the fault.  One case per place that refuses."""

import itertools
import re

import numpy as np
import pytest

from fixtures import f1
from regimes.admissible import check_admissible, compute_candidate_sequence, improve_sequence
from regimes.data import Dataset, estimate_conditionals
from regimes.errors import InputError, ModelError, PolicyError
from regimes.graph import Dag
from regimes.grecursion import recursion_table
from regimes.model import (
    Cpt,
    ExactSource,
    InfluenceDiagram,
    Strategy,
    Table,
    Variable,
    consequence_direct,
    response_weights,
)
from regimes.optimize import enumerate_strategies, optimal_strategy
from regimes.stability import build_dag_i

B = ("0", "1")
K01 = {"0": 0.0, "1": 1.0}
UNIFORM = (0.5, 0.5)


def uniform(child, *parents):
    return Cpt(child, parents, {c: UNIFORM for c in itertools.product(B, repeat=len(parents))})


def small(variables=None, edges=None, cpts=None, **annotations):
    """L -> A -> Y with L -> Y and the regime node into A, unless told
    otherwise; every table uniform."""
    variables = variables or [
        Variable("L", "obs", B), Variable("A", "act", B), Variable("Y", "resp", B)
    ]
    edges = edges or [("sigma", "A"), ("L", "A"), ("L", "Y"), ("A", "Y")]
    if cpts is None:
        cpts = {"L": uniform("L"), "A": uniform("A", "L"), "Y": uniform("Y", "L", "A")}
    return InfluenceDiagram(variables, edges, cpts, **annotations)


def two_variable(**cpts):
    """L -> Y, with ``cpts`` filed over the uniform tables."""
    variables = [Variable("L", "obs", B), Variable("Y", "resp", B)]
    cpts = {"L": uniform("L"), "Y": uniform("Y", "L"), **cpts}
    return InfluenceDiagram(variables, [("L", "Y")], cpts)


def unknown_action():
    diagram, strategies = f1()
    policies = strategies["dyn"].policies
    diagram.base.validate_strategy(Strategy("s", {**policies, "Z": policies["A1"]}))


CASES = {
    # graph.Dag
    "dag duplicate node": (lambda: Dag(("a", "a"), []), ModelError, "duplicate node declaration"),
    "dag duplicate edge": (
        lambda: Dag(("a", "b"), [("a", "b"), ("a", "b")]), ModelError, "duplicate edge"
    ),
    "dag undeclared node": (
        lambda: Dag(("a",), [("a", "b")]), InputError, "edge (a, b) references an undeclared node"
    ),
    "dag self-loop": (lambda: Dag(("a",), [("a", "a")]), ModelError, "self-loop at a"),
    # model.Variable
    "variable named sigma": (
        lambda: Variable("sigma", "obs", B), ModelError, "'sigma' is reserved for the regime node"
    ),
    "variable of unknown kind": (
        lambda: Variable("L", "cov", B), ModelError, "unknown kind 'cov' for variable L"
    ),
    "variable without states": (
        lambda: Variable("L", "obs", ()), ModelError, "variable L needs at least one state"
    ),
    # model.Table lookups
    "table key not a tuple": (lambda: Table((B,), np.full((2, 2), 0.5))["0"], KeyError, "'0'"),
    "table key unknown label": (
        lambda: Table((B,), np.full((2, 2), 0.5))[("2",)], KeyError, "('2',)"
    ),
    # model.InfoBase.validate_strategy
    "strategy for an unknown action": (
        unknown_action, PolicyError, "strategy 's' assigns unknown action 'Z'"
    ),
    # model.InfluenceDiagram
    "duplicate variable name": (
        lambda: small(variables=[Variable("Y", "resp", B)] * 2, edges=[], cpts={}),
        ModelError, "duplicate variable name",
    ),
    "observable after the last action": (
        lambda: small(
            variables=[Variable("A", "act", B), Variable("L", "obs", B), Variable("Y", "resp", B)],
            edges=[("sigma", "A")], cpts={},
        ),
        ModelError, "only the response may follow the last action; found ['L']",
    ),
    "annotation on a non-action": (
        lambda: small(obs_parents={"Y": ()}), ModelError, "parent annotation on non-action 'Y'"
    ),
    "no cpt": (
        lambda: small(cpts={"L": uniform("L"), "A": uniform("A", "L")}),
        ModelError, "no cpt for variable Y",
    ),
    "cpt filed under another variable": (
        lambda: two_variable(L=Cpt("Y", (), {(): (0.85, 0.15)})),
        ModelError, "the cpt filed under L is for 'Y'",
    ),
    "cpt for an unknown variable": (
        lambda: two_variable(L=Cpt("Q", (), {(): UNIFORM})),
        ModelError, "the cpt filed under L is for 'Q'",
    ),
    "cpt filed under an unknown variable": (
        lambda: two_variable(Z=Cpt("Z", (), {})),
        ModelError, "cpts filed under unknown variables ['Z']",
    ),
    "cpt on a non-parent": (
        lambda: small(edges=[("sigma", "A"), ("L", "A"), ("A", "Y")]),
        ModelError, "cpt for Y conditions on ['L'], not among its parents",
    ),
    "annotation lists a parent twice": (
        lambda: small(obs_parents={"A": ("L", "L")}),
        ModelError, "obs-parents of A: duplicate entry",
    ),
    "annotation names a non-parent": (
        lambda: small(int_parents={"A": ("Y",)}),
        ModelError, "int-parents of A: ['Y'] are not dag-parents",
    ),
    # model: response functionals
    "k without a response state": (
        lambda: response_weights(f1()[0].base, {"0": 1.0}),
        InputError, "k assigns no value to response states ['1']",
    ),
    "k not a mapping": (
        lambda: consequence_direct(f1()[0], "obs", lambda h: 1.0),
        InputError, "k must map response states to numbers, not <function",
    ),
    "k with an unknown response state": (
        lambda: consequence_direct(f1()[0], "obs", {"0": 0.0, "1": 1.0, "2": 7.0}),
        InputError, "k assigns values to unknown response states ['2']",
    ),
    "k with values that are not numbers": (
        lambda: consequence_direct(f1()[0], "obs", {"0": "0", "1": "1"}),
        InputError, "k value '0' for response state 0 is not a finite number",
    ),
    "k with a value that is not finite": (
        lambda: consequence_direct(f1()[0], "obs", {"0": float("nan"), "1": 1.0}),
        InputError, "k value nan for response state 0 is not a finite number",
    ),
    # grecursion
    "values keyed by a non-tuple": (
        lambda: recursion_table(ExactSource(f1()[0]), f1()[1]["dyn"], K01).values["0"],
        KeyError, "'0'",
    ),
    # stability.build_dag_i
    "stage diagram for a partial order": (
        lambda: build_dag_i(f1()[0], 1, ("A1",)),
        InputError, "action order must be a permutation of the diagram's actions",
    ),
    "stage diagram past the last stage": (
        lambda: build_dag_i(f1()[0], 3), InputError, "stage index 3 outside 0..2"
    ),
    # data.estimate_conditionals
    "dataset over other columns": (
        lambda: estimate_conditionals(
            Dataset(("Y",), (B,), np.zeros((1, 1), np.uint8)), f1()[0].base
        ),
        InputError, "dataset schema does not match the information base",
    ),
    # optimize
    "optimizer sense": (
        lambda: optimal_strategy(ExactSource(f1()[0]), K01, "best"),
        InputError, "sense must be 'max' or 'min', not 'best'",
    ),
    "enumeration sense": (
        lambda: enumerate_strategies(f1()[0], K01, "best"),
        InputError, "sense must be 'max' or 'min', not 'best'",
    ),
    # admissible
    "action order not a permutation": (
        lambda: compute_candidate_sequence(f1()[0], ("A1",)),
        InputError, "action order must be a permutation of the diagram's actions",
    ),
    "too few covariate sets": (
        lambda: check_admissible(f1()[0], None, [("L1",)]),
        InputError, "need 2 covariate sets, got 1",
    ),
    "covariate set holds an action": (
        lambda: check_admissible(f1()[0], None, [("A1",), ()]),
        InputError, "A1 is not an observable covariate",
    ),
    "covariate set names an unknown variable": (
        lambda: check_admissible(f1()[0], None, [["Q"], []]),
        InputError, "Q is not an observable covariate",
    ),
    "covariate sets given as bare names": (
        lambda: check_admissible(f1()[0], None, ["L1", "L2"]),
        InputError, "L is not an observable covariate",
    ),
}


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_refused_with_its_message(case):
    call, error, message = case
    with pytest.raises(error, match=re.escape(message)):
        call()


ORDER_CHECKS = {
    "build_dag_i": lambda d, order: build_dag_i(d, 1, order),
    "compute_candidate_sequence": compute_candidate_sequence,
    "improve_sequence": improve_sequence,
    "check_admissible": lambda d, order: check_admissible(d, order, [(), ()]),
}


@pytest.mark.parametrize("order", [("A1", "A1", "A2"), ("A1", "A1"), ("A1",), ("A2", "A1", "Z")])
@pytest.mark.parametrize("call", ORDER_CHECKS.values(), ids=ORDER_CHECKS.keys())
def test_one_action_order_check(call, order):
    # One check serves the stage diagrams and the admissibility calls: an
    # order with the right set of actions but a repeat is refused by all.
    with pytest.raises(InputError, match="action order must be a permutation"):
        call(f1()[0], order)
