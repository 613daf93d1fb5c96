"""The dense table behind ``Cpt.table`` and ``Policy.table``.

Label dicts are converted and checked once per table object; the parser
and the test fixtures build the arrays directly.  Either way the label view,
the array and the canonical text must agree.
"""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import complete_stable, f1, f2, f3, f4, f5
from helpers import cpt_for, dirichlet_row, random_extended_id, random_strategy, rng
from regimes import model
from regimes.errors import ModelError, PolicyError
from regimes.grecursion import recursion_table
from regimes.model import (
    Cpt,
    ExactSource,
    InfluenceDiagram,
    Policy,
    Strategy,
    Variable,
    consequence_direct,
)
from regimes.parser import ModelDocument, format_model, parse_model

B = ("0", "1")
K01 = {"0": 0.0, "1": 1.0}


def pairs(doc, back):
    """(built, parsed) for every table of two documents over one model."""
    for v in doc.diagram.order:
        yield doc.diagram.cpts[v], back.diagram.cpts[v]
    for name, strategy in doc.strategies.items():
        for a, pol in strategy.policies.items():
            yield pol, back.strategies[name].policies[a]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**16), st.integers(1, 3), st.booleans())
def test_label_dict_and_parsed_tables_agree(seed, n_actions, confounded):
    diagram = random_extended_id(seed, n_actions=n_actions, hidden_to_action=confounded)
    strategy = random_strategy(diagram, seed)
    diagram.base.validate_strategy(strategy)
    doc = ModelDocument(diagram, {strategy.name: strategy})
    text = format_model(doc)
    back = parse_model(text)
    for built, parsed in pairs(doc, back):
        assert built == parsed
        assert built.table.items() == parsed.table.items()
        assert built.array.tobytes() == parsed.array.tobytes()
        # A table rebuilt from its label rows converts to the same array.
        rebuilt = Cpt("X", built.parents, dict(parsed.table))
        rebuilt.validate({**diagram.states, "X": tuple(map(str, range(built.array.shape[-1])))})
        assert rebuilt.array.tobytes() == parsed.array.tobytes()
    assert format_model(back) == text


def two_variable(y_table):
    variables = [Variable("A", "act", B), Variable("Y", "resp", B)]
    cpts = {"A": Cpt("A", (), {(): (0.5, 0.5)}), "Y": Cpt("Y", ("A",), y_table)}
    return InfluenceDiagram(variables, [("A", "Y"), ("sigma", "A")], cpts)


def with_a2_policy(table):
    diagram, strategies = f1()
    policies = {**strategies["dyn"].policies, "A2": Policy(("L2",), table)}
    return diagram, Strategy("bad", policies)


@pytest.mark.parametrize("table, message", [
    # Two bad rows given out of order: the first in row-major order is named.
    ({("1",): (0.2, 0.2), ("0",): (2.0, -1.0)}, "row ('0',) has entries outside [0, 1]"),
    ({("0",): (0.5, 0.5), ("1",): (0.5, 0.5, 0.0)}, "row ('1',) has 3 entries, want 2"),
    ({("0",): (float("nan"), 0.5), ("1",): (0.5, 0.5)}, "row ('0',) has entries outside [0, 1]"),
    # Rows that are not sequences of numbers are refused, not converted.
    ({("0",): (0.5, 0.5), ("1",): ("0.5", "0.5")}, "row ('1',) is not a sequence of numbers"),
    ({("0",): (None, 1.0), ("1",): (0.5, 0.5)}, "row ('0',) is not a sequence of numbers"),
    ({("0",): 0.5, ("1",): (0.5, 0.5)}, "row ('0',) is not a sequence of numbers"),
    ({("0",): "01", ("1",): (0.5, 0.5)}, "row ('0',) is not a sequence of numbers"),
    ({("0",): {0.5, 0.25}, ("1",): (0.5, 0.5)}, "row ('0',) is not a sequence of numbers"),
    ({("0",): np.array(0.5), ("1",): (0.5, 0.5)}, "row ('0',) is not a sequence of numbers"),
    # The rows before the first malformed one are checked first.
    ({("0",): (0.5, 0.4), ("1",): 0.5}, "row ('0',) sums to 0.9"),
])
def test_bad_row_messages(table, message):
    with pytest.raises(ModelError, match=re.escape(f"cpt for Y: {message}")):
        two_variable(table)
    diagram, strategy = with_a2_policy(table)
    with pytest.raises(PolicyError, match=re.escape(f"policy for A2: {message}")):
        diagram.base.validate_strategy(strategy)


def per_row_problem(probs):
    """``model.row_problems`` one row at a time, each summed left to right."""
    for k, row in enumerate(probs.tolist()):
        total = 0
        for p in row:
            if not 0.0 <= p <= 1.0:
                return k, "has entries outside [0, 1]"
            total += p
        if not abs(total - 1.0) <= model.ROW_SUM_TOL:
            return k, f"sums to {total!r}"
    return None


ENTRIES = st.sampled_from(
    [0.0, -0.0, 0.1, 0.2, 0.3, 0.5, 0.7, 1.0, 1.0 - 1e-10, 2.0, -0.5, float("nan"), float("inf")]
) | st.floats(-0.1, 1.1)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda w: st.lists(st.lists(ENTRIES, min_size=w, max_size=w), min_size=1, max_size=6)
))
def test_row_problems_match_a_per_row_loop(rows):
    probs = np.array(rows, dtype=float)
    assert model.row_problems(probs) == per_row_problem(probs)


def test_missing_row_messages():
    with pytest.raises(ModelError, match=re.escape(
        "cpt for Y: missing rows [('1',)], unknown rows []"
    )):
        two_variable({("0",): (0.5, 0.5)})
    with pytest.raises(ModelError, match=re.escape(
        "cpt for Y: missing rows [('0',)], unknown rows [('2',)]"
    )):
        two_variable({("1",): (0.5, 0.5), ("2",): (0.5, 0.5)})
    diagram, strategy = with_a2_policy({("0",): (0.5, 0.5)})
    with pytest.raises(PolicyError, match=re.escape(
        "policy for A2: missing rows [('1',)], unknown rows []"
    )):
        diagram.base.validate_strategy(strategy)


def per_row_reference(seed, diagram, strategies):
    """The fixture's tables drawn the old way, one Dirichlet row per parent
    configuration: the diagram's tables in order, then every policy that is
    not one-hot, strategies and actions in the order they are named."""
    gen = np.random.Generator(np.random.Philox(key=seed))
    tables = [diagram.cpts[v] for v in diagram.order]
    tables += [
        pol for s in strategies.values() for pol in s.policies.values()
        if not all(sorted(row) == [0.0, 1.0] for row in pol.table.values())
    ]
    for table in tables:
        configs = itertools.product(*(diagram.states[p] for p in table.parents))
        rows = [gen.dirichlet(np.ones(2)) for _ in configs]
        yield table, np.array(rows).tobytes()


@pytest.mark.parametrize("build, seed", [
    *((lambda n=n: complete_stable(n), 1) for n in range(1, 5)),
    (f2, 2), (f3, 3), (f4, 4), (f5, 5),
])
def test_fixtures_match_per_row_draws(build, seed):
    diagram, strategies = build()
    for table, want in per_row_reference(seed, diagram, strategies):
        assert np.ascontiguousarray(table.array).tobytes() == want


@pytest.mark.parametrize("seed", [0, 1, 7, 101, 65535])
def test_helper_tables_match_per_row_draws(seed):
    # ``helpers.cpt_for`` draws a table in one call; the rows, their order
    # and the generator's position must equal one draw per configuration.
    states = {"L": ("a", "b", "c"), "A": B, "Y": ("0", "1", "2")}
    batched, per_row = rng(seed), rng(seed)
    for child, parents in (("L", ()), ("A", ("L",)), ("Y", ("L", "A"))):
        cpt = cpt_for(batched, child, parents, states)
        configs = itertools.product(*(states[p] for p in parents))
        want = [(c, dirichlet_row(per_row, len(states[child]))) for c in configs]
        assert list(cpt.table.items()) == want
    assert batched.random() == per_row.random()


def test_each_table_converted_once(monkeypatch):
    diagram, strategies = complete_stable(2)
    strategy = Strategy("copy", {
        a: Policy(pol.parents, dict(pol.table)) for a, pol in strategies["mix"].policies.items()
    })
    calls = []
    convert = model._checked_array
    monkeypatch.setattr(model, "_checked_array", lambda *args: calls.append(args) or convert(*args))

    def evaluate():
        recursion_table(ExactSource(diagram), strategy, K01)
        consequence_direct(diagram, strategy, K01)

    evaluate()
    assert len(calls) == len(strategy.policies)
    evaluate()
    assert len(calls) == len(strategy.policies)


def test_a_parent_listed_twice_is_rejected():
    with pytest.raises(ModelError, match="cpt for Y lists a parent twice"):
        Cpt("Y", ("A", "A"), {}).validate({"A": B, "Y": B})
    diagram, strategy = with_a2_policy({})
    strategy.policies["A2"] = Policy(("L2", "L2"), {})
    with pytest.raises(PolicyError, match="policy for A2 lists a parent twice"):
        diagram.base.validate_strategy(strategy)
