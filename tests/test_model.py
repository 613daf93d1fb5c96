import functools
import itertools
import sys
from pathlib import Path
from types import MappingProxyType

import numpy as np
import pytest

from fixtures import f1, f2, f3, f4, f5, static_strategy
from helpers import (
    conditional,
    labels,
    mechanism,
    prob,
    random_extended_id,
    random_strategy,
    rng,
    support_labels,
    support_propagation,
    zero_covariate_rows,
)
from recursion_reference import possible
from regimes import model
from regimes.data import estimate_conditionals, sample
from regimes.errors import CapacityError, InputError, ModelError, PolicyError
from regimes.grecursion import RecursionTable, g_recursion
from regimes.model import (
    Cpt,
    ExactSource,
    InfluenceDiagram,
    InfoBase,
    Policy,
    PrefixSource,
    Strategy,
    SHORT_ROW,
    Variable,
    _conditional,
    _fold,
    _observed,
    _row_sums,
    _row_test,
    consequence_direct,
    factor_array,
    joint_distribution,
    response_weights,
)
from regimes.parser import parse_model


def single_response(p1=0.3):
    v = Variable("Y", "resp", ("y1", "y0"))
    return InfluenceDiagram([v], [], {"Y": Cpt("Y", (), {(): (p1, 1 - p1)})})


class TestValidation:
    def test_minimal_document(self):
        d = single_response()
        assert d.n == 0 and d.response == "Y"

    def test_dash_variable_name_rejected(self):
        # ``-`` is the empty parent list in ``cpt Y | -``, so it cannot be
        # a variable's name; it stays a legal state label.
        with pytest.raises(ModelError, match="reserved"):
            Variable("-", "obs", ("0", "1"))
        assert Variable("L", "obs", ("-", "x")).states == ("-", "x")

    @pytest.mark.parametrize("ch", ["\xa0", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"])
    def test_whitespace_in_names_and_states_rejected(self, ch):
        # Documents and datasets split on every ``str.isspace`` character.
        with pytest.raises(ModelError, match="reserved"):
            Variable("Y", "resp", (f"a{ch}b", "c"))
        with pytest.raises(ModelError, match="reserved"):
            Variable(f"Y{ch}", "resp", ("a", "c"))

    def test_two_responses_rejected(self):
        vs = [Variable("Y1", "resp", ("0", "1")), Variable("Y2", "resp", ("0", "1"))]
        cpts = {v.name: Cpt(v.name, (), {(): (0.5, 0.5)}) for v in vs}
        with pytest.raises(ModelError):
            InfluenceDiagram(vs, [], cpts)

    def test_response_must_be_last(self):
        vs = [Variable("Y", "resp", ("0", "1")), Variable("L", "obs", ("0", "1"))]
        cpts = {v.name: Cpt(v.name, (), {(): (0.5, 0.5)}) for v in vs}
        with pytest.raises(ModelError):
            InfluenceDiagram(vs, [], cpts)

    def test_backward_edge_rejected(self):
        vs = [Variable("L", "obs", ("0", "1")), Variable("Y", "resp", ("0", "1"))]
        cpts = {
            "L": Cpt("L", (), {(): (0.5, 0.5)}),
            "Y": Cpt("Y", (), {(): (0.5, 0.5)}),
        }
        with pytest.raises(ModelError):
            InfluenceDiagram(vs, [("Y", "L")], cpts)

    def test_sigma_into_nonaction_rejected(self):
        vs = [Variable("L", "obs", ("0", "1")), Variable("Y", "resp", ("0", "1"))]
        cpts = {
            "L": Cpt("L", (), {(): (0.5, 0.5)}),
            "Y": Cpt("Y", ("L",), {("0",): (0.5, 0.5), ("1",): (0.4, 0.6)}),
        }
        with pytest.raises(ModelError):
            InfluenceDiagram(vs, [("L", "Y"), ("sigma", "L")], cpts)

    @pytest.mark.parametrize("target", ["U", "L", "Y"])
    def test_sigma_into_every_non_action_kind_rejected(self, target):
        # The diagram itself, not only the parser, refuses a regime arrow
        # into a hidden, observed or response variable; the sequential
        # randomization check relies on it and looks at hidden parents only.
        vs = [
            Variable("U", "hid", ("0", "1")),
            Variable("L", "obs", ("0", "1")),
            Variable("A", "act", ("0", "1")),
            Variable("Y", "resp", ("0", "1")),
        ]
        cpts = {v.name: Cpt(v.name, (), {(): (0.5, 0.5)}) for v in vs}
        edges = [("sigma", "A")]
        assert InfluenceDiagram(vs, edges, cpts).dag.children("sigma") == ("A",)
        with pytest.raises(ModelError, match=rf"^arrow sigma -> {target} enters a non-action$"):
            InfluenceDiagram(vs, edges + [("sigma", target)], cpts)

    def test_edge_into_sigma_rejected(self):
        # The regime node comes first in the diagram's order, so an arrow
        # into it goes backward.
        vs = [Variable("L", "obs", ("0", "1")), Variable("Y", "resp", ("0", "1"))]
        cpts = {
            "L": Cpt("L", (), {(): (0.5, 0.5)}),
            "Y": Cpt("Y", (), {(): (0.5, 0.5)}),
        }
        with pytest.raises(ModelError, match=r"^edge L -> sigma goes backward in the declared order$"):
            InfluenceDiagram(vs, [("L", "sigma")], cpts)

    def test_bad_row_sum_rejected(self):
        v = Variable("Y", "resp", ("0", "1"))
        with pytest.raises(ModelError):
            InfluenceDiagram([v], [], {"Y": Cpt("Y", (), {(): (0.6, 0.3)})})

    def test_nan_row_rejected(self):
        v = Variable("Y", "resp", ("0", "1"))
        nan = float("nan")
        with pytest.raises(ModelError, match="outside"):
            InfluenceDiagram([v], [], {"Y": Cpt("Y", (), {(): (nan, nan)})})

    def test_hidden_int_parent_rejected(self):
        vs = [
            Variable("U", "hid", ("0", "1")),
            Variable("A", "act", ("0", "1")),
            Variable("Y", "resp", ("0", "1")),
        ]
        cpts = {
            "U": Cpt("U", (), {(): (0.5, 0.5)}),
            "A": Cpt("A", ("U",), {("0",): (0.5, 0.5), ("1",): (0.4, 0.6)}),
            "Y": Cpt("Y", ("A",), {("0",): (0.5, 0.5), ("1",): (0.4, 0.6)}),
        }
        with pytest.raises(ModelError):
            InfluenceDiagram(
                vs, [("U", "A"), ("A", "Y"), ("sigma", "A")], cpts,
                int_parents={"A": ("U",)},
            )

    def test_int_parents_folded_into_obs(self):
        # Declared obs-parents omit an int-parent: normalization adds it to
        # obs_parents, and the cpt keeps the parents it was written with.
        vs = [
            Variable("L", "obs", ("0", "1")),
            Variable("A", "act", ("0", "1")),
            Variable("Y", "resp", ("0", "1")),
        ]
        cpts = {
            "L": Cpt("L", (), {(): (0.5, 0.5)}),
            "A": Cpt("A", (), {(): (0.7, 0.3)}),
            "Y": Cpt("Y", ("A",), {("0",): (0.5, 0.5), ("1",): (0.4, 0.6)}),
        }
        edges = [("L", "A"), ("A", "Y"), ("sigma", "A")]
        d = InfluenceDiagram(
            vs, edges, cpts, obs_parents={"A": ()}, int_parents={"A": ("L",)},
        )
        assert d.obs_parents["A"] == ("L",)
        assert d.cpts["A"].parents == ()
        wide = {**cpts, "A": Cpt("A", ("L",), {("0",): (0.7, 0.3), ("1",): (0.7, 0.3)})}
        full = InfluenceDiagram(vs, edges, wide, int_parents={"A": ("L",)})
        assert full.obs_parents["A"] == ("L",)
        assert joint_distribution(d, "obs").tobytes() == joint_distribution(full, "obs").tobytes()

    def test_capacity_guard(self):
        states = tuple(str(i) for i in range(8))
        vs = [Variable(f"L{i}", "obs", states) for i in range(8)]
        vs.append(Variable("Y", "resp", states))
        cpts = {
            v.name: Cpt(v.name, (), {(): tuple([1.0] + [0.0] * 7)}) for v in vs
        }
        d = InfluenceDiagram(vs, [], cpts)
        with pytest.raises(CapacityError):
            joint_distribution(d, "obs")


SUBSET_PARENTS = """\
var L kind=obs states=0,1
var A1 kind=act states=0,1
var M kind=obs states=0,1,2
var A2 kind=act states=0,1
var Y kind=resp states=0,1
order L A1 M A2 Y
edge sigma A1
edge sigma A2
edge L A1
edge L M
edge A1 M
edge L A2
edge A1 A2
edge M A2
edge L Y
edge A1 Y
edge M Y
edge A2 Y
obs-parents A1 -
int-parents A1 L
cpt L | -
row - : 0.3 0.7
cpt A1 | -
row - : 0.6 0.4
cpt M | A1
row 0 : 0.2 0.5 0.3
row 1 : 0.6 0.1 0.3
cpt A2 | M
row 0 : 0.9 0.1
row 1 : 0.35 0.65
row 2 : 0.5 0.5
cpt Y | A2,L
row 0,0 : 0.8 0.2
row 0,1 : 0.45 0.55
row 1,0 : 0.1 0.9
row 1,1 : 0.7 0.3
strategy s
assign A1 | L
row 0 : 1
row 1 : 0
assign A2 | L,M
prow 0,0 : 0.25 0.75
row 0,1 : 1
row 0,2 : 0
row 1,0 : 0
prow 1,1 : 0.5 0.5
row 1,2 : 1
"""


def over_all_parents(diagram, names) -> InfluenceDiagram:
    """``diagram`` with the cpts of ``names`` declared over every parent
    they may read (obs-parents for an action), each row repeated over the
    parents the cpt does not read."""
    cpts = dict(diagram.cpts)
    for v in names:
        cpt = cpts[v]
        full = diagram.obs_parents.get(v, diagram.domain_parents[v])
        pos = [full.index(p) for p in cpt.parents]
        configs = itertools.product(*(diagram.states[p] for p in full))
        cpts[v] = Cpt(v, full, {c: cpt.table[tuple(c[j] for j in pos)] for c in configs})
    return InfluenceDiagram(
        diagram.variables, diagram.dag.edges, cpts, diagram.obs_parents, diagram.int_parents
    )


class TestSubsetParents:
    """A cpt over a subset of its parents is the same mechanism as one over
    all of them with repeated rows: every output is bitwise the same."""

    @pytest.mark.parametrize("names", [("A1",), ("M",), ("A2",), ("Y",), ("A1", "M", "A2", "Y")])
    def test_declared_subset_is_bitwise_the_broadcast_table(self, names):
        doc = parse_model(SUBSET_PARENTS)
        d, s = doc.diagram, doc.strategies["s"]
        assert [d.cpts[v].parents for v in d.order] == [(), (), ("A1",), ("M",), ("A2", "L")]
        wide = over_all_parents(d, names)
        assert all(wide.cpts[v].parents != d.cpts[v].parents for v in names)
        for regime in ("obs", s):
            assert (
                joint_distribution(d, regime).tobytes()
                == joint_distribution(wide, regime).tobytes()
            )
            got, want = sample(d, regime, 20_000, 11), sample(wide, regime, 20_000, 11)
            assert got.codes.dtype == want.codes.dtype
            assert got.codes.tobytes() == want.codes.tobytes()
            k = {"0": 0.25, "1": -1.5}
            assert consequence_direct(d, regime, k) == consequence_direct(wide, regime, k)
        assert g_recursion(ExactSource(d), s, k) == g_recursion(ExactSource(wide), s, k)


class TestJointDistribution:
    def test_single_binary_response(self):
        j = joint_distribution(single_response(0.3), "obs")
        assert np.allclose(j, [0.3, 0.7])

    def test_f1_obs_mass_and_action_marginal(self):
        d, _ = f1()
        j = joint_distribution(d, "obs")
        assert abs(j.sum() - 1.0) < 1e-9
        # marginal of A1 equals its table combined with p(L1)
        pl = d.cpts["L1"].table[()]
        pa = d.cpts["A1"].table
        want = sum(pl[i] * pa[(s,)][1] for i, s in enumerate(("0", "1")))
        assert abs(prob(d, j, {"A1": "1"}) - want) < 1e-12

    def test_degenerate_policy_rows_zero_off_policy_mass(self):
        d, strats = f2()
        det = Strategy(
            "det",
            {
                "A1": Policy((), {(): (1.0, 0.0)}),
                "A2": Policy(("A1",), {("0",): (0.0, 1.0), ("1",): (1.0, 0.0)}),
            },
        )
        j = joint_distribution(d, det)
        assert prob(d, j, {"A1": "1"}) == 0.0
        assert prob(d, j, {"A1": "0", "A2": "0"}) == 0.0
        assert abs(j.sum() - 1.0) < 1e-9

    def test_mass_one_under_every_regime(self):
        d, strats = f1()
        for regime in ["obs", *strats.values()]:
            assert abs(joint_distribution(d, regime).sum() - 1.0) < 1e-9

    def test_strategy_on_hidden_rejected(self):
        d, _ = f2()
        bad = Strategy(
            "bad",
            {
                "A1": Policy(("U1",), {("0",): (1.0, 0.0), ("1",): (0.0, 1.0)}),
                "A2": Policy((), {(): (0.5, 0.5)}),
            },
        )
        with pytest.raises(PolicyError):
            joint_distribution(d, bad)

    def test_incomplete_strategy_rejected(self):
        d, _ = f2()
        partial = Strategy(
            "partial",
            {
                "A1": Policy((), {(): (0.5, 0.5)}),
                "A2": Policy(("A1",), {("0",): (0.5, 0.5)}),  # missing row for A1=1
            },
        )
        with pytest.raises(PolicyError):
            joint_distribution(d, partial)


    @pytest.mark.parametrize("row", [(float("nan"), float("nan")), (float("inf"), 0.0)])
    def test_non_finite_policy_row_rejected(self, row):
        d, _ = f4()
        with pytest.raises(PolicyError, match="outside"):
            joint_distribution(d, Strategy("bad", {"A1": Policy((), {(): row})}))


class TestConditional:
    def test_marginal_when_given_empty(self):
        d = single_response(0.3)
        assert conditional(d, joint_distribution(d, "obs"), ("Y",), {}) == {
            ("y1",): 0.3, ("y0",): 0.7
        }

    def test_zero_probability_event_undefined(self):
        d = single_response(1.0)
        j = joint_distribution(d, "obs")
        assert conditional(d, j, (), {"Y": "y0"}) is None

    def test_factorization_identity_on_f1(self):
        # conditional of Y given the full past equals the Y table row
        d, _ = f1()
        j = joint_distribution(d, "obs")
        past = {"L1": "1", "A1": "0", "L2": "1", "A2": "1"}
        got = conditional(d, j, ("Y",), past)
        want = d.cpts["Y"].table[("1", "0", "1", "1")]
        assert abs(got[("0",)] - want[0]) < 1e-12

    def test_unknown_state_rejected(self):
        d = single_response()
        with pytest.raises(InputError):
            conditional(d, joint_distribution(d, "obs"), (), {"Y": "nope"})


def indexed(values, h) -> bool:
    """Whether ``values[h]`` returns rather than raising KeyError."""
    try:
        values[h]
    except KeyError:
        return False
    return True


class TestSupport:
    def test_all_positive_tables_full_support(self):
        d, _ = f1()
        sup = support_labels(d, "obs")
        base = d.base
        want = 1  # null history
        run = 1
        for m in base.boundaries[1:]:
            run = np.prod([len(base.states[v]) for v in base.vars[:m]])
            want += run
        assert len(sup) == want

    def test_degenerate_strategy_excludes_off_policy(self):
        d, _ = f1()
        stat = static_strategy("s", {"A1": "1", "A2": "0"}, d.states)
        sup = support_labels(d, stat)
        assert ("0", "0") not in sup  # (l1, a1) with off-policy action
        assert ("0", "1") in sup

    def test_structural_zero_removes_histories(self):
        # zero the observational probability of A1=1 everywhere
        d, _ = f4()
        cpts = dict(d.cpts)
        cpts["A1"] = Cpt("A1", ("U",), {("0",): (1.0, 0.0), ("1",): (1.0, 0.0)})
        d2 = InfluenceDiagram(d.variables, list(d.dag.edges), cpts,
                              d.obs_parents, d.int_parents)
        sup = support_labels(d2, "obs")
        assert ("1",) not in sup and ("0",) in sup

    def test_membership_agrees_with_the_label_set(self):
        """``RecursionTable.values`` raises KeyError exactly for the keys off
        its live masks, here a regime's support: a wrong length, an unknown
        label or a key that is not a tuple.  Its length is the masks' count."""
        supports = []
        for build in (f1, f2, f3, f4, f5):
            d, strats = build()
            supports += [(d, "obs")] + [(d, s) for s in strats.values()]
        ternary = parse_model((Path(__file__).parent / "golden" / "ternary.id").read_text())
        supports += [(ternary.diagram, "obs")]
        for seed in range(10):
            d = random_extended_id(seed, hidden_to_action=bool(seed % 2))
            supports += [(zero_covariate_rows(d, seed), "obs"),
                         (d, random_strategy(d, seed, deterministic=True))]
        for d, regime in supports:
            src = ExactSource(d, regime)
            base, sup = d.base, src.support()
            values = RecursionTable(base, sup, {m: src.marginal(m) for m in sup}).values
            want = labels(base, sup)
            assert len(values) == sum(int(mask.sum()) for mask in sup.values()) == len(want)
            held = functools.partial(indexed, values)
            for m in range(len(base.vars) + 1):
                for h in itertools.product(*(base.states[v] for v in base.vars[:m])):
                    assert held(h) == (h in want), h
                    assert not held(list(h)), h
            longest = max(want, key=len)
            assert held(()) and held(longest)
            assert not held(longest + (longest[-1],))  # no boundary that long
            assert not held(("?",)) and not held(longest[:-1] + ("?",))
            assert not held("".join(longest)) and not held(None)


class TestConsequenceDirect:
    def test_normalization(self):
        d, strats = f1()
        for regime in ["obs", *strats.values()]:
            one = consequence_direct(d, regime, {"0": 1.0, "1": 1.0})
            assert abs(one - 1.0) < 1e-9

    def test_indicator_is_marginal(self):
        d = single_response(0.25)
        assert abs(consequence_direct(d, "obs", {"y1": 1.0, "y0": 0.0}) - 0.25) < 1e-12

    def test_full_enumeration_oracle_static(self):
        d, strats = f1()
        k = {"0": 0.2, "1": 1.7}
        # independent oracle: literally sum the factorization over all cells
        stat = strats["stat"]
        base = d.base
        total = 0.0
        for cfg in itertools.product("01", repeat=5):
            l1, a1, l2, a2, y = cfg
            p = d.cpts["L1"].table[()][int(l1)]
            p *= stat.policies["A1"].table[()][int(a1)]
            p *= d.cpts["L2"].table[(l1, a1)][int(l2)]
            p *= stat.policies["A2"].table[()][int(a2)]
            p *= d.cpts["Y"].table[(l1, a1, l2, a2)][int(y)]
            total += p * k[y]
        assert abs(consequence_direct(d, stat, k) - total) < 1e-12

    def test_linearity_in_k(self):
        d, strats = f1()
        gen = rng(11)
        k1 = {s: float(gen.normal()) for s in ("0", "1")}
        k2 = {s: float(gen.normal()) for s in ("0", "1")}
        a, b = 1.7, -0.4
        mix = {s: a * k1[s] + b * k2[s] for s in k1}
        lhs = consequence_direct(d, strats["mix"], mix)
        rhs = a * consequence_direct(d, strats["mix"], k1) + b * consequence_direct(
            d, strats["mix"], k2
        )
        assert abs(lhs - rhs) < 1e-12


class TestExtendedStabilityByConstruction:
    def test_nonaction_conditionals_shared_across_regimes(self):
        # any control strategy leaves every non-action conditional given
        # its full past unchanged wherever both sides are defined
        d, _ = f2()
        for seed in range(5):
            s = random_strategy(d, seed)
            jo = joint_distribution(d, "obs")
            je = joint_distribution(d, s)
            for v in d.order:
                if d.kinds[v] == "act":
                    continue
                past = d.order[: d.index[v]]
                for cfg in itertools.product(*(d.states[p] for p in past)):
                    given = dict(zip(past, cfg))
                    co = conditional(d, jo, (v,), given)
                    ce = conditional(d, je, (v,), given)
                    if co is None or ce is None:
                        continue
                    assert all(abs(co[c] - ce[c]) < 1e-9 for c in co)

    def test_support_subset_under_parent_child_positivity(self):
        d, strats = f1()  # all-positive tables: parent-child positivity holds
        for s in strats.values():
            assert support_labels(d, s) <= support_labels(d, "obs")


class TestExactSource:
    def test_conditional_matches_joint(self):
        d, _ = f1()
        src = ExactSource(d)
        j = _observed(d, joint_distribution(d, "obs"))
        cond = src.given(2, 3)[1, 0]
        want = conditional(d, j, ("L2",), {"L1": "1", "A1": "0"})
        assert np.allclose(cond, [want[("0",)], want[("1",)]])

    def test_support_matches_module_level(self):
        d, _ = f2()
        assert labels(d.base, ExactSource(d).support()) == support_labels(d, "obs")


def selector_joint(diagram, selector) -> np.ndarray:
    """Reference joint without a strategy axis: the product of the
    non-action factors, then a copy of it times each action's factor under
    ``selector(action)``, one action at a time in ``diagram.actions`` order."""
    product = np.ones(diagram.cards())
    for v in diagram.order:
        if diagram.kinds[v] != "act":
            product *= factor_array(diagram.order, v, *mechanism(diagram, "obs", v))
    probs = product.copy()
    for a in diagram.actions:
        probs *= factor_array(diagram.order, a, *mechanism(diagram, selector(a), a))
    return probs


def builder_cases():
    for build in (f1, f2, f3, f4, f5):
        d, strategies = build()
        yield pytest.param(d, list(strategies.values()), id=build.__name__)
    doc = parse_model((Path(__file__).parent / "golden" / "ternary.id").read_text())
    yield pytest.param(doc.diagram, list(doc.strategies.values()), id="ternary")
    for seed in range(10):
        d = random_extended_id(seed, n_actions=1 + seed % 3, hidden_to_action=seed % 2 == 1)
        yield pytest.param(d, [random_strategy(d, seed)], id=f"random{seed}")


@pytest.mark.parametrize("d, strategies", builder_cases())
def test_one_builder_is_bitwise_the_selector_joint(d, strategies):
    def same(got: np.ndarray, want: np.ndarray):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def observed(probs: np.ndarray) -> np.ndarray:
        hidden = tuple(j for j, v in enumerate(d.order) if d.kinds[v] == "hid")
        return probs.sum(axis=hidden) if hidden else probs

    obs = selector_joint(d, lambda a: "obs")
    same(joint_distribution(d, "obs"), obs)
    same(_observed(d, joint_distribution(d, "obs")), observed(obs))
    reference = PrefixSource(d.base, observed(obs))
    for m in d.base.boundaries:
        same(ExactSource(d).marginal(m), reference.marginal(m))
    stage = {a: j for j, a in enumerate(d.actions, start=1)}
    for s in strategies:
        d.base.validate_strategy(s)
        want = selector_joint(d, lambda a: s)
        same(joint_distribution(d, s), want)
        same(_observed(d, joint_distribution(d, s)), observed(want))
        reference = PrefixSource(d.base, observed(want))
        for m in d.base.boundaries:
            same(ExactSource(d, s).marginal(m), reference.marginal(m))
        for i in range(d.n + 1):
            want = selector_joint(d, lambda a: "obs" if stage[a] <= i else s)
            mixed = ["obs"] * i + [s] * (d.n - i)
            same(joint_distribution(d, mixed), want)
            reference = PrefixSource(d.base, observed(want))
            for m in d.base.boundaries:
                same(ExactSource(d, mixed).marginal(m), reference.marginal(m))


@pytest.mark.parametrize("d, strategies", builder_cases())
def test_marginals_read_last_first_are_the_eager_sums(d, strategies):
    # A source sums a boundary when it is first read.  Read from the full
    # histories down, each marginal is still bitwise the sum of the whole
    # table that an eager build made, smoothed or not.
    full = len(d.base.vars)
    for regime in ["obs", *strategies]:
        table = _observed(d, joint_distribution(d, regime))
        for source in (ExactSource(d, regime), PrefixSource(d.base, table, 0.5)):
            for m in reversed(d.base.boundaries):
                want = table.sum(axis=tuple(range(m, full))) if m < full else table
                got = source.marginal(m)
                assert np.shape(got) == np.shape(want) and got.tobytes() == want.tobytes()


def test_conditional_divides_each_row_by_its_sum():
    rows = np.array([[1.0, 3.0], [0.0, 0.0], [0.5, 0.25]])
    assert _conditional(rows).tolist() == [[0.25, 0.75], [0.0, 0.0], [0.5 / 0.75, 0.25 / 0.75]]
    smoothed = [[1.5 / 5.0, 3.5 / 5.0], [0.5, 0.5], [1.0 / 1.75, 0.75 / 1.75]]
    assert _conditional(rows, 0.5).tolist() == smoothed


@pytest.mark.parametrize(
    "call",
    [
        lambda d: joint_distribution(d, "Obs"),
        lambda d: support_labels(d, "Obs"),
        lambda d: consequence_direct(d, "Obs", {"0": 0.0, "1": 1.0}),
        lambda d: sample(d, "Obs", 10, 0),
        lambda d: support_propagation(d, ["Obs"]),
        lambda d: joint_distribution(d, ["obs", "Obs"]),
        lambda d: sample(d, ["obs", "Obs"], 10, 0),
        lambda d: ExactSource(d, "Obs"),
        lambda d: joint_distribution(single_response(), "Obs"),
        lambda d: sample(single_response(), "Obs", 10, 0),
    ],
    ids=[
        "joint_distribution", "support", "consequence_direct", "sample",
        "support_propagation", "mixed_regime", "mixed_sample", "exact_source",
        "no_actions", "no_actions_sample",
    ],
)
def test_regime_neither_obs_nor_strategy_rejected(call):
    d, _ = f1()
    with pytest.raises(InputError, match="'obs' or a Strategy"):
        call(d)


@pytest.mark.parametrize("regime", [[], ["obs"], ["obs"] * 3], ids=["empty", "short", "long"])
def test_mixed_regime_of_wrong_length_rejected(regime):
    d, _ = f1()
    for call in (
        lambda: joint_distribution(d, regime),
        lambda: consequence_direct(d, regime, {"0": 0.0, "1": 1.0}),
        lambda: ExactSource(d, regime),
        lambda: sample(d, regime, 10, 0),
    ):
        with pytest.raises(InputError, match=f"lists {len(regime)} regimes for 2 actions"):
            call()


def test_each_distinct_strategy_of_a_regime_checked_once(monkeypatch):
    d, strats = f1()
    mix, dyn = strats["mix"], strats["dyn"]
    checked, check = [], InfoBase.validate_strategy
    monkeypatch.setattr(
        InfoBase, "validate_strategy", lambda base, s: checked.append(s.name) or check(base, s)
    )
    for call, want in (
        (lambda: joint_distribution(d, [mix, mix]), ["mix"]),
        (lambda: sample(d, [mix, dyn], 10, 0), ["mix", "dyn"]),
        (lambda: ExactSource(d, ["obs", mix]), ["mix"]),
        (lambda: consequence_direct(d, dyn, {"0": 0.0, "1": 1.0}), ["dyn"]),
    ):
        checked.clear()
        call()
        assert checked == want


SOURCES = {
    "exact": ExactSource,
    "estimated": lambda d: estimate_conditionals(sample(d, "obs", 200, seed=0), d.base, 0.0),
    "smoothed": lambda d: estimate_conditionals(sample(d, "obs", 200, seed=0), d.base, 0.5),
}


@pytest.mark.parametrize("make", SOURCES.values(), ids=SOURCES.keys())
def test_bad_history_label_rejected(make):
    d, _ = f1()
    with pytest.raises(InputError, match="'9' is not a state of A1"):
        possible(make(d), ("1", "9"))


@pytest.mark.parametrize("make", [SOURCES["exact"], SOURCES["estimated"]], ids=["exact", "estimated"])
def test_over_long_history_rejected(make):
    d, _ = f1()
    with pytest.raises(InputError, match="stage boundary"):
        possible(make(d), ("0",) * 6)


@pytest.mark.parametrize("make", SOURCES.values(), ids=SOURCES.keys())
def test_given_rows_are_read_only(make):
    """``given`` and ``support`` are cached, so no caller may write into
    their rows or masks."""
    d, _ = f1()
    src = make(d)
    with pytest.raises(ValueError, match="read-only"):
        src.given(0, 1)[:] = -1.0
    assert src.given(0, 1).min() >= 0.0
    for mask in src.support().values():
        with pytest.raises(ValueError, match="read-only"):
            mask[...] = False
    assert src.support()[0]


@pytest.mark.parametrize("bad", [-1e-300, np.nan])
@pytest.mark.parametrize("alpha", [0.0, 0.5])
def test_negative_or_nan_table_rejected(bad, alpha):
    """A support read off such a table need not be prefix-closed."""
    d, _ = f1()
    table = ExactSource(d).marginal(len(d.base.vars)).copy()
    table[(1,) * table.ndim] = bad
    with pytest.raises(InputError, match="non-negative, with no NaN"):
        PrefixSource(d.base, table, alpha)


def test_smoothed_support_holds_every_history():
    d, _ = f1()
    sup = labels(d.base, SOURCES["smoothed"](d).support())
    assert len(sup) == sum(2**m for m in d.base.boundaries)
    assert ("1", "1", "1", "1", "1") in sup


def test_support_sets_compare_by_content():
    d, strats = f1()
    stat = static_strategy("s", {"A1": "1", "A2": "0"}, d.states)
    assert support_labels(d, "obs") == labels(d.base, ExactSource(d).support())
    assert support_labels(d, stat) != support_labels(d, "obs")


@pytest.mark.parametrize("seed", range(4))
def test_factor_array_puts_each_entry_on_its_axes(seed):
    # Tables over the same names in other orders and with other widths, each
    # laid out twice: a cached plan must follow the names and the widths.
    gen = rng(seed)
    axes = ("a", "b", "c", "d", "e")
    for _ in range(12):
        parents = tuple(axes[j] for j in gen.permutation(4)[: gen.integers(0, 5)])
        own = parents + ("e",)
        array = gen.random(tuple(int(w) for w in gen.integers(1, 4, size=len(own))))
        for _ in range(2):
            got = factor_array(axes, "e", parents, array)
            assert got.shape == tuple(
                array.shape[own.index(v)] if v in own else 1 for v in axes
            )
            for ix in itertools.product(*map(range, array.shape)):
                at = dict(zip(own, ix))
                assert got[tuple(at.get(v, 0) for v in axes)] == array[ix]


LEADING = {1: (), 2: (40,), 3: (5, 8), 4: (3, 4, 5)}  # the axes before the row, per ndim


def special_rows(gen, shape) -> np.ndarray:
    """Random rows of comparable magnitudes, so that the order of additions
    moves last bits, with -0.0, NaN, +-inf and subnormals at random cells,
    and some rows all -0.0 and some all subnormal."""
    flat = gen.standard_normal((int(np.prod(shape[:-1])), shape[-1]))
    flat *= 10.0 ** gen.integers(-3, 4, flat.shape)
    specials = np.array([-0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e-310])
    pick = gen.random(flat.shape) < 0.1
    flat[pick] = gen.choice(specials, int(pick.sum()))
    kind = gen.random(len(flat))
    flat[kind < 0.1] = -0.0
    flat[kind > 0.9] = gen.standard_normal(((kind > 0.9).sum(), shape[-1])) * 1e-310
    return flat.reshape(shape)


def left_to_right(rows: np.ndarray) -> np.ndarray:
    """Each row summed by a scalar loop from 0.0, in column order."""
    sums = []
    for row in rows.reshape(-1, rows.shape[-1]).tolist():
        total = 0.0
        for x in row:
            total += x
        sums.append(total)
    return np.array(sums).reshape(rows.shape[:-1])


def bitwise(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


def bitwise_but_nan(got, want) -> bool:
    """``bitwise`` on every cell but the NaNs, which must sit at the same
    cells: a scalar loop's NaN bits from ``inf + -inf + nan`` depend on the
    interpreter (and on a tracer), numpy's do not."""
    nan = np.isnan(got)
    numbers = bitwise(np.where(nan, 0.0, got), np.where(nan, 0.0, want))
    return numbers and bitwise(nan, np.isnan(want))


@pytest.mark.parametrize("ndim", sorted(LEADING))
@pytest.mark.parametrize("width", range(1, 13))
def test_row_sums_are_numpys_sums(width, ndim):
    # Below SHORT_ROW cells numpy sums a row left to right from 0.0, and
    # _row_sums adds whole columns in that order; from SHORT_ROW on both
    # are numpy's pairwise sum.
    rows = special_rows(rng(100 * ndim + width), LEADING[ndim] + (width,))
    with np.errstate(invalid="ignore"):  # inf + -inf
        got, want = _row_sums(rows), rows.sum(axis=-1)
    assert bitwise(got, want)
    if width < SHORT_ROW:
        assert bitwise_but_nan(got, left_to_right(rows))


@pytest.mark.parametrize("ndim", sorted(LEADING))
@pytest.mark.parametrize("width", range(1, 13))
def test_row_tests_are_any_and_all(width, ndim):
    gen = rng(100 * ndim + width)
    for density in (0.05, 0.5, 0.95):
        mask = gen.random(LEADING[ndim] + (width,)) < density
        assert bitwise(_row_test(mask), np.any(mask, axis=-1))
        assert bitwise(_fold(mask, np.logical_and), np.all(mask, axis=-1))


# ---------------------------------------------------------------------------
# Inputs and edges that no other test reaches: each test fails when its
# comparison or type test is flipped


def test_different_diagrams_compare_unequal():
    assert f1()[0] == f1()[0]
    assert f1()[0] != f1(seed=2)[0]  # same variables and edges, other tables
    assert f1()[0] != f2()[0]


def test_policy_reading_its_own_action_refused():
    diagram, strategies = f1()
    own = Policy(("A1",), {("0",): (1.0, 0.0), ("1",): (0.0, 1.0)})
    strategy = Strategy("s", {**strategies["dyn"].policies, "A1": own})
    with pytest.raises(PolicyError, match="policy for A1 reads A1, which does not precede it"):
        diagram.base.validate_strategy(strategy)


@pytest.mark.parametrize(
    "k", [{"0": 0, "1": 1}, MappingProxyType({"0": 0.0, "1": 1.0})], ids=["ints", "proxy"]
)
def test_response_functional_of_ints_or_any_mapping_accepted(k):
    assert bitwise(response_weights(f1()[0].base, k), np.array([0.0, 1.0]))


def test_response_functional_bounded_by_half_the_float_maximum():
    # A row may sum to just above 1 within ROW_SUM_TOL, so an average of
    # values nearer the maximum could overflow to inf.
    half = sys.float_info.max / 2
    base = f1()[0].base
    assert bitwise(response_weights(base, {"0": half, "1": -half}), np.array([half, -half]))
    for v in (np.nextafter(half, np.inf), -sys.float_info.max, 10**400):
        with pytest.raises(InputError, match="is not a finite number of magnitude at most"):
            response_weights(base, {"0": 1.0, "1": v})


@pytest.mark.parametrize("row", [np.array([0.25, 0.75]), (0, 1)], ids=["array", "ints"])
def test_table_rows_of_arrays_or_ints_accepted(row):
    v = Variable("Y", "resp", ("0", "1"))
    d = InfluenceDiagram([v], [], {"Y": Cpt("Y", (), {(): row})})
    assert bitwise(d.cpts["Y"].array, np.array([float(x) for x in row]))


def test_infinite_alpha_refused_by_its_own_check():
    with pytest.raises(InputError, match="alpha must be finite and non-negative, not inf"):
        PrefixSource(f1()[0].base, np.ones((2,) * 5), alpha=np.inf)


def test_joint_cap_admits_a_joint_of_exactly_its_cells(monkeypatch):
    monkeypatch.setattr(model, "MAX_JOINT_CELLS", 32)  # f1 has five binary variables
    assert joint_distribution(f1()[0], "obs").size == 32
    monkeypatch.setattr(model, "MAX_JOINT_CELLS", 31)
    with pytest.raises(CapacityError, match=r"would need 32 cells \(cap 31\)"):
        joint_distribution(f1()[0], "obs")
