import ast
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import complete_stable, f1, f2, f3, f4, f5, static_strategy
from helpers import (
    build_dag_i_prime,
    conditional,
    cpt_for,
    f4_without_action_one,
    graphsep_by_action,
    labels,
    prob,
    random_extended_id,
    random_strategy,
    reversed_states,
    rng,
    support_labels,
    wide_binary_document,
    zero_action_rows,
    zero_covariate_rows,
)
from recursion_reference import codes, positivity_holes, reference_arrays, reference_witness
from regimes import model
from regimes.data import estimate_conditionals, sample
from regimes.errors import InputError, PolicyError, PositivityError
from regimes.grecursion import _policy_arrays, g_recursion, live_frontier, recursion_table
from regimes.model import (
    Cpt,
    ExactSource,
    InfluenceDiagram,
    Policy,
    Strategy,
    Variable,
    consequence_direct,
    joint_distribution,
)
from regimes.parser import parse_model
from regimes.stability import (
    build_dag_i,
    check_graphsep,
    check_positivity,
    verify_general_conditions,
)

K01 = {"0": 0.0, "1": 1.0}


def reference_values(table):
    """The label dict that ``RecursionTable.values`` once built on first use."""
    values = {}
    for m, mask in table.live.items():
        values.update(zip(table.base.histories(mask), table.arrays[m][mask].tolist()))
    return values


def row_major(base, failures):
    """``(stage, history)`` pairs sorted by stage, then state indices."""
    return sorted(failures, key=lambda f: (f[0], codes(base, f[1])))


def ordinal_k(base):
    return {s: float(j) for j, s in enumerate(base.states[base.response])}


def values_view_cases():
    """(name, source, strategy) over f1-f5, complete_stable(2|4), the
    ternary model (a two-variable block) and random diagrams."""
    cases = []
    for build in (f1, f2, f3, f4, f5):
        d, strats = build()
        cases += [(f"{build.__name__}_{n}", ExactSource(d), s) for n, s in strats.items()]
    for n in (2, 4):
        d, strats = complete_stable(n, seed=n)
        cases += [(f"complete{n}_{name}", ExactSource(d), s) for name, s in strats.items()]
        cases += [(f"complete{n}_hard", ExactSource(d), random_strategy(d, n, deterministic=True))]
    doc = parse_model((Path(__file__).parent / "golden" / "ternary.id").read_text())
    cases += [(f"ternary_{n}", ExactSource(doc.diagram), s) for n, s in doc.strategies.items()]
    for seed in range(10):
        d = random_extended_id(seed, hidden_to_action=bool(seed % 2))
        cases += [(f"random{seed}", ExactSource(d), random_strategy(d, seed))]
    return cases


class TestValuesView:
    @pytest.mark.parametrize("case", values_view_cases(), ids=lambda c: c[0])
    def test_view_matches_the_label_dict(self, case):
        _, source, strategy = case
        table = recursion_table(source, strategy, ordinal_k(source.base))
        view, want = table.values, reference_values(table)
        assert list(view) == list(want)
        assert len(view) == len(want)
        got = np.array([view[h] for h in view])
        assert got.tobytes() == np.array(list(want.values())).tobytes()
        assert view == want and dict(view.items()) == want
        base = table.base
        pruned = [h for m in base.boundaries for h in base.histories(~table.live[m])]
        full = len(base.vars)
        bad = [
            ("?",) * full,  # bad labels
            tuple(base.states[v][0] for v in base.vars) + ("0",),  # past the end
            *pruned[:3],
        ]
        leaf = next(h for h in want if len(h) == full)
        bad += [leaf[:m] for m in range(full) if m not in base.boundaries]  # mid-block
        for h in bad:
            assert h not in view
            with pytest.raises(KeyError):
                view[h]

    def test_cases_include_pruning_and_a_mid_block_length(self):
        cases = {name: (src, s) for name, src, s in values_view_cases()}
        src, s = cases["complete2_hard"]
        live = recursion_table(src, s, K01).live
        assert not all(mask.all() for mask in live.values())
        base = cases["ternary_fixed"][0].base
        assert len(base.boundaries) < len(base.vars) + 1


def arrays_or_witness(run):
    """The value arrays a recursion returns, or the history of the
    ``PositivityError`` it raises."""
    try:
        return run()
    except PositivityError as err:
        return err.history


def assert_same_recursion(source, strategy, k):
    got = arrays_or_witness(lambda: recursion_table(source, strategy, k).arrays)
    want = arrays_or_witness(lambda: reference_arrays(source, strategy, k))
    if isinstance(want, tuple):
        assert got == want
        return want
    assert isinstance(got, dict) and sorted(got) == sorted(want)
    for m, array in want.items():
        assert got[m].shape == array.shape and got[m].dtype == array.dtype, m
        assert got[m].tobytes() == array.tobytes(), m
    return None


def zeroed_rows_cases(reverse: bool = False):
    """(name, source, strategy): random diagrams with point-mass rows, the
    observational actions' or the covariates', and random strategies; with
    ``reverse``, each with its states declared in reverse (``reversed_states``)."""
    cases = []
    for zero in (zero_action_rows, zero_covariate_rows):
        for seed in range(12):
            d = zero(random_extended_id(seed, hidden_to_action=bool(seed % 2)), seed)
            s = random_strategy(d, seed)
            if reverse:
                d, s = reversed_states(d, s)
            cases.append((f"{'reversed_' * reverse}{zero.__name__}{seed}", ExactSource(d), s))
    return cases


class TestScalarReference:
    """The stage-array engine against a scalar walk over every history that
    adds the same numbers in the same order, compared by their bytes."""

    @pytest.mark.parametrize("case", values_view_cases(), ids=lambda c: c[0])
    def test_arrays_bitwise_the_scalar_walk(self, case):
        _, source, strategy = case
        assert assert_same_recursion(source, strategy, ordinal_k(source.base)) is None

    @pytest.mark.parametrize(
        "case", zeroed_rows_cases() + zeroed_rows_cases(reverse=True), ids=lambda c: c[0]
    )
    def test_positivity_witness_is_the_brute_force_one(self, case):
        _, source, strategy = case
        assert_same_recursion(source, strategy, K01)

    def test_reversed_states_move_some_witness_off_the_least_labels(self):
        # Row-major order of declared states is label order on the plain
        # cases; on the reversed ones it must pick another hole at least
        # once, or the comparison above could not tell the two rules apart.
        moved = []
        for name, source, strategy in zeroed_rows_cases(reverse=True):
            holes = positivity_holes(source, strategy)
            if holes and reference_witness(source, strategy) != min(holes):
                moved.append(name)
        assert moved

    def test_zeroed_rows_reach_witnesses_values_and_impossible_histories(self):
        raised, impossible = set(), set()
        for name, source, strategy in zeroed_rows_cases():
            if name.startswith("zero_action_rows"):
                raised.add(assert_same_recursion(source, strategy, K01) is not None)
            else:
                impossible.add(not all(m.all() for m in source.support().values()))
        assert raised == {True, False} and True in impossible

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    @pytest.mark.parametrize("build", [f1, f2, f3, f4, f5], ids=lambda b: b.__name__)
    def test_estimated_sources_bitwise_the_scalar_walk(self, build, alpha):
        d, strats = build()
        source = estimate_conditionals(sample(d, "obs", 60, seed=3), d.base, alpha)
        for strategy in strats.values():
            assert_same_recursion(source, strategy, ordinal_k(d.base))


class TestGRecursion:
    def test_constant_k_returns_constant(self):
        d, strats = f1()
        src = ExactSource(d)
        for s in strats.values():
            assert abs(g_recursion(src, s, {"0": 2.5, "1": 2.5}) - 2.5) < 1e-9

    def test_zero_actions_is_plain_expectation(self):
        v = Variable("Y", "resp", ("a", "b"))
        d = InfluenceDiagram([v], [], {"Y": Cpt("Y", (), {(): (0.7, 0.3)})})
        empty = Strategy("none", {})
        got = g_recursion(ExactSource(d), empty, {"a": 1.0, "b": 5.0})
        assert abs(got - (0.7 + 5 * 0.3)) < 1e-12

    def test_matches_oracle_on_stable_fixture(self):
        d, strats = f1()
        src = ExactSource(d)
        for s in strats.values():
            assert abs(g_recursion(src, s, K01) - consequence_direct(d, s, K01)) < 1e-9

    def test_matches_oracle_on_f2_restricted_strategy(self):
        # plain stability fails here, yet the recursion still identifies
        # consequences of strategies whose A2 looks only at A1
        d, strats = f2()
        src = ExactSource(d)
        got = g_recursion(src, strats["e2"], K01)
        want = consequence_direct(d, strats["e2"], K01)
        assert abs(got - want) < 1e-9

    def test_table_start_values_and_convention(self):
        d, strats = f1()
        table = recursion_table(ExactSource(d), strats["stat"], K01)
        full = ("0", "1", "1", "1", "1")
        assert table.values[full] == 1.0
        assert table.root == table.values[()]
        # off-policy histories are pruned, value 0 by convention
        assert ("0", "0") not in table.values

    def test_many_random_strategies_match_oracle(self):
        for seed in range(10):
            d, _ = complete_stable(2, seed=40 + seed)
            src = ExactSource(d)
            s = random_strategy(d, seed)
            assert abs(g_recursion(src, s, K01) - consequence_direct(d, s, K01)) < 1e-9

    def test_multivariate_block_and_trailing_hidden(self):
        # two covariates share the first block; a hidden variable sits
        # between the last action and the response
        from helpers import cpt_for, rng

        gen = rng(77)
        vs = [
            Variable("W", "obs", ("0", "1")),
            Variable("X", "obs", ("0", "1")),
            Variable("A1", "act", ("0", "1")),
            Variable("L2", "obs", ("0", "1")),
            Variable("A2", "act", ("0", "1")),
            Variable("U3", "hid", ("0", "1")),
            Variable("Y", "resp", ("0", "1")),
        ]
        names = [v.name for v in vs]
        edges = [
            (u, w)
            for i, u in enumerate(names)
            for w in names[i + 1 :]
            if w != "U3" or u in ("W", "X", "L2")
        ]
        edges += [("sigma", "A1"), ("sigma", "A2")]
        states = {v.name: ("0", "1") for v in vs}
        dag_parents = {
            n: tuple(u for (u, w) in edges if w == n and u != "sigma") for n in names
        }
        cpts = {n: cpt_for(gen, n, dag_parents[n], states) for n in names}
        d = InfluenceDiagram(vs, edges, cpts)
        blocks = [d.base.vars[lo:hi] for _, lo, hi, _ in d.base.stages]
        assert blocks == [("W", "X"), ("L2",), ("Y",)]
        src = ExactSource(d)
        s = random_strategy(d, 5)
        assert abs(g_recursion(src, s, K01) - consequence_direct(d, s, K01)) < 1e-9
        rep = verify_general_conditions(d, s)
        assert rep.overall and rep.consequence_delta <= 1e-9


def positivity_witness(d, strategy):
    """The ``live_frontier`` witness of a strategy on the observational support."""
    return live_frontier(ExactSource(d), _policy_arrays(d.base, strategy))[1]


class TestPositivityFailure:
    @pytest.mark.parametrize("name", ["pick1", "e"])
    def test_unsupported_strategy_mass_raises(self, name):
        d, strats = f4_without_action_one()
        witness = positivity_witness(d, strats[name])
        assert witness == ("1",)
        with pytest.raises(PositivityError) as err:
            g_recursion(ExactSource(d), strats[name], K01)
        assert err.value.history == witness


class TestOnePositivityWitness:
    def test_witness_labels_one_cell(self):
        # complete_stable(9) with A9 never 1 observationally: every live
        # history with A9 = 1 is a hole, 2^17 of them, and only the first
        # in row-major order is labelled.  Labelling them all to take a
        # label min peaked at about 60 MiB here.
        d, strats = complete_stable(9)
        cpts = dict(d.cpts)
        cpts["A9"] = Cpt("A9", d.cpts["A9"].parents, {c: (1.0, 0.0) for c in d.cpts["A9"].table})
        d = InfluenceDiagram(d.variables, d.dag.edges, cpts, d.obs_parents, d.int_parents)
        source, policies = ExactSource(d), _policy_arrays(d.base, strats["mix"])
        source.support()  # the marginals, built on first read
        tracemalloc.start()
        try:
            witness = live_frontier(source, policies)[1]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert witness == ("0",) * 17 + ("1",)
        assert peak <= 16 * 2**20, peak / 2**20

    def test_recursion_raises_the_cond6_witness(self):
        # f1 with A1 never 1 after L1=1 and A2 never 1 after (L1, A1, L2) = (0, 1, 0):
        # the static strategy reaches both holes, the stage-1 one comes first.
        d, strats = f1()
        cpts = dict(d.cpts)
        for var, config in (("A1", ("1",)), ("A2", ("0", "1", "0"))):
            table = dict(d.cpts[var].table)
            table[config] = (1.0, 0.0)
            cpts[var] = Cpt(var, d.cpts[var].parents, table)
        d = InfluenceDiagram(d.variables, d.dag.edges, cpts, d.obs_parents, d.int_parents)
        witness = positivity_witness(d, strats["stat"])
        assert witness == ("1", "1")
        with pytest.raises(PositivityError) as err:
            g_recursion(ExactSource(d), strats["stat"], K01)
        assert err.value.history == witness


def one_action_diagram(l_states):
    """L -> A -> Y with L's states in the given order."""
    variables = [Variable("L", "obs", l_states), Variable("A", "act", ("0", "1")),
                 Variable("Y", "resp", ("0", "1"))]
    edges = [("L", "A"), ("L", "Y"), ("A", "Y"), ("sigma", "A")]
    cpts = {
        "L": Cpt("L", (), {(): (0.3, 0.7)}),
        "A": Cpt("A", ("L",), {(s,): (0.4, 0.6) for s in l_states}),
        "Y": Cpt("Y", ("L", "A"), {("0", "0"): (0.9, 0.1), ("0", "1"): (0.2, 0.8),
                                   ("1", "0"): (0.6, 0.4), ("1", "1"): (0.5, 0.5)}),
    }
    return InfluenceDiagram(variables, edges, cpts)


def follow_l():
    return Strategy("follow", {"A": Policy(("L",), {("0",): (1.0, 0.0), ("1",): (0.0, 1.0)})})


def test_a_policy_densified_again_reads_its_new_rows():
    # The same policy object on a diagram whose L states come in the other
    # order is converted again; the recursion and the oracle read the new rows.
    strategy = follow_l()
    first, second = one_action_diagram(("0", "1")), one_action_diagram(("1", "0"))
    g_recursion(ExactSource(first), strategy, K01)
    consequence_direct(first, strategy, K01)
    for d in (second, first):
        for evaluate in (lambda s: g_recursion(ExactSource(d), s, K01),
                         lambda s: consequence_direct(d, s, K01)):
            assert evaluate(strategy) == evaluate(follow_l())


A2_ANY = Policy((), {(): (0.5, 0.5)})


@pytest.mark.parametrize(
    "strategy",
    [
        Strategy("late", {"A1": Policy(("L2",), {("0",): (1.0, 0.0), ("1",): (0.0, 1.0)}),
                          "A2": A2_ANY}),
        Strategy("partial", {"A2": A2_ANY}),
    ],
    ids=["A1-reads-L2", "no-A1"],
)
@pytest.mark.parametrize(
    "call",
    [
        lambda d, s: recursion_table(ExactSource(d), s, K01),
        lambda d, s: check_positivity(d, s),
    ],
    ids=["recursion_table", "check_positivity"],
)
def test_invalid_strategy_rejected(call, strategy):
    d, _ = f1()
    with pytest.raises(PolicyError):
        call(d, strategy)


def gamma(d, strategy) -> frozenset:
    """The live recursion frontier over the observational support."""
    return labels(d.base, live_frontier(ExactSource(d), _policy_arrays(d.base, strategy))[0])


class TestGammaSupport:
    def test_all_positive_rows_give_full_support(self):
        d, strats = f2()
        assert gamma(d, strats["e2"]) == support_labels(d, "obs")

    def test_deterministic_strategy_keeps_on_policy(self):
        d, _ = f1()
        stat = static_strategy("s", {"A1": "1", "A2": "0"}, d.states)
        gam = gamma(d, stat)
        assert ("0", "1") in gam and ("0", "0") not in gam

    def test_gamma_equals_strategy_support(self):
        d, strats = f2()
        assert gamma(d, strats["e2"]) == support_labels(d, strats["e2"])

    def test_prefix_monotonicity(self):
        d, _ = f1()
        for seed in range(5):
            s = random_strategy(d, 70 + seed)
            gam = gamma(d, s)
            bounds = d.base.boundaries
            for h in gam:
                for m in bounds:
                    if m < len(h):
                        assert h[:m] in gam

    def test_cond6_holds_with_positive_tables(self):
        d, strats = f2()
        assert positivity_witness(d, strats["e2"]) is None


class TestMixedRegimes:
    def test_endpoints(self):
        d, strats = f2()
        s = strats["e2"]
        assert np.array_equal(joint_distribution(d, [s] * d.n), joint_distribution(d, s))
        assert np.array_equal(joint_distribution(d, ["obs"] * d.n), joint_distribution(d, "obs"))

    def test_mixed_stage_factors(self):
        # at i=1 the (U1, A1) marginal is observational while A2 given
        # (A1, L2) follows the strategy policy
        d, strats = f2()
        s = strats["e2"]
        p1 = joint_distribution(d, ["obs", s])
        jo = joint_distribution(d, "obs")
        other = tuple(j for j, v in enumerate(d.order) if v not in ("U1", "A1"))
        assert np.allclose(p1.sum(axis=other), jo.sum(axis=other))
        got = conditional(d, p1, ("A2",), {"A1": "1", "L2": "0"})
        want = s.policies["A2"].table[("1",)]
        assert abs(got[("0",)] - want[0]) < 1e-12

    def test_each_entry_is_validated(self):
        d, strats = f2()
        bad = Strategy("partial", {"A1": strats["e2"].policies["A1"]})
        with pytest.raises(PolicyError, match="no policy for action A2"):
            joint_distribution(d, ["obs", bad])


class TestMixedDiagrams:
    def test_stage_one_structure_on_f2(self):
        d, _ = f2()
        d1 = build_dag_i(d, 1)
        assert ("L2", "A2") not in d1.edges  # int-parents of A2 are (A1,)
        assert ("U1", "A1") in d1.edges  # stage action keeps all parents
        assert ("sigma", "A1") in d1.edges and ("sigma", "A2") not in d1.edges

    def test_complete_structure_reproduces_stability_diagrams(self):
        d, _ = f1()
        for i in (1, 2):
            di = build_dag_i(d, i)
            sigma_children = [v for u, v in di.edges if u == "sigma"]
            assert sigma_children == [f"A{i}"]
            # domain part stays complete
            assert sum(1 for u, v in di.edges if u != "sigma") == 10

    def test_zero_stage_has_no_regime_arrows(self):
        d, _ = f2()
        d0 = build_dag_i(d, 0)
        assert not [v for u, v in d0.edges if u == "sigma"]

    def test_prime_variant_drops_sigma_and_out_arrows(self):
        d, _ = f2()
        d2p = build_dag_i_prime(d, 2)
        assert "sigma" not in d2p.nodes
        assert not [e for e in d2p.edges if e[0] == "A2"]


class TestCheckGraphsep:
    def test_stable_structure_passes_everywhere(self):
        d, _ = f1()
        assert check_graphsep(d).overall

    def test_f2_narrow_passes_wide_fails(self):
        d, _ = f2()
        rep = check_graphsep(d)
        assert rep.stages[0].passed and rep.stages[1].passed
        dw, _ = f2(wide=True)
        repw = check_graphsep(dw)
        assert not repw.stages[0].passed

    def test_strategy_outside_int_parents_rejected(self):
        d, strats = f2()
        with pytest.raises(InputError):
            check_graphsep(d, strats["e2wide"])


def with_int_parents(diagram, mask: int) -> InfluenceDiagram:
    """The diagram with each action's int-parents cut to the non-hidden
    domain parents that the bits of ``mask`` keep, in turn."""
    kept, bit = {}, 0
    for a in diagram.actions:
        candidates = [p for p in diagram.domain_parents[a] if diagram.kinds[p] != "hid"]
        kept[a] = [p for j, p in enumerate(candidates, start=bit) if mask >> j & 1]
        bit += len(candidates)
    return InfluenceDiagram(diagram.variables, diagram.dag.edges, diagram.cpts, int_parents=kept)


def stage_verdicts(report) -> tuple[tuple[int, bool], ...]:
    """``(stage, passed)`` of every stage of a report."""
    return tuple((s.stage, s.passed) for s in report.stages)


class TestGraphsepLemma:
    """``check_graphsep`` separates the response from the regime node; the
    second test, from the stage action in the diagram without the regime
    node and the action's out-arrows, must agree at every stage."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n_actions=st.integers(1, 3),
        hidden=st.sampled_from(["none", "to_action", "only_into_actions"]),
        p_edge=st.floats(0.1, 0.9),
        mask=st.integers(0, 2**20),
    )
    def test_agrees_on_random_diagrams(self, seed, n_actions, hidden, p_edge, mask):
        d = random_extended_id(
            seed,
            n_actions=n_actions,
            hidden_to_action=hidden == "to_action",
            hidden_only_into_actions=hidden == "only_into_actions",
            p_edge=p_edge,
        )
        d = with_int_parents(d, mask)
        assert stage_verdicts(check_graphsep(d)) == graphsep_by_action(d)

    def test_agrees_on_every_small_diagram(self):
        # Every edge set over U1 A1 L2 A2 Y (U1 hidden), with the default
        # int-parents and with none: 2 x 1,024 diagrams.
        names = ("U1", "A1", "L2", "A2", "Y")
        variables = [
            Variable(v, kind, ("0", "1"))
            for v, kind in zip(names, ("hid", "act", "obs", "act", "resp"))
        ]
        states = {v: ("0", "1") for v in names}
        pairs = [(u, v) for i, u in enumerate(names) for v in names[i + 1 :]]
        gen = rng(7)
        verdicts = set()
        for edge_mask in range(1 << len(pairs)):
            edges = [p for j, p in enumerate(pairs) if edge_mask >> j & 1]
            parents = {v: [u for u, w in edges if w == v] for v in names}
            cpts = {v: cpt_for(gen, v, parents[v], states) for v in names}
            d = InfluenceDiagram(variables, edges + [("sigma", "A1"), ("sigma", "A2")], cpts)
            for diagram in (d, with_int_parents(d, 0)):
                stages = stage_verdicts(check_graphsep(diagram))
                assert stages == graphsep_by_action(diagram), edges
                verdicts.add(stages)
        # Both verdicts occur at both stages.
        assert {stage for stages in verdicts for stage in stages} == {
            (1, True), (1, False), (2, True), (2, False)
        }


class TestVerifyGeneral:
    def test_stable_fixture_all_conditions(self):
        d, strats = f1()
        for s in strats.values():
            rep = verify_general_conditions(d, s)
            assert rep.overall and rep.consequence_delta <= 1e-9

    def test_f2_restricted_strategy_verifies(self):
        d, strats = f2()
        rep = verify_general_conditions(d, strats["e2"])
        assert rep.overall and rep.consequence_delta <= 1e-9

    def test_f2_wide_strategy_fails_y_bridge(self):
        d, strats = f2()
        rep = verify_general_conditions(d, strats["e2wide"])
        assert not rep.y_bridge
        assert rep.y_bridge_failures[0][0] == 1
        assert rep.consequence_delta is None

    @pytest.mark.parametrize(
        "case, name", [(lambda: complete_stable(3), "mix"), (f2, "e2")], ids=["complete3", "f2"]
    )
    def test_one_joint_per_regime_and_one_for_the_oracle(self, case, name, monkeypatch):
        # The observational joint, P_0..P_{n-1} and one strategy joint whose
        # response marginal is the oracle of every response state: no joint is
        # rebuilt per state.  f2 has hidden variables.
        d, strats = case()
        built, joint = [], model._joint
        monkeypatch.setattr(model, "_joint", lambda *args: built.append(1) or joint(*args))
        rep = verify_general_conditions(d, strats[name])
        assert rep.consequence_delta is not None
        assert len(built) <= d.n + 2, len(built)

    def test_diagram_without_actions(self):
        # No stage to bridge: the check goes straight to the oracle.
        d = parse_model(wide_binary_document(3)).diagram
        rep = verify_general_conditions(d, Strategy("none", {}))
        assert rep.overall and rep.y_bridge_failures == () and rep.consequence_delta == 0.0

    def test_delta_is_bitwise_the_per_state_gap_to_the_direct_oracle(self):
        # consequence_delta reads every state's oracle from one joint, yet it
        # equals, bit for bit, the largest gap between the recursion and
        # consequence_direct on each indicator k.
        cases = []
        for make in (f1, f2, f3, f4, f5):
            d, strats = make()
            cases += [(d, s) for s in strats.values()]
        doc = parse_model((Path(__file__).parent / "golden" / "ternary.id").read_text())
        cases += [(doc.diagram, s) for s in doc.strategies.values()]
        for seed in range(20):  # confounded: a hidden parent of an action and of Y
            d = random_extended_id(seed, hidden_to_action=True)
            cases.append((d, random_strategy(d, seed)))
        for seed in range(6):  # hidden parents of actions only
            d = random_extended_id(seed, n_actions=3, hidden_only_into_actions=True)
            cases.append((d, random_strategy(d, seed)))
        compared = 0
        for d, s in cases:
            delta = verify_general_conditions(d, s).consequence_delta
            if delta is None:
                continue
            states, want = d.states[d.response], 0.0
            for y in states:
                k = {t: 1.0 if t == y else 0.0 for t in states}
                gap = abs(g_recursion(ExactSource(d), s, k) - consequence_direct(d, s, k))
                want = max(want, gap)
            assert type(delta) is float and delta.hex() == want.hex()
            compared += 1
        assert compared == 16

    def test_peak_memory_holds_two_mixed_sources(self):
        # The observational source holds its table and the marginals read;
        # every other P_i is a bare table, summed to (past, y) rows at the
        # two boundaries it is compared at.  Holding all n + 1 as sources
        # peaked near 19 times one source's marginals on this model;
        # holding obs and one other P_i stays well within 7.
        d, strats = complete_stable(7)
        unit = sum(ExactSource(d).marginal(m).nbytes for m in d.base.boundaries)
        verify_general_conditions(d, strats["mix"])  # fills the non-action cache
        tracemalloc.start()
        try:
            verify_general_conditions(d, strats["mix"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 7 * unit, peak / unit

    def test_y_bridge_failures_independent_of_hash_seed(self):
        # String hashes, and so set iteration order, change with PYTHONHASHSEED.
        here = Path(__file__).resolve().parent
        code = (
            "from helpers import random_extended_id, random_strategy\n"
            "from regimes.stability import verify_general_conditions\n"
            "d = random_extended_id(0, n_actions=3, hidden_to_action=True)\n"
            "print(verify_general_conditions(d, random_strategy(d, 0)).y_bridge_failures)\n"
        )
        path = os.pathsep.join([str(here.parent / "src"), str(here)])
        outputs = [
            subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True, check=True,
                env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path},
            ).stdout
            for seed in ("0", "3")
        ]
        assert outputs[0] == outputs[1]
        witnesses = ast.literal_eval(outputs[0])
        base = random_extended_id(0, n_actions=3, hidden_to_action=True).base
        assert len(witnesses) == 3 and list(witnesses) == row_major(base, witnesses)

    def test_y_bridge_failures_come_in_row_major_order(self):
        # The model of the test above with its states declared in reverse:
        # the same failures are judged, and the first three in row-major
        # order of the declared states are not the least by labels.
        d = random_extended_id(0, n_actions=3, hidden_to_action=True)
        failures = verify_general_conditions(d, random_strategy(d, 0)).y_bridge_failures
        d, s = reversed_states(d, random_strategy(d, 0))
        moved = verify_general_conditions(d, s).y_bridge_failures
        assert len(moved) == 3 and list(moved) == row_major(d.base, moved)
        assert list(moved) != sorted(moved) and moved != failures

    def test_y_marginal_identified_but_not_full_joint(self):
        # the mixed route identifies the response marginal; intermediate
        # covariate marginals under the strategy are not recovered from
        # any single artificial distribution in general
        d, strats = f2()
        s = strats["e2"]
        je = joint_distribution(d, s)
        for y in ("0", "1"):
            k = {st: float(st == y) for st in ("0", "1")}
            assert abs(g_recursion(ExactSource(d), s, k) - prob(d, je, {"Y": y})) < 1e-9
