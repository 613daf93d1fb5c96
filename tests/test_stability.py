import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import f1, f2, f3, f4, static_strategy
from helpers import (
    conditional,
    random_extended_id,
    random_strategy,
    support_labels,
    support_propagation,
    zero_action_rows,
    zero_covariate_rows,
)
from moral_reference import moral_ancestral
from regimes.grecursion import _policy_arrays, live_frontier
from regimes.model import (
    Cpt,
    ExactSource,
    InfluenceDiagram,
    Policy,
    Strategy,
    factor_array,
    joint_distribution,
)
from regimes.optimize import _pure_strategy, _rows, strategy_count
from regimes.stability import (
    DivergenceWitness,
    PathWitness,
    StageVerdict,
    build_dag_i,
    check_graphsep,
    check_positivity,
    check_sequential_irrelevance_numeric,
    check_sequential_randomization,
    check_simple_stability_graphical,
    check_simple_stability_numeric,
)


class TestGraphical:
    def test_complete_structure_all_stages(self):
        d, _ = f1()
        rep = check_simple_stability_graphical(d)
        assert rep.overall and len(rep.stages) == 3

    def test_f2_fails_at_covariate_stage_with_path(self):
        d, _ = f2()
        rep = check_simple_stability_graphical(d)
        s2 = rep.stages[1]
        assert not s2.passed
        assert isinstance(s2.witness, PathWitness)
        assert s2.witness.path == ("L2", "U1", "sigma")
        assert not rep.overall

    def test_f3_declared_order_all_stages(self):
        d, _ = f3()
        assert check_simple_stability_graphical(d).overall

    def test_every_failure_has_witness(self):
        for seed in range(10):
            d = random_extended_id(seed, hidden_to_action=True, p_hidden=1.0)
            rep = check_simple_stability_graphical(d)
            for s in rep.stages:
                assert s.passed or s.witness is not None


def graphsep_witnesses(d) -> set:
    """Check every stage of ``check_graphsep`` on ``d``: a witness exactly
    when the stage fails, and then a path of the stage's moral ancestral
    graph from the response to the regime node that avoids the observed
    past up to the stage action.  Returns the verdicts seen."""
    rep = check_graphsep(d)
    assert [s.stage for s in rep.stages] == list(range(1, d.n + 1))
    for s in rep.stages:
        assert isinstance(s, StageVerdict)
        assert (s.witness is None) == s.passed
        if s.passed:
            continue
        assert isinstance(s.witness, PathWitness)
        path = s.witness.path
        cond = set(d.base.vars[: d.base.after_a(s.stage)])
        assert path[0] == d.response and path[-1] == "sigma"
        assert len(set(path)) == len(path) and not cond & set(path)
        graph = moral_ancestral(build_dag_i(d, s.stage), cond | {d.response, "sigma"})
        assert all(v in graph.neighbors(u) for u, v in zip(path, path[1:])), path
    assert rep.overall == all(s.passed for s in rep.stages)
    return {s.passed for s in rep.stages}


class TestGraphsepWitness:
    def test_f2_wide_fails_stage_one_with_path(self):
        d, _ = f2(wide=True)
        assert graphsep_witnesses(d) == {True, False}
        rep = check_graphsep(d)
        assert not rep.stages[0].passed and rep.stages[1].passed
        assert not rep.overall

    def test_f2_narrow_passes_without_witness(self):
        d, _ = f2()
        assert graphsep_witnesses(d) == {True}

    def test_random_diagrams(self):
        seen = set()
        for seed in range(40):
            for hidden in (False, True):
                d = random_extended_id(seed, n_actions=1 + seed % 3, hidden_to_action=hidden)
                seen |= graphsep_witnesses(d)
        assert seen == {True, False}


class TestNumeric:
    def test_observable_actions_only_always_stable(self):
        d, strats = f1()
        rep = check_simple_stability_numeric(d, strats.values())
        assert rep.overall

    def test_f4_fails_at_response_stage(self):
        d, strats = f4()
        rep = check_simple_stability_numeric(d, [strats["e"]])
        last = rep.stages[-1]
        assert not last.passed
        assert isinstance(last.witness, DivergenceWitness)

    def test_f2_fails_at_covariate_stage(self):
        d, strats = f2()
        rep = check_simple_stability_numeric(d, [strats["e2"]])
        assert not rep.stages[1].passed

    @pytest.mark.parametrize("make", [f2, f4, lambda: f2(wide=True)], ids=["f2", "f4", "f2_wide"])
    def test_no_strategies_checks_the_whole_class(self, make):
        # With no strategy the check compares with the uniform strategy, which
        # stands for every control strategy, so it fails where graphical
        # stability does.
        d, _ = make()
        report = check_simple_stability_numeric(d, [])
        assert not report.overall
        graphical = check_simple_stability_graphical(d)
        assert [s.passed for s in report.stages] == [s.passed for s in graphical.stages]
        assert {s.witness.right for s in report.stages if not s.passed} == {"uniform"}


def pure_strategies(base):
    """Every non-randomized full-history strategy of the base."""
    choices = [
        itertools.product(range(len(base.states[a])), repeat=_rows(base, i))
        for i, a in enumerate(base.actions, start=1)
    ]
    for picks in itertools.product(*choices):
        yield _pure_strategy(base, "pure", picks)


def stage_events(report):
    return [(s.stage, s.passed, s.witness and s.witness.event) for s in report.stages]


def test_uniform_verdict_is_the_all_pure_verdict():
    # On small random diagrams the check with no strategy, against the
    # uniform one, gives each stage the verdict and the witness event of
    # checking every pure full-history strategy.  The data are fixed before
    # running: 40 derandomized draws of binary diagrams with one or two
    # actions, so at most 1,024 strategies each; both verdicts must occur.
    seen = set()

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 10**6), st.integers(1, 2), st.booleans())
    def check(seed, n_actions, confounded):
        d = random_extended_id(seed, n_actions=n_actions, hidden_to_action=confounded)
        assert strategy_count(d) <= 1024
        uniform = check_simple_stability_numeric(d, [])
        every = check_simple_stability_numeric(d, list(pure_strategies(d.base)))
        assert stage_events(uniform) == stage_events(every)
        seen.add(uniform.overall)

    check()
    assert seen == {True, False}


PAIR_SEEDS = range(60)


def strategy_pair_gap(seed):
    """Two random strategies on a random diagram: the largest gap between
    their covariate-block conditionals given the observed past where both
    are defined, and the number of such rows the observational regime does
    not define.  Confounding alternates; a third of the diagrams get
    deterministic covariate rows and a third deterministic action rows."""
    d = random_extended_id(seed, n_actions=1 + seed % 3, hidden_to_action=seed % 2 == 1)
    if seed // 3 % 3 == 1:
        d = zero_covariate_rows(d, seed)
    elif seed // 3 % 3 == 2:
        d = zero_action_rows(d, seed)
    obs, left, right = (
        ExactSource(d, r)
        for r in ("obs", random_strategy(d, 500 + seed), random_strategy(d, 900 + seed))
    )
    gap, obs_undefined = 0.0, 0
    for _, lo, hi, _ in d.base.stages:
        both = left.support()[lo] & right.support()[lo]
        diff = np.abs(left.given(lo, hi) - right.given(lo, hi)).max(axis=-1)
        gap = max(gap, float(np.max(diff, where=both, initial=0.0)))
        obs_undefined += int(np.count_nonzero(both & ~obs.support()[lo]))
    return gap, obs_undefined


@pytest.mark.parametrize("seed", PAIR_SEEDS)
def test_strategy_pairs_agree_where_both_are_defined(seed):
    """The premise of comparing each strategy with the observational regime
    alone: action factors read observed variables only, so they cancel
    from every conditional of a covariate block given the observed past."""
    assert strategy_pair_gap(seed)[0] <= 1e-12


def test_strategy_pairs_reach_rows_the_observational_regime_lacks():
    """The property above meets rows where both strategies are defined and
    the observational regime is not."""
    assert sum(strategy_pair_gap(seed)[1] for seed in PAIR_SEEDS) > 0


class TestSequentialRandomization:
    def test_no_hidden_structure_passes(self):
        d, _ = f1()
        assert check_sequential_randomization(d)

    def test_hidden_into_action_fails(self):
        d, _ = f2()
        assert not check_sequential_randomization(d)

    def test_hidden_confounder_without_action_arrow_passes(self):
        # hidden arrows into covariates only
        for seed in range(5):
            d = random_extended_id(seed, hidden_to_action=False)
            assert check_sequential_randomization(d)


class TestTheorem1Property:
    def test_randomization_implies_numeric_stability(self):
        for seed in range(25):
            d = random_extended_id(seed, n_actions=2, hidden_to_action=False)
            assert check_sequential_randomization(d)
            strategies = [random_strategy(d, 1000 + seed + j) for j in range(2)]
            assert check_simple_stability_numeric(d, strategies).overall

    def test_counter_instances_fail(self):
        for seed in range(8):
            d = random_extended_id(seed, n_actions=2, hidden_to_action=True, p_hidden=1.0)
            strategies = [random_strategy(d, 2000 + seed)]
            assert not check_simple_stability_numeric(d, strategies).overall


class TestSequentialIrrelevance:
    def test_no_hidden_ancestors_of_observables(self):
        # hidden arrows restricted to actions and later hidden variables
        for seed in range(10):
            d = random_extended_id(seed, hidden_only_into_actions=True)
            assert check_sequential_irrelevance_numeric(d).overall

    def test_f4_fails_at_response_stage(self):
        d, strats = f4()
        rep = check_sequential_irrelevance_numeric(d, strats.values())
        assert not rep.stages[-1].passed
        assert isinstance(rep.stages[-1].witness, DivergenceWitness)
        assert all(rep.extended_positivity.values())

    def test_theorem2_irrelevance_plus_positivity_gives_stability(self):
        for seed in range(15):
            d = random_extended_id(seed, n_actions=2, hidden_only_into_actions=True)
            strategies = [random_strategy(d, 3000 + seed + j) for j in range(2)]
            rep = check_sequential_irrelevance_numeric(d, strategies)
            assert rep.overall
            assert all(rep.extended_positivity.values())
            assert check_simple_stability_numeric(d, strategies).overall

    def test_irrelevance_holds_under_strategy_regimes_too(self):
        # same conditional-independence statement, tested on the strategy joint
        import itertools

        for seed in range(5):
            d = random_extended_id(seed, n_actions=2, hidden_only_into_actions=True)
            s = random_strategy(d, 4000 + seed)
            je = joint_distribution(d, s)
            base = d.base
            for i, lo, hi, _ in base.stages:
                block = base.vars[lo:hi]
                if not block or i == 1:
                    continue
                a_prev = base.action(i - 1)
                u_past = tuple(
                    u for u in d.hidden if d.index[u] < d.index[a_prev]
                )
                if not u_past:
                    continue
                past = base.vars[:lo]
                for cfg in itertools.product(*(d.states[p] for p in past)):
                    given = dict(zip(past, cfg))
                    ref = None
                    for ucfg in itertools.product(*(d.states[u] for u in u_past)):
                        cu = conditional(d, je, block, {**given, **dict(zip(u_past, ucfg))})
                        if cu is None:
                            continue
                        if ref is None:
                            ref = cu
                        else:
                            assert all(abs(cu[c] - ref[c]) < 1e-9 for c in cu)


class TestGraphicalImpliesNumeric:
    def test_soundness_over_instantiations(self):
        # whenever the graphical check passes, every table instantiation
        # and control strategy passes the numeric check
        for seed in range(10):
            d = random_extended_id(seed, n_actions=2, hidden_to_action=False)
            if not check_simple_stability_graphical(d).overall:
                continue
            strategies = [random_strategy(d, 5000 + seed + j) for j in range(2)]
            assert check_simple_stability_numeric(d, strategies).overall

    def test_converse_not_asserted(self):
        # a numerically stable instantiation of a graphically unstable
        # structure: hidden parent wired to act vacuously
        d, _ = f4()
        cpts = dict(d.cpts)
        cpts["A1"] = Cpt("A1", ("U",), {("0",): (0.3, 0.7), ("1",): (0.3, 0.7)})
        d2 = InfluenceDiagram(
            d.variables, list(d.dag.edges), cpts, d.obs_parents, d.int_parents
        )
        assert not check_simple_stability_graphical(d2).overall
        s = Strategy("e", {"A1": Policy((), {(): (0.5, 0.5)})})
        assert check_simple_stability_numeric(d2, [s]).overall


class TestPositivity:
    def test_all_positive_tables_all_four(self):
        d, strats = f1()
        rep = check_positivity(d, strats["mix"])
        assert rep.simple and rep.extended and rep.parent_child and rep.general

    def test_structural_zero_breaks_parent_child_and_simple(self):
        d, _ = f4()
        cpts = dict(d.cpts)
        cpts["A1"] = Cpt("A1", ("U",), {("0",): (1.0, 0.0), ("1",): (1.0, 0.0)})
        d2 = InfluenceDiagram(
            d.variables, list(d.dag.edges), cpts, d.obs_parents, d.int_parents
        )
        always1 = Strategy("a1", {"A1": Policy((), {(): (0.0, 1.0)})})
        rep = check_positivity(d2, always1)
        assert not rep.parent_child and not rep.simple

    def test_parent_child_sufficient_not_necessary(self):
        # zero an observational action row only at a parent configuration
        # the strategy never reaches: simple holds, parent-child fails
        d, _ = f1()
        cpts = dict(d.cpts)
        rows = dict(d.cpts["A2"].table)
        # strategy pins A1=1, so any row with a1=0 is unreachable under it
        for cfg in list(rows):
            if cfg[1] == "0":
                rows[cfg] = (1.0, 0.0)
        cpts["A2"] = Cpt("A2", d.cpts["A2"].parents, rows)
        d2 = InfluenceDiagram(
            d.variables, list(d.dag.edges), cpts, d.obs_parents, d.int_parents
        )
        stat = static_strategy("s", {"A1": "1", "A2": "1"}, d.states)
        rep = check_positivity(d2, stat)
        assert rep.simple and not rep.parent_child

    def test_extended_positivity_under_all_positive_tables(self):
        d, strats = f2()
        assert check_positivity(d, strats["e2"]).extended


def union_axes_parent_child(d, s) -> bool:
    """Parent-child positivity action by action: the policy and the
    observational table laid out on the union of their parents."""
    for a in d.actions:
        pol, cpt = s.policies[a], d.cpts[a]
        axes = d.sort(set(pol.parents) | set(cpt.parents)) + (a,)
        pe = factor_array(axes, a, pol.parents, pol.array)
        po = factor_array(axes, a, cpt.parents, cpt.array)
        if np.any((pe > 0.0) & (po <= 0.0)):
            return False
    return True


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 10**6),
    st.integers(1, 3),
    st.booleans(),
    st.sampled_from(["actions", "covariates", "both"]),
    st.integers(0, 10**6),
)
def test_positivity_matches_its_definitions(seed, n_actions, confounded, zeroed, other_seed):
    """One strategy joint and one observational joint give the verdicts
    that the support sets, the two full joints, the action loop and
    the ``live_frontier`` witness give."""
    d = random_extended_id(seed, n_actions=n_actions, hidden_to_action=confounded)
    if zeroed != "covariates":
        d = zero_action_rows(d, other_seed)
    if zeroed != "actions":
        d = zero_covariate_rows(d, other_seed + 1)
    s = random_strategy(d, other_seed)
    rep = check_positivity(d, s)
    assert rep.simple == (support_labels(d, s) <= support_labels(d, "obs"))
    je, jo = joint_distribution(d, s), joint_distribution(d, "obs")
    assert rep.extended == bool(np.all((je <= 0.0) | (jo > 0.0)))
    assert rep.parent_child == union_axes_parent_child(d, s)
    assert rep.general == (live_frontier(ExactSource(d), _policy_arrays(d.base, s))[1] is None)


def test_positivity_generator_reaches_both_verdicts():
    """The property above sees simple, extended and parent-child
    positivity each hold and fail, with policies that read other parents
    than the observational tables."""
    seen, other_parents = set(), 0
    for seed in range(30):
        d = zero_action_rows(random_extended_id(seed, hidden_to_action=seed % 2 == 1), seed)
        s = random_strategy(d, seed)
        rep = check_positivity(d, s)
        seen.add((rep.simple, rep.extended, rep.parent_child))
        other_parents += any(s.policies[a].parents != d.cpts[a].parents for a in d.actions)
    for j in range(3):
        assert {verdicts[j] for verdicts in seen} == {True, False}
    assert other_parents >= 15


class TestSupportPropagation:
    def test_all_positive_everything_possible(self):
        d, _ = f1()
        marks = support_propagation(d)
        assert bool(np.all(marks["obs"]))

    def test_single_zero_row_blocks_exactly_its_extensions(self):
        d, _ = f4()
        cpts = dict(d.cpts)
        cpts["Y"] = Cpt(
            "Y",
            d.cpts["Y"].parents,
            {
                cfg: ((1.0, 0.0) if cfg == ("0", "0") else row)
                for cfg, row in d.cpts["Y"].table.items()
            },
        )
        d2 = InfluenceDiagram(
            d.variables, list(d.dag.edges), cpts, d.obs_parents, d.int_parents
        )
        marks = support_propagation(d2)["obs"]
        j = joint_distribution(d2, "obs")
        assert np.array_equal(marks, j > 0)
        assert not marks[0, 0, 1]  # u=0, a1=0, y=1 now impossible

    def test_matches_exact_support_under_strategy(self):
        d, strats = f2()
        det = Strategy(
            "det",
            {
                "A1": Policy((), {(): (0.0, 1.0)}),
                "A2": Policy(("A1",), {("0",): (1.0, 0.0), ("1",): (0.0, 1.0)}),
            },
        )
        marks = support_propagation(d, [det])["det"]
        j = joint_distribution(d, det)
        assert np.array_equal(marks, j > 0)
