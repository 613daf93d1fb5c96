import itertools
import math

import pytest

from fixtures import f1, f3, f4, f5
from helpers import random_extended_id
import regimes.admissible as adm
from regimes.admissible import (
    _orders_consistent_with,
    check_admissible,
    compute_candidate_sequence,
    improve_sequence,
    search_admissible_ordering,
)
from regimes.errors import CapacityError, InputError, ModelError
from regimes.graph import descendants
from regimes.model import Cpt, InfluenceDiagram, Variable
from regimes.stability import build_dag_i


class TestCandidateSequence:
    def test_complete_structure_recovers_declared_blocks(self):
        d, _ = f1()
        seq = compute_candidate_sequence(d)
        assert seq.sets == (("L1",), ("L2",))
        assert seq.admissible

    def test_f3_good_ordering(self):
        d, _ = f3()
        seq = compute_candidate_sequence(d, ("B", "A"))
        assert seq.pools == ((), ("L",))
        assert seq.sets == ((), ("L",))
        assert seq.admissible

    def test_f3_bad_ordering(self):
        d, _ = f3()
        seq = compute_candidate_sequence(d, ("A", "B"))
        assert seq.pools[0] == ()
        assert not seq.verdicts[0]

    def test_pools_are_nested(self):
        for seed in range(20):
            d = random_extended_id(seed, n_actions=3)
            try:
                seq = compute_candidate_sequence(d)
            except ModelError:
                continue  # an action without influence on the response
            for a, b in zip(seq.pools, seq.pools[1:]):
                assert set(a) <= set(b)

    def test_action_without_response_influence_rejected(self):
        vs = [
            Variable("L", "obs", ("0", "1")),
            Variable("A1", "act", ("0", "1")),
            Variable("Y", "resp", ("0", "1")),
        ]
        cpts = {
            "L": Cpt("L", (), {(): (0.5, 0.5)}),
            "A1": Cpt("A1", ("L",), {("0",): (0.5, 0.5), ("1",): (0.4, 0.6)}),
            "Y": Cpt("Y", ("L",), {("0",): (0.5, 0.5), ("1",): (0.4, 0.6)}),
        }
        d = InfluenceDiagram(vs, [("L", "A1"), ("L", "Y"), ("sigma", "A1")], cpts)
        with pytest.raises(ModelError, match="A1"):
            compute_candidate_sequence(d)


class TestCheckAdmissible:
    def test_f3_explicit_sequence(self):
        d, _ = f3()
        seq = check_admissible(d, ("B", "A"), [(), ("L",)])
        assert seq.admissible

    def test_f3_bad_ordering_any_sequence_fails_first(self):
        d, _ = f3()
        # L descends from B, so it may appear at no stage of this ordering;
        # the only valid sequence fails immediately
        seq = check_admissible(d, ("A", "B"), [(), ()])
        assert not seq.verdicts[0]
        with pytest.raises(InputError):
            check_admissible(d, ("A", "B"), [(), ("L",)])

    def test_descendant_constraint_enforced(self):
        d, _ = f5()
        # X descends from A1, so it may not appear at stage 1
        with pytest.raises(InputError):
            check_admissible(d, None, [("X",), ()])

    def test_overlapping_sets_rejected(self):
        d, _ = f1()
        with pytest.raises(InputError):
            check_admissible(d, None, [("L1",), ("L1",)])


class TestImproveSequence:
    def test_f5_improvement_drops_redundant_covariate(self):
        d, _ = f5()
        candidate = compute_candidate_sequence(d)
        assert candidate.sets == (("Z",), ("X",))
        improved = improve_sequence(d)
        assert improved.sets == ((), ("X",))
        assert improved.admissible
        # result stays inside the candidate's cumulative pools
        for i in range(1, 3):
            assert set().union(*improved.sets[:i]) <= set().union(*candidate.sets[:i])

    def test_fixed_point_when_minimal(self):
        d, _ = f3()
        candidate = compute_candidate_sequence(d, ("B", "A"))
        improved = improve_sequence(d, ("B", "A"))
        assert improved.sets == candidate.sets

    def test_preconditions_checked_as_by_the_other_calls(self):
        # An action that cannot reach the response is reported before a bad
        # action order, as compute_candidate_sequence and check_admissible do.
        vs = [Variable("A1", "act", ("0", "1")), Variable("Y", "resp", ("0", "1"))]
        cpts = {"A1": Cpt("A1", (), {(): (0.5, 0.5)}), "Y": Cpt("Y", (), {(): (0.5, 0.5)})}
        d = InfluenceDiagram(vs, [("sigma", "A1")], cpts)
        for call in (compute_candidate_sequence, improve_sequence):
            with pytest.raises(ModelError, match="A1"):
                call(d, ("Z",))

    def test_single_stage_required_covariate_kept(self):
        d, _ = f4()  # hidden confounder: stage pool check fails, abort
        candidate = compute_candidate_sequence(d)
        assert not candidate.admissible
        assert improve_sequence(d) == candidate

    def test_stage_diagrams_built_once(self, monkeypatch):
        # N stage diagrams plus the interventional one, none per greedy trial
        d, _ = f5()
        build, calls = adm.build_dag_i, []
        monkeypatch.setattr(adm, "build_dag_i", lambda *a: calls.append(a) or build(*a))
        assert improve_sequence(d).sets == ((), ("X",))
        assert len(calls) <= len(d.actions) + 1

    def test_improved_still_admissible(self):
        for seed in range(20):
            d = random_extended_id(seed, n_actions=2, hidden_to_action=False)
            try:
                candidate = compute_candidate_sequence(d)
            except ModelError:
                continue
            if not candidate.admissible:
                continue
            improved = improve_sequence(d)
            recheck = check_admissible(d, improved.order, improved.sets)
            assert recheck.admissible


def _all_valid_sequences(diagram, order):
    """Every assignment of observables (response excluded) to stages or to
    no stage, honouring the non-descendant constraint."""
    from regimes.graph import descendants

    d_e = build_dag_i(diagram, 0)
    candidates = [v for v in diagram.observables if v != diagram.response]
    n = len(order)
    forbidden = [
        set(descendants(d_e, order[i:])) for i in range(n)
    ]
    slots = []
    for v in candidates:
        ok = [0] + [i + 1 for i in range(n) if v not in forbidden[i]]
        slots.append(ok)
    for pick in itertools.product(*slots):
        sets = [[] for _ in range(n)]
        for v, where in zip(candidates, pick):
            if where:
                sets[where - 1].append(v)
        yield [tuple(s) for s in sets]


def _filtered_permutations(diagram):
    """Every permutation of the actions with no action placed after one of
    its descendants, in declaration-lexicographic order."""
    d_e = build_dag_i(diagram, 0)
    actions = diagram.actions
    below = {a: set(descendants(d_e, {a})) & set(actions) - {a} for a in actions}
    return [
        perm for perm in itertools.permutations(actions)
        if not any(below[a] & set(perm[: i + 1]) for i, a in enumerate(perm))
    ]


@pytest.mark.parametrize("n_actions", [2, 3, 4, 5, 6])
def test_orderings_are_the_filtered_permutations(n_actions):
    counts = set()
    shapes = [dict(p_edge=p) for p in (0.0, 0.15, 0.4)]
    shapes.append(dict(p_edge=1.0, p_hidden=0.0, p_obs=0.0))  # a chain of actions
    for seed in range(8):
        for shape in shapes:
            d = random_extended_id(
                seed, n_actions=n_actions, hidden_to_action=seed % 2 == 1, **shape
            )
            orders = list(_orders_consistent_with(d))
            assert orders == _filtered_permutations(d)
            counts.add(len(orders))
    # unrelated actions (no edges) and a chain are both covered
    assert {1, math.factorial(n_actions)} <= counts


class TestSearchAndCompleteness:
    def test_f3_search_finds_second_ordering(self):
        d, _ = f3()
        seq = search_admissible_ordering(d)
        assert seq.order == ("B", "A")
        assert seq.sets == ((), ("L",))

    def test_f1_search_first_permutation(self):
        d, _ = f1()
        seq = search_admissible_ordering(d)
        assert seq.order == ("A1", "A2")

    def test_doubly_confounded_has_none(self):
        d, _ = f4(two_actions=True)
        assert search_admissible_ordering(d) is None
        # exhaustive cross-check over every ordering and sequence
        for order in itertools.permutations(d.actions):
            try:
                for sets in _all_valid_sequences(d, order):
                    seq = check_admissible(d, order, sets)
                    assert not seq.admissible
            except InputError:
                continue

    def test_candidate_complete_for_fixed_ordering(self):
        # if any sequence is admissible for an ordering, the pool sequence is
        hits = 0
        for seed in range(30):
            d = random_extended_id(seed, n_actions=2, p_hidden=0.5)
            try:
                candidate = compute_candidate_sequence(d)
            except ModelError:
                continue
            any_admissible = any(
                check_admissible(d, d.actions, sets).admissible
                for sets in _all_valid_sequences(d, d.actions)
            )
            assert candidate.admissible == any_admissible
            hits += any_admissible
        assert hits > 0

    def test_capacity_guard(self):
        names = []
        edges = []
        cpts = {}
        for i in range(1, 10):
            names.append(Variable(f"A{i}", "act", ("0", "1")))
            cpts[f"A{i}"] = Cpt(f"A{i}", (), {(): (0.5, 0.5)})
            edges += [(f"A{i}", "Y"), ("sigma", f"A{i}")]
        names.append(Variable("Y", "resp", ("0", "1")))
        cpts["Y"] = Cpt(
            "Y",
            tuple(f"A{i}" for i in range(1, 10)),
            {
                cfg: (0.5, 0.5)
                for cfg in itertools.product("01", repeat=9)
            },
        )
        d = InfluenceDiagram(names, edges, cpts)
        with pytest.raises(CapacityError):
            search_admissible_ordering(d)
