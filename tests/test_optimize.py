import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fixtures import complete_stable, f1, f2, f3, f4, f5
from helpers import (
    cpt_for,
    dirichlet_row,
    random_extended_id,
    random_strategy,
    rng,
    zero_covariate_rows,
)
from regimes import optimize
from regimes.errors import CapacityError
from regimes.model import (
    Cpt,
    ExactSource,
    InfluenceDiagram,
    Variable,
    _consequences,
    consequence_direct,
    joint_distribution,
    response_weights,
)
from regimes.optimize import (
    BATCH_CELLS,
    MAX_ENUMERATED,
    _batch,
    _label_order,
    _pure_strategy,
    _rows,
    enumerate_strategies,
    optimal_strategy,
    strategy_count,
)
from regimes.parser import parse_model

K01 = {"0": 0.0, "1": 1.0}
B = ("0", "1")


def one_stage(seed=9):
    gen = rng(seed)
    vs = [Variable("L1", "obs", B), Variable("A1", "act", B), Variable("Y", "resp", B)]
    cpts = {
        "L1": Cpt("L1", (), {(): dirichlet_row(gen, 2)}),
        "A1": Cpt("A1", ("L1",), {(s,): dirichlet_row(gen, 2) for s in B}),
        "Y": Cpt(
            "Y",
            ("L1", "A1"),
            {c: dirichlet_row(gen, 2) for c in itertools.product(B, B)},
        ),
    }
    edges = [("L1", "A1"), ("L1", "Y"), ("A1", "Y"), ("sigma", "A1")]
    return InfluenceDiagram(vs, edges, cpts)


class TestOneStageBellman:
    def test_pointwise_argmax_value(self):
        d = one_stage()
        strategy, value = optimal_strategy(ExactSource(d), K01)
        pl = d.cpts["L1"].table[()]
        want = sum(
            pl[i] * max(d.cpts["Y"].table[(l, a)][1] for a in B)
            for i, l in enumerate(B)
        )
        assert abs(value - want) < 1e-12
        for i, l in enumerate(B):
            best = max(B, key=lambda a: d.cpts["Y"].table[(l, a)][1])
            assert strategy.policies["A1"].table[(l,)][B.index(best)] == 1.0

    def test_two_strategies_compared(self):
        d = one_stage()
        # drop the covariate: exactly two unconditional strategies exist
        vs = [Variable("A1", "act", B), Variable("Y", "resp", B)]
        gen = rng(3)
        cpts = {
            "A1": Cpt("A1", (), {(): dirichlet_row(gen, 2)}),
            "Y": Cpt("Y", ("A1",), {(s,): dirichlet_row(gen, 2) for s in B}),
        }
        d2 = InfluenceDiagram(vs, [("A1", "Y"), ("sigma", "A1")], cpts)
        assert strategy_count(d2) == 2
        _, value = enumerate_strategies(d2, K01)
        want = max(d2.cpts["Y"].table[(a,)][1] for a in B)
        assert abs(value - want) < 1e-12


class TestTieRule:
    def test_payoff_equivalent_actions_pick_smallest_label(self):
        vs = [Variable("A1", "act", ("b", "a")), Variable("Y", "resp", B)]
        cpts = {
            "A1": Cpt("A1", (), {(): (0.5, 0.5)}),
            "Y": Cpt("Y", ("A1",), {("b",): (0.3, 0.7), ("a",): (0.3, 0.7)}),
        }
        d = InfluenceDiagram(vs, [("A1", "Y"), ("sigma", "A1")], cpts)
        strategy, value = optimal_strategy(ExactSource(d), K01)
        assert abs(value - 0.7) < 1e-12
        # 'a' < 'b' lexicographically even though 'b' is declared first
        assert strategy.policies["A1"].table[()] == (0.0, 1.0)


class TestAgainstEnumeration:
    def test_f1_matches_exhaustive(self):
        d, _ = f1()
        src = ExactSource(d)
        for sense in ("max", "min"):
            s_fast, v_fast = optimal_strategy(src, K01, sense)
            s_slow, v_slow = enumerate_strategies(d, K01, sense)
            assert abs(v_fast - v_slow) < 1e-9
            assert abs(consequence_direct(d, s_fast, K01) - v_fast) < 1e-9

    def test_random_instances_and_random_challengers(self):
        for seed in range(10):
            d, _ = complete_stable(2, seed=300 + seed)
            src = ExactSource(d)
            _, v = optimal_strategy(src, K01)
            _, v_enum = enumerate_strategies(d, K01)
            assert abs(v - v_enum) < 1e-9
            for j in range(20):
                challenger = random_strategy(d, 7000 + 31 * seed + j)
                assert consequence_direct(d, challenger, K01) <= v + 1e-9

    def test_min_bounded_by_max(self):
        d, _ = f1()
        src = ExactSource(d)
        _, vmin = optimal_strategy(src, K01, "min")
        _, vmax = optimal_strategy(src, K01, "max")
        assert vmin <= vmax


class TestInvariances:
    def test_affine_rescaling_keeps_policy(self):
        d, _ = f1()
        src = ExactSource(d)
        s1, v1 = optimal_strategy(src, {"0": 0.0, "1": 1.0})
        s2, v2 = optimal_strategy(src, {"0": 3.0, "1": 3.0 + 2.5})
        assert s1.policies == s2.policies
        assert abs(v2 - (3.0 + 2.5 * v1)) < 1e-9

    def test_zero_action_model(self):
        vs = [Variable("Y", "resp", B)]
        d = InfluenceDiagram(vs, [], {"Y": Cpt("Y", (), {(): (0.4, 0.6)})})
        strategy, value = enumerate_strategies(d, K01)
        assert strategy.policies == {}
        assert abs(value - 0.6) < 1e-12
        _, v2 = optimal_strategy(ExactSource(d), K01)
        assert abs(v2 - 0.6) < 1e-12

    def test_enumeration_capacity_guard(self):
        d, _ = complete_stable(3, seed=1)  # A3 already has 2^64 policies
        with pytest.raises(CapacityError):
            enumerate_strategies(d, K01)


# ---------------------------------------------------------------------------
# The batched enumeration against the per-strategy loop it replaced

K_SOFT = {"0": 0.3, "1": 1.7}


def reference_values(diagram, k):
    """Every pure strategy in ``itertools.product`` order, as the per-strategy
    loop took them (``_pure_strategy``, then one joint each), with its value
    computed as ``consequence_direct`` once did: the response marginal of
    the exact joint, weighted by a 1-D dot."""
    base = diagram.base
    weights = response_weights(base, k)
    choice_lists = [
        list(itertools.product(_label_order(base.states[a]), repeat=_rows(base, i)))
        for i, a in enumerate(base.actions, start=1)
    ]
    out = []
    for picks in itertools.product(*choice_lists):
        strategy = _pure_strategy(base, "enumerated", picks)
        joint = joint_distribution(diagram, strategy)
        marg = joint.sum(axis=tuple(range(joint.ndim - 1)))
        out.append((strategy, float(marg @ weights)))
    return out


def reference_best(entries, sense):
    """The old loop's rule: a strategy replaces the best only if strictly better."""
    better = max if sense == "max" else min
    best = None
    for strategy, value in entries:
        if best is None or better(value, best[1]) != best[1]:
            best = (strategy, value)
    return best


def bits(values):
    return np.array(values, dtype=float).tobytes()


ZERO_ROW_SEEDS = (0, 4)


def reference_cases():
    cases = {build.__name__: build()[0] for build in (f1, f2, f3, f4, f5)}
    for seed in range(4):
        for hidden in (False, True):
            d = random_extended_id(seed, n_actions=1 + seed % 2, hidden_to_action=hidden)
            cases[f"random{seed}{'h' if hidden else ''}"] = d
    for seed in ZERO_ROW_SEEDS:
        cases[f"zero_rows{seed}"] = zero_covariate_rows(random_extended_id(seed), seed)
    return cases


REFERENCE_CASES = reference_cases()


@pytest.mark.parametrize("seed", ZERO_ROW_SEEDS)
def test_zero_row_cases_move_strategy_values(seed):
    # The point-mass rows must enter the strategies' joints, or the case
    # repeats the plain model.
    plain = [value for _, value in reference_values(random_extended_id(seed), K01)]
    edited = [value for _, value in reference_values(REFERENCE_CASES[f"zero_rows{seed}"], K01)]
    assert plain != edited


class TestEnumerationReference:
    @pytest.mark.parametrize("name", REFERENCE_CASES)
    @pytest.mark.parametrize("k", [K01, K_SOFT], ids=["k01", "ksoft"])
    def test_every_value_and_winner_bitwise(self, name, k, monkeypatch):
        diagram = REFERENCE_CASES[name]
        entries = reference_values(diagram, k)
        assert len(entries) == strategy_count(diagram) <= MAX_ENUMERATED
        values = [value for _, value in entries]
        _, factors = _batch(diagram, np.arange(len(entries)))
        weights = response_weights(diagram.base, k)
        assert bits(_consequences(diagram, factors, weights)) == bits(values)
        assert bits([consequence_direct(diagram, s, k) for s, _ in entries]) == bits(values)
        if diagram.n == 2:
            # Rows off a pure strategy's own path leave its value alone, so
            # many strategies share each optimum and the first must win.
            assert values.count(max(values)) > 1 and values.count(min(values)) > 1
        # the default budget takes every strategy in one pass; a small one
        # crosses chunk boundaries, where ties must still keep the first
        for budget in (BATCH_CELLS, 7 * math.prod(diagram.cards())):
            monkeypatch.setattr(optimize, "BATCH_CELLS", budget)
            for sense in ("max", "min"):
                want, want_value = reference_best(entries, sense)
                got, got_value = enumerate_strategies(diagram, k, sense)
                assert bits([got_value]) == bits([want_value])
                assert got.name == "enumerated" and got.policies == want.policies

    def test_ternary_model_sampled_batch(self):
        # Three-state variables expose summation order; the model has far
        # more strategies than the cap, so a random batch of them is checked.
        doc = parse_model((Path(__file__).resolve().parent / "golden" / "ternary.id").read_text())
        diagram, base = doc.diagram, doc.diagram.base
        index = rng(5).integers(1 << 62, size=40)
        picks, factors = _batch(diagram, index)
        for k in ({"a": 0.0, "b": 1.0, "c": 0.0}, {"a": 0.3, "b": 1.7, "c": -0.4}):
            weights = response_weights(base, k)
            batch = _consequences(diagram, factors, weights)
            want = []
            for j in range(len(index)):
                strategy = _pure_strategy(base, "sample", [choices[j] for choices in picks])
                joint = joint_distribution(diagram, strategy)
                marg = joint.sum(axis=tuple(range(joint.ndim - 1)))
                want.append(float(marg @ weights))
                assert consequence_direct(diagram, strategy, k) == want[-1]
            assert bits(batch) == bits(want)
            assert bits(_consequences(diagram, [f[:1] for f in factors], weights)) == bits(want[:1])


def one_action_model(widths, seed=3):
    """Covariates L1, L2, ... with these numbers of states, one binary action
    reading all of them, and Y: 2^rows pure strategies, rows being the
    product of the widths, on a joint of only 4 * rows cells."""
    gen = rng(seed)
    names = [f"L{j}" for j in range(1, len(widths) + 1)]
    states = {v: tuple(map(str, range(w))) for v, w in zip(names, widths)} | {"A": B, "Y": B}
    kinds = dict.fromkeys(names, "obs") | {"A": "act", "Y": "resp"}
    parents = dict.fromkeys(names, []) | {"A": names, "Y": names + ["A"]}
    edges = [(p, v) for v in parents for p in parents[v]] + [("sigma", "A")]
    cpts = {v: cpt_for(gen, v, parents[v], states) for v in states}
    return InfluenceDiagram([Variable(v, kinds[v], states[v]) for v in states], edges, cpts)


def test_enumeration_memory_is_bounded_by_the_cell_budget():
    # 2^16 strategies on 64 cells: one joint per strategy held at once would
    # take 32 MB, and their one-hot policies 16 MB.  The enumeration holds
    # one batch of BATCH_CELLS, as it does for 2^12 strategies on 48 cells.
    peaks = {}
    for widths in ((3, 2, 2), (2, 2, 2, 2)):
        diagram = one_action_model(widths)
        assert strategy_count(diagram) == 2 ** math.prod(widths)
        enumerate_strategies(diagram, K01)  # fills the non-action cache
        tracemalloc.start()
        enumerate_strategies(diagram, K01)
        peaks[strategy_count(diagram)] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert max(peaks.values()) <= 4 * 8 * BATCH_CELLS, peaks
    assert peaks[1 << 16] <= 1.25 * peaks[1 << 12], peaks
