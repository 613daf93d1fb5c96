"""Acceptance suite: one test per release criterion, each printing a
PASS line with its number when it holds.  Tolerances are fixed here and
nowhere else."""

import io
import itertools
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from fixtures import complete_stable, f1, f2, f3
from helpers import random_extended_id, random_strategy, rng
from moral_reference import moral_ancestral
from regimes.admissible import (
    check_admissible,
    compute_candidate_sequence,
    search_admissible_ordering,
)
from regimes.cli import main as cli_main
from regimes.data import estimate_conditionals, sample
from regimes.errors import ModelError
from regimes.graph import Dag, ancestral_closure, separated
from regimes.grecursion import g_recursion
from regimes.model import (
    ExactSource,
    _action_factors,
    _consequences,
    consequence_direct,
    response_weights,
)
from regimes.optimize import enumerate_strategies, optimal_strategy
from regimes.stability import (
    build_dag_i,
    check_graphsep,
    check_sequential_randomization,
    check_simple_stability_graphical,
    check_simple_stability_numeric,
)

K01 = {"0": 0.0, "1": 1.0}
GOLDEN = Path(__file__).resolve().parent / "golden"
MODELS = Path(__file__).resolve().parent.parent / "models"


def done(number, name):
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


def test_01_oracle_equivalence_under_stability():
    worst = 0.0
    for seed in range(100):
        n_actions = 1 + seed % 3
        diagram, _ = complete_stable(n_actions, seed=seed)
        source = ExactSource(diagram)
        strategy = random_strategy(diagram, 50_000 + seed)
        delta = abs(
            g_recursion(source, strategy, K01)
            - consequence_direct(diagram, strategy, K01)
        )
        worst = max(worst, delta)
        assert delta <= 1e-9, f"seed {seed}: recursion off by {delta}"
    done(1, f"oracle equivalence on 100 stable instances (worst {worst:.2e})")


def test_02_theorem_1_suite():
    for seed in range(100):
        diagram = random_extended_id(
            seed, n_actions=1 + seed % 3, hidden_to_action=False
        )
        assert check_sequential_randomization(diagram)
        strategies = [random_strategy(diagram, 60_000 + 3 * seed + j) for j in range(2)]
        report = check_simple_stability_numeric(diagram, strategies)
        assert report.overall, f"seed {seed} should be stable"
    for seed in range(20):
        diagram = random_extended_id(
            seed, n_actions=2, hidden_to_action=True, p_hidden=1.0
        )
        assert not check_sequential_randomization(diagram)
        strategy = random_strategy(diagram, 9_000 + seed)
        report = check_simple_stability_numeric(diagram, [strategy])
        assert not report.overall, f"counter seed {seed} should fail"
    done(2, "sequential randomization implies stability; confounded counters fail")


def test_03_theorem_2_suite():
    for seed in range(100):
        diagram = random_extended_id(
            seed, n_actions=1 + seed % 3, hidden_only_into_actions=True
        )
        strategies = [random_strategy(diagram, 70_000 + 3 * seed + j) for j in range(2)]
        report = check_simple_stability_numeric(diagram, strategies)
        assert report.overall, f"seed {seed} should be stable"
    done(3, "sequential irrelevance construction implies stability")


def test_04_two_stage_confounded_example():
    diagram, strategies = f2()

    # (a) the graphical stability check fails exactly at the covariate stage
    report = check_simple_stability_graphical(diagram)
    assert report.stages[0].passed
    assert not report.stages[1].passed
    assert report.stages[1].witness.path == ("L2", "U1", "sigma")

    # (b) the mixed-diagram check passes at both stages
    gs = check_graphsep(diagram)
    assert gs.stages[0].passed and gs.stages[1].passed

    # (c) widening the interventional parents of A2 breaks stage 1
    wide, _ = f2(wide=True)
    assert not check_graphsep(wide).stages[0].passed

    # (d) the restricted strategy is identified on 20 table draws
    for j in range(20):
        d, strats = f2(seed=100 + j)
        delta = abs(
            g_recursion(ExactSource(d), strats["e2"], K01)
            - consequence_direct(d, strats["e2"], K01)
        )
        assert delta <= 1e-9, f"draw {j}: delta {delta}"

    # (e) the covariate-dependent strategy diverges generically; the
    # exact count for these seeds is pinned in the golden file
    golden = json.loads((GOLDEN / "f2_divergence.json").read_text())
    diverged = 0
    for seed in golden["table_seeds"]:
        d, strats = f2(seed=seed)
        delta = abs(
            g_recursion(ExactSource(d), strats[golden["strategy"]], K01)
            - consequence_direct(d, strats[golden["strategy"]], K01)
        )
        diverged += delta > golden["threshold"]
    assert diverged >= 18
    assert diverged == golden["diverging_count"]
    done(4, "two-stage confounded example reproduced end to end")


def test_05_two_orderings_example():
    diagram, _ = f3()
    seq = search_admissible_ordering(diagram)
    assert seq.order == ("B", "A")
    assert seq.sets == ((), ("L",))
    bad = compute_candidate_sequence(diagram, ("A", "B"))
    assert not bad.verdicts[0]
    done(5, "unordered-actions example: ordering (B, A) found, (A, B) rejected")


def _all_valid_sequences(diagram, order):
    from regimes.graph import descendants

    d_e = build_dag_i(diagram, 0)
    candidates = [v for v in diagram.observables if v != diagram.response]
    n = len(order)
    forbidden = [set(descendants(d_e, order[i:])) for i in range(n)]
    slots = []
    for v in candidates:
        slots.append([0] + [i + 1 for i in range(n) if v not in forbidden[i]])
    for pick in itertools.product(*slots):
        sets = [[] for _ in range(n)]
        for v, where in zip(candidates, pick):
            if where:
                sets[where - 1].append(v)
        yield [tuple(s) for s in sets]


def _consistent_orders(diagram):
    from regimes.admissible import _orders_consistent_with

    return list(_orders_consistent_with(diagram))


def test_06_theorem_4_suite():
    tested = 0
    seed = 0
    while tested < 100:
        seed += 1
        diagram = random_extended_id(
            8_000 + seed, n_actions=2, p_hidden=0.5, p_obs=0.7
        )
        assert len(diagram.order) <= 7
        try:
            anything_admissible = False
            for order in _consistent_orders(diagram):
                candidate = compute_candidate_sequence(diagram, order)
                any_admissible = any(
                    check_admissible(diagram, order, sets).admissible
                    for sets in _all_valid_sequences(diagram, order)
                )
                assert candidate.admissible == any_admissible, (
                    f"seed {seed} order {order}"
                )
                anything_admissible |= any_admissible
            # the ordering search finds something exactly when the
            # exhaustive sweep over every ordering and sequence does
            found = search_admissible_ordering(diagram)
            assert (found is not None) == anything_admissible, f"seed {seed}"
        except ModelError:
            continue  # an action with no influence on the response
        tested += 1
    done(6, "pool-sequence verdict matches exhaustive sequence search (100 ids)")


def _paths_exist(graph, a, b, c):
    def walk(v, seen):
        if v in b:
            return True
        for w in graph.neighbors(v):
            if w not in seen and w not in c and walk(w, seen | {w}):
                return True
        return False

    return any(walk(v, {v}) for v in a if v not in c)


def _oracle_separated(dag, a, b, c):
    return not _paths_exist(moral_ancestral(dag, set(a) | set(b) | set(c)), a, b, c)


def _random_dag(gen, n, p=0.4):
    names = tuple(f"v{i}" for i in range(n))
    edges = [
        (names[i], names[j])
        for i in range(n)
        for j in range(i + 1, n)
        if gen.random() < p
    ]
    return Dag(names, edges)


def _random_triple(gen, dag):
    nodes = list(dag.nodes)
    gen.shuffle(nodes)
    x = {nodes[0]}
    y = {nodes[1]}
    z = set(nodes[2 : 2 + int(gen.integers(0, 4))])
    return x, y, z


def test_07_separation_lemmas_and_oracle():
    # enlargement and ancestral-restriction lemmas on 1000 random instances
    gen = rng(123)
    checked = 0
    while checked < 1000:
        d = _random_dag(gen, 2 + int(gen.integers(5)), p=float(gen.uniform(0.2, 0.7)))
        x, y, z = _random_triple(gen, d)
        if not separated(d, y, x, z):
            continue
        room = list(set(ancestral_closure(d, x | y | z)) - x - y)
        extra = {v for v in room if gen.random() < 0.5}
        assert separated(d, y, x, z | extra)
        seed_nodes = x | y | {v for v in d.nodes if gen.random() < 0.3}
        ancestral = set(ancestral_closure(d, seed_nodes))
        assert separated(d, y, x, z & ancestral)
        checked += 1

    # exhaustive graph coverage up to topological relabeling: every DAG on
    # up to 6 nodes appears as a forward-edge subset of the complete order
    for n in (2, 3, 4):
        names = tuple(f"v{i}" for i in range(n))
        pairs = [(u, v) for i, u in enumerate(names) for v in names[i + 1 :]]
        for mask in range(1 << len(pairs)):
            d = Dag(names, [p for i, p in enumerate(pairs) if mask >> i & 1])
            for x, y in itertools.combinations(names, 2):
                rest = [v for v in names if v not in (x, y)]
                for zmask in range(1 << len(rest)):
                    z = {v for i, v in enumerate(rest) if zmask >> i & 1}
                    assert separated(d, {x}, {y}, z) == _oracle_separated(d, {x}, {y}, z)
    for n, queries in ((5, 3), (6, 1)):
        names = tuple(f"v{i}" for i in range(n))
        pairs = [(u, v) for i, u in enumerate(names) for v in names[i + 1 :]]
        qgen = rng(321 + n)
        for mask in range(1 << len(pairs)):
            d = Dag(names, [p for i, p in enumerate(pairs) if mask >> i & 1])
            for _ in range(queries):
                x, y, z = _random_triple(qgen, d)
                assert separated(d, x, y, z) == _oracle_separated(d, x, y, z)
    done(7, "separation lemmas (1000 instances) and oracle agreement to 6 nodes")


def test_08_optimization_against_enumeration():
    for seed in range(100):
        n_actions = 1 + seed % 2
        diagram, _ = complete_stable(n_actions, seed=400 + seed)
        source = ExactSource(diagram)
        strategy, value = optimal_strategy(source, K01)
        _, best = enumerate_strategies(diagram, K01)
        assert abs(value - best) <= 1e-9, f"seed {seed}"
        assert abs(consequence_direct(diagram, strategy, K01) - value) <= 1e-9
        gen_base = 90_000 + 10_007 * seed
        challengers = [
            random_strategy(diagram, gen_base + j, deterministic=False) for j in range(1000)
        ]
        for challenger in challengers:
            diagram.base.validate_strategy(challenger)
        # One oracle call for all 1,000: by its contract each score is
        # bitwise that of consequence_direct on the challenger alone.  Each
        # action's factors read different parents, so each is broadcast to
        # the full joint's shape on its row of the strategy axis.
        factors = [np.empty((len(challengers),) + diagram.cards()) for _ in diagram.actions]
        for j, challenger in enumerate(challengers):
            for out, factor in zip(factors, _action_factors(diagram, [challenger] * diagram.n)):
                out[j] = factor[0]
        scores = _consequences(diagram, factors, response_weights(diagram.base, K01))
        for challenger, score in zip(challengers, scores):
            assert score <= value + 1e-9, challenger.name
    done(8, "backward induction matches enumeration; unbeaten by 1000 rivals each")


def test_09_estimation_loop():
    diagram, strategies = f1()
    strategy = strategies["mix"]
    exact = consequence_direct(diagram, strategy, K01)
    medians = []
    for n in (1_000, 10_000, 100_000):
        errors = []
        for seed in range(21):
            dataset = sample(diagram, "obs", n, seed=seed)
            source = estimate_conditionals(dataset, diagram.base, alpha=0.5)
            errors.append(abs(g_recursion(source, strategy, K01) - exact))
        medians.append(float(np.median(errors)))
    assert medians[0] >= medians[1] >= medians[2]
    assert medians[2] <= 0.02
    done(9, f"estimation loop medians {['%.4f' % m for m in medians]}")


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


def test_10_cli_determinism(tmp_path):
    f1_path = str(MODELS / "f1.id")
    f2_path = str(MODELS / "f2.id")
    f3_path = str(MODELS / "f3.id")
    data_path = str(tmp_path / "rows.txt")
    _run_cli([
        "simulate", "--model", f1_path, "--regime", "obs",
        "--n", "2000", "--seed", "5", "--out", data_path,
    ])
    commands = [
        ["evaluate", "--model", f2_path, "--strategy", "e2"],
        ["grec", "--model", f2_path, "--strategy", "e2"],
        ["stability", "--model", f2_path],
        ["stability", "--model", f2_path, "--numeric", "--strategy", "e2"],
        ["seqrand", "--model", f2_path],
        ["seqirrel", "--model", f2_path, "--strategy", "e2"],
        ["positivity", "--model", f1_path, "--strategy", "mix"],
        ["graphsep", "--model", f2_path],
        ["verify-general", "--model", f2_path, "--strategy", "e2"],
        ["admissible", "--model", f3_path],
        ["admissible", "--model", f3_path, "--order", "A,B"],
        ["optimize", "--model", f1_path],
        ["optimize", "--model", f1_path, "--min"],
        ["estimate", "--model", f1_path, "--data", data_path, "--strategy", "dyn"],
        ["estimate", "--model", f1_path, "--data", data_path, "--alpha", "0"],
    ]
    for argv in commands:
        first = _run_cli(argv)
        second = _run_cli(argv)
        assert first == second, f"non-deterministic output for {argv}"

    out_a = tmp_path / "a.txt"
    out_b = tmp_path / "b.txt"
    for out in (out_a, out_b):
        code, _, _ = _run_cli([
            "simulate", "--model", f1_path, "--regime", "stat",
            "--n", "1234", "--seed", "77", "--out", str(out),
        ])
        assert code == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    done(10, "byte-identical reports and bit-exact datasets")
