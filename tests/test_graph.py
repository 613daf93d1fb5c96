import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import f1, f2, f3, f4, f5
from helpers import random_dag, random_extended_id, rng
from moral_reference import moral_ancestral, moralize, reference_path
from regimes.errors import InputError, ModelError
from regimes.graph import Dag, ancestral_closure, connecting_path, descendants, separated
from regimes.stability import build_dag_i


def chain(*names):
    return Dag(names, list(zip(names, names[1:])))


class TestAncestralClosure:
    def test_chain(self):
        assert ancestral_closure(chain("a", "b", "c"), {"c"}) == ("a", "b", "c")

    def test_empty_seed(self):
        assert ancestral_closure(chain("a", "b", "c"), set()) == ()

    def test_f2_stage_one_diagram(self):
        # closure of {Y, A1, sigma} in the stage-1 mixed diagram, checked
        # by hand against exhaustive parent chasing
        diagram, _ = f2()
        d1 = build_dag_i(diagram, 1)
        got = ancestral_closure(d1, {"Y", "A1", "sigma"})
        assert set(got) == {"Y", "A2", "U2", "A1", "sigma", "U1"}

    def test_unknown_node(self):
        with pytest.raises(InputError):
            ancestral_closure(chain("a", "b"), {"zz"})


class TestMoralize:
    def test_collider(self):
        g = moralize(Dag(("a", "b", "c"), [("a", "c"), ("b", "c")]))
        assert g.edges == frozenset(
            {frozenset(p) for p in [("a", "c"), ("b", "c"), ("a", "b")]}
        )

    def test_edgeless(self):
        assert moralize(Dag(("a", "b"), [])).edges == frozenset()

    def test_f2_stage_one_moral_links(self):
        diagram, _ = f2()
        d1 = build_dag_i(diagram, 1)
        g = moral_ancestral(d1, {"Y", "A1", "sigma"})
        assert frozenset(("U1", "sigma")) in g.edges  # co-parents of A1
        assert frozenset(("A2", "U2")) in g.edges  # co-parents of Y

    def test_edge_count_at_least_skeleton(self):
        for seed in range(30):
            d = random_dag(rng(seed), 6)
            assert len(moralize(d).edges) >= len({frozenset(e) for e in d.edges})


class TestSeparated:
    def test_chain_blocked_by_middle(self):
        assert separated(chain("a", "b", "c"), {"a"}, {"c"}, {"b"})

    def test_collider_conditioning_connects(self):
        d = Dag(("a", "b", "c"), [("a", "c"), ("b", "c")])
        assert not separated(d, {"a"}, {"b"}, {"c"})

    def test_f2_narrow_separation_holds(self):
        diagram, _ = f2()
        assert separated(build_dag_i(diagram, 1), {"Y"}, {"sigma"}, {"A1"})

    def test_f2_wide_separation_fails(self):
        diagram, _ = f2(wide=True)
        assert not separated(build_dag_i(diagram, 1), {"Y"}, {"sigma"}, {"A1"})

    def test_overlap_rejected(self):
        with pytest.raises(InputError):
            separated(chain("a", "b", "c"), {"a"}, {"b"}, {"a"})

    def test_symmetry(self):
        for seed in range(50):
            gen = rng(100 + seed)
            d = random_dag(gen, 6)
            x, y, z = _random_triple(gen, d)
            assert separated(d, x, y, z) == separated(d, y, x, z)


class TestDescendants:
    def test_chain(self):
        assert descendants(chain("a", "b", "c"), {"a"}) == ("a", "b", "c")

    def test_sink(self):
        assert descendants(chain("a", "b", "c"), {"c"}) == ("c",)

    def test_f3(self):
        diagram, _ = f3()
        got = descendants(diagram.dag, {"B"})
        assert set(got) == {"B", "L", "Y"}


class TestTopologicalOrder:
    """The declaration order is a topological order: every edge must point
    forward in it, and the first edge in input order that does not is the
    one reported."""

    def test_cycle_rejected(self):
        with pytest.raises(ModelError, match=r"^edge b -> a goes backward in the declared order$"):
            Dag(("a", "b"), [("a", "b"), ("b", "a")])

    def test_first_backward_edge_in_input_order(self):
        edges = [("a", "b"), ("c", "a"), ("d", "b"), ("c", "b")]
        with pytest.raises(ModelError, match=r"^edge c -> a goes backward"):
            Dag(("a", "b", "c", "d"), edges)
        with pytest.raises(ModelError, match=r"^edge d -> b goes backward"):
            Dag(("a", "b", "c", "d"), edges[2:] + edges[:2])

    def test_forward_edges_accepted_in_any_input_order(self):
        edges = [("b", "c"), ("a", "c"), ("a", "b")]
        d = Dag(("a", "b", "c"), edges)
        assert d.parents("c") == ("a", "b") and d.children("a") == ("b", "c")


def _random_triple(gen, dag, max_size=2):
    nodes = list(dag.nodes)
    gen.shuffle(nodes)
    nx = 1 + int(gen.integers(max_size))
    ny = 1 + int(gen.integers(max_size))
    nz = int(gen.integers(max_size + 1))
    x = set(nodes[:nx])
    y = set(nodes[nx : nx + ny])
    z = set(nodes[nx + ny : nx + ny + nz])
    return x, y, z


def _paths_exist(graph, a, b, c):
    """Exhaustive simple-path enumeration over an undirected graph."""

    def walk(v, seen):
        if v in b:
            return True
        for w in graph.neighbors(v):
            if w not in seen and w not in c:
                if walk(w, seen | {w}):
                    return True
        return False

    return any(walk(v, {v}) for v in a if v not in c)


def separated_by_path_enumeration(dag, a, b, c):
    return not _paths_exist(moral_ancestral(dag, set(a) | set(b) | set(c)), a, b, c)


class TestSeparationOracle:
    def test_agrees_with_path_enumeration_random(self):
        for seed in range(300):
            gen = rng(300 + seed)
            d = random_dag(gen, 6, p_edge=float(gen.uniform(0.1, 0.8)))
            x, y, z = _random_triple(gen, d)
            assert separated(d, x, y, z) == separated_by_path_enumeration(d, x, y, z)

    def test_agrees_with_networkx_d_separation(self):
        nx = pytest.importorskip("networkx")
        for seed in range(300):
            gen = rng(600 + seed)
            n_nodes = int(gen.integers(7, 11))
            d = random_dag(gen, n_nodes, p_edge=float(gen.uniform(0.1, 0.6)))
            x, y, z = _random_triple(gen, d, max_size=3)
            g = nx.DiGraph(list(d.edges))
            g.add_nodes_from(d.nodes)
            assert separated(d, x, y, z) == nx.is_d_separator(g, x, y, z)

    def test_agrees_on_all_four_node_dags(self):
        names = ("a", "b", "c", "d")
        pairs = [(u, v) for i, u in enumerate(names) for v in names[i + 1 :]]
        for mask in range(1 << len(pairs)):
            edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
            d = Dag(names, edges)
            for x, y in itertools.combinations(names, 2):
                rest = [v for v in names if v not in (x, y)]
                for zmask in range(4):
                    z = {v for i, v in enumerate(rest) if zmask >> i & 1}
                    assert separated(d, {x}, {y}, z) == separated_by_path_enumeration(
                        d, {x}, {y}, z
                    )


@st.composite
def dags(draw, max_nodes=7):
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    names = tuple(f"v{i}" for i in range(n))
    pairs = [(u, v) for i, u in enumerate(names) for v in names[i + 1 :]]
    edges = [p for p in pairs if draw(st.booleans())]
    return Dag(names, edges)


@st.composite
def separation_instances(draw):
    d = draw(dags())
    nodes = list(d.nodes)
    x = draw(st.sets(st.sampled_from(nodes), min_size=1, max_size=2))
    rest = [v for v in nodes if v not in x]
    if not rest:
        x = {nodes[0]}
        rest = nodes[1:]
    y = draw(st.sets(st.sampled_from(rest), min_size=1, max_size=2))
    rest2 = [v for v in rest if v not in y]
    z = draw(st.sets(st.sampled_from(rest2), max_size=3)) if rest2 else set()
    return d, x, y, z


@settings(max_examples=300, deadline=None)
@given(separation_instances(), st.randoms(use_true_random=False))
def test_enlargement_inside_ancestral_closure_preserves_separation(inst, rnd):
    # separation survives growing the conditioning set within the
    # ancestral closure of x | y | z, minus x and y
    d, x, y, z = inst
    if not separated(d, y, x, z):
        return
    room = set(ancestral_closure(d, x | y | z)) - x - y
    extra = {v for v in room if rnd.random() < 0.5}
    assert separated(d, y, x, z | extra)


@settings(max_examples=300, deadline=None)
@given(separation_instances(), st.randoms(use_true_random=False))
def test_restriction_to_ancestral_set_preserves_separation(inst, rnd):
    # separation survives intersecting the conditioning set with any
    # ancestral set containing x | y
    d, x, y, z = inst
    if not separated(d, y, x, z):
        return
    seed = x | y | {v for v in d.nodes if rnd.random() < 0.3}
    a = set(ancestral_closure(d, seed))
    assert separated(d, y, x, z & a)


# The walk must return the very path, not only the verdict, that a plain
# breadth-first search gives over the built moral ancestral graph: the
# CLI prints these paths as witnesses.


@settings(max_examples=300, deadline=None)
@given(separation_instances())
def test_connecting_path_is_the_reference_path(inst):
    d, x, y, z = inst
    assert connecting_path(d, x, y, z) == reference_path(d, x, y, z)
    assert connecting_path(d, y, x, z) == reference_path(d, y, x, z)


def test_connecting_path_is_the_reference_path_on_all_four_node_dags():
    names = ("a", "b", "c", "d")
    pairs = [(u, v) for i, u in enumerate(names) for v in names[i + 1 :]]
    for mask in range(1 << len(pairs)):
        d = Dag(names, [p for i, p in enumerate(pairs) if mask >> i & 1])
        for x, y in itertools.permutations(names, 2):
            rest = [v for v in names if v not in (x, y)]
            for zmask in range(4):
                z = {v for i, v in enumerate(rest) if zmask >> i & 1}
                assert connecting_path(d, {x}, {y}, z) == reference_path(d, {x}, {y}, z)


def test_connecting_path_is_the_reference_path_on_stage_diagrams():
    diagrams = [f()[0] for f in (f1, f2, f3, f4, f5)] + [f2(wide=True)[0]]
    diagrams += [random_extended_id(s, n_actions=2 + s % 2, hidden_to_action=s % 2 == 1) for s in range(20)]
    gen = rng(900)
    for diagram in diagrams:
        for i in range(1, diagram.n + 1):
            d = build_dag_i(diagram, i)
            cond = set(diagram.base.vars[: diagram.base.after_a(i)])
            queries = [({diagram.response}, {"sigma"}, cond)]
            queries += [_random_triple(gen, d, max_size=3) for _ in range(40)]
            for x, y, z in queries:
                assert connecting_path(d, x, y, z) == reference_path(d, x, y, z)
