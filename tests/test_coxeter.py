"""Classification table vs the cosine-matrix definiteness oracle, and the
spherical-subset enumeration vs brute force.

Defining graphs follow the group presentation convention: an absent edge
means no relation (an infinity-labeled diagram edge), and a label-2 edge
means the generators commute (no diagram edge).  Diagram shapes therefore
have to be built as complete graphs with label-2 filler.
"""
import itertools
import pathlib
import random

import numpy as np
import pytest

from relartin import coxeter
from relartin.defining_graph import (
    DefiningGraph,
    GraphError,
    Instance,
    SubgraphFamily,
    classify_known,
    parse_graph,
)

from instances import (
    affine_parts_join,
    lemma_instances,
    random_rel_prime_instance,
    right_angled_part,
)
from oracles import (
    all_pairs_classify_type,
    brute_fc,
    clique_growth_spherical_subsets,
    brute_spherical_subsets,
    cosine_matrix,
    definiteness_oracle,
    induced_subgraph,
    part_alone_report,
)

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def coxpath(labels):
    """Complete defining graph whose classification diagram is a path."""
    n = len(labels) + 1
    vs = [f"v{i}" for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            edges.append((vs[i], vs[j], labels[i] if j == i + 1 else 2))
    return DefiningGraph.build(vs, edges)


def coxgraph(n, diagram_edges):
    """Complete defining graph with the given diagram edges, label 2 elsewhere."""
    vs = [f"v{i}" for i in range(n)]
    lab = {frozenset(e[:2]): e[2] for e in diagram_edges}
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            edges.append((vs[i], vs[j], lab.get(frozenset((i, j)), 2)))
    return DefiningGraph.build(vs, edges)


def kind_of(g):
    t = coxeter.classify_type(g, g.vertices)
    return t.kind, t.components


def test_finite_catalog():
    assert kind_of(DefiningGraph.build(["a"], [])) == ("finite", ("A1",))
    assert kind_of(coxpath([3, 3, 3])) == ("finite", ("A4",))
    assert kind_of(coxpath([3, 4])) == ("finite", ("B3",))
    assert kind_of(coxpath([4, 3])) == ("finite", ("B3",))
    assert kind_of(coxpath([3, 4, 3])) == ("finite", ("F4",))
    assert kind_of(coxpath([5, 3])) == ("finite", ("H3",))
    assert kind_of(coxpath([5, 3, 3])) == ("finite", ("H4",))
    assert kind_of(coxpath([7])) == ("finite", ("I2(7)",))
    assert kind_of(coxgraph(4, [(0, 1, 3), (0, 2, 3), (0, 3, 3)])) == (
        "finite",
        ("D4",),
    )
    assert kind_of(
        coxgraph(5, [(0, 1, 3), (0, 2, 3), (0, 3, 3), (3, 4, 3)])
    ) == ("finite", ("D5",))
    e_arms = [(0, 1, 3), (0, 2, 3), (2, 3, 3), (0, 4, 3), (4, 5, 3)]
    assert kind_of(coxgraph(6, e_arms)) == ("finite", ("E6",))
    assert kind_of(coxgraph(7, e_arms + [(5, 6, 3)])) == ("finite", ("E7",))
    assert kind_of(coxgraph(8, e_arms + [(5, 6, 3), (6, 7, 3)])) == (
        "finite",
        ("E8",),
    )


def test_affine_catalog():
    assert kind_of(DefiningGraph.build(["a", "b"], [])) == ("affine", ("~A1",))
    assert kind_of(coxgraph(3, [(0, 1, 3), (1, 2, 3), (0, 2, 3)])) == (
        "affine",
        ("~A2",),
    )
    assert kind_of(
        coxgraph(4, [(0, 1, 3), (1, 2, 3), (2, 3, 3), (0, 3, 3)])
    ) == ("affine", ("~A3",))
    assert kind_of(coxpath([4, 4])) == ("affine", ("~C2",))
    assert kind_of(coxpath([4, 3, 4])) == ("affine", ("~C3",))
    assert kind_of(coxpath([6, 3])) == ("affine", ("~G2",))
    assert kind_of(coxpath([3, 4, 3, 3])) == ("affine", ("~F4",))
    assert kind_of(coxpath([3, 3, 4, 3])) == ("affine", ("~F4",))
    assert kind_of(coxgraph(4, [(0, 1, 3), (0, 2, 3), (0, 3, 4)])) == (
        "affine",
        ("~B3",),
    )
    assert kind_of(
        coxgraph(5, [(0, 1, 3), (0, 2, 3), (0, 3, 3), (0, 4, 3)])
    ) == ("affine", ("~D4",))
    assert kind_of(
        coxgraph(
            7, [(0, 1, 3), (1, 2, 3), (0, 3, 3), (3, 4, 3), (0, 5, 3), (5, 6, 3)]
        )
    ) == ("affine", ("~E6",))


def test_indefinite_and_aggregation():
    assert kind_of(coxpath([5, 4]))[0] == "indefinite"
    assert kind_of(coxpath([5, 3, 3, 3]))[0] == "indefinite"
    # several components: worst kind wins
    assert kind_of(coxgraph(5, [(0, 1, 4), (3, 4, 5)])) == (
        "finite",
        ("A1", "B2", "I2(5)"),
    )
    assert kind_of(
        coxgraph(5, [(0, 1, 3), (1, 2, 3), (0, 2, 3), (3, 4, 4)])
    ) == ("affine", ("B2", "~A2"))
    assert kind_of(
        coxgraph(6, [(0, 1, 3), (1, 2, 3), (0, 2, 3), (3, 4, 7), (4, 5, 7), (3, 5, 7)])
    ) == ("indefinite", ("indefinite", "~A2"))


def test_join_part_is_affine_c3():
    inst = affine_parts_join()
    g = inst.graph
    t = coxeter.classify_type(g, inst.family.parts[0])
    assert (t.kind, t.components) == ("affine", ("~C3",))
    whole = coxeter.classify_type(g, g.vertices)
    assert whole.kind == "indefinite"


def test_unknown_vertex_rejected():
    g = DefiningGraph.build(["a"], [])
    with pytest.raises(GraphError):
        coxeter.classify_type(g, ["a", "z"])


def test_cosine_matrix_values():
    g = DefiningGraph.build(["a", "b", "c"], [("a", "b", 4), ("a", "c", 2)])
    mat = cosine_matrix(g, ["a", "b", "c"])
    # order a, b, c; missing edge {b,c} contributes -cos(pi/inf) = -1
    assert mat.shape == (3, 3)
    assert np.allclose(np.diag(mat), 1.0)
    assert abs(mat[0, 1] + np.cos(np.pi / 4)) < 1e-12
    assert abs(mat[0, 2]) < 1e-12
    assert mat[1, 2] == -1.0


def test_oracle_frozen_eigenvalue_all3_triangle():
    tri = coxgraph(3, [(0, 1, 3), (1, 2, 3), (0, 2, 3)])
    verdict = definiteness_oracle(tri, tri.vertices)
    assert verdict.classification == "affine"
    assert verdict.low_confidence
    # spectrum of the cosine matrix is {0, 3/2, 3/2}
    assert abs(verdict.min_eigenvalue) < 1e-12
    mat = cosine_matrix(tri, tri.vertices)
    eigs = sorted(np.linalg.eigvalsh(mat))
    assert abs(eigs[1] - 1.5) < 1e-12 and abs(eigs[2] - 1.5) < 1e-12


def test_oracle_agrees_with_table_on_random_graphs():
    rng = random.Random(99)
    for _ in range(150):
        n = rng.randint(1, 5)
        vs = [f"v{i}" for i in range(n)]
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.8:
                    edges.append((vs[i], vs[j], rng.randint(2, 7)))
        g = DefiningGraph.build(vs, edges)
        table = coxeter.classify_type(g, vs).kind
        oracle = definiteness_oracle(g, vs).classification
        assert table == oracle, (g.edges, table, oracle)


def test_enumerate_spherical_subsets_join():
    g = affine_parts_join().graph
    subsets = coxeter.enumerate_spherical_subsets(g)
    by_size = {}
    for t in subsets:
        by_size[len(t)] = by_size.get(len(t), 0) + 1
    # every singleton and every pair with an edge is spherical; the only
    # spherical triples live inside the parts, four per part
    assert by_size == {0: 1, 1: 8, 2: 28, 3: 8}
    assert all(coxeter.is_spherical(g, t) for t in subsets)


def test_enumerate_spherical_is_downward_closed():
    g = affine_parts_join().graph
    subsets = set(coxeter.enumerate_spherical_subsets(g))
    for t in subsets:
        for v in t:
            assert t - {v} in subsets


def test_spherical_pairs_need_an_edge():
    g = DefiningGraph.build(["a", "b", "c"], [("a", "b", 3)])
    assert coxeter.is_spherical(g, ["a", "b"])
    assert not coxeter.is_spherical(g, ["a", "c"])
    assert not coxeter.is_spherical(g, ["a", "b", "c"])


def test_three_vertex_components_are_typed_by_their_label_multiset():
    # the enumeration keys a three-vertex component's verdict by its sorted
    # label triple, so every order of a triple must give one type, and that
    # type's kind must be the eigenvalue oracle's
    names = {}
    for triple in itertools.product(range(2, 9), repeat=3):
        if triple.count(2) > 1:
            continue  # no three-vertex diagram component
        g = coxgraph(3, [(0, 1, triple[0]), (0, 2, triple[1]), (1, 2, triple[2])])
        name = coxeter._classify_component(list(g.vertices), g.adjacency)
        kind = coxeter._kind([name])
        assert kind == definiteness_oracle(g, g.vertices).classification, (triple, name)
        assert names.setdefault(tuple(sorted(triple)), name) == name, triple


@pytest.mark.parametrize(
    "n, diagram, spherical",
    [
        # A1 + A2 (v0 | v1-v2), v3 joins both ends: A4 path v0-v3-v1-v2
        (4, [(1, 2, 3), (0, 3, 3), (1, 3, 3)], True),
        # three A1, v3 joins all three: D4
        (4, [(0, 3, 3), (1, 3, 3), (2, 3, 3)], True),
        # A1 + A2 + A2, v5 joins one end of each: E6 with arms 1, 2, 2
        (6, [(0, 5, 3), (1, 2, 3), (1, 5, 3), (3, 4, 3), (3, 5, 3)], True),
        # v2 joins no component: A2 x A1
        (3, [(0, 1, 3)], True),
        # A3 path v0-v1-v2, v3 closes the cycle: ~A3
        (4, [(0, 1, 3), (1, 2, 3), (2, 3, 3), (0, 3, 3)], False),
        # B3 path 4, 3, v3 extends it with a 4: ~C3
        (4, [(0, 1, 4), (1, 2, 3), (2, 3, 4)], False),
        # three A1, v3 joins them with 3, 3, 4: ~B3
        (4, [(0, 3, 3), (1, 3, 3), (2, 3, 4)], False),
    ],
)
def test_new_vertex_merges_the_components_it_touches(n, diagram, spherical):
    g = coxgraph(n, diagram)
    found = coxeter.enumerate_spherical_subsets(g)
    assert (frozenset(g.vertices) in found) == spherical
    assert found == brute_spherical_subsets(g)


def test_triangle_seeded_walk_matches_clique_growth():
    # sizes 0 to 2 listed outright, triangles tried only on label-2 edges
    # and larger sets grown from them: the list, order included, of
    # growing every clique from the empty set
    graphs = [inst.graph for inst in lemma_instances()]
    graphs += [right_angled_part(k).graph for k in range(1, 13)]
    # parts whose spherical sets reach 4 and 5 vertices: A4, B4, D4, F4,
    # H4, A5, D5, and commuting A1^4 and A1^5 with one label-3 pair
    reach = {
        coxpath([3, 3, 3]): 4,
        coxpath([4, 3, 3]): 4,
        coxgraph(4, [(0, 3, 3), (1, 3, 3), (2, 3, 3)]): 4,
        coxpath([3, 4, 3]): 4,
        coxpath([5, 3, 3]): 4,
        coxpath([3, 3, 3, 3]): 5,
        coxgraph(5, [(0, 1, 3), (1, 2, 3), (2, 3, 3), (2, 4, 3)]): 5,
        coxgraph(4, [(0, 1, 3)]): 4,
        coxgraph(5, [(0, 1, 3)]): 5,
    }
    for g, size in reach.items():
        found = coxeter.enumerate_spherical_subsets(g)
        assert max(map(len, found)) == size, g.edges
        assert found == brute_spherical_subsets(g), g.edges
    for g in graphs + list(reach):
        assert coxeter.enumerate_spherical_subsets(g) == clique_growth_spherical_subsets(g), g.edges


def test_enumeration_stops_at_the_cap(monkeypatch):
    # a right-angled clique of 12 vertices has 2^12 spherical subsets; past
    # the cap the walk raises, naming the count it reached
    g = right_angled_part(12).graph
    assert len(coxeter.enumerate_spherical_subsets(g)) == 2**12 + 4
    monkeypatch.setattr(coxeter, "SPHERICAL_CAP", 1000)
    with pytest.raises(GraphError, match="more than 1000 spherical subsets: the walk reached 1001 at size 5"):
        coxeter.enumerate_spherical_subsets(g)
    # the vertices and edges are counted against the cap too
    monkeypatch.setattr(coxeter, "SPHERICAL_CAP", 50)
    with pytest.raises(GraphError, match="reached 83 at size 2"):
        coxeter.enumerate_spherical_subsets(g)


def test_component_verdicts_are_memoised_within_one_call(monkeypatch):
    # a ~A3 cycle v0-v1-v2-v5 closed by v5, with v3 and v4 commuting with
    # everything: v5 closes the same cycle over four bases
    g = coxgraph(6, [(0, 1, 3), (1, 2, 3), (2, 5, 3), (0, 5, 3)])
    calls = []
    real = coxeter._classify_component

    def counted(verts, edges):
        calls.append(tuple(verts))
        return real(verts, edges)

    monkeypatch.setattr(coxeter, "_classify_component", counted)
    for _ in range(2):
        calls.clear()
        found = coxeter.enumerate_spherical_subsets(g)
        cycle = {"v0", "v1", "v2", "v5"}
        for extra in ((), ("v3",), ("v4",), ("v3", "v4")):
            assert cycle.union(extra) not in found
        # one path triple, label multiset {2, 3, 3}, and one cycle; counted
        # afresh on the second call, since the memo lives only in the call
        assert len(calls) == 2 and ("v0", "v1", "v2", "v5") in calls


def test_exhaustive_small_paths_match_oracle():
    for labels in itertools.product(range(2, 7), repeat=3):
        g = coxpath(list(labels))
        assert (
            coxeter.classify_type(g, g.vertices).kind
            == definiteness_oracle(g, g.vertices).classification
        )


def _random_graph(rng):
    """Up to 8 vertices, labels 2..6, some edges missing."""
    n = rng.randint(1, 8)
    vs = [f"v{i}" for i in range(n)]
    density = rng.choice((0.5, 0.8, 1.0))
    edges = [
        (vs[i], vs[j], rng.randint(2, 6))
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < density
    ]
    return DefiningGraph.build(vs, edges)


def _fixtures():
    return [
        parse_graph((FIXTURES / name).read_text())
        for name in ("affine_parts_join.json", "touching_triple_control.json")
    ]


def test_spherical_enumeration_and_fc_match_brute_force():
    graphs = []
    for inst in _fixtures():
        graphs += [inst.graph] + [induced_subgraph(inst.graph, part) for part in inst.family.parts]
    rng = random.Random(2024)
    graphs += [_random_graph(rng) for _ in range(300)]
    graphs += [random_rel_prime_instance(random.Random(seed)).graph for seed in range(30)]
    seen = set()
    for g in graphs:
        expected = brute_spherical_subsets(g)
        fc = brute_fc(g)
        found = coxeter.enumerate_spherical_subsets(g)
        assert found == expected, g.edges
        report = classify_known(g, g.vertices)
        assert report.spherical_type == (frozenset(g.vertices) in expected)
        assert report.two_dimensional == all(len(t) <= 2 for t in expected)
        assert report.fc_type == fc, g.edges
        seen.add((fc, report.two_dimensional))
    # every combination of the two flags is exercised
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def _random_parts(rng, graph):
    """The graph's vertices shuffled and cut into non-empty runs."""
    vs = list(graph.vertices)
    rng.shuffle(vs)
    cuts = sorted(rng.sample(range(1, len(vs)), rng.randint(0, len(vs) - 1)))
    return [vs[i:j] for i, j in zip([0] + cuts, cuts + [len(vs)])]


def test_part_reports_match_each_part_alone():
    # the flags read off the adjacency rows, for each part and for the
    # whole graph, against a report worked out on a copy of that subgraph
    # alone from the enumeration of its spherical subsets
    insts = _fixtures() + lemma_instances()
    rng = random.Random(2024)
    for _ in range(300):
        g = _random_graph(rng)
        insts.append(Instance(g, SubgraphFamily.build(g, _random_parts(rng, g))))
    seen = set()
    for inst in insts:
        for part in inst.family.parts + (inst.graph.vertices,):
            report = classify_known(inst.graph, part)
            assert report == part_alone_report(inst.graph, part), (inst.graph.edges, part)
            seen.add((report.fc_type, report.two_dimensional))
    # every combination of the two flags is exercised
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def _graph_at_any_density(rng):
    """Up to 12 vertices, from no edges to complete, with label 2 drawn at
    a varying rate so that diagrams split into several components."""
    n = rng.randint(1, 12)
    vs = [f"v{i:02d}" for i in range(n)]
    density = rng.choice((0.0, 0.1, 0.3, 0.6, 0.9, 1.0))
    commuting = rng.choice((0.3, 0.7, 0.95))
    edges = [
        (vs[i], vs[j], 2 if rng.random() < commuting else rng.randint(3, 6))
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < density
    ]
    return DefiningGraph.build(vs, edges)


def test_complement_walk_types_match_the_all_pairs_route():
    rng = random.Random(23)
    names = set()
    for _ in range(2000):
        g = _graph_at_any_density(rng)
        subset = rng.sample(g.vertices, rng.randint(0, len(g.vertices)))
        for verts in (g.vertices, subset):
            t = coxeter.classify_type(g, verts)
            assert t == all_pairs_classify_type(g, verts), (g.edges, verts)
            assert t.kind == definiteness_oracle(g, verts).classification, (g.edges, verts)
            names.update(t.components)
    # non-clique components of both kinds and clique components of every
    # kind are met
    assert {"~A1", "indefinite", "A1", "A2", "B2", "~A2"} <= names


def _brute_complement_components(graph, verts):
    """The complement's components on verts, every pair tested."""
    comps, left = [], sorted(verts)
    while left:
        comp, frontier = {left[0]}, [left[0]]
        while frontier:
            v = frontier.pop()
            for w in left:
                if w not in comp and w not in graph.adjacency[v]:
                    comp.add(w)
                    frontier.append(w)
        comps.append(sorted(comp))
        left = [v for v in left if v not in comp]
    return comps


def test_join_decomposable_matches_brute_complement_connectivity():
    rng = random.Random(37)
    seen = set()
    for _ in range(1000):
        g = _graph_at_any_density(rng)
        verts = rng.sample(g.vertices, rng.randint(0, len(g.vertices)))
        comps = coxeter.complement_components(verts, g.adjacency)
        assert comps == _brute_complement_components(g, verts), (g.edges, verts)
        join = classify_known(g, verts).join_decomposable
        assert join == (len(comps) > 1), (g.edges, verts)
        seen.add((len(verts) > 1, join))
    assert seen == {(False, False), (True, False), (True, True)}
