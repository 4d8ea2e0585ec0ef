"""Graph and family validation, inter-edge extraction, label conditions."""
import copy
import json
import pathlib
import random

import pytest

from relartin.defining_graph import (
    DefiningGraph,
    GraphError,
    Instance,
    SubgraphFamily,
    check_rel,
    check_rel_prime,
    classify_known,
    inter_edges,
    parse_graph,
)

from instances import (
    affine_parts_join,
    lemma_instances,
    random_instance,
    random_rel_prime_instance,
    right_angled_part,
    touching_triple_control,
)
from oracles import instance_to_json

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def test_build_and_accessors():
    g = DefiningGraph.build(["b", "a", "c"], [("b", "a", 3), ("a", "c", 2)])
    assert g.vertices == ("a", "b", "c")
    assert g.edges == (("a", "b", 3), ("a", "c", 2))
    assert g.label("b", "a") == 3
    assert g.label("a", "c") == 2
    assert g.label("b", "c") is None
    assert "b" in g.adjacency["a"] and "c" not in g.adjacency["b"]
    assert list(g.adjacency["a"]) == ["b", "c"]


def test_adjacency_map_agrees_with_edges_and_accessors():
    rng = random.Random(2510)
    for _ in range(300):
        g = random_instance(rng).graph
        rows = g.adjacency
        # the same graph from its vertices and edges shuffled and turned round
        edges = [(v, u, m) if rng.random() < 0.5 else (u, v, m) for u, v, m in g.edges]
        rng.shuffle(edges)
        shuffled = DefiningGraph.build(rng.sample(g.vertices, len(g.vertices)), edges)
        assert list(rows) == list(g.vertices)
        for v, row in rows.items():
            assert list(row) == sorted(row) == list(shuffled.adjacency[v])
            assert row == shuffled.adjacency[v]
            assert all(rows[w][v] == m for w, m in row.items())
            assert set(row) == {w for w in g.vertices if g.label(v, w) is not None}
        pairs = [(u, v, m) for u, row in rows.items() for v, m in row.items() if u < v]
        assert sorted(pairs) == list(g.edges)
        names = list(g.vertices) + ["zz"]
        for u in names:
            for v in names:
                m = next((m for a, b, m in g.edges if {a, b} == {u, v}), None)
                assert g.label(u, v) == m
        assert "zz" not in rows


def test_singleton_instance_is_valid():
    g = DefiningGraph.build(["a"], [])
    fam = SubgraphFamily.build(g, [["a"]])
    assert fam.parts == (("a",),)
    inst = Instance(g, fam)
    assert inter_edges(inst) == ()
    assert check_rel(inst).ok and check_rel_prime(inst).ok


def test_build_rejections():
    with pytest.raises(GraphError):
        DefiningGraph.build(["a", "a"], [])
    with pytest.raises(GraphError):
        DefiningGraph.build(["a", ""], [])
    with pytest.raises(GraphError):
        DefiningGraph.build(["a", "b"], [("a", "a", 3)])
    with pytest.raises(GraphError):
        DefiningGraph.build(["a", "b"], [("a", "b", 1)])
    with pytest.raises(GraphError):
        DefiningGraph.build(["a", "b"], [("a", "b", True)])
    with pytest.raises(GraphError):
        DefiningGraph.build(["a", "b"], [("a", "b", 3.0)])
    with pytest.raises(GraphError):
        DefiningGraph.build(["a", "b"], [("a", "b", 3), ("b", "a", 4)])
    with pytest.raises(GraphError):
        DefiningGraph.build(["a"], [("a", "z", 2)])


def test_family_rejections():
    g = DefiningGraph.build(["a", "b", "c"], [])
    with pytest.raises(GraphError):
        SubgraphFamily.build(g, [["a", "b"]])  # does not cover c
    with pytest.raises(GraphError):
        SubgraphFamily.build(g, [["a", "b"], ["b", "c"]])  # overlap
    with pytest.raises(GraphError):
        SubgraphFamily.build(g, [["a", "b", "c"], []])  # empty part
    with pytest.raises(GraphError):
        SubgraphFamily.build(g, [["a", "b", "c"], ["z"]])
    fam = SubgraphFamily.build(g, [["c", "a"], ["b"]])
    assert fam.parts == (("a", "c"), ("b",))
    assert fam.part_of == {"a": 0, "c": 0, "b": 1}


def test_inter_edges_join():
    inst = affine_parts_join()
    ies = inter_edges(inst)
    assert ies == inst.inter_edges
    assert len(ies) == 16
    assert all(e.label == 4 for e in ies)
    assert all({e.part_u, e.part_v} == {0, 1} for e in ies)
    # intra edges are not reported
    pairs = {e[:2] for e in ies}
    assert ("a1", "b1") not in pairs


def test_instance_facts_match_their_definitions():
    # the part map, the inter-edges (in vertex-pair order, which inter_edges
    # takes from the graph's edge order without sorting), disjointness and
    # REL' against a recomputation from the parts and the edge list
    insts = lemma_instances() + [right_angled_part(k) for k in range(1, 7)]
    for inst in insts:
        parts, part_of = inst.family.parts, inst.family.part_of
        assert len(part_of) == len(inst.graph.vertices)
        for i, part in enumerate(parts):
            assert all(part_of[v] == i for v in part)

        def part(x):
            return next(i for i, p in enumerate(parts) if x in p)

        expected = sorted(
            (min(u, v), max(u, v), m, part(min(u, v)), part(max(u, v)))
            for u, v, m in inst.graph.edges
            if part(u) != part(v)
        )
        got = [(e.u, e.v, e.label, e.part_u, e.part_v) for e in inst.inter_edges]
        assert got == expected
        degree: dict[str, int] = {}
        for u, v, *_ in expected:
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
        alone = {(u, v): degree[u] == degree[v] == 1 for u, v, *_ in expected}
        assert inst.disjoint == alone
        bad = [(u, v) for u, v, m, *_ in expected if m < 4 and not alone[u, v]]
        assert [(e.u, e.v) for e in check_rel_prime(inst).violations] == bad


def test_rel_conditions_on_fixture_and_control():
    inst = affine_parts_join()
    assert check_rel(inst).ok
    assert check_rel_prime(inst).ok

    control = touching_triple_control()
    rel = check_rel(control)
    relp = check_rel_prime(control)
    assert not rel.ok and not relp.ok
    assert {e[:2] for e in relp.violations} == {("a", "b"), ("b", "c")}


def test_isolated_interedge_passes_rel_prime_only():
    # single inter-edge labeled 3 between the parts: REL fails, REL' holds
    g = DefiningGraph.build(["a", "b", "c"], [("a", "b", 3), ("b", "c", 2)])
    inst = Instance(g, SubgraphFamily.build(g, [["a"], ["b", "c"]]))
    assert not check_rel(inst).ok
    assert check_rel_prime(inst).ok


def test_non_isolated_detection_spans_part_pairs():
    # the two inter-edges meet at b but join different part pairs; sharing
    # a vertex is enough to make both non-isolated
    g = DefiningGraph.build(
        ["a", "b", "c", "d"], [("a", "b", 3), ("b", "c", 3), ("c", "d", 2)]
    )
    inst = Instance(g, SubgraphFamily.build(g, [["a"], ["b"], ["c", "d"]]))
    relp = check_rel_prime(inst)
    assert not relp.ok
    assert len(relp.violations) == 2


def test_rel_implies_rel_prime_randomized():
    rng = random.Random(20260819)
    for _ in range(200):
        n = rng.randint(2, 7)
        vs = [f"v{i}" for i in range(n)]
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.5:
                    edges.append((vs[i], vs[j], rng.randint(2, 6)))
        g = DefiningGraph.build(vs, edges)
        order = vs[:]
        rng.shuffle(order)
        cuts = sorted(rng.sample(range(1, n), rng.randint(0, min(2, n - 1))))
        parts = []
        prev = 0
        for c in cuts + [n]:
            parts.append(order[prev:c])
            prev = c
        inst = Instance(g, SubgraphFamily.build(g, parts))
        if check_rel(inst).ok:
            assert check_rel_prime(inst).ok


def test_random_generator_emits_valid_instances():
    rng = random.Random(7)
    for _ in range(25):
        inst = random_rel_prime_instance(rng)
        assert check_rel_prime(inst).ok
        assert sum(len(p) for p in inst.family.parts) == len(inst.graph.vertices)


def test_parse_graph_round_trip():
    insts = [affine_parts_join()]
    insts += [random_rel_prime_instance(random.Random(seed)) for seed in range(30)]
    for inst in insts:
        assert parse_graph(instance_to_json(inst)) == inst


def test_parse_graph_rejections():
    with pytest.raises(GraphError):
        parse_graph("not json")
    with pytest.raises(GraphError):
        parse_graph("[1, 2]")
    with pytest.raises(GraphError):
        parse_graph('{"vertices": ["a"], "edges": []}')  # missing family
    with pytest.raises(GraphError):
        parse_graph(
            '{"vertices": ["a"], "edges": [], "family": [["a"]], "extra": 1}'
        )
    with pytest.raises(GraphError):
        parse_graph(
            '{"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b"}],'
            ' "family": [["a"], ["b"]]}'
        )
    with pytest.raises(GraphError):
        parse_graph(
            '{"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "m": 1}],'
            ' "family": [["a"], ["b"]]}'
        )
    # names that are not strings: unhashable, or not comparable with the rest
    with pytest.raises(GraphError, match="endpoints"):
        parse_graph(
            '{"vertices": ["a", "b"], "edges": [{"u": ["a"], "v": "b", "m": 4}],'
            ' "family": [["a"], ["b"]]}'
        )
    with pytest.raises(GraphError, match="not a vertex name"):
        parse_graph('{"vertices": ["a"], "edges": [], "family": [["a", 1]]}')


def _random_value(rng: random.Random, names: list, depth: int = 0):
    """A random JSON value, containers at most two levels deep."""
    kind = rng.randrange(7 if depth < 2 else 5)
    if kind == 0:
        return None
    if kind == 1:
        return rng.random() < 0.5
    if kind == 2:
        return rng.choice([0, 1, 2, 4, -3, 10**20, 2.5, -0.0])
    if kind == 3:
        return rng.choice(["", "x", "u", "m", "family"])
    if kind == 4:
        return rng.choice(names)
    if kind == 5:
        return [_random_value(rng, names, depth + 1) for _ in range(rng.randrange(4))]
    keys = ["u", "v", "m", "vertices", "edges", "family", "x"]
    return {rng.choice(keys): _random_value(rng, names, depth + 1) for _ in range(rng.randrange(4))}


def _mutate(rng: random.Random, doc, names: list):
    """doc with the value at one random path replaced by a random value."""
    if not isinstance(doc, (dict, list)) or not doc or rng.random() < 0.2:
        return _random_value(rng, names)
    key = rng.choice(list(doc)) if isinstance(doc, dict) else rng.randrange(len(doc))
    doc[key] = _mutate(rng, doc[key], names)
    return doc


def test_malformed_documents_raise_graph_error_only():
    # seeded mutations of the fixtures: every document either parses or is
    # rejected with GraphError, never with another exception
    rng = random.Random(20261018)
    fixtures = [json.loads(p.read_text()) for p in sorted(FIXTURES.glob("*.json"))]
    parsed = rejected = 0
    for _ in range(3000):
        doc = copy.deepcopy(rng.choice(fixtures))
        names = list(doc["vertices"])
        for _ in range(rng.randint(1, 3)):
            doc = _mutate(rng, doc, names)
        text = json.dumps(doc)
        try:
            assert isinstance(parse_graph(text), Instance)
            parsed += 1
        except GraphError:
            rejected += 1
    assert parsed > 10 and rejected > 2000


def classify_whole(graph):
    return classify_known(graph, graph.vertices)


def test_classifier_flags():
    report = classify_whole(affine_parts_join().graph)
    assert not report.spherical_type
    assert not report.affine_type
    assert not report.two_dimensional
    assert not report.fc_type
    assert not report.large_type
    assert not report.extra_large_type
    assert not report.xxl_type
    assert not report.right_angled
    assert report.join_decomposable
    assert report.locally_reducible is None

    raag = DefiningGraph.build(["a", "b", "c"], [("a", "b", 2)])
    r = classify_whole(raag)
    assert r.right_angled and r.fc_type and r.two_dimensional
    assert not r.large_type

    xxl = DefiningGraph.build(["a", "b", "c"], [("a", "b", 5), ("b", "c", 6)])
    r = classify_whole(xxl)
    assert r.large_type and r.extra_large_type and r.xxl_type
    assert not r.right_angled and r.two_dimensional


def test_classifier_spherical_and_affine():
    b2 = DefiningGraph.build(["a", "b"], [("a", "b", 4)])
    assert classify_whole(b2).spherical_type

    # the all-3 triangle has affine Coxeter quotient
    tri = DefiningGraph.build(
        ["a", "b", "c"], [("a", "b", 3), ("b", "c", 3), ("a", "c", 3)]
    )
    r = classify_whole(tri)
    assert r.affine_type and not r.spherical_type
