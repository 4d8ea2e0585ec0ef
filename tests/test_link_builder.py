"""Link graphs at each coset type: the finite links read off the fundamental
domain and the ball developments of the infinite ones."""
import random
import time

import pytest

from relartin.defining_graph import DefiningGraph, GraphError, Instance, SubgraphFamily
from relartin.dihedral_garside import DihedralEngine, FreeEngine, engine_for_part
from relartin.link_builder import (
    Development,
    UnsupportedPartError,
    _develop,
    build_link_empty,
    build_link_single,
    develop_link_interedge,
    develop_link_part,
    vertex_label,
)

from relartin.poset_complex import (
    TRIANGLE_UNITS,
    dot_escape,
    subset_label,
)

from instances import (
    affine_parts_join,
    random_rel_prime_instance,
    single_interedge,
    touching_triple_control,
)
from oracles import assign_metric, listed_complex, per_pair_development, s_ell_poset
from test_girth_checker import finite_link


def m2_interedge():
    g = DefiningGraph.build(["a", "b"], [("a", "b", 2)])
    return Instance(g, SubgraphFamily.build(g, [["a"], ["b"]]))


def test_link_empty_join():
    link = build_link_empty(affine_parts_join())
    assert link.vertex_count == 26
    assert len(link.edges) == 40
    kinds = {k: link.vertex_kinds.count(k) for k in set(link.vertex_kinds)}
    assert kinds == {"singleton": 8, "part": 2, "inter-edge": 16}
    # every inter-edge of the join touches another one, so those link edges
    # are 3 units; the part edges stay at 2
    for i, j, w in link.edges:
        upper = link.vertex_kinds[j] if link.sides[j] else link.vertex_kinds[i]
        assert w == (2 if upper == "part" else 3)
    assert link.truncation.complete and not link.truncation.truncated
    doc = link.to_json_dict()
    assert doc["case"] == "empty"
    assert len(doc["vertices"]) == 26 and len(doc["edges"]) == 40


def test_link_empty_disjoint_and_coincident_parts():
    link = build_link_empty(single_interedge())
    # singleton parts that carry the inter-edge sit on the singleton side
    assert sorted(link.vertex_kinds) == ["inter-edge", "singleton", "singleton"]
    assert [w for _, _, w in link.edges] == [2, 2]
    link.check_simple_bipartite()


def test_link_single_complete_bipartite():
    inst = affine_parts_join()
    link = build_link_single(inst, "a1")
    # default truncation keeps powers -3..3, and a1 meets 4 inter-edges
    assert link.vertex_count == 7 + 5
    assert len(link.edges) == 7 * 5
    assert all(w == 4 for _, _, w in link.edges)
    assert "a1^0" in link.vertex_labels and "a1^-3" in link.vertex_labels
    uppers = [k for k in link.vertex_kinds if k != "power"]
    assert sorted(uppers) == ["inter-edge"] * 4 + ["part"]
    assert link.truncation.complete and link.truncation.requested_radius == 3


def test_link_single_coincident_part_drops_the_part_vertex():
    link = build_link_single(single_interedge(), "a")
    assert link.vertex_kinds.count("inter-edge") == 1
    assert link.vertex_kinds.count("part") == 0
    assert len(link.edges) == 7


def test_link_single_rejections():
    g = DefiningGraph.build(["a", "b", "c"], [("a", "b", 4), ("a", "c", 2)])
    inst = Instance(g, SubgraphFamily.build(g, [["a", "c"], ["b"]]))
    with pytest.raises(GraphError):
        build_link_single(inst, "c")


def test_develop_part_needs_an_exact_engine():
    with pytest.raises(UnsupportedPartError):
        develop_link_part(affine_parts_join(), 0)


def test_develop_part_dihedral():
    link = develop_link_part(touching_triple_control(), 1, radius=2, cap=10**5)
    elements = [k for k in link.vertex_kinds if k == "element"]
    cosets = [k for k in link.vertex_kinds if k == "coset"]
    # the part is the m=2 plane: ball(2) has 13 points and each coordinate
    # line within reach is one coset vertex
    assert len(elements) == 13
    assert len(cosets) == 10
    assert len(link.edges) == 26
    assert all(w == 2 for _, _, w in link.edges)
    assert not link.truncation.truncated
    assert link.truncation.achieved_radius == 2
    assert link.boundary


def test_develop_interedge_units_and_default_radius():
    inst = single_interedge()
    (e,) = inst.inter_edges
    link = develop_link_interedge(inst, e, radius=2, cap=10**5)
    assert all(w == 2 for _, _, w in link.edges)

    join = affine_parts_join()
    e1 = next(x for x in join.inter_edges if x[:2] == ("a1", "a2"))
    near = develop_link_interedge(join, e1, radius=2, cap=10**5)
    assert all(w == 1 for _, _, w in near.edges)

    m2 = m2_interedge()
    (e2,) = m2.inter_edges
    full = develop_link_interedge(m2, e2, cap=10**6)
    assert full.truncation.requested_radius == 16
    assert full.truncation.achieved_radius == 16
    assert not full.truncation.truncated
    assert sum(k == "element" for k in full.vertex_kinds) == 545
    assert len(full.edges) == 2 * 545


def test_develop_truncation_is_reported():
    inst = single_interedge()
    (e,) = inst.inter_edges
    link = develop_link_interedge(inst, e, radius=9, cap=50)
    assert link.truncation.truncated
    assert not link.truncation.complete
    assert link.truncation.achieved_radius < 9
    assert link.truncation.cap == 50
    assert link.boundary
    assert link.to_json_dict()["truncation"] is link.truncation
    with pytest.raises(GraphError):
        develop_link_interedge(inst, e, radius=0)


def test_develop_cost_follows_the_cap_not_the_label():
    # a label of 10**6 (about 10**12 letters over all its proper simples)
    # develops under a small cap in a fraction of a second
    m = 10**6
    start = time.perf_counter()
    inst = single_interedge(m)
    (e,) = inst.inter_edges
    link = develop_link_interedge(inst, e, cap=20)
    assert time.perf_counter() - start < 10
    assert link.truncation.truncated
    # a^-1 = Delta^-1 . (the simple of length m-1 starting with b)
    assert "D^-1." + "ba" * (m // 2 - 1) + "b" in link.vertex_labels


def test_develop_matches_a_coset_key_per_pair():
    # sharing coset vertices along the ball's edges gives the development
    # that one coset_key per (element, generator) gives: the same edges,
    # vertex normal forms, boundary and truncation, complete or capped
    engines = [DihedralEngine("a", "b", m) for m in range(2, 7)] + [
        DihedralEngine("b", "a", 3),
        FreeEngine(["x"]),
        FreeEngine(["x", "y"]),
        FreeEngine(["x", "y", "z"]),
    ]
    capped = 0
    for eng in engines:
        for units in (1, 2):
            for radius, cap in ((5, 10**6), (12, 400), (3, 10)):
                link = _develop(Development(eng, units, "part", "test"), radius, cap)
                targets, forms, boundary, truncated, achieved = per_pair_development(eng, radius, cap)
                edges = [(k // len(eng.generators), j, units) for k, j in enumerate(targets)]
                assert list(link.edges) == edges, (eng.generators, units, radius, cap)
                assert link.vertex_labels == [vertex_label(eng, *form) for form in forms]
                assert link.boundary == boundary
                assert link.truncation.truncated == truncated
                assert link.truncation.achieved_radius == achieved
                capped += truncated
    assert capped >= len(engines)


def test_develop_reuses_cosets_along_ball_edges(monkeypatch):
    join = affine_parts_join()
    edge = next(e for e in join.inter_edges if e.label == 4)
    calls = []
    key = DihedralEngine.coset_key
    monkeypatch.setattr(
        DihedralEngine, "coset_key", lambda *a: calls.append(1) or key(*a)
    )
    link = develop_link_interedge(join, edge, cap=4000)
    elements = link.vertex_kinds.count("element")
    assert link.truncation.truncated and elements > 1000
    assert 0 < len(calls) < elements * 2


def test_develop_check_names_a_parallel_edge_on_the_columns(monkeypatch):
    # a coset key that ignores its generator puts both edges of element 0
    # on one coset vertex, the first coset vertex after the ball's elements
    eng = DihedralEngine("a", "b", 3)
    key = DihedralEngine.coset_key
    monkeypatch.setattr(DihedralEngine, "coset_key", lambda self, el, g: key(self, el, "a"))
    levels, _, _ = eng.ball_levels(3, 100)
    elements = sum(map(len, levels))
    with pytest.raises(GraphError) as exc:
        _develop(Development(eng, 2, "part", "test"), 3, 100)
    assert str(exc.value) == f"parallel edge (0, {elements})"


@pytest.mark.parametrize("units", [0, 5])
def test_develop_check_refuses_units_outside_the_range(units):
    for eng in (DihedralEngine("a", "b", 4), FreeEngine(["x", "y", "z"])):
        with pytest.raises(GraphError) as exc:
            _develop(Development(eng, units, "part", "test"), 2, 100)
        assert str(exc.value) == f"edge length {units} outside 1..4 units"


def test_dot_rendering_smoke():
    dot = build_link_empty(single_interedge()).to_dot()
    assert dot.startswith('graph "') and " -- " in dot


@pytest.mark.parametrize("labels", [['q"', "r", "s"], ["q", "r\\", "s"], ['"\\', "r", "s\\\""]])
def test_dot_escapes_a_quote_or_a_backslash_alone(labels):
    link = finite_link([0, 1, 1], [(0, 1, 2), (0, 2, 3)])
    link.vertex_labels = labels
    dot = link.to_dot()
    for i, label in enumerate(labels):
        assert f'  n{i} [label="{dot_escape(label)}", shape=' in dot


@pytest.mark.parametrize(
    "sides, edges, message",
    [
        # a self-loop, with the fault on a later edge each time
        ([0, 1, 0], [(0, 1, 1), (2, 2, 1)], "self-loop at vertex 2"),
        # a repeated edge, as given and reversed
        ([0, 1, 0], [(0, 1, 1), (2, 1, 2), (0, 1, 3)], "parallel edge (0, 1)"),
        ([0, 1, 0], [(0, 1, 1), (2, 1, 2), (1, 2, 2)], "parallel edge (1, 2)"),
        # an edge inside one side
        ([0, 1, 0], [(0, 1, 1), (2, 0, 1)], "edge (0, 2) inside one side of the bipartition"),
        # a length outside 1..4 units
        ([0, 1, 0], [(0, 1, 1), (2, 1, 5)], "edge length 5 outside 1..4 units"),
        ([0, 1, 0], [(0, 1, 0), (2, 1, 1)], "edge length 0 outside 1..4 units"),
        # several faults: the first edge with one names it, and within one
        # edge a repeat is named before the sides and the length
        ([0, 1, 0], [(0, 1, 1), (1, 2, 7), (0, 0, 1), (2, 0, 1)], "edge length 7 outside 1..4 units"),
        ([0, 1, 0], [(0, 1, 1), (2, 0, 2), (1, 0, 9)], "edge (0, 2) inside one side of the bipartition"),
        ([0, 0, 1], [(0, 2, 1), (2, 0, 9), (0, 1, 1)], "parallel edge (0, 2)"),
    ],
)
def test_check_simple_bipartite_names_the_first_fault(sides, edges, message):
    with pytest.raises(GraphError) as exc:
        finite_link(sides, edges).check_simple_bipartite()
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "sides, edges, message",
    [
        ([0, 1], [(1, 1, 2)], "self-loop at vertex 1"),
        ([0, 1], [(0, 1, 2), (1, 0, 3)], "parallel edge (0, 1)"),
        ([0, 1, 1], [(1, 2, 2)], "edge (1, 2) inside one side of the bipartition"),
        ([0, 1], [(0, 1, 9)], "edge length 9 outside 1..4 units"),
    ],
)
def test_a_link_graph_checks_its_shape_when_built(sides, edges, message):
    # finite_link only constructs the link
    with pytest.raises(GraphError) as exc:
        finite_link(sides, edges)
    assert str(exc.value) == message


def test_check_simple_bipartite_accepts_simple_bipartite_graphs():
    finite_link([0, 1, 0, 1], [(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 0, 4)]).check_simple_bipartite()
    finite_link([1, 0], [(0, 1, 4)]).check_simple_bipartite()
    finite_link([0], []).check_simple_bipartite()


def _weights(link, *labels: str) -> set[int]:
    """Units of the link edges that touch every vertex labelled in ``labels``."""
    ends = {link.vertex_labels.index(label) for label in labels}
    return {w for i, j, w in link.edges if ends <= {i, j}}


def test_link_lengths_are_the_metric_corner_angles():
    # every edge of a link is the angle of the triangle [empty < {s} < T] at
    # the link's corner: empty for the empty link, {s} for the single link
    # at s, T for T's development
    assert all(sum(units) == 8 for units in TRIANGLE_UNITS.values())
    instances = [affine_parts_join(), touching_triple_control()]
    instances += [random_rel_prime_instance(random.Random(seed)) for seed in range(12)]
    shapes = set()
    for inst in instances:
        empty = build_link_empty(inst)
        for sx in assign_metric(listed_complex(s_ell_poset(inst)), inst):
            _, single, top = sx.chain
            (s,) = single
            shapes.add(sx.case)
            assert _weights(empty, subset_label(single), subset_label(top)) == {sx.units[0]}
            assert _weights(build_link_single(inst, s), subset_label(top)) == {sx.units[1]}
            if sx.case == "part":
                i = inst.family.part_of[s]
                if engine_for_part(inst.graph, inst.family.parts[i]) is None:
                    continue
                dev = develop_link_part(inst, i, radius=2)
            else:
                (edge,) = [e for e in inst.inter_edges if frozenset(e[:2]) == top]
                dev = develop_link_interedge(inst, edge, radius=2)
            assert {w for _, _, w in dev.edges} == {sx.units[2]}, sx.chain
    assert shapes == set(TRIANGLE_UNITS)
