"""Subset posets, order complexes, the integer-unit metric, and the
retraction onto the small fundamental domain."""
import random
from dataclasses import replace

import pytest

from relartin.defining_graph import DefiningGraph, GraphError, Instance, SubgraphFamily
from relartin.poset_complex import (
    MetricSimplex,
    SubsetPoset,
    assign_metric,
    build_S_bar,
    build_S_ell,
    build_S_f,
    canonical_sine_ratio,
    check_gluing,
    check_two_dimensional,
    derived_complex,
    maximal_chains,
    retraction_map,
    subset_label,
)

from instances import (
    affine_parts_join,
    random_rel_prime_instance,
    single_interedge,
    touching_triple_control,
    with_strays,
)
from oracles import (
    all_pairs_retraction_map,
    brute_above,
    brute_chain_count,
    brute_chains,
    brute_covers,
    brute_maximal_chains,
    sine_ratio_value,
)


def test_s_ell_join_counts_and_tags():
    inst = affine_parts_join()
    poset = build_S_ell(inst)
    assert poset.elements == inst.s_ell.elements
    assert len(poset.elements) == 27
    tags = poset.tags
    assert sum("part" in tags[t] for t in poset.elements) == 2
    assert sum("inter-edge" in tags[t] for t in poset.elements) == 16
    assert sum("inter-edge-vertex" in tags[t] for t in poset.elements) == 8
    assert "empty" in tags[frozenset()]


def test_s_bar_and_s_f_join():
    inst = affine_parts_join()
    s_bar = build_S_bar(inst)
    assert len(s_bar.elements) == 47
    assert set(inst.s_ell.elements) <= set(s_bar.elements)
    s_f = build_S_f(inst)
    assert set(s_f.elements) <= set(s_bar.elements)
    assert len(s_f.elements) == 45


def test_derived_complex_chain_counts():
    inst = affine_parts_join()
    cx = derived_complex(inst.s_ell)
    assert cx.dimension == 2
    assert {n: len(cx.chains_of_length(n)) for n in (1, 2, 3)} == {
        1: 27,
        2: 66,
        3: 40,
    }
    s_bar = build_S_bar(inst)
    assert s_bar.chain_count() == 693
    assert len(maximal_chains(s_bar)) == 80
    doc = cx.to_json_dict()
    assert doc["chain_counts"] == {"1": 27, "2": 66, "3": 40}


def test_single_interedge_two_simplices():
    cx = derived_complex(single_interedge().s_ell)
    two = cx.chains_of_length(3)
    assert [[sorted(t) for t in c] for c in two] == [
        [[], ["a"], ["a", "b"]],
        [[], ["b"], ["a", "b"]],
    ]


def test_two_dimensional_check_and_negative_control():
    verdict = check_two_dimensional(affine_parts_join().s_ell)
    assert verdict.ok and verdict.max_chain_length == 3 and verdict.witness is None

    # a poset with a length-4 nest is rejected with the witness chain
    deep = SubsetPoset.from_tagged(
        [
            (frozenset(), "empty"),
            (frozenset("a"), "x"),
            (frozenset("ab"), "x"),
            (frozenset("abc"), "x"),
        ]
    )
    bad = check_two_dimensional(deep)
    assert not bad.ok and bad.max_chain_length == 4
    assert bad.witness == tuple(frozenset(x) for x in ("", "a", "ab", "abc"))


def test_covers_relation():
    poset = single_interedge().s_ell
    covers = set(poset.covers())
    e, a, b, ab = frozenset(), frozenset("a"), frozenset("b"), frozenset("ab")
    assert covers == {(e, a), (e, b), (a, ab), (b, ab)}
    assert poset.to_dot().startswith("digraph")


def test_canonical_sine_ratios():
    assert canonical_sine_ratio(2, 2) == (1, 1)
    assert canonical_sine_ratio(4, 4) == (1, 1)
    assert canonical_sine_ratio(4, 2) == (4, 2)
    assert canonical_sine_ratio(3, 1) == (3, 1)
    # apart from the ratio-1 diagonal, the twelve off-diagonal ratios are
    # pairwise distinct, so nothing else collapses
    assert canonical_sine_ratio(4, 3) == (4, 3)
    assert canonical_sine_ratio(1, 4) == (1, 4)
    assert abs(sine_ratio_value((4, 2)) - 2**0.5) < 1e-12
    for bad in ((5, 1), (1, 0)):
        with pytest.raises(ValueError):
            canonical_sine_ratio(*bad)


def test_canonical_sine_ratio_names_each_float_value_once():
    # two pairs get the same name exactly when their float ratios agree,
    # and the name is the least pair of that value
    pairs = [(p, q) for p in range(1, 5) for q in range(1, 5)]
    values = {pq: sine_ratio_value(pq) for pq in pairs}
    for pq in pairs:
        same = [other for other in pairs if abs(values[other] - values[pq]) < 1e-9]
        assert canonical_sine_ratio(*pq) == min(same)
        assert all(canonical_sine_ratio(*other) == min(same) for other in same)
    distinct = sorted(set(round(v, 9) for v in values.values()))
    assert len(distinct) == 13
    assert min(b - a for a, b in zip(distinct, distinct[1:])) > 0.03


def test_assign_metric_join():
    inst = affine_parts_join()
    simplices = assign_metric(derived_complex(inst.s_ell), inst)
    assert len(simplices) == 40
    by_case = {}
    for sx in simplices:
        by_case[sx.case] = by_case.get(sx.case, 0) + 1
        assert sum(sx.units) == 8
        assert sx.sides[0] == (1, 1)
    # every inter-edge of the join shares vertices with others, so all 32
    # inter-edge simplices take the (3,4,1) corner pattern
    assert by_case == {"inter-edge-nondisjoint": 32, "part": 8}
    nondisjoint = [sx for sx in simplices if sx.case == "inter-edge-nondisjoint"]
    assert all(sx.units == (3, 4, 1) for sx in nondisjoint)
    parts = [sx for sx in simplices if sx.case == "part"]
    assert all(sx.units == (2, 4, 2) for sx in parts)


def test_assign_metric_disjoint_case():
    inst = single_interedge()
    simplices = assign_metric(derived_complex(inst.s_ell), inst)
    assert [sx.case for sx in simplices] == ["inter-edge-disjoint"] * 2
    assert all(sx.units == (2, 4, 2) for sx in simplices)
    # side [empty, T] is sin(4u)/sin(2u) = sqrt(2), the long diagonal
    assert all(sx.sides[2] == (4, 2) for sx in simplices)


def test_assign_metric_rejects_unknown_shapes():
    poset = SubsetPoset.from_tagged(
        [
            (frozenset(), "empty"),
            (frozenset("ab"), "inter-edge"),
            (frozenset("abc"), "part"),
        ]
    )
    cx = derived_complex(poset)
    g = DefiningGraph.build(["a", "b", "c"], [("a", "b", 4)])
    fam = SubgraphFamily.build(g, [["a", "b", "c"]])
    with pytest.raises(GraphError):
        assign_metric(cx, Instance(g, fam))


def test_gluing_consistent_on_join():
    inst = affine_parts_join()
    report = check_gluing(assign_metric(derived_complex(inst.s_ell), inst))
    assert report.ok
    assert report.conflicts == []


def test_gluing_detects_conflicts():
    e = frozenset()
    a, b = frozenset("a"), frozenset("b")
    top = frozenset("ab")
    sx1 = MetricSimplex(
        chain=(e, a, top),
        units=(2, 4, 2),
        case="part",
        sides=((1, 1), (1, 1), (4, 2)),
    )
    sx2 = MetricSimplex(
        chain=(e, b, top),
        units=(3, 4, 1),
        case="inter-edge-nondisjoint",
        sides=((1, 1), (3, 1), (4, 1)),
    )
    report = check_gluing([sx1, sx2])
    assert not report.ok
    assert [c["edge"] for c in report.conflicts] == [[[], ["a", "b"]]]


def test_retraction_join():
    inst = affine_parts_join()
    report = retraction_map(build_S_bar(inst), inst.s_ell, inst.family)
    assert report.ok
    assert report.total_maximal_chains == 80
    assert report.lands_in_s_ell
    assert report.identity_on_s_ell
    assert report.idempotent
    assert report.face_compatible
    assert report.failures == []
    # proper part-subsets collapse to their part
    part0 = frozenset(inst.family.parts[0])
    assert report.vertex_map[frozenset(("a1", "b1"))] == part0
    assert report.vertex_map[frozenset(("a1",))] == frozenset(("a1",))


def test_retraction_breaks_without_part_subsets():
    # removing a part subset from the domain makes the map partial, which
    # the report records as a failure
    inst = affine_parts_join()
    inside, crossing = with_strays(inst)
    report = retraction_map(inside, inst.s_ell, inst.family)
    assert report.ok  # the triple still lies inside part 0, so it retracts
    report = retraction_map(crossing, inst.s_ell, inst.family)
    assert not report.ok or report.failures
    assert any("no image" in f for f in report.failures)


def _plus(poset: SubsetPoset, *subsets: str) -> SubsetPoset:
    tagged = [(t, tag) for t in poset.elements for tag in poset.tags[t]]
    return SubsetPoset.from_tagged(tagged + [(frozenset(x), "stray") for x in subsets])


def test_retraction_matches_all_pairs_reference():
    # monotonicity is checked on covers and the maximal chains by dynamic
    # programming; the reference checks every pair and walks every chain.
    # On invalid input the report names one chain per failing state, where
    # the reference names every failing chain
    join = affine_parts_join()
    cases = [(poset, join.s_ell, join) for poset in with_strays(join)]
    # S^l claiming a proper part subset, or a crossing triple that leaves
    # {a1,b1} -> part 0 below it non-monotone: chains fail the formula, and
    # in the second case images stop increasing
    crossing = _plus(build_S_bar(join), ("a1", "a2", "b1"))
    for extra in ((("a1", "b1"), ("a1", "a2", "b1")), (("a1", "a2", "b1"),)):
        cases.append((crossing, _plus(join.s_ell, *extra), join))
    for inst in [join, touching_triple_control()] + [
        random_rel_prime_instance(random.Random(seed)) for seed in range(30)
    ]:
        cases.append((build_S_bar(inst), inst.s_ell, inst))
    valid = 0
    for s_bar, s_ell, inst in cases:
        report = retraction_map(s_bar, s_ell, inst.family)
        reference = all_pairs_retraction_map(s_bar, s_ell, inst.family)
        assert replace(report, failures=[]) == replace(reference, failures=[])
        if reference.ok:
            valid += 1
            assert report.failures == reference.failures
        else:
            assert report.failures[0] == reference.failures[0]
            assert set(report.failures) <= set(reference.failures)
    assert valid == len(cases) - 3


def _assert_matches_oracles(poset: SubsetPoset) -> None:
    # equal lists, order included: build and kpi1 print in this order
    assert poset.above == brute_above(poset)
    assert poset.covers() == brute_covers(poset)
    assert derived_complex(poset).chains == tuple(brute_chains(poset))
    assert maximal_chains(poset) == brute_maximal_chains(poset)
    assert poset.chain_count() == brute_chain_count(poset)
    chains = brute_chains(poset)
    assert poset.longest_chain() == (max(chains, key=len) if chains else ())


def test_poset_walks_match_oracles_on_instances():
    for make in (affine_parts_join, touching_triple_control):
        inst = make()
        for poset in (build_S_ell(inst), build_S_bar(inst), build_S_f(inst)):
            _assert_matches_oracles(poset)
    for poset in with_strays(affine_parts_join()):
        _assert_matches_oracles(poset)


def test_poset_walks_match_oracles_on_random_families():
    rng = random.Random(20261017)
    closed = 0
    for _ in range(240):
        letters = "abcde"[: rng.randint(1, 5)]
        subsets = [
            frozenset(x for i, x in enumerate(letters) if mask >> i & 1)
            for mask in range(1 << len(letters))
        ]
        family = set(rng.sample(subsets, rng.randint(0, min(len(subsets), 12))))
        if rng.random() < 0.3:
            family = {t for t in subsets if any(t <= u for u in family)}
            closed += 1
        _assert_matches_oracles(SubsetPoset.from_tagged((t, "x") for t in family))
    assert 50 < closed < 190  # both closed and unclosed families were drawn


def test_subset_label():
    assert subset_label(frozenset()) == "{}"
    assert subset_label(frozenset(("b", "a"))) == "{a,b}"
