"""Subset posets, order complexes, the integer-unit metric, and the
retraction onto the small fundamental domain."""
import random
from dataclasses import replace

import pytest

from relartin.defining_graph import DefiningGraph, GraphError, Instance, SubgraphFamily
from relartin.poset_complex import (
    SubsetPoset,
    build_S_bar,
    build_S_ell,
    build_S_f,
    derived_complex,
    maximal_chains,
    retraction_map,
    s_bar_chain_count,
    s_bar_size,
    s_ell_max_chain_length,
    subset_label,
)

from instances import (
    affine_parts_join,
    lemma_instances,
    random_rel_prime_instance,
    right_angled_part,
    single_interedge,
    touching_triple_control,
    with_strays,
)
import oracles
from oracles import (
    MetricSimplex,
    all_pairs_retraction_map,
    assign_metric,
    canonical_sine_ratio,
    chains_of_length,
    check_gluing,
    check_two_dimensional,
    cover_walk_retraction_map,
    brute_above,
    brute_chain_count,
    brute_chains,
    brute_covers,
    brute_maximal_chains,
    dp_chain_count,
    dp_longest_chain,
    simplex_gluing,
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
    # `build` prints S_f_size as the number of spherical subsets, without
    # building the poset: the enumeration lists each subset once
    others = [touching_triple_control()]
    others += [random_rel_prime_instance(random.Random(seed)) for seed in range(30)]
    for other in [inst, *others]:
        assert len(build_S_f(other).elements) == len(other.spherical)


def test_derived_complex_chain_counts():
    inst = affine_parts_join()
    cx = derived_complex(inst.s_ell)
    assert max(map(len, cx.chains)) == 3
    assert {n: len(chains_of_length(cx, n)) for n in (1, 2, 3)} == {
        1: 27,
        2: 66,
        3: 40,
    }
    s_bar = build_S_bar(inst)
    assert dp_chain_count(s_bar) == s_bar_chain_count(inst) == 693
    assert len(maximal_chains(s_bar)) == retraction_map(inst) == 80
    doc = cx.to_json_dict()
    assert doc["chain_counts"] == {"1": 27, "2": 66, "3": 40}


def test_single_interedge_two_simplices():
    cx = derived_complex(single_interedge().s_ell)
    two = chains_of_length(cx, 3)
    assert [[sorted(t) for t in c] for c in two] == [
        [[], ["a"], ["a", "b"]],
        [[], ["b"], ["a", "b"]],
    ]


def test_two_dimensional_check_and_negative_control():
    verdict = check_two_dimensional(derived_complex(affine_parts_join().s_ell))
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
    bad = check_two_dimensional(derived_complex(deep))
    assert not bad.ok and bad.max_chain_length == 4
    assert bad.witness == tuple(frozenset(x) for x in ("", "a", "ab", "abc"))
    assert bad.witness == dp_longest_chain(deep)


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
    with pytest.raises(GraphError):
        check_gluing(cx, Instance(g, fam))


def test_gluing_consistent_on_join():
    inst = affine_parts_join()
    report = check_gluing(derived_complex(inst.s_ell), inst)
    assert report.ok
    assert report.conflicts == []


def test_gluing_matches_the_simplex_oracle():
    # the one pass over the 2-chains reports what collecting the edge
    # lengths of one metric simplex per 2-chain reports
    for inst in lemma_instances():
        cx = derived_complex(inst.s_ell)
        assert check_gluing(cx, inst) == simplex_gluing(assign_metric(cx, inst)), inst.graph.edges


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
    report = simplex_gluing([sx1, sx2])
    assert not report.ok
    assert [c["edge"] for c in report.conflicts] == [[[], ["a", "b"]]]


def test_gluing_detects_conflicts_in_one_pass(monkeypatch):
    # the S^l metric gives each top one case, so a conflict needs crafted
    # side lengths: part triangles whose [empty,{s}] side is not 1 clash
    # with the inter-edge triangles through the same {s}
    monkeypatch.setitem(oracles._SIDES, "part", ((3, 1), (1, 1), (4, 2)))
    inst = touching_triple_control()
    cx = derived_complex(inst.s_ell)
    report = check_gluing(cx, inst)
    assert not report.ok
    assert [c["edge"] for c in report.conflicts] == [[[], ["a"]], [[], ["c"]]]
    assert report.conflicts[0]["lengths"] == [(1, 1), (3, 1)]
    assert report == simplex_gluing(assign_metric(cx, inst))


def test_retraction_join():
    inst = affine_parts_join()
    report = cover_walk_retraction_map(build_S_bar(inst), inst.s_ell, inst.family)
    assert report.ok
    assert report.total_maximal_chains == retraction_map(inst) == 80
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
    report = cover_walk_retraction_map(inside, inst.s_ell, inst.family)
    assert report.ok  # the triple still lies inside part 0, so it retracts
    report = cover_walk_retraction_map(crossing, inst.s_ell, inst.family)
    assert not report.ok or report.failures
    assert any("no image" in f for f in report.failures)


def _plus(poset: SubsetPoset, *subsets: str) -> SubsetPoset:
    tagged = [(t, tag) for t in poset.elements for tag in poset.tags[t]]
    return SubsetPoset.from_tagged(tagged + [(frozenset(x), "stray") for x in subsets])


def test_retraction_matches_all_pairs_reference():
    # the cover walk checks monotonicity on covers and the maximal chains by
    # dynamic programming; the reference checks every pair and walks every
    # chain.
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
        report = cover_walk_retraction_map(s_bar, s_ell, inst.family)
        reference = all_pairs_retraction_map(s_bar, s_ell, inst.family)
        assert replace(report, failures=[]) == replace(reference, failures=[])
        if reference.ok:
            valid += 1
            assert report.failures == reference.failures
        else:
            assert report.failures[0] == reference.failures[0]
            assert set(report.failures) <= set(reference.failures)
    assert valid == len(cases) - 3


def test_s_bar_size_retraction_and_dimension_in_closed_form():
    # |S_bar| = 1 + sum (2^k_i - 1) + |inter-edges|, its chains
    # 1 + 2 (sum (2 F(k_i) - 1) + 3 |inter-edges|), the retraction's
    # maximal chains counted in closed form, and the longest S^l chain,
    # against the built S_bar, its chains counted by dynamic programming
    # and, where there are few, listed, the cover-walk audit and the S^l
    # poset; right-angled parts reach one part of 10 vertices
    insts = lemma_instances() + [right_angled_part(k) for k in range(1, 11)]
    listed = 0
    for inst in insts:
        s_bar = build_S_bar(inst)
        assert len(s_bar.elements) == s_bar_size(inst), inst.graph.edges
        count = s_bar_chain_count(inst)
        assert count == dp_chain_count(s_bar), inst.graph.edges
        if count <= 2000:
            assert count == brute_chain_count(s_bar), inst.graph.edges
            listed += 1
        report = cover_walk_retraction_map(s_bar, inst.s_ell, inst.family)
        assert report.ok and report.failures == [], inst.graph.edges
        assert retraction_map(inst) == report.total_maximal_chains, inst.graph.edges
        longest = check_two_dimensional(derived_complex(inst.s_ell)).max_chain_length
        assert longest == s_ell_max_chain_length(inst) == (3 if inst.inter_edges else 2), inst.graph.edges
    assert listed > len(insts) // 2


def _assert_matches_oracles(poset: SubsetPoset) -> None:
    # equal lists, order included: build and kpi1 print in this order
    assert poset.above == brute_above(poset)
    assert poset.covers() == brute_covers(poset)
    assert derived_complex(poset).chains == tuple(brute_chains(poset))
    assert maximal_chains(poset) == brute_maximal_chains(poset)
    assert dp_chain_count(poset) == brute_chain_count(poset)
    chains = brute_chains(poset)
    longest = max(chains, key=len) if chains else ()
    assert dp_longest_chain(poset) == longest
    verdict = check_two_dimensional(derived_complex(poset))
    assert verdict.max_chain_length == len(longest)
    assert verdict.witness == (longest if len(longest) > 3 else None)


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
