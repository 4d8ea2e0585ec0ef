"""Acylindrical hyperbolicity routes: witness triples, rank 3 checks, and
the confined syllable growth tables."""
import json
import random
from dataclasses import asdict

import pytest

from relartin import cli
from relartin.acyl_checker import (
    AcylVerdict,
    check_acylindricity,
    check_delta,
    check_hypotheses,
    empirical_orbit_growth,
    find_witness,
)
from relartin.defining_graph import DefiningGraph, Instance, SubgraphFamily
from relartin.dihedral_garside import CapExceeded

from instances import (
    affine_parts_join,
    random_rel_prime_instance,
    single_interedge,
    touching_triple_control,
)
from oracles import per_radius_orbit_growth, strictly_increasing


def tripartite(edges):
    verts = sorted({v for e in edges for v in e[:2]})
    g = DefiningGraph.build(verts, edges)
    return Instance(g, SubgraphFamily.build(g, [[v] for v in verts]))


def test_orbit_growth_frozen_tables():
    assert empirical_orbit_growth(3) == [(2, 2), (4, 4), (6, 5), (8, 6)]
    assert empirical_orbit_growth(4) == [(2, 2), (4, 4), (6, 6), (8, 8)]
    # the label 2 plane saturates at two syllables immediately
    assert empirical_orbit_growth(2) == [(2, 2), (4, 2), (6, 2), (8, 2)]
    assert strictly_increasing(empirical_orbit_growth(3))
    assert strictly_increasing(empirical_orbit_growth(4))
    assert not strictly_increasing(empirical_orbit_growth(2))


def test_orbit_growth_small_radii():
    assert empirical_orbit_growth(3, radii=(0, 2)) == [(0, 0), (2, 2)]
    assert empirical_orbit_growth(3, radii=(6,)) == [(6, 5)]
    # radii are sorted before measuring
    assert empirical_orbit_growth(4, radii=(4, 2)) == [(2, 2), (4, 4)]


def test_orbit_growth_nondecreasing_invariant():
    for m in range(2, 7):
        rows = empirical_orbit_growth(m, radii=tuple(range(0, 9)))
        values = [v for _, v in rows]
        assert values == sorted(values)
        assert values[0] == 0


def test_orbit_growth_validation():
    with pytest.raises(ValueError):
        empirical_orbit_growth(1)
    with pytest.raises(ValueError):
        empirical_orbit_growth(3, radii=())
    with pytest.raises(ValueError):
        empirical_orbit_growth(3, radii=(-2,))
    with pytest.raises(CapExceeded) as info:
        empirical_orbit_growth(4, radii=(8,), cap=50)
    assert info.value.cap == 50


def test_orbit_growth_matches_one_ball_per_radius():
    # the single largest ball, sliced, and searched along its recorded
    # edges gives the same table and the same cap error as enumerating each
    # radius on its own and multiplying every step of the search out
    def outcome(fn, *args):
        try:
            return fn(*args)
        except CapExceeded as exc:
            return (exc.requested_radius, exc.completed_radius, exc.count, exc.cap, str(exc))

    raised = 0
    for m in range(2, 8):
        for radii in ((0, 2, 4, 6), (3, 3, 1), (5,), (6, 2, 4, 0), (8, 2), (9, 1)):
            for cap in (10**6, 1000, 200, 40, 1):
                if max(radii) == 9 and cap == 10**6 and m > 3:
                    # from m = 4 on a complete radius-9 ball passes 20,000
                    # elements, a second or more of oracle search per label
                    continue
                got = outcome(empirical_orbit_growth, m, radii, cap)
                assert got == outcome(per_radius_orbit_growth, m, radii, cap), (m, radii, cap)
                raised += isinstance(got, tuple)
    assert raised > 60


def test_strictly_increasing_helper():
    assert strictly_increasing([(2, 1), (4, 2), (6, 3)])
    assert not strictly_increasing([(2, 1), (4, 1)])
    assert strictly_increasing([])


def test_check_delta_on_the_join():
    checks = check_delta(affine_parts_join().graph, ("a1", "a2", "b1"))
    assert checks.connected
    assert checks.two_dimensional
    assert checks.not_right_angled
    assert checks.rank3
    assert checks.all_ok
    assert asdict(checks) == {
        "connected": True,
        "two_dimensional": True,
        "not_right_angled": True,
        "rank3": True,
    }


def test_check_delta_rejections():
    spherical = DefiningGraph.build(
        ["a", "b", "c"], [("a", "b", 5), ("a", "c", 2), ("b", "c", 3)]
    )
    assert not check_delta(spherical, ("a", "b", "c")).two_dimensional

    raag = DefiningGraph.build(
        ["a", "b", "c"], [("a", "b", 2), ("a", "c", 2), ("b", "c", 2)]
    )
    assert not check_delta(raag, ("a", "b", "c")).not_right_angled

    sparse = DefiningGraph.build(["a", "b", "c"], [("a", "b", 3)])
    checks = check_delta(sparse, ("a", "b", "c"))
    assert not checks.connected and not checks.all_ok


def test_find_witness_ordering():
    edge, s, delta = find_witness(affine_parts_join())
    assert (edge.u, edge.v, edge.label) == ("a1", "a2", 4)
    assert s == "b1"
    assert delta == ("a1", "a2", "b1")

    # the largest label wins over lexicographic position
    edge2, s2, _ = find_witness(tripartite([("a", "b", 3), ("b", "c", 5)]))
    assert (edge2.u, edge2.v, edge2.label) == ("b", "c", 5)
    assert s2 == "a"


def test_full_pipeline_on_the_join():
    verdict = check_acylindricity(affine_parts_join())
    assert verdict.status == "acyl-hyperbolic-via-witness"
    assert verdict.ok
    assert verdict.witness_edge == ("a1", "a2", 4)
    assert verdict.witness_vertex == "b1"
    assert verdict.reasons == ["witness triple satisfies the rank 3 criterion"]
    assert len(verdict.citations) == 2
    assert "Vaskou" in verdict.citations[0]
    assert "cited, not computed" in verdict.citations[1]
    doc = json.loads(cli._json_text(asdict(verdict)))
    assert doc["delta"] == ["a1", "a2", "b1"]


def test_free_product_routes():
    g = DefiningGraph.build(["a", "b"], [])
    verdict = check_acylindricity(Instance(g, SubgraphFamily.build(g, [["a"], ["b"]])))
    assert verdict.status == "acyl-hyperbolic-via-free-product"
    assert verdict.ok
    assert "Minasyan-Osin" in verdict.citations[0]

    # a witness edge in its own component: no third neighbour exists
    g2 = DefiningGraph.build(["a", "b", "c"], [("a", "b", 3)])
    fam2 = SubgraphFamily.build(g2, [["a"], ["b"], ["c"]])
    verdict2 = check_acylindricity(Instance(g2, fam2))
    assert verdict2.status == "acyl-hyperbolic-via-free-product"
    assert "disconnected" in verdict2.reasons[0]


def test_inapplicable_routes():
    g = affine_parts_join().graph
    whole = SubgraphFamily.build(g, [sorted(g.vertices)])
    assert check_acylindricity(Instance(g, whole)).status == "inapplicable"

    two = check_acylindricity(single_interedge())
    assert two.status == "inapplicable"
    assert "three generators" in two.reasons[0]

    flat = check_acylindricity(tripartite([("a", "b", 2), ("a", "c", 2), ("b", "c", 2)]))
    assert flat.status == "inapplicable"
    assert "label 2" in flat.reasons[0]

    gate = check_hypotheses(affine_parts_join())
    assert gate.status == "hypotheses-pass" and gate.ok


def test_witness_checks_failed_on_a_spherical_triple():
    verdict = check_acylindricity(tripartite([("a", "b", 5), ("a", "c", 2), ("b", "c", 3)]))
    assert verdict.status == "witness-checks-failed"
    assert not verdict.ok
    assert verdict.witness_edge == ("a", "b", 5)
    assert verdict.reasons[0] == "the witness triple fails a rank 3 hypothesis"
    assert verdict.delta_checks is not None
    assert not verdict.delta_checks.two_dimensional


def test_witness_reasons_agree_with_ok():
    # a witness verdict rests on the rank 3 checks alone: it gives the one
    # passing reason exactly when it is ok, and no reason cites growth
    insts = [affine_parts_join(), touching_triple_control()]
    insts += [
        tripartite(edges)
        for edges in (
            [("a", "b", 3), ("b", "c", 5)],
            [("a", "b", 2), ("a", "c", 2), ("b", "c", 2)],
            [("a", "b", 5), ("a", "c", 2), ("b", "c", 3)],
        )
    ]
    insts += [random_rel_prime_instance(random.Random(seed)) for seed in range(30)]
    by_status = {}
    for inst in insts:
        verdict = check_acylindricity(inst)
        by_status[verdict.status] = by_status.get(verdict.status, 0) + 1
        assert not any("growth" in r for r in verdict.reasons)
        assert "orbit_growth" not in asdict(verdict)
        if verdict.status in ("acyl-hyperbolic-via-witness", "witness-checks-failed"):
            passing = verdict.reasons == ["witness triple satisfies the rank 3 criterion"]
            assert verdict.ok == passing
    assert by_status["acyl-hyperbolic-via-witness"] > 10
    assert by_status["witness-checks-failed"] == 2
