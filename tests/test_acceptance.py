"""Acceptance suite: ten criteria, one test per criterion.

Each test prints one "criterion NN: PASS" line on success; a failed
criterion fails its test.  All length arithmetic is exact integer units
(zero tolerance); the only float tolerance is the 1e-9 eigenvalue cutoff
of the cosine-matrix oracle in criterion 6.
"""
import itertools
import json
import random
import time

from relartin import cli, coxeter
from relartin.defining_graph import (
    DefiningGraph,
    Instance,
    SubgraphFamily,
    check_rel,
    check_rel_prime,
    classify_known,
)
from relartin.dihedral_garside import DihedralEngine
from relartin.girth_checker import certify_link_condition, shortest_embedded_cycle
from relartin.kpi1_checker import verify_no_large_crossing_spherical
from relartin.link_builder import develop_link_interedge, develop_link_part
from relartin.acyl_checker import empirical_orbit_growth
from relartin.poset_complex import build_S_bar, retraction_map

from instances import (
    affine_parts_join,
    random_rel_prime_instance,
    single_interedge,
    touching_triple_control,
)
from oracles import definiteness_oracle, rewriting_classes, string_to_word, strictly_increasing

_RNG = random.Random(20260819)
RANDOM_INSTANCES = [random_rel_prime_instance(_RNG) for _ in range(6)]


def test_criterion_01_join_end_to_end(capsys):
    t0 = time.monotonic()
    inst = affine_parts_join()
    assert check_rel(inst).ok and check_rel_prime(inst).ok
    report = classify_known(inst.graph, inst.graph.vertices, inst.spherical)
    assert not report.spherical_type
    assert not report.affine_type
    assert not report.two_dimensional
    assert not report.fc_type

    fixture = "fixtures/affine_parts_join.json"
    assert cli.main(["kpi1", "--input", fixture, "--format", "json"]) == 0
    kpi_doc = json.loads(capsys.readouterr().out)
    assert kpi_doc["status"] == "holds, parts affine"
    assert cli.main(["acyl", "--input", fixture, "--format", "json"]) == 0
    acyl_doc = json.loads(capsys.readouterr().out)
    assert acyl_doc["status"] == "acyl-hyperbolic-via-witness" and acyl_doc["ok"]
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    print(f"criterion 01: PASS - join fixture end-to-end in {elapsed:.1f}s")


def test_criterion_02_link_certification():
    cases = [affine_parts_join()] + RANDOM_INSTANCES
    assert len(RANDOM_INSTANCES) >= 5
    for inst in cases:
        report = certify_link_condition(inst)
        assert report.failures() == []
        for entry in report.entries:
            assert entry.status in (
                "PASS-complete",
                "PASS-within-radius",
                "PASS-lemma",
            )
            if entry.certificate is not None and entry.certificate.length_units is not None:
                assert isinstance(entry.certificate.length_units, int)
                assert entry.certificate.length_units >= 16
    print(
        f"criterion 02: PASS - no short cycle in any link of "
        f"{len(cases)} instances (exact integer units)"
    )


def test_criterion_03_dihedral_cycle_bound():
    for m in (2, 3, 4, 5):
        t0 = time.monotonic()
        inst = single_interedge(m)
        (e,) = inst.inter_edges
        link = develop_link_interedge(inst, e, radius=8 * m, cap=4000)
        cert = shortest_embedded_cycle(link)
        assert cert.edge_count is not None and cert.edge_count >= 4 * m
        if m == 2:
            # Case 3a: disjoint inter-edge, 2 units per edge
            assert cert.edge_count == 4 * m and cert.length_units == 16
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0
    join = affine_parts_join()
    e = next(x for x in join.inter_edges if x.pair == frozenset(("a1", "a2")))
    link = develop_link_interedge(join, e, radius=32, cap=4000)
    cert = shortest_embedded_cycle(link)
    # Case 3b: touching inter-edge with m=4, 1 unit per edge
    assert cert.edge_count == 16 and cert.length_units == 16
    print("criterion 03: PASS - 4m edge bound for m in 2..5, exact at m=2 and m=4")


def test_criterion_04_part_development_bound():
    t0 = time.monotonic()
    g = DefiningGraph.build(
        ["x", "y", "z"], [("x", "y", 3), ("x", "z", 4), ("y", "z", 4)]
    )
    inst = Instance(g, SubgraphFamily.build(g, [["x", "y"], ["z"]]))
    link = develop_link_part(inst, 0, radius=16, cap=4000)
    cert = shortest_embedded_cycle(link)
    assert cert.edge_count is not None and cert.edge_count >= 8
    assert cert.passes
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(
        f"criterion 04: PASS - m=3 part development has no cycle under "
        f"8 edges (min {cert.edge_count}) in {elapsed:.1f}s"
    )


def test_criterion_05_negative_control():
    report = certify_link_condition(touching_triple_control())
    assert not report.ok
    bad = report.failures()
    assert len(bad) == 1 and bad[0].case == "inter-edge"
    cert = bad[0].certificate
    assert cert.length_units == 12 and cert.length_units < 16
    assert cert.edge_count == 12
    assert len(cert.cycle) == 12 and len(set(cert.cycle)) == 12
    print("criterion 05: PASS - touching m=3 control fails at 12 units with witness")


def _connected_edge_sets(n):
    verts = list(range(n))
    all_pairs = list(itertools.combinations(verts, 2))
    for bits in range(1 << len(all_pairs)):
        chosen = [all_pairs[i] for i in range(len(all_pairs)) if bits >> i & 1]
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in chosen:
            parent[find(u)] = find(v)
        if len({find(v) for v in verts}) == 1:
            yield chosen


def test_criterion_06_coxeter_cross_validation():
    t0 = time.monotonic()
    labels = (2, 3, 4, 5, 6)
    checked = 0
    for n in range(1, 5):
        verts = [f"v{i}" for i in range(n)]
        for pairs in _connected_edge_sets(n):
            for assignment in itertools.product(labels, repeat=len(pairs)):
                edges = [
                    (verts[u], verts[v], m) for (u, v), m in zip(pairs, assignment)
                ]
                g = DefiningGraph.build(verts, edges)
                table = coxeter.classify_type(g, verts).kind
                oracle = definiteness_oracle(g, verts).classification
                assert table == oracle, (edges, table, oracle)
                checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    print(
        f"criterion 06: PASS - table matches eigenvalue oracle on "
        f"{checked} connected graphs in {elapsed:.1f}s"
    )


def test_criterion_07_no_crossing_spherical():
    for inst in [affine_parts_join()] + RANDOM_INSTANCES:
        verdict = verify_no_large_crossing_spherical(inst)
        assert verdict.ok and verdict.witnesses == []
    control = touching_triple_control()
    bad = verify_no_large_crossing_spherical(control)
    assert not bad.ok
    assert any(len(w) == 3 for w in bad.witnesses)
    print(
        f"criterion 07: PASS - crossing check on {1 + len(RANDOM_INSTANCES)} "
        f"instances, control caught"
    )


def _all_letter_words(max_len):
    out = [""]
    frontier = [""]
    for _ in range(max_len):
        frontier = [w + c for w in frontier for c in "aAbB"]
        out += frontier
    return out


def test_criterion_08_dihedral_oracle_equivalence():
    words = _all_letter_words(6)
    # the closure never merges distinct elements, so agreement at a finite
    # pad settles agreement with the unbounded closure; pad 10 is the
    # smallest that converges on length <= 6 words for m = 4, 5
    closures = rewriting_classes((2, 3, 4, 5), pad=10, words=words)
    for m in (2, 3, 4, 5):
        ctx = DihedralEngine("a", "b", m)
        classes = closures[m]
        by_nf: dict = {}
        by_rewrite: dict = {}
        for w in words:
            by_nf.setdefault(ctx.mult_word(ctx.identity, string_to_word(w)), set()).add(w)
            by_rewrite.setdefault(classes[w], set()).add(w)
        partition_nf = {frozenset(c) for c in by_nf.values()}
        partition_rw = {frozenset(c) for c in by_rewrite.values()}
        assert partition_nf == partition_rw

        # the generator a is not any product of b letters, up to length 8
        nf_a = ctx.mult_word(ctx.identity, string_to_word("a"))
        for k in range(-8, 9):
            b_word = [("b", 1 if k > 0 else -1)] * abs(k)
            assert ctx.mult_word(ctx.identity, b_word) != nf_a
    print(
        "criterion 08: PASS - normal form matches rewriting closure on all "
        "words of length <= 6 for m in 2..5"
    )


def test_criterion_09_retraction():
    inst = affine_parts_join()
    report = retraction_map(build_S_bar(inst), inst.s_ell, inst.family)
    assert report.total_maximal_chains == 80
    assert report.failures == []
    assert report.lands_in_s_ell
    assert report.identity_on_s_ell
    assert report.idempotent
    assert report.face_compatible
    print("criterion 09: PASS - retraction total on 80 chains, identity, idempotent")


def test_criterion_10_orbit_growth():
    for m in (3, 4):
        rows = empirical_orbit_growth(m, radii=(2, 4, 6, 8))
        assert strictly_increasing(rows), (m, rows)
    print("criterion 10: PASS - syllable growth strictly increasing for m in {3,4}")
