"""Weighted girth of link graphs and the full certification pipeline.

The 2 pi threshold is 16 units; a link passes when its shortest embedded
cycle is at least that long.
"""
import random
from dataclasses import asdict

import networkx as nx
import pytest

from relartin import girth_checker, link_builder
from relartin.defining_graph import DefiningGraph, GraphError, Instance, SubgraphFamily
from relartin.dihedral_garside import DihedralEngine, FreeEngine, engine_for_part
from relartin.girth_checker import (
    TWO_PI_UNITS,
    certify_link_condition,
    shortest_embedded_cycle,
)
from relartin.link_builder import (
    Development,
    LinkGraph,
    TruncationInfo,
    _develop,
    build_link_empty,
    build_link_single,
    develop_link_interedge,
    develop_link_part,
    edge_rows,
    interedge_development,
    part_development,
)
from relartin.poset_complex import subset_label

from instances import (
    affine_parts_join,
    random_instance,
    random_matching_instance,
    random_rel_prime_instance,
    single_interedge,
    touching_triple_control,
)
from oracles import (
    all_roots_development_girth,
    brute_min_cycle,
    brute_syllable_relations,
    first_root_floor_girth,
    full_depth_bfs_girth,
    independent_certification,
    link_stats,
    per_edge_dijkstra_girth,
    quotient_equal,
    reference_syllable_search,
)


def m_interedge(m: int):
    g = DefiningGraph.build(["a", "b"], [("a", "b", m)])
    return Instance(g, SubgraphFamily.build(g, [["a"], ["b"]]))


RELATOR_NOTE = girth_checker._APPEL_SCHUPP


def relator(m: int) -> tuple[int, ...]:
    """The exponents of prod(a,b;m) prod(b,a;m)^-1, syllable by syllable."""
    return (1,) * m + (-1,) * m


def nondisjoint_entries(inst: Instance) -> list:
    return [e for e in certify_link_condition(inst).entries if "non-disjoint" in e.descriptor]


def m_touching_pair(m: int):
    """Two inter-edges {a,b} and {b,c} of label m sharing b: the
    non-disjoint link of label m."""
    g = DefiningGraph.build(["a", "b", "c"], [("a", "b", m), ("b", "c", m)])
    return Instance(g, SubgraphFamily.build(g, [["b"], ["a", "c"]]))


def finite_link(sides, edges) -> LinkGraph:
    return LinkGraph(
        case="empty",
        descriptor="synthetic",
        vertex_kinds=["x"] * len(sides),
        vertex_labels=[str(i) for i in range(len(sides))],
        sides=list(sides),
        edges=edge_rows(list(edges)),
        truncation=TruncationInfo(complete=True),
    )


def test_two_pi_threshold():
    assert TWO_PI_UNITS == 16


def test_square_links_pass_and_fail_by_one_unit():
    square = [(0, 1, 4), (1, 2, 4), (2, 3, 4), (0, 3, 4)]
    cert = shortest_embedded_cycle(finite_link([0, 1, 0, 1], square))
    assert cert.passes and cert.length_units == 16 and cert.edge_count == 4
    short = [(0, 1, 4), (1, 2, 4), (2, 3, 4), (0, 3, 3)]
    cert = shortest_embedded_cycle(finite_link([0, 1, 0, 1], short))
    assert not cert.passes and cert.length_units == 15


def test_forest_is_acyclic():
    cert = shortest_embedded_cycle(finite_link([0, 1, 0], [(0, 1, 2), (1, 2, 2)]))
    assert cert.passes and cert.length_units is None and cert.note == "acyclic"


def test_empty_link_girth_join():
    link = build_link_empty(affine_parts_join())
    cert = shortest_embedded_cycle(link)
    assert cert.passes
    assert cert.length_units == 16
    assert cert.edge_count == 6
    oracle_len, _ = brute_min_cycle(link.edges)
    assert oracle_len == 16


def test_single_link_girth():
    cert = shortest_embedded_cycle(build_link_single(affine_parts_join(), "a1"))
    assert cert.passes and cert.length_units == 16 and cert.edge_count == 4
    cert2 = shortest_embedded_cycle(build_link_single(single_interedge(), "a"))
    assert cert2.note == "acyclic"


def test_development_girth_known_values():
    # disjoint m=2: 8-edge relation cycle at 2 units each
    inst = m_interedge(2)
    (e,) = inst.inter_edges
    link = develop_link_interedge(inst, e, radius=5, cap=10**5)
    cert = shortest_embedded_cycle(link)
    assert (cert.length_units, cert.edge_count, cert.passes) == (16, 8, True)

    # disjoint m=3: 12 edges at 2 units
    inst = m_interedge(3)
    (e,) = inst.inter_edges
    cert = shortest_embedded_cycle(
        develop_link_interedge(inst, e, radius=7, cap=10**5)
    )
    assert (cert.length_units, cert.edge_count, cert.passes) == (24, 12, True)

    # non-disjoint m=4 from the join: 16 edges at 1 unit, exactly 2 pi
    inst = affine_parts_join()
    e = next(x for x in inst.inter_edges if x[:2] == ("a1", "a2"))
    cert = shortest_embedded_cycle(
        develop_link_interedge(inst, e, radius=9, cap=10**5)
    )
    assert (cert.length_units, cert.edge_count, cert.passes) == (16, 16, True)

    # non-disjoint m=3 from the control: 12 units, under the threshold
    inst = touching_triple_control()
    e = next(x for x in inst.inter_edges if x[:2] == ("a", "b"))
    cert = shortest_embedded_cycle(
        develop_link_interedge(inst, e, radius=24, cap=4000)
    )
    assert (cert.length_units, cert.edge_count, cert.passes) == (12, 12, False)


def test_development_girth_against_oracle():
    for m in (2, 3, 4):
        inst = m_interedge(m)
        (e,) = inst.inter_edges
        link = develop_link_interedge(inst, e, radius=m + 1, cap=10**5)
        cert = shortest_embedded_cycle(link)
        oracle_len, _ = brute_min_cycle(link.edges)
        assert cert.length_units == oracle_len == 8 * m


def test_development_girth_radius_monotone():
    inst = affine_parts_join()
    e = next(x for x in inst.inter_edges if x[:2] == ("b1", "c2"))
    seen = []
    for radius in (2, 4, 6, 9):
        cert = shortest_embedded_cycle(
            develop_link_interedge(inst, e, radius=radius, cap=10**5)
        )
        seen.append(cert.length_units)
    finite = [u for u in seen if u is not None]
    assert finite == sorted(finite, reverse=True)
    assert seen[-1] == 16


def _nx_girth(n, edge_pairs):
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edge_pairs)
    return nx.girth(g)


def test_bfs_girth_matches_full_depth_search_on_random_bipartite_graphs():
    rng = random.Random(20261018)
    cyclic = 0
    for _ in range(400):
        n0, n1 = rng.randint(1, 9), rng.randint(1, 9)
        p = rng.uniform(0.1, 0.7)
        pairs = [
            (i, n0 + j) for i in range(n0) for j in range(n1) if rng.random() < p
        ]
        rng.shuffle(pairs)
        adj = [[] for _ in range(n0 + n1)]
        for i, j in pairs:
            adj[i].append(j)
            adj[j].append(i)
        for roots in (list(range(n0 + n1)), list(range(n0))):
            found = girth_checker._bfs_girth(adj, roots)
            assert found == full_depth_bfs_girth(adj, roots)
            expected = _nx_girth(n0 + n1, pairs)
            assert (found[0] if found else float("inf")) == expected
            if found:
                # a floor at the girth: the first root on a shortest cycle;
                # a floor below it: no cycle
                girth = found[0]
                capped = girth_checker._bfs_girth(adj, roots, girth)
                assert capped == first_root_floor_girth(adj, roots, girth)
                assert capped[0] == girth
                assert girth_checker._bfs_girth(adj, roots, girth - 1) is None
        cyclic += found is not None
    assert cyclic > 100


def test_bfs_girth_rejects_odd_cycles():
    # a link checks its sides when it is built: a triangle has an edge
    # inside one of them, whichever sides it is given
    triangle = [(0, 1, 2), (1, 2, 2), (0, 2, 3)]
    for sides in ([0, 1, 0], [0, 1, 1]):
        with pytest.raises(GraphError, match="inside one side"):
            shortest_embedded_cycle(finite_link(sides, triangle))


def _nx_weighted_girth(link: LinkGraph) -> float:
    """Lightest cycle by networkx: each edge plus the shortest path joining
    its ends without it."""
    g = nx.Graph()
    g.add_nodes_from(range(link.vertex_count))
    g.add_weighted_edges_from(link.edges)
    best = float("inf")
    for i, j, w in link.edges:
        g.remove_edge(i, j)
        try:
            best = min(best, w + nx.dijkstra_path_length(g, i, j))
        except nx.NetworkXNoPath:
            pass
        g.add_edge(i, j, weight=w)
    return best


def test_finite_links_match_networkx_on_random_instances():
    # the empty link and every single link of seeds 0..29; a link of one
    # weight also matches networkx's unweighted girth in edges
    seen = {"empty": 0, "single": 0, "acyclic": 0, "cyclic": 0}
    for seed in range(30):
        inst = random_rel_prime_instance(random.Random(seed))
        links = [build_link_empty(inst)]
        links += [build_link_single(inst, s) for s in sorted(inst.inter_edges_at)]
        for link in links:
            cert = shortest_embedded_cycle(link)
            assert (cert.length_units or float("inf")) == _nx_weighted_girth(link)
            if len({w for _, _, w in link.edges}) == 1:
                pairs = [(i, j) for i, j, _ in link.edges]
                assert (cert.edge_count or float("inf")) == _nx_girth(link.vertex_count, pairs)
            seen[link.case] += 1
            seen["acyclic" if cert.note == "acyclic" else "cyclic"] += 1
    assert seen["empty"] == 30 and min(seen.values()) >= 10, seen


def _fixture_developments():
    """Every part development and one development per inter-edge class of
    both fixtures, at the default radii and cap of ``develop``."""
    for inst in (affine_parts_join(), touching_triple_control()):
        for i, part in enumerate(inst.family.parts):
            if engine_for_part(inst.graph, part) is not None:
                yield develop_link_part(inst, i, radius=16, cap=4000)
        classes = {(e.label, inst.disjoint[e.u, e.v]): e for e in inst.inter_edges}
        for e in classes.values():
            yield develop_link_interedge(inst, e, radius=8 * e.label, cap=4000)


def test_development_girth_matches_full_depth_search_on_fixtures(monkeypatch):
    links = list(_fixture_developments())
    assert len(links) >= 3
    certs = [shortest_embedded_cycle(link) for link in links]
    for link, cert in zip(links, certs):
        if link.vertex_count < 10000:
            pairs = [(i, j) for i, j, _ in link.edges]
            expected = _nx_girth(link.vertex_count, pairs)
            assert (cert.edge_count or float("inf")) == expected
    monkeypatch.setattr(girth_checker, "_bfs_girth", first_root_floor_girth)
    for link, cert in zip(links, certs):
        old = shortest_embedded_cycle(link)
        assert (old.length_units, old.edge_count, old.cycle) == (
            cert.length_units,
            cert.edge_count,
            cert.cycle,
        )


def test_development_search_matches_all_roots_oracle():
    # complete balls that reach the relator cycle, then balls the cap
    # truncates, each generator order, both edge units: the same length
    # and edge count as the dict-based contraction searched from every
    # coset vertex, the witness checked by _verify_cycle.  Forests never
    # reach the search.
    engines = [
        DihedralEngine(*gens, m) for m in range(2, 8) for gens in (("a", "b"), ("b", "a"))
    ] + [FreeEngine(["x", "y"])]
    searched = set()
    for i, eng in enumerate(engines):
        size = eng.m if isinstance(eng, DihedralEngine) else 4
        configs = [(size + 1, 10**5), (8 * size, 1500)]
        if size == 7 and eng.generators[0] == "b":
            # m = 7 closes its first cycle at radius 8, in a development of
            # 25,945 vertices: searched in one generator order only
            configs[0] = (7, 10**5)
        for k, (radius, cap) in enumerate(configs):
            dev = Development(eng, 1 + (i + k) % 2, "inter-edge", "test")
            link = _develop(dev, radius, cap)
            cert = shortest_embedded_cycle(link)
            if cert.note == "acyclic":
                continue
            searched.add((link.truncation.truncated, dev.units))
            edge_count, _ = all_roots_development_girth(link)
            assert (cert.length_units, cert.edge_count) == (
                edge_count * dev.units,
                edge_count,
            ), (eng.generators, radius, cap)
    assert searched == {(False, 1), (False, 2), (True, 1), (True, 2)}


def test_random_weighted_girth_against_oracle():
    rng = random.Random(20260819)
    for _ in range(150):
        n0 = rng.randint(2, 4)
        n1 = rng.randint(2, 4)
        sides = [0] * n0 + [1] * n1
        edges = []
        for i in range(n0):
            for j in range(n1):
                if rng.random() < 0.7:
                    edges.append((i, n0 + j, rng.randint(1, 4)))
        if not edges:
            continue
        link = finite_link(sides, edges)
        cert = shortest_embedded_cycle(link)
        oracle_len, _ = brute_min_cycle(edges)
        if oracle_len == float("inf"):
            assert cert.length_units is None
        else:
            assert cert.length_units == oracle_len


def _random_bipartite_link(rng: random.Random) -> LinkGraph:
    """A random bipartite link, its vertices shuffled so neither side is a
    block of indices: a dense graph or a forest, whose vertices may stay
    isolated, or two such pieces side by side.  The weights come from one pattern: all of
    1..4, the empty link's 2 and 3, only odd or only even units, or one
    value."""
    weights = rng.choice(((1, 2, 3, 4), (2, 3), (1, 3), (2, 4), (rng.randint(1, 4),)))
    sides: list[int] = []
    edges = []
    for _ in range(rng.choice((1, 1, 2))):
        n0, n1 = rng.randint(1, 6), rng.randint(2, 6)
        base = len(sides)
        sides += [0] * n0 + [1] * n1
        left = range(base, base + n0)
        right = range(base + n0, base + n0 + n1)
        if rng.random() < 0.2:
            # a forest: each vertex after the first joins at most once to
            # an earlier vertex of the other side
            order = list(left) + list(right)
            rng.shuffle(order)
            for t, v in enumerate(order[1:], 1):
                earlier = [u for u in order[:t] if sides[u] != sides[v]]
                if earlier and rng.random() < 0.8:
                    edges.append((rng.choice(earlier), v))
        else:
            p = rng.uniform(0.3, 0.9)
            edges += [(i, j) for i in left for j in right if rng.random() < p]
    perm = list(range(len(sides)))
    rng.shuffle(perm)
    shuffled_sides = [0] * len(sides)
    for v, side in enumerate(sides):
        shuffled_sides[perm[v]] = side
    return finite_link(
        shuffled_sides,
        [(perm[i], perm[j], rng.choice(weights)) for i, j in edges],
    )


def test_girth_matches_per_edge_dijkstra_on_random_links():
    rng = random.Random(20261018)
    seen = {"acyclic": 0, "cyclic": 0, "brute": 0}
    for _ in range(400):
        link = _random_bipartite_link(rng)
        cert = shortest_embedded_cycle(link)
        found = per_edge_dijkstra_girth(link.vertex_count, link.edges)
        if found is None:
            assert cert.note == "acyclic" and cert.length_units is None
            seen["acyclic"] += 1
        else:
            assert cert.note == "" and cert.length_units == found[0]
            assert cert.edge_count == len(cert.cycle)
            assert cert.passes == (found[0] >= TWO_PI_UNITS)
            seen["cyclic"] += 1
        if len(link.edges) <= 16:
            oracle_len, _ = brute_min_cycle(link.edges)
            assert (cert.length_units or float("inf")) == oracle_len
            seen["brute"] += 1
    assert min(seen.values()) > 50, seen


def test_certify_join():
    report = certify_link_condition(affine_parts_join())
    assert report.ok
    assert report.failures() == []
    statuses = sorted(e.status for e in report.entries)
    # 1 empty + 8 singles pass completely, both parts pass by the coset
    # lemma in one entry, the single inter-edge class (m = 4) by the
    # relator lemma
    assert statuses == ["PASS-complete"] * 9 + ["PASS-lemma"] * 2
    part_entry = next(e for e in report.entries if e.case == "part")
    assert part_entry.members == ["{a1,b1,c1,d1}", "{a2,b2,c2,d2}"]
    assert part_entry.certificate is None
    assert (part_entry.stats["cosets_needed"], part_entry.stats["units"]) == (4, 2)
    ie_entry = next(e for e in report.entries if e.case == "inter-edge")
    assert len(ie_entry.members) == 16
    assert ie_entry.certificate is None
    assert ie_entry.status == "PASS-lemma"
    assert ie_entry.stats == {"cosets_needed": 8, "units": 1, "note": RELATOR_NOTE}
    assert "Appel-Schupp" in RELATOR_NOTE and "prod(a,b;m) prod(b,a;m)^-1" in RELATOR_NOTE
    doc = asdict(report)
    assert doc["ok"] is True and len(doc["entries"]) == 11


def test_certify_control_fails_on_the_interedge():
    report = certify_link_condition(touching_triple_control())
    assert not report.ok
    bad = report.failures()
    assert [e.case for e in bad] == ["inter-edge"]
    assert bad[0].certificate.length_units == 12
    assert "m=3, non-disjoint" in bad[0].descriptor
    # aba = bab read from 1: a, b, a, b^-1, a^-1, b^-1
    assert bad[0].certificate.cycle == [
        "1", "1.<a>", "a", "a.<b>", "ab", "ab.<a>",
        "D^1", "D^1.<b>", "ba", "ba.<a>", "b", "b.<b>",
    ]
    assert bad[0].stats == {"cosets_needed": 8, "units": 1, "note": RELATOR_NOTE}
    # everything else still passes
    assert all(e.status != "FAIL" for e in report.entries if e.case != "inter-edge")


def test_certify_dedup_flag():
    inst = affine_parts_join()
    merged = certify_link_condition(inst).entries
    split = independent_certification(inst)
    count = lambda entries: sum(e.case == "inter-edge" for e in entries)
    assert count(merged) == 1
    assert count(split) == 16
    assert {e.status for e in split if e.case == "inter-edge"} == {"PASS-within-radius"}


def _assert_entries_match_independent(inst: Instance) -> None:
    """Every member of a non-disjoint label class entry passes or fails as
    its own development at radius 8m and cap 4000 does, and a FAIL has the
    development's length and edge count; the first member has the entry's
    descriptor.  The coset lemma entries list every part and every disjoint
    inter-edge, and only those."""
    report = certify_link_condition(inst)
    alone = {e.members[0]: e for e in independent_certification(inst)}
    lemma = {}
    for entry in report.entries:
        if entry.case in ("empty", "single"):
            continue
        if "non-disjoint" not in entry.descriptor:
            assert entry.status == "PASS-lemma" and entry.certificate is None
            assert entry.stats["cosets_needed"] <= 4
            lemma[entry.descriptor] = entry.members
            continue
        assert entry.descriptor == alone[entry.members[0]].descriptor
        for member in entry.members:
            own = alone.pop(member)
            assert (entry.status == "FAIL") == (own.status == "FAIL"), member
            if entry.status == "FAIL":
                got, want = entry.certificate, own.certificate
                assert (got.length_units, got.edge_count) == (
                    want.length_units,
                    want.edge_count,
                ), member
    assert alone == {}, "a non-disjoint inter-edge is in no label class entry"
    disjoint = [subset_label(e[:2]) for e in inst.inter_edges if inst.disjoint[e.u, e.v]]
    expected = {"links of the part cosets": [subset_label(frozenset(p)) for p in inst.family.parts]}
    if disjoint:
        expected["links of the disjoint inter-edge cosets"] = disjoint
    assert lemma == expected


def _count_developments(monkeypatch) -> list:
    """Record the case and descriptor of every ball development."""
    built = []
    original = link_builder._develop

    def counted(dev, radius, cap):
        built.append((dev.case, dev.descriptor))
        return original(dev, radius, cap)

    monkeypatch.setattr(link_builder, "_develop", counted)
    return built


def test_shared_developments_match_independent_ones(monkeypatch):
    # seed 45 has a label-4 part next to a disjoint and a non-disjoint
    # label-4 inter-edge: one entry per lemma case and one development
    mixed = random_rel_prime_instance(random.Random(45))
    engines = [engine_for_part(mixed.graph, part) for part in mixed.family.parts]
    part_labels = {e.m for e in engines if isinstance(e, DihedralEngine)}
    classes = {(e.label, mixed.disjoint[e.u, e.v]) for e in mixed.inter_edges}
    assert 4 in part_labels and {(4, True), (4, False)} <= classes
    for inst in (affine_parts_join(), touching_triple_control(), mixed):
        _assert_entries_match_independent(inst)

        # certification develops no ball: one relator lemma entry per label
        built = _count_developments(monkeypatch)
        report = certify_link_condition(inst)
        monkeypatch.undo()
        assert built == []
        labels = sorted({e.label for e in inst.inter_edges if not inst.disjoint[e.u, e.v]})
        relator = [e.descriptor for e in report.entries if e.stats.get("note") == RELATOR_NOTE]
        assert [int(d.split("(m=")[1].split(",")[0]) for d in relator] == labels
        assert all("non-disjoint" in d for d in relator)


def test_shared_entries_match_independent_ones_on_random_instances():
    # seeds 0..9 of random_rel_prime_instance: enough to meet non-disjoint
    # classes with several members and disjoint inter-edges next to them
    merged = disjoint = 0
    for seed in range(10):
        inst = random_rel_prime_instance(random.Random(seed))
        nondisjoint = [e for e in inst.inter_edges if not inst.disjoint[e.u, e.v]]
        merged += len({e.label for e in nondisjoint}) < len(nondisjoint)
        disjoint += len(nondisjoint) < len(inst.inter_edges)
        _assert_entries_match_independent(inst)
    assert merged >= 3 and disjoint >= 3


def _lemma_shapes():
    """One development per engine shape: dihedral m = 2..7 and free of
    rank 1..3 with T-corner units 2, then the parts and disjoint
    inter-edges of random_rel_prime_instance seeds 0..29, each at a radius
    that reaches the relator cycle (m + 1, or 5 for a free group)."""
    for m in range(2, 8):
        yield Development(DihedralEngine("a", "b", m), 2, "part", f"m={m}"), m + 1
    for rank in (1, 2, 3):
        yield Development(FreeEngine("xyz"[:rank]), 2, "part", f"rank {rank}"), 5
    seen = set()
    for seed in range(30):
        inst = random_rel_prime_instance(random.Random(seed))
        devs = [
            part_development(inst, i)
            for i, part in enumerate(inst.family.parts)
            if engine_for_part(inst.graph, part)
        ]
        devs += [interedge_development(inst, e) for e in inst.inter_edges if inst.disjoint[e.u, e.v]]
        for dev in devs:
            eng = dev.engine
            shape = (eng.m,) if isinstance(eng, DihedralEngine) else ("free", len(eng.generators))
            if shape not in seen:
                seen.add(shape)
                yield dev, eng.m + 1 if isinstance(eng, DihedralEngine) else 5


def test_lemma_bound_holds_in_developments():
    # the lemma: no cycle through fewer than 4 coset vertices, so none under
    # 8 edges, which is 16 units at the part and disjoint T corner; m = 2
    # (Z^2) meets it exactly
    found = []
    for dev, radius in _lemma_shapes():
        assert dev.units == 2
        cert = shortest_embedded_cycle(_develop(dev, radius, 10**5))
        if cert.note == "acyclic":
            assert isinstance(dev.engine, FreeEngine)
            continue
        assert cert.edge_count >= 8 and cert.length_units >= TWO_PI_UNITS, dev.descriptor
        found.append((dev.descriptor, cert.edge_count))
    assert found[0] == ("m=2", 8)
    assert [d for d, _ in found[:6]] == [f"m={m}" for m in range(2, 8)]
    # the instances add dihedral parts and disjoint inter-edges of their own
    assert len(found) >= 9
    # the non-disjoint T corner of 1 unit needs 8 coset vertices
    with pytest.raises(AssertionError, match="need 8 coset vertices; the lemma gives 4"):
        girth_checker._lemma_entry("inter-edge-nondisjoint", "", [], girth_checker.LEMMA_COSETS, "")


def test_syllable_search_matches_brute_force():
    # every cyclic word of 4 and 6 syllables with 0 < |p| <= N, from either
    # generator: the reference search finds the same fewest syllables and
    # the same trivial words, and the first is the relator of m = 2 or 3
    for n in (1, 2, 3):
        for m in range(2, 8):
            for gens in (("a", "b"), ("b", "a")):
                engine = DihedralEngine(*gens, m)
                searched, hits, words = reference_syllable_search(engine, n, (4, 6))
                want = brute_syllable_relations(engine, n, (4, 6))
                assert ((searched[-1], hits) if hits else None) == want, (n, m, gens)
                assert searched == ([4] if want and want[0] == 4 else [4, 6])
                assert words == sum((2 * n) ** (k // 2) for k in searched)
                if m > 3:
                    assert want is None, (n, m, gens)
                else:
                    assert (want[0], want[1][0]) == (2 * m, relator(m)), (n, m, gens)
    # past the 6 syllables that brute force reaches: the relator is still
    # the first hit, at exactly 2m syllables
    for m in (4, 5):
        for gens in (("a", "b"), ("b", "a")):
            engine = DihedralEngine(*gens, m)
            searched, hits, _ = reference_syllable_search(engine, 3, range(4, 2 * m + 1, 2))
            assert (searched[-1], hits[0]) == (2 * m, relator(m)), (m, gens)


def test_relator_is_the_first_hit_of_the_reference_search():
    # the relator lemma against the reference search over the exponents
    # 0 < |p| <= 8 and 4 or 6 syllables: the relator is the first trivial
    # word for m = 2 and 3, with none from m = 4 on, and the relator entry
    # is a FAIL with that word's cycle, or PASS-lemma
    for m in (*range(2, 13), 20):
        for gens in (("a", "b"), ("b", "a")):
            engine = DihedralEngine(*gens, m)
            searched, hits, _ = reference_syllable_search(engine, 8, (4, 6))
            if m > 3:
                assert (searched, hits) == ([4, 6], []), (m, gens)
            else:
                assert (searched[-1], hits[0]) == (2 * m, relator(m)), (m, gens)
        (entry,) = nondisjoint_entries(m_touching_pair(m))
        if m > 3:
            assert (entry.status, entry.certificate) == ("PASS-lemma", None), m
        else:
            assert entry.status == "FAIL", m
            cycle = girth_checker._relation_cycle(DihedralEngine("a", "b", m), hits[0])
            assert entry.certificate.cycle == cycle, m


def test_finite_entries_match_the_full_depth_search(monkeypatch):
    # the empty link against the reference rule: each root searched alone
    # by the reference search, in root order, the first whose cycle is 2pi
    # and runs through it giving the witness, and PASS-lemma, its exact
    # girth above 2pi, when none does; the single links, read off in closed
    # form, against each built link searched from every root.  The same
    # entry, field for field
    instances = [random_rel_prime_instance(random.Random(seed)) for seed in range(30)]
    instances += [affine_parts_join(), touching_triple_control()]
    # a vertex of a 2-vertex part joined to 5, 6 and 7 singleton parts: 6,
    # 7 and 8 vertices above it, on either side of the 7 drawn powers
    for spokes in (5, 6, 7):
        leaves = [f"x{i}" for i in range(spokes)]
        g = DefiningGraph.build(["s", "t", *leaves], [("s", "t", 2)] + [("s", x, 4) for x in leaves])
        instances.append(Instance(g, SubgraphFamily.build(g, [["s", "t"]] + [[x] for x in leaves])))
    got = [
        [e for e in certify_link_condition(inst).entries if e.case in ("empty", "single")]
        for inst in instances
    ]
    monkeypatch.setattr(girth_checker, "_bfs_girth", first_root_floor_girth)
    seen = set()
    for inst, entries in zip(instances, got):
        empty = build_link_empty(inst)
        cert = shortest_embedded_cycle(empty, TWO_PI_UNITS)
        if cert is None:
            assert shortest_embedded_cycle(empty).length_units > TWO_PI_UNITS
            status = "PASS-lemma"
        else:
            assert cert.length_units in (None, TWO_PI_UNITS)
            status = girth_checker._status(cert)
        want = [
            girth_checker.LinkCertificate(
                empty.case, empty.descriptor, status, cert, ["[1]"], link_stats(empty)
            )
        ]
        seen.add(("empty", cert.note if cert else "lemma"))
        for s in sorted(inst.inter_edges_at):
            link = build_link_single(inst, s)
            cert = shortest_embedded_cycle(link)
            want.append(
                girth_checker.LinkCertificate(
                    link.case,
                    link.descriptor,
                    girth_checker._status(cert),
                    cert,
                    [s],
                    link_stats(link),
                )
            )
            seen.add((link.case, cert.note))
        assert entries == want
    assert seen == {("empty", "lemma")} | {
        (case, note) for case in ("empty", "single") for note in ("", "acyclic")
    }


# each witness the empty entry spells, as the position of its root and the
# kinds along it: s for a singleton, p for a part, i for an inter-edge
EMPTY_WITNESS_SHAPES = {
    (2, "sispsi"),  # A at a singleton x of the part, the part first
    (3, "ispsis"),  # A at such a singleton, its inter-edge first
    (2, "sisisp"),  # A at y, the inter-edges' common vertex
    (2, "isisps"),  # A at an inter-edge, the part at its first vertex
    (3, "spsisi"),  # A at an inter-edge, the part at its second vertex
    (2, "ispsis"),  # A at the part
    (3, "psispsis"),  # B at a singleton, its part first
    (3, "ispsisps"),  # B at a singleton, its inter-edge first
    (3, "spsispsi"),  # B at an inter-edge
    (3, "sispsisp"),  # B at a part
}


def _crafted_empty_links() -> list[Instance]:
    """Empty links with chosen 2pi cycles: a part on a shape-A and a
    shape-B group, each in turn holding the least vertex; fans of three
    and four spokes into one part, their centre the least vertex or the
    greatest, so that the root is the hub (the midpoint at a vertex) or a
    spoke (the midpoint inside an edge); and a two-vertex part as hub.
    Four edgeless one-vertex parts put the roots on the singleton side,
    and three edges between one-vertex parts on the upper side."""
    both = [["p1", "p2", "p3", "p4"], ["q1", "q2"], ["y"]]
    shapes = [
        (both, [("p1", "y"), ("p2", "y"), ("p3", "q1"), ("p4", "q2")]),
        (both, [("p3", "y"), ("p4", "y"), ("p1", "q1"), ("p2", "q2")]),
        ([["a1", "a2"], ["y"]], [("a1", "y"), ("a2", "y")]),
        ([["a1", "a2"], ["b1", "b2"]], [("a1", "b2"), ("a2", "b1")]),
    ]
    for k in (3, 4):
        spokes = [f"b{i}" for i in range(k)]
        shapes += [([[y], spokes], [(y, b) for b in spokes]) for y in ("a", "z")]
    ends = [(f"e{i}a", f"e{i}b") for i in range(3)]
    pads = [([[f"o{i}"] for i in range(4)], []), ([[v] for e in ends for v in e], ends)]
    out = []
    for parts, pairs in shapes:
        for more_parts, more_pairs in pads:
            family = parts + more_parts
            g = DefiningGraph.build(
                [v for part in family for v in part], [(u, v, 4) for u, v in pairs + more_pairs]
            )
            out.append(Instance(g, SubgraphFamily.build(g, family)))
    return out


def test_empty_entry_matches_the_search_of_the_built_link():
    # the closed-form entry of the empty link against the built link and
    # its search floored at 2pi, field for field, on forests, links with
    # no 2pi cycle and every witness shape, with roots on either side
    instances = [random_rel_prime_instance(random.Random(seed)) for seed in range(300)]
    instances += [random_instance(random.Random(seed)) for seed in range(100)]
    instances += [random_matching_instance(random.Random(seed)) for seed in range(300)]
    instances += _crafted_empty_links()
    seen = set()
    for inst in instances:
        link = build_link_empty(inst)
        cert = shortest_embedded_cycle(link, TWO_PI_UNITS)
        status = "PASS-lemma" if cert is None else girth_checker._status(cert)
        stats = link_stats(link)
        want = girth_checker.LinkCertificate("empty", link.descriptor, status, cert, ["[1]"], stats)
        assert girth_checker._empty_entry(inst) == want
        if cert is None or not cert.cycle:
            seen.add(status if cert is None else cert.note)
            continue
        index = {label: i for i, label in enumerate(link.vertex_labels)}
        cycle = [index[label] for label in cert.cycle]
        # the roots are the smaller side, and the root a witness runs
        # through is its first vertex there
        side = int(2 * link.sides.count(0) > link.vertex_count)
        root = min(v for v in cycle if link.sides[v] == side)
        kinds = "".join(link.vertex_kinds[v][0] for v in cycle)
        seen.add((cycle.index(root), kinds))
    assert seen == EMPTY_WITNESS_SHAPES | {"acyclic", "PASS-lemma"}


def test_every_hit_in_the_window_is_a_checked_cycle():
    # at N = 8: 256 commutators for m = 2 at 4 syllables and 90 words for
    # m = 3 at 6, each found by the reference search, read as a simple cycle
    # and checked, and each trivial in the central quotient, which shares
    # no code with the engine
    for m, (k, count) in ((2, (4, 256)), (3, (6, 90))):
        engine = DihedralEngine("a", "b", m)
        searched, hits, _ = reference_syllable_search(engine, 8, (4, 6))
        assert (searched[-1], len(hits), len(set(hits))) == (k, count, count)
        for word in hits:
            assert len(girth_checker._relation_cycle(engine, word)) == 2 * k
            spelled = [("ab"[i % 2], p // abs(p)) for i, p in enumerate(word) for _ in range(abs(p))]
            assert quotient_equal(m, spelled, []), (m, word)


def test_relator_lemma_agrees_with_developments():
    # criterion 03's 4m-edge girth, at 1 unit per edge: the development at
    # radius 8m and cap 4000 and the relator lemma fail at 8 units for
    # m = 2 and at 12 for m = 3, and both pass from m = 4 on
    expected = {2: ("FAIL", 8), 3: ("FAIL", 12), 4: ("PASS-lemma", None)}
    for m in range(2, 6):
        inst = m_touching_pair(m)
        (entry,) = nondisjoint_entries(inst)
        cert = entry.certificate
        got = (entry.status, cert and cert.length_units)
        assert got == expected.get(m, expected[4]), m
        if cert:
            assert cert.edge_count == len(cert.cycle) == len(set(cert.cycle)) == cert.length_units
            assert cert.edge_count == 4 * m
        dev = shortest_embedded_cycle(
            develop_link_interedge(inst, inst.inter_edges[0], radius=8 * m, cap=4000)
        )
        assert dev.passes == (entry.status != "FAIL"), m
        assert dev.edge_count == 4 * m or (m > 4 and dev.edge_count is None), m
        if cert:
            assert (dev.length_units, dev.edge_count) == (cert.length_units, cert.edge_count)


def test_relation_witness_is_checked():
    engine = DihedralEngine("a", "b", 3)
    cycle = girth_checker._relation_cycle(engine, (1, 1, 1, -1, -1, -1))
    assert len(cycle) == 12
    with pytest.raises(AssertionError, match="not trivial"):
        girth_checker._relation_cycle(engine, (1, 1, 1, -1, -1, -2))
    # m = 2: a b a^-1 b^-1 twice is trivial but passes every vertex twice
    with pytest.raises(AssertionError, match="repeats a vertex"):
        girth_checker._relation_cycle(DihedralEngine("a", "b", 2), (1, 1, -1, -1) * 2)
