"""Family audit, crossing check, and the assembled asphericity verdict."""
from dataclasses import fields

from relartin.defining_graph import DefiningGraph, Instance, SubgraphFamily, check_rel_prime
from relartin.girth_checker import CertificationReport, LinkCertificate
from relartin.kpi1_checker import (
    audit_family,
    kpi1_verdict,
    verify_no_large_crossing_spherical,
)
from relartin.poset_complex import SubsetPoset, build_S_bar, subset_sort_key

from instances import (
    affine_parts_join,
    lemma_instances,
    single_interedge,
    touching_triple_control,
)
from oracles import enumerated_crossing_spherical, scan_audit_family


def unknown_part_instance():
    # the 4-vertex part carries a spherical triangle and a non-spherical
    # 4-clique, so it lands in none of the recognized classes
    g = DefiningGraph.build(
        ["p", "q", "r", "s", "t"],
        [
            ("p", "q", 3),
            ("q", "r", 3),
            ("r", "s", 3),
            ("p", "s", 3),
            ("q", "s", 3),
            ("p", "r", 2),
            ("t", "p", 4),
            ("t", "q", 4),
            ("t", "r", 4),
            ("t", "s", 4),
        ],
    )
    return Instance(g, SubgraphFamily.build(g, [["p", "q", "r", "s"], ["t"]]))


def test_audit_family_passes_on_the_join():
    inst = affine_parts_join()
    audit = audit_family(inst)
    assert audit.overall == "pass"
    assert [(p.provenance, p.which) for p in audit.parts] == [
        ("known-class", "affine")
    ] * 2
    scan = scan_audit_family(build_S_bar(inst), inst)
    assert scan.condition1_ok and scan.condition3_ok


def test_audit_family_reports_witnesses():
    # the scan names the first missing subset and the first spherical
    # subset outside the family
    inst = single_interedge()
    poset = SubsetPoset.from_tagged(
        [(frozenset(), "empty"), (frozenset("ab"), "inter-edge")]
    )
    audit = scan_audit_family(poset, inst)
    assert not audit.condition1_ok
    assert audit.condition1_witness == (frozenset("a"), frozenset("ab"))
    assert not audit.condition3_ok
    assert audit.condition3_witness == frozenset("a")


def test_audit_family_matches_subset_scan():
    # the completeness lemma: S_bar is closed under subsets on every
    # instance, and holds every spherical subset wherever REL' holds
    rel_prime = 0
    for inst in lemma_instances():
        scan = scan_audit_family(build_S_bar(inst), inst)
        assert scan.condition1_ok, inst.graph.edges
        if check_rel_prime(inst).ok:
            rel_prime += 1
            assert scan.condition3_ok, inst.graph.edges
    assert 350 < rel_prime < 618


def test_crossing_check():
    # the crossing lemma: under REL' the spherical subsets that cross parts
    # are exactly the inter-edges, and the check is REL' itself
    holds = 0
    for inst in lemma_instances():
        ok = verify_no_large_crossing_spherical(inst)
        assert ok == check_rel_prime(inst).ok
        if ok:
            holds += 1
            pairs = sorted((frozenset(e[:2]) for e in inst.inter_edges), key=subset_sort_key)
            assert enumerated_crossing_spherical(inst) == pairs, inst.graph.edges
    assert 350 < holds < 618

    # without REL' a larger crossing subset can be spherical: the control's
    # labels 3, 3, 2 make {a, b, c} an A3
    control = touching_triple_control()
    assert not verify_no_large_crossing_spherical(control)
    crossing = enumerated_crossing_spherical(control)
    assert [t for t in crossing if len(t) > 2] == [frozenset(("a", "b", "c"))]
    assert len(control.spherical) == 8


def test_kpi1_holds_on_the_join():
    verdict = kpi1_verdict(affine_parts_join())
    assert verdict.applicable and verdict.holds
    assert verdict.status == "holds, parts affine"
    machine = [e for e in verdict.evidence if e["kind"] == "machine"]
    lemmas = [e for e in verdict.evidence if e["kind"] == "lemma"]
    citations = [e for e in verdict.evidence if e["kind"] == "citation"]
    assert len(machine) == 2 and all(e["ok"] for e in machine)
    assert len(lemmas) == 4 and all(e["ok"] for e in lemmas)
    assert len(citations) == 4
    cited = " ".join(e["detail"] for e in citations)
    assert "Godelle-Paris" in cited and "Cartan-Hadamard" in cited and "van der Lek" in cited
    assert "Appel-Schupp" in cited
    assert verdict.certification is not None and verdict.certification.ok
    # the report's keys, in text order
    assert [f.name for f in fields(verdict)] == [
        "applicable", "holds", "status", "evidence", "certification"
    ]


def test_kpi1_inapplicable_on_the_control():
    verdict = kpi1_verdict(touching_triple_control())
    assert not verdict.applicable and not verdict.holds
    assert verdict.status == "inapplicable: inter-edge label condition fails"
    assert len(verdict.evidence) == 1
    assert sorted(verdict.evidence[0]["detail"]) == ["a-b (m=3)", "b-c (m=3)"]
    assert verdict.certification is None


def test_kpi1_pending_parts():
    inst = unknown_part_instance()
    verdict = kpi1_verdict(inst)
    assert verdict.holds
    assert verdict.status == "reduction established, per-part status pending"
    family = next(e for e in verdict.evidence if e["check"].startswith("family completeness"))
    assert family["ok"]
    assert [(p["provenance"], p["class"]) for p in family["detail"]["parts"]] == [
        ("unknown", None),
        ("known-class", "spherical"),
    ]


def test_kpi1_spherical_parts():
    g = DefiningGraph.build(
        ["a", "b", "c", "d"],
        [
            ("a", "b", 3),
            ("c", "d", 3),
            ("a", "c", 4),
            ("a", "d", 4),
            ("b", "c", 4),
            ("b", "d", 4),
        ],
    )
    verdict = kpi1_verdict(Instance(g, SubgraphFamily.build(g, [["a", "b"], ["c", "d"]])))
    assert verdict.holds and verdict.status == "holds, parts spherical"


def test_kpi1_reports_machine_failure(monkeypatch):
    # the aggregation path for a failing machine check, driven by a stubbed
    # certification since valid instances never produce one
    stub = CertificationReport(
        ok=False,
        entries=[
            LinkCertificate(
                case="inter-edge",
                descriptor="stub",
                status="FAIL",
                certificate=None,
                members=[],
                stats={},
            )
        ],
    )
    monkeypatch.setattr(
        "relartin.kpi1_checker.certify_link_condition", lambda *a, **k: stub
    )
    verdict = kpi1_verdict(affine_parts_join())
    assert verdict.applicable and not verdict.holds
    assert verdict.status == "failed: a machine check did not pass"
    link_evidence = next(
        e for e in verdict.evidence if "link condition" in e["check"]
    )
    assert not link_evidence["ok"]
    assert link_evidence["detail"]["failures"] == ["stub"]
