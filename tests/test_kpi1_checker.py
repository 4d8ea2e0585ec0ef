"""Family audit, crossing check, and the assembled asphericity verdict."""
import random
from dataclasses import fields

from relartin.defining_graph import DefiningGraph, Instance, SubgraphFamily
from relartin.girth_checker import CertificationReport, LinkCertificate
from relartin.kpi1_checker import (
    audit_family,
    kpi1_verdict,
    verify_no_large_crossing_spherical,
)
from relartin.poset_complex import SubsetPoset, build_S_bar

from instances import (
    affine_parts_join,
    random_rel_prime_instance,
    single_interedge,
    touching_triple_control,
    with_strays,
)
from oracles import scan_audit_family


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
    audit = audit_family(build_S_bar(inst), inst)
    assert audit.condition1_ok and audit.condition1_witness is None
    assert audit.condition3_ok and audit.condition3_witness is None
    assert audit.overall == "pass"
    assert [(p.provenance, p.which) for p in audit.parts] == [
        ("known-class", "affine")
    ] * 2


def test_audit_family_reports_witnesses():
    inst = single_interedge()
    poset = SubsetPoset.from_tagged(
        [(frozenset(), "empty"), (frozenset("ab"), "inter-edge")]
    )
    audit = audit_family(poset, inst)
    assert not audit.condition1_ok
    assert audit.condition1_witness == (frozenset("a"), frozenset("ab"))
    assert not audit.condition3_ok
    assert audit.condition3_witness == frozenset("a")
    assert audit.overall == "fail"


def test_audit_family_matches_subset_scan():
    # closure under one-vertex deletions, with the failing element's subsets
    # scanned for the witness, against a scan of every subset of every element
    join = affine_parts_join()
    cases = [(build_S_bar(inst), inst) for inst in (join, touching_triple_control())]
    cases += [(poset, join) for poset in with_strays(join)]
    cases += [
        (build_S_bar(inst), inst)
        for inst in (random_rel_prime_instance(random.Random(seed)) for seed in range(30))
    ]
    # {a1,b1,c1} keeps all three of its pairs but lacks {a1}, two levels
    # down; the first element missing a subset is then the pair {a1,b1}
    kept = ((), ("b1",), ("c1",), ("a1", "b1"), ("a1", "c1"), ("b1", "c1"), ("a1", "b1", "c1"))
    lacking = SubsetPoset.from_tagged((frozenset(t), "x") for t in kept)
    cases.append((lacking, join))
    failing = 0
    for s_bar, inst in cases:
        audit = audit_family(s_bar, inst)
        assert audit == scan_audit_family(s_bar, inst)
        failing += not audit.condition1_ok
    # the stray posets are S^l plus a triple, so they lack its pairs
    assert failing == 3
    assert audit.condition1_witness == (frozenset(("a1",)), frozenset(("a1", "b1")))


def test_crossing_check():
    inst = affine_parts_join()
    verdict = verify_no_large_crossing_spherical(inst)
    assert verdict.ok and verdict.checked == 45 and verdict.witnesses == []

    control = touching_triple_control()
    bad = verify_no_large_crossing_spherical(control)
    assert not bad.ok
    assert bad.witnesses == [frozenset(("a", "b", "c"))]
    assert bad.checked == 8


def test_kpi1_holds_on_the_join():
    verdict = kpi1_verdict(affine_parts_join())
    assert verdict.applicable and verdict.holds
    assert verdict.status == "holds, parts affine"
    machine = [e for e in verdict.evidence if e["kind"] == "machine"]
    citations = [e for e in verdict.evidence if e["kind"] == "citation"]
    assert len(machine) == 6 and all(e["ok"] for e in machine)
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
