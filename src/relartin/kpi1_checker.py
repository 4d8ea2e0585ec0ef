"""Audit of the complete-family conditions and the asphericity reduction.

The reduction rests on the family S_bar being complete: (1) closed under
subsets, (2) every member generating an aspherical system, (3) containing
every subset with finite Coxeter quotient.  Conditions (1) and (3) are
decided here by enumeration.  Condition (2) is undecidable in general, so
each part carries a provenance tag: known-class when the part's defining
graph lies in a class with settled asphericity (spherical, affine,
2-dimensional, FC), unknown otherwise.  The final verdict never claims more
than the weakest tag.

The enumeration behind condition (3) also checks the structural fact that
makes S_bar complete under the inter-edge label conditions: a subset with
finite quotient that crosses parts can only be a single inter-edge.  Both
read the instance's one list of spherical subsets, grouped by part.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

from .defining_graph import Instance, check_rel_prime, classify_known
from .girth_checker import CertificationReport, certify_link_condition
from .poset_complex import (
    SubsetPoset,
    build_S_bar,
    check_two_dimensional,
    retraction_map,
    subset_label,
)


@dataclass
class PartStatus:
    index: int
    vertices: tuple[str, ...]
    provenance: str  # known-class | unknown
    which: str | None


@dataclass
class FamilyAudit:
    condition1_ok: bool
    condition1_witness: tuple[frozenset, frozenset] | None
    condition3_ok: bool
    condition3_witness: frozenset | None
    parts: list[PartStatus]

    @property
    def overall(self) -> str:
        if not (self.condition1_ok and self.condition3_ok):
            return "fail"
        if all(p.provenance == "known-class" for p in self.parts):
            return "pass"
        return "conditional"


def _part_status(inst: Instance, i: int) -> PartStatus:
    part = inst.family.parts[i]
    report = classify_known(inst.graph, part, inst.spherical_groups[0][i])
    for which, flag in (
        ("spherical", report.spherical_type),
        ("affine", report.affine_type),
        ("2-dimensional", report.two_dimensional),
        ("FC", report.fc_type),
    ):
        if flag:
            return PartStatus(index=i, vertices=part, provenance="known-class", which=which)
    return PartStatus(index=i, vertices=part, provenance="unknown", which=None)


def audit_family(s_bar: SubsetPoset, inst: Instance) -> FamilyAudit:
    """Check subset closure of S_bar and that it covers the graph's
    spherical subsets, and tag parts.

    A family is closed under subsets exactly when it is closed under
    removing one vertex.  The first element with a missing subset s is also
    the first with a missing one-vertex deletion: were t - v present for
    some v outside s, it would be an earlier element missing s.  So only
    that element's subsets are scanned, for the first missing one in mask
    order.
    """
    cond1_witness = None
    for t in s_bar.elements:
        if all(t - {v} in s_bar for v in t):
            continue
        members = sorted(t)
        for mask in range(1 << len(members)):
            sub = frozenset(m for i, m in enumerate(members) if mask >> i & 1)
            if sub not in s_bar:
                cond1_witness = (sub, t)
                break
        break

    cond3_witness = None
    for t in inst.spherical:
        if t not in s_bar:
            cond3_witness = t
            break

    parts = [_part_status(inst, i) for i in range(len(inst.family.parts))]
    return FamilyAudit(
        condition1_ok=cond1_witness is None,
        condition1_witness=cond1_witness,
        condition3_ok=cond3_witness is None,
        condition3_witness=cond3_witness,
        parts=parts,
    )


@dataclass
class CrossingVerdict:
    ok: bool
    witnesses: list[frozenset]
    checked: int


def verify_no_large_crossing_spherical(inst: Instance) -> CrossingVerdict:
    """Every subset with finite Coxeter quotient that is not inside a single
    part must be a subset of a defining edge.

    Holds for every valid instance of the inter-edge label conditions; a
    violating instance is reported with the crossing subsets as witnesses.
    A spherical subset is a clique, so only those of more than two vertices
    can be witnesses.
    """
    _, crossing = inst.spherical_groups
    witnesses = [t for t in crossing if len(t) > 2]
    return CrossingVerdict(ok=not witnesses, witnesses=witnesses, checked=len(inst.spherical))


@dataclass
class Kpi1Verdict:
    applicable: bool
    holds: bool
    status_line: str
    evidence: list[dict]
    certification: CertificationReport | None
    audit: FamilyAudit | None

    def to_json_dict(self) -> dict:
        return {
            "applicable": self.applicable,
            "holds": self.holds,
            "status": self.status_line,
            "evidence": self.evidence,
            "certification": asdict(self.certification) if self.certification else None,
        }


def kpi1_verdict(inst: Instance) -> Kpi1Verdict:
    """Assemble the asphericity reduction from its machine-checkable pieces.

    The verdict "holds" means: the inter-edge label condition is satisfied,
    the fundamental-domain complex is 2-dimensional with a consistent
    metric, every computed link certificate passes, the family audit
    passes, and the retraction is well defined.  The conclusion transfers
    asphericity from the parts; per-part status is reported with its
    provenance and every imported theorem is listed as a citation, never
    silently assumed.
    """
    evidence: list[dict] = []
    rel = check_rel_prime(inst)
    evidence.append(
        {
            "check": "inter-edge label condition (non-isolated >= 4)",
            "kind": "machine",
            "ok": rel.ok,
            "detail": [f"{e.u}-{e.v} (m={e.label})" for e in rel.violations],
        }
    )
    if not rel.ok:
        return Kpi1Verdict(
            applicable=False,
            holds=False,
            status_line="inapplicable: inter-edge label condition fails",
            evidence=evidence,
            certification=None,
            audit=None,
        )

    cert = certify_link_condition(inst)
    dim = check_two_dimensional(inst.s_ell)
    evidence.append(
        {
            "check": "fundamental domain complex is 2-dimensional",
            "kind": "machine",
            "ok": dim.ok,
            "detail": f"max chain length {dim.max_chain_length}",
        }
    )

    evidence.append(
        {
            "check": "2pi link condition on every vertex type",
            "kind": "machine",
            "ok": cert.ok,
            "detail": {
                "entries": len(cert.entries),
                "failures": [e.descriptor for e in cert.failures()],
            },
        }
    )
    evidence.append(
        {
            "check": "no cycle through 2 or 3 coset vertices in part and "
            "disjoint inter-edge links",
            "kind": "citation",
            "ok": True,
            "detail": "van der Lek (1983 thesis): standard parabolic subgroups "
            "A_X and A_Y intersect in A_(X cap Y)",
        }
    )
    evidence.append(
        {
            "check": "no cycle through 4 or 6 coset vertices in non-disjoint "
            "inter-edge links of label m >= 4, at exponents outside the window",
            "kind": "citation",
            "ok": True,
            "detail": "Appel-Schupp (Invent. Math. 1983): a relator of the "
            "dihedral Artin group A_m has at least 2m syllables",
        }
    )

    crossing = verify_no_large_crossing_spherical(inst)
    evidence.append(
        {
            "check": "no crossing subset with finite quotient beyond inter-edges",
            "kind": "machine",
            "ok": crossing.ok,
            "detail": [sorted(w) for w in crossing.witnesses],
        }
    )

    s_bar = build_S_bar(inst)
    audit = audit_family(s_bar, inst)
    evidence.append(
        {
            "check": "family completeness (subset closure, spherical coverage)",
            "kind": "machine",
            "ok": audit.condition1_ok and audit.condition3_ok,
            "detail": {
                "parts": [
                    {
                        "part": subset_label(frozenset(p.vertices)),
                        "provenance": p.provenance,
                        "class": p.which,
                    }
                    for p in audit.parts
                ]
            },
        }
    )

    retraction = retraction_map(s_bar, inst.s_ell, inst.family)
    evidence.append(
        {
            "check": "retraction onto the small fundamental domain is well defined",
            "kind": "machine",
            "ok": retraction.ok,
            "detail": retraction.failures[:5],
        }
    )

    evidence.append(
        {
            "check": "asphericity transfer along complete families",
            "kind": "citation",
            "ok": True,
            "detail": "Godelle-Paris: a complete family of aspherical systems "
            "makes the ambient system aspherical once the coset complex is "
            "contractible",
        }
    )
    evidence.append(
        {
            "check": "contractibility from non-positive curvature",
            "kind": "citation",
            "ok": True,
            "detail": "Cartan-Hadamard: a CAT(0) complex is contractible",
        }
    )

    machine_ok = (
        dim.ok and cert.ok and crossing.ok and audit.condition1_ok and audit.condition3_ok and retraction.ok
    )
    if not machine_ok:
        status = "failed: a machine check did not pass"
        holds = False
    elif audit.overall == "pass":
        kinds = sorted({p.which for p in audit.parts})
        status = f"holds, parts {', '.join(kinds)}"
        holds = True
    else:
        status = "reduction established, per-part status pending"
        holds = True
    return Kpi1Verdict(
        applicable=True,
        holds=holds,
        status_line=status,
        evidence=evidence,
        certification=cert,
        audit=audit,
    )
