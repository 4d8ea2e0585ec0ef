"""Audit of the complete-family conditions and the asphericity reduction.

The reduction rests on the family S_bar, S^l together with every subset of
every part, being complete: (1) closed under subsets, (2) every member
generating an aspherical system, (3) containing every subset with finite
Coxeter quotient.  Conditions (1) and (3) follow from lemmas once the
inter-edge label condition REL' holds, which ``kpi1_verdict`` checks
first.  The dimension of the fundamental domain and the retraction onto
it follow from lemmas for every family (the retraction's is in
:mod:`relartin.poset_complex`).  Their evidence lines have
``kind: lemma``, and no subset family is listed.
Condition (2) is undecidable in general, so each part carries a
provenance tag: known-class when the part's defining graph lies in a class
with settled asphericity (spherical, affine, 2-dimensional, FC), unknown
otherwise.  The final verdict never claims more than the weakest tag.

The complex of S^l is 2-dimensional by the S^l lemma of
:mod:`relartin.poset_complex`, which also gives its longest chain.

Subset closure holds by construction.  Every element of S^l is the empty
set, a part, an inter-edge or the singleton of an inter-edge vertex.  The
subsets of the first, second and fourth are subsets of a part, and those
of an inter-edge {u, v} are itself, the empty set, {u} and {v}, all
members of S_bar.

The crossing lemma: under REL', the spherical subsets that lie inside no
part are exactly the inter-edges.  A spherical subset is a clique, and
an inter-edge is a spherical pair.  Suppose a spherical clique C of three
or more vertices crosses parts.  It holds x and y in different parts, and
a third vertex z, whose part differs from that of x, say.  Then xy and xz
are inter-edges sharing x, so REL' labels both 4 or more.  The triangle
{x, y, z} is spherical, since sphericity is hereditary.  But the finite
rank-3 Coxeter groups are A1 x A1 x A1, A1 x I2(m), A3, B3 and H3, whose
label triples (2, 2, m), (2, 3, 3), (2, 3, 4) and (2, 3, 5) hold at most
one label of 4 or more.  So C has at most two vertices, and condition (3)
follows: a spherical subset inside a part is in S_bar, and so is an
inter-edge.
"""
from __future__ import annotations

from dataclasses import dataclass

from .defining_graph import Instance, check_rel_prime, classify_known
from .girth_checker import CertificationReport, certify_link_condition
from .poset_complex import Rows, s_ell_max_chain_length, subset_label


@dataclass
class PartStatus:
    vertices: tuple[str, ...]
    provenance: str  # known-class | unknown
    which: str | None


@dataclass
class FamilyAudit:
    parts: list[PartStatus]

    @property
    def overall(self) -> str:
        if all(p.provenance == "known-class" for p in self.parts):
            return "pass"
        return "conditional"


def _part_status(inst: Instance, part: tuple[str, ...]) -> PartStatus:
    report = classify_known(inst.graph, part)
    for which, flag in (
        ("spherical", report.spherical_type),
        ("affine", report.affine_type),
        ("2-dimensional", report.two_dimensional),
        ("FC", report.fc_type),
    ):
        if flag:
            return PartStatus(vertices=part, provenance="known-class", which=which)
    return PartStatus(vertices=part, provenance="unknown", which=None)


def audit_family(inst: Instance) -> FamilyAudit:
    """Tag each part with its provenance.  Subset closure and spherical
    coverage need no scan: they are the lemmas of the module docstring."""
    return FamilyAudit(parts=[_part_status(inst, part) for part in inst.family.parts])


def verify_no_large_crossing_spherical(inst: Instance) -> bool:
    """True when every subset with finite Coxeter quotient that is not
    inside a single part is an inter-edge.  By the crossing lemma of the
    module docstring, that holds whenever REL' does, and this returns
    whether REL' holds; where it fails the lemma says nothing."""
    return check_rel_prime(inst).ok


@dataclass
class Evidence:
    """One line of a verdict's evidence; ``kind`` is machine, lemma or
    citation."""

    check: str
    kind: str
    ok: bool
    detail: object


@dataclass
class Kpi1Verdict:
    applicable: bool
    holds: bool
    status: str
    evidence: list[Evidence]
    certification: CertificationReport | None


def kpi1_verdict(inst: Instance) -> Kpi1Verdict:
    """Assemble the asphericity reduction from its machine-checkable pieces.

    The verdict "holds" means: the inter-edge label condition is satisfied
    and every computed link certificate passes; the fundamental-domain
    complex is then 2-dimensional, the family complete and the retraction
    well defined by lemma.  The conclusion transfers
    asphericity from the parts; per-part status is reported with its
    provenance and every imported theorem is listed as a citation, never
    silently assumed.
    """
    rel = check_rel_prime(inst)
    evidence = [
        Evidence(
            "inter-edge label condition (non-isolated >= 4)",
            "machine",
            rel.ok,
            [f"{e.u}-{e.v} (m={e.label})" for e in rel.violations],
        )
    ]
    if not rel.ok:
        return Kpi1Verdict(
            applicable=False,
            holds=False,
            status="inapplicable: inter-edge label condition fails",
            evidence=evidence,
            certification=None,
        )

    cert = certify_link_condition(inst)
    crossing_ok = verify_no_large_crossing_spherical(inst)
    audit = audit_family(inst)
    provenance = Rows(
        {
            "part": [subset_label(p.vertices) for p in audit.parts],
            "provenance": [p.provenance for p in audit.parts],
            "class": [p.which for p in audit.parts],
        }
    )
    evidence += [
        Evidence(
            "fundamental domain complex is 2-dimensional",
            "lemma",
            True,
            f"max chain length {s_ell_max_chain_length(inst)}",
        ),
        Evidence(
            "2pi link condition on every vertex type",
            "machine",
            cert.ok,
            {"entries": len(cert.entries), "failures": [e.descriptor for e in cert.failures()]},
        ),
        Evidence(
            "no cycle through 2 or 3 coset vertices in part and disjoint inter-edge links",
            "citation",
            True,
            "van der Lek (1983 thesis): standard parabolic subgroups "
            "A_X and A_Y intersect in A_(X cap Y)",
        ),
        Evidence(
            "no cycle through 4 or 6 coset vertices in non-disjoint "
            "inter-edge links of label m >= 4, at any exponents",
            "citation",
            True,
            "Appel-Schupp (Invent. Math. 1983): a relator of the "
            "dihedral Artin group A_m has at least 2m syllables",
        ),
        Evidence("no crossing subset with finite quotient beyond inter-edges", "lemma", crossing_ok, []),
        Evidence(
            "family completeness (subset closure, spherical coverage)",
            "lemma",
            crossing_ok,
            {"parts": provenance},
        ),
        # the retraction lemma of relartin.poset_complex holds for every family
        Evidence("retraction onto the small fundamental domain is well defined", "lemma", True, []),
        Evidence(
            "asphericity transfer along complete families",
            "citation",
            True,
            "Godelle-Paris: a complete family of aspherical systems "
            "makes the ambient system aspherical once the coset complex is "
            "contractible",
        ),
        Evidence(
            "contractibility from non-positive curvature",
            "citation",
            True,
            "Cartan-Hadamard: a CAT(0) complex is contractible",
        ),
    ]
    if not (cert.ok and crossing_ok):
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
        status=status,
        evidence=evidence,
        certification=cert,
    )
