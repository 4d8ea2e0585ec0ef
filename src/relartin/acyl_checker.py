"""Acylindrical hyperbolicity checks for graphs split into parts.

Two routes are mechanized.  With no inter-edges the group splits as a free
product of the part groups, and a free product of two infinite groups is
acylindrically hyperbolic (Minasyan-Osin).  Otherwise we look for an
inter-edge e with label at least 3 together with a third generator adjacent
to an endpoint of e; the triple spans a rank 3, 2-dimensional, connected
defining graph, which places the instance in Vaskou's criterion.  The part
of that criterion that is genuinely infinite (weak malnormality of the edge
subgroup, A_e meeting its conjugates trivially) is recorded as a citation,
never as a computation.

As empirical corroboration, ``empirical_orbit_growth`` measures syllable
growth in the dihedral group of a witness edge: the maximum, over the
word-metric ball of a given radius, of the least number of generator
blocks needed to spell an element by paths inside the enumerated ball.
Strict growth of that statistic across radii is the signature of an
unbounded orbit for the syllable quasi-action.  It never decides a
verdict, so ``check_acylindricity`` does not compute it.  The largest ball
is enumerated once together with its Cayley edges as element numbers;
each radius is a prefix of that numbering, and its entry is a 0/1
breadth-first search over those integer edges, with no further
normal-form multiplication.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from . import coxeter
from .defining_graph import DefiningGraph, Instance, InterEdge
from .dihedral_garside import CapExceeded, DihedralEngine


@dataclass
class DeltaChecks:
    connected: bool
    two_dimensional: bool
    not_right_angled: bool
    rank3: bool

    @property
    def all_ok(self) -> bool:
        return self.connected and self.two_dimensional and self.not_right_angled and self.rank3


def check_delta(graph: DefiningGraph, delta: tuple[str, str, str]) -> DeltaChecks:
    """Hypotheses of the rank 3 criterion on the induced triple."""
    verts = sorted(set(delta))
    labels = {
        frozenset((u, v)): graph.label(u, v)
        for i, u in enumerate(verts)
        for v in verts[i + 1 :]
        if graph.label(u, v) is not None
    }
    # connectivity of a 3-vertex graph: two edges spanning all vertices
    covered = set().union(*labels) if labels else set()
    return DeltaChecks(
        connected=len(labels) >= 2 and covered == set(verts),
        two_dimensional=not coxeter.is_spherical(graph, verts),
        not_right_angled=any(m >= 3 for m in labels.values()),
        rank3=len(set(delta)) == 3,
    )


def find_witness(
    inst: Instance,
) -> tuple[InterEdge, str, tuple[str, str, str]] | None:
    """Deterministic witness search: inter-edges by label descending then
    lexicographic, third vertex lexicographic among neighbours of the
    endpoints."""
    rows = inst.graph.adjacency
    ies = [e for e in inst.inter_edges if e.label >= 3]
    ies.sort(key=lambda e: (-e.label, e.u, e.v))
    for e in ies:
        candidates = (rows[e.u].keys() | rows[e.v].keys()) - {e.u, e.v}
        if candidates:
            s = min(candidates)
            return e, s, (e.u, e.v, s)
    return None


def _confined_syllable_max(edges: list[int], gens: int, n: int) -> int:
    """Least block count per element among words whose prefixes all stay
    among the first n elements of the ball, maximised over them.

    ``edges`` are the ball's Cayley edges from ``ball_levels``, 2 gens
    slots per element.  The levels are numbered in order, so the ball of
    any radius is a prefix of the numbering and confinement is one
    comparison.  0/1 breadth-first search over (element, last generator)
    states, packed as element * generators + generator: a same-generator
    step extends the current block for free, a generator change opens a
    new block at cost 1.  Confinement makes the value an upper bound for
    the true syllable length, exact whenever some minimal-syllable word
    stays inside the set.
    """
    slots = 2 * gens
    unreached = n * gens + 1  # more blocks than any confined word needs
    cost = [unreached] * (n * gens)
    dq: deque[int] = deque()
    # from the identity every first letter opens a block
    for slot, j in enumerate(edges[:slots]):
        state = j * gens + (slot >> 1)
        if 0 <= j < n and cost[state] > 1:
            cost[state] = 1
            dq.append(state)
    while dq:
        state = dq.popleft()
        i, last = divmod(state, gens)
        c = cost[state]
        for slot, j in enumerate(edges[i * slots : (i + 1) * slots]):
            if not 0 <= j < n:
                continue
            g = slot >> 1
            nxt = j * gens + g
            if g == last:
                if cost[nxt] > c:
                    cost[nxt] = c
                    dq.appendleft(nxt)
            elif cost[nxt] > c + 1:
                cost[nxt] = c + 1
                dq.append(nxt)
    # the identity needs no block at all
    return max(
        (min(cost[i * gens : (i + 1) * gens]) for i in range(1, n)), default=0
    )


def empirical_orbit_growth(
    m: int, radii: tuple[int, ...] = (2, 4, 6, 8), cap: int = 10**6
) -> list[tuple[int, int]]:
    """Maximum observed syllable length per radius in the dihedral group
    with label m.

    The word-metric ball of the largest radius is enumerated once, with its
    Cayley edges; for each radius, each element of its first levels is
    charged the fewest generator blocks needed to spell it by a word whose
    prefixes stay in that smaller ball, read off those edges without
    multiplying again.  When the cap cuts the ball short, the smallest
    radius it did not reach is reported.
    """
    if m < 2:
        raise ValueError("dihedral label must be >= 2")
    if not radii or any(r < 0 for r in radii):
        raise ValueError("radii must be non-negative")
    radii = sorted(radii)
    levels, truncated, edges = DihedralEngine("a", "b", m).ball_levels(radii[-1], cap)
    completed = len(levels) - 1
    if truncated:
        raise CapExceeded(
            requested_radius=next(r for r in radii if r > completed),
            completed_radius=completed,
            count=sum(len(l) for l in levels),
            cap=cap,
        )
    rows = []
    for r in radii:
        n = sum(len(level) for level in levels[: r + 1])
        rows.append((r, _confined_syllable_max(edges, 2, n)))
    return rows


@dataclass
class AcylVerdict:
    # acyl-hyperbolic-via-witness | acyl-hyperbolic-via-free-product |
    # witness-checks-failed | inapplicable
    status: str
    ok: bool
    reasons: list[str]
    witness_edge: tuple[str, str, int] | None = None
    witness_vertex: str | None = None
    delta: tuple[str, str, str] | None = None
    delta_checks: DeltaChecks | None = None
    citations: list[str] = field(default_factory=list)


_FREE_PRODUCT_CITATION = (
    "Minasyan-Osin: a group splitting as a free product of two infinite "
    "groups is acylindrically hyperbolic"
)
_VASKOU_CITATION = (
    "Vaskou: a 2-dimensional Artin group of rank at least 3 with connected "
    "defining graph is acylindrically hyperbolic"
)
_MALNORMALITY_CITATION = (
    "weak malnormality of the edge subgroup (A_e intersecting g A_e g^-1 "
    "trivially for some g) is cited, not computed"
)


def _inapplicable(reason: str) -> AcylVerdict:
    return AcylVerdict("inapplicable", False, [reason])


def _free_product(reason: str) -> AcylVerdict:
    return AcylVerdict("acyl-hyperbolic-via-free-product", True, [reason], citations=[_FREE_PRODUCT_CITATION])


def check_hypotheses(inst: Instance) -> AcylVerdict | None:
    """Decide which route applies, before any witness search: the verdict
    when the hypotheses settle it, None when the witness route applies."""
    if len(inst.family.parts) < 2:
        return _inapplicable("the family must contain at least two parts")
    ies = inst.inter_edges
    if not ies:
        return _free_product(
            "no inter-edges: the group is the free product of the part groups"
        )
    if len(inst.graph.vertices) < 3:
        return _inapplicable("the witness route needs at least three generators")
    if all(e.label == 2 for e in ies):
        return _inapplicable("every inter-edge has label 2, no witness edge exists")
    return None


def check_acylindricity(inst: Instance) -> AcylVerdict:
    """Full pipeline: hypotheses, witness triple, rank 3 checks."""
    gate = check_hypotheses(inst)
    if gate is not None:
        return gate
    found = find_witness(inst)
    if found is None:
        # every label >= 3 inter-edge spans its own connected component, so
        # the group splits over the remaining generators
        return _free_product(
            "no third generator neighbours any witness edge: the defining "
            "graph is disconnected and the group splits as a free product"
        )
    edge, s, delta = found
    checks = check_delta(inst.graph, delta)
    ok = checks.all_ok
    return AcylVerdict(
        status="acyl-hyperbolic-via-witness" if ok else "witness-checks-failed",
        ok=ok,
        reasons=[
            "witness triple satisfies the rank 3 criterion"
            if ok
            else "the witness triple fails a rank 3 hypothesis"
        ],
        witness_edge=(edge.u, edge.v, edge.label),
        witness_vertex=s,
        delta=delta,
        delta_checks=checks,
        citations=[_VASKOU_CITATION, _MALNORMALITY_CITATION],
    )
