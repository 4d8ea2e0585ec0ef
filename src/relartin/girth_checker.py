"""Exact shortest embedded cycles in link graphs and the 2pi certification.

An embedded loop in a 1-dimensional spherical link is a simple graph cycle;
the link condition asks every one to have length at least 2pi = 16 units.
All lengths are integers, so every comparison here is exact.

Forests are recognised upfront (union-find).  Every other link is
subdivided into a simple bipartite graph with unit edges, where one
breadth-first girth search, :func:`_bfs_girth`, finds the shortest cycle
and a simple witness, or, given a floor at most the girth, a cycle that
short.  An edge of w units becomes a path of k * w / g unit edges, g the
gcd of the link's weights.  A link is bipartite, so each of its cycles has
an even number of edges; with k = 1 when every w / g is odd, the sum of an
even number of odd path lengths is even, and otherwise k = 2 makes every
path even.  So the subdivided graph is bipartite too, a uniform link is
searched as it is, and a cycle of s unit steps is s * g / k units long.

Certification runs every link of an instance.  The empty link is finite,
and it is read off the instance without being built.  Its singleton
vertices are the inter-edge vertices; its upper vertices are the parts and
the inter-edges.  A singleton {s} is joined to its part, when that is not
{s} itself, by 2 units, and to each inter-edge at s by 2 units when that
inter-edge is disjoint and 3 when it is not.  Two uppers share at most one
singleton, because parts are disjoint and an inter-edge joins two parts,
so the link has no 4-cycle.  A 6-cycle has three uppers, each two of them
sharing a singleton, so it holds at most one part, and two of its
inter-edges meet at a singleton, which makes both non-disjoint: 3 units
at each of their four edges.  Such a cycle is 6*3 = 18 units with no
part, and with a part P it is 2*2 + 4*3 = 16 units, shape A: x != z in P,
and y outside P joined to both by inter-edges.  Every edge is at least 2
units, so a cycle of 8 edges is at least 16 units, with equality only
when every upper is a part or a disjoint inter-edge.  Neighbouring
uppers share a singleton, so no two parts and no two disjoint
inter-edges are neighbours: the cycle alternates two distinct parts with
two disjoint inter-edges between them, shape B.  A cycle of 10 or more
edges is at least 20 units.  So the link's girth is at least 2pi, and it
is 2pi exactly when shape A or shape B occurs, which is found in one pass
over the inter-edges.

The entry keeps the witness of a search over the built link: from each
root, in link order, a breadth-first search of unit steps (an edge of w
units is w / g steps, or 2w / g when some w / g is even, g the gcd of the
weights) stopped at 16 units, the first root that closes a cycle giving
its splice.  The roots are the smaller side, the singletons on a tie.  Below
8 units from a root the subdivided link is a tree, since a cycle there
would be shorter than 16 units.  So a root closes a cycle exactly when it
lies on one of shape A or B, and what it closes is one of those through
it: two halves that leave the root by different edges and meet at a point
8 units away.  Breadth-first order on a tree is the order of the paths'
vertex lists, compared vertex by vertex in link order, and a point closes
a cycle when the second half to reach it is expanded.  Any two halves to
one point close a cycle, so of the cycles through the first root on
either shape, the search closes the one whose later half comes first.

The cycles come in groups: two hubs joined by two or more spokes, paths
of the same step units, any two of which close a 16-unit cycle.  Shape A
joins P and {y} by a spoke {x}, xy of 2, 3 and 3 units for each x in P
joined to y; shape B joins two parts by a spoke {a}, ab, {b} of 2 units a
step for each disjoint inter-edge ab between them.  The root is the least
vertex of the searched side on any group.  Each cycle through it is
spelled once as a vertex tuple in cyclic order, and its two halves are
read off by one walk each way round, up to the first vertex 8 or more
units away.  A half from a hub runs along one spoke and starts with that
spoke's vertex next to the hub, so at a hub only the cycles along the
spoke with the least such vertex are spelled.  The witness is spliced as
the search splices it and checked: a simple cycle whose steps join a
singleton to an upper containing it and add up to 16 units.

When neither shape occurs the link is a forest, kept as the ``acyclic``
certificate, or its girth is above 2pi and its entry is PASS-lemma with no
certificate.  The link's vertices are the parts, the inter-edges and the u
singletons not themselves a part, and its edges are those u and two per
inter-edge; each component holds a part, so its components are those of
the parts joined by the inter-edges.  So edges less vertices plus
components, which is 0 exactly for a forest, is the same for the link as
for that multigraph of parts.  ``build_link_empty`` and
:func:`shortest_embedded_cycle` build and search the link itself; no
program path runs them, and the tests check the closed form against them.

A single link, at the cyclic coset of an inter-edge vertex s, is complete
bipartite: the 2 SINGLE_POWERS + 1 = 7 drawn powers of s against the u
parts and inter-edges above s, K_(7,u), every edge the {s} corner of 4
units.  With u >= 2 its girth is 4 edges, 16 units, and with u = 1 it is a
star, so its entry is read off u, with the witness the search would give,
and the link is not built.

A link at a T coset (T a part or an inter-edge) has an element vertex per
element h of A_T and a coset vertex per coset h<s>, s a generator of T,
joined when h lies in h<s>; every edge is the T corner of its triangle,
c units.  A cycle alternates the two kinds, so a cycle through k coset
vertices is 2kc units long and 2pi needs k >= 16 / 2c: 4 coset vertices at
a part or a disjoint inter-edge (c = 2), 8 at a non-disjoint inter-edge
(c = 1).

Four coset vertices follow from a lemma, for any part whatever its size or
labels.  Read a simple cycle h_1, h_1<s_1>, h_2, ..., h_k<s_k>, h_1: then
h_{i+1} = h_i s_i^p_i, so s_1^p_1 ... s_k^p_k = 1.  Every p_i is nonzero,
because h_{i+1} != h_i, and neighbouring generators differ (indices mod k),
because h_i<s_i> and h_{i+1}<s_{i+1}> are distinct cosets while h_{i+1}
lies in both.  Every generator has infinite order, since the exponent-sum
map onto Z sends s^p to p.  van der Lek's theorem says that standard
parabolic subgroups intersect as A_X ∩ A_Y = A_{X ∩ Y}.  So

  * k = 2 would put s^p = t^-q in A_{s} ∩ A_{t} = 1, with s != t;
  * k = 3 needs three distinct generators, and would put
    u^-r = s^p t^q in A_{s,t} ∩ A_{u} = 1;

neither can happen, and every cycle passes through at least 4 coset
vertices, 8 edges.  Those links get the status PASS-lemma and no
development; the m = 2 link (Z^2, the commutator) meets the bound exactly.

A non-disjoint inter-edge link needs 8 coset vertices, beyond that lemma,
and is decided by a second one, once per label m: its shortest cycle passes
through exactly 2m coset vertices.  Its T = {a, b} has two generators, so
the generators of a cycle alternate and k is even.  Rotated to start at an
a-coset and translated to start at 1, such a cycle is a trivial word
a^p_1 b^q_1 ... of k syllables, all exponents nonzero, in the dihedral
Artin group A_m.  In the two directions:

  * Appel and Schupp (1983): a trivial cyclic word of k alternating
    syllables in A_m has k >= 2m, so for m >= 4 every cycle passes
    through at least 8 coset vertices, and the class gets the status
    PASS-lemma;
  * the relator prod(a,b;m) prod(b,a;m)^-1, exponents m ones and then m
    minus ones, has exactly 2m syllables, so for m = 2 and m = 3 it is a
    cycle of 4m < 16 units, the class's FAIL witness.

For m = 2 and 3 the relator has k = 4 or 6 syllables, and any trivial
word of 4 or 6 syllables reads as a simple cycle h_0 = 1, h_0<a>, h_1, h_1<b>, ..., h_i
the product of its first i syllables.  A repeated element would split the
word into two trivial words, one of 1 to 3 syllables; s^p is not trivial,
and s^p t^q or s^p t^q s^r trivial would put t^q != 1 in
A_{s} ∩ A_{t} = 1.  A repeated coset h_i<s> = h_j<s> would put the word
between them, and the rest of the cycle, into <s>; one of the two has 2
syllables s^p t^q, and again t^q would lie in A_{s} ∩ A_{t}.  The witness
is checked all the same: its word multiplies out to 1, and its elements
and cosets are distinct.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from .defining_graph import Instance, InterEdge
from .dihedral_garside import DihedralEngine
from .link_builder import (
    SINGLE_POWERS,
    TWO_PI_UNITS,
    LinkGraph,
    interedge_development,
    vertex_label,
)
from .poset_complex import INTEREDGE_CASE, TRIANGLE_UNITS, subset_label, subset_sort_key


@dataclass
class CycleCertificate:
    passes: bool
    length_units: int | None
    edge_count: int | None
    cycle: list[str]
    complete: bool
    note: str = ""


def _is_forest(n: int, edges: list[tuple[int, int, int]]) -> bool:
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j, _ in edges:
        ri, rj = find(i), find(j)
        if ri == rj:
            return False
        parent[ri] = rj
    return True


def _bfs_girth(
    adj: list[list[int]], roots: list[int], floor: int | None = None
) -> tuple[int, list[int]] | None:
    """Girth (edge count) of a simple bipartite graph, with a simple witness
    cycle, or None when it has none; the caller checks that the graph is
    bipartite, and the roots must meet every cycle.

    In a bipartite BFS every edge joins consecutive depths.  So a non-tree
    edge met while expanding depth d either ends at a vertex of depth d + 1
    found earlier, closing a walk of exactly 2d + 2 edges, or goes back to
    depth d - 1, closing a walk of 2d edges that was already met while
    expanding depth d - 1.  The first new candidate is spliced at the lowest
    common ancestor of its endpoints into a simple cycle of at most 2d + 2
    edges, so nothing later from the same root can be shorter: a root's
    search ends there, or before depth d once 2d + 2 reaches the best length
    so far, and the root loop ends at 4 edges, the bipartite minimum.  The
    running best never underestimates and reaches the girth at roots lying
    on a minimal cycle, and the first root to reach the minimum keeps its
    witness.

    A ``floor`` at most the girth asks only whether a cycle of ``floor``
    edges exists.  Each root's search stops before its walks pass the floor,
    and the first root that closes one returns its splice; None means no
    root did.  A splice shorter than its walk would undercut the floor, so a
    root closes within it only when the root lies on a cycle of ``floor``
    edges, and such a root does: its own cycle closes a walk that short.
    """
    n = len(adj)
    # dist and parent are valid where mark holds the current root
    mark, dist, parent = [-1] * n, [0] * n, [-1] * n
    best: tuple[int, list[int]] | None = None
    for r in roots:
        if best is not None and best[0] <= 4:
            break
        # the longest closing walk still worth finding from r
        longest = floor if floor is not None else best[0] - 1 if best else math.inf
        mark[r], dist[r], parent[r] = r, 0, -1
        frontier = [r]
        depth = 0
        closing: tuple[int, int] | None = None
        while frontier and closing is None and 2 * depth + 2 <= longest:
            depth += 1
            nxt: list[int] = []
            for x in frontier:
                for y in adj[x]:
                    if mark[y] != r:
                        mark[y], dist[y], parent[y] = r, depth, x
                        nxt.append(y)
                    elif dist[y] == depth:
                        closing = (x, y)
                        break
                if closing is not None:
                    break
            frontier = nxt
        if closing is not None:
            cycle = _splice(*closing, parent, dist)
            if floor is not None:
                return len(cycle), cycle
            best = (len(cycle), cycle)
    return best


def _splice(x: int, y: int, parent: list[int], dist: list[int]) -> list[int]:
    px, py = [x], [y]
    a, b = x, y
    while dist[a] > dist[b]:
        a = parent[a]
        px.append(a)
    while dist[b] > dist[a]:
        b = parent[b]
        py.append(b)
    while a != b:
        a = parent[a]
        b = parent[b]
        px.append(a)
        py.append(b)
    # px ends at the common ancestor, py likewise; drop the duplicate
    return px + py[-2::-1]


def _girth_subdivided(link: LinkGraph, floor: int | None = None) -> tuple[int, list[int]] | None:
    """Search a link that is not a forest, with each edge of w units
    subdivided into k * w / g unit edges (see the module docstring); return
    the length in units and the witness on the link's own vertices.
    Subdivision vertices are numbered after those and have degree 2, so a
    simple cycle runs through whole paths and is a simple cycle of the
    link.  The roots are the smaller side of the link's own vertices, which
    every cycle meets.  A link is bipartite from the moment it is built,
    and so is the subdivided graph.

    A ``floor`` in units, at most the link's girth, asks only for a cycle
    of that length, floor * k / g unit steps (none when that is not whole):
    the witness comes from the first root lying on one, and None means the
    link has none (see :func:`_bfs_girth`)."""
    weights = {w for _, _, w in link.edges}
    g = math.gcd(*weights)
    k = 1 if all(w // g % 2 for w in weights) else 2
    n = link.vertex_count
    sides = link.sides
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j, w in link.edges:
        x = i
        for _ in range(k * w // g - 1):
            adj.append([x])
            adj[x].append(len(adj) - 1)
            x = len(adj) - 1
        adj[x].append(j)
        adj[j].append(x)
    side0 = [i for i in range(n) if sides[i] == 0]
    side1 = [i for i in range(n) if sides[i] == 1]
    roots = side0 if len(side0) <= len(side1) else side1
    found = _bfs_girth(adj, roots, None if floor is None else floor * k // g)
    if found is None:
        return None
    steps, cycle = found
    return steps * g // k, [v for v in cycle if v < n]


def shortest_embedded_cycle(link: LinkGraph, floor: int | None = None) -> CycleCertificate | None:
    """Exact minimum-length simple cycle of a link graph.  With a ``floor``
    in units, at most the link's girth, only a cycle of exactly that length
    is sought, and None means the link has none (see
    :func:`_girth_subdivided`); a forest is reported acyclic either way."""
    complete = link.truncation.complete and not link.truncation.truncated
    if _is_forest(link.vertex_count, link.edges):
        return CycleCertificate(
            passes=True,
            length_units=None,
            edge_count=None,
            cycle=[],
            complete=complete,
            note="acyclic",
        )
    found = _girth_subdivided(link, floor)
    if found is None:
        return None
    length, cycle = found
    _verify_cycle(link, cycle, length)
    return CycleCertificate(
        passes=length >= TWO_PI_UNITS,
        length_units=length,
        edge_count=len(cycle),
        cycle=[link.vertex_labels[v] for v in cycle],
        complete=complete,
    )


def _verify_cycle(link: LinkGraph, cycle: list[int], claimed_length: int) -> None:
    """Check the witness against the link: a simple cycle of even length
    whose consecutive pairs are edges with the claimed total length.  The
    step weights are read in one scan of the edges."""
    if len(set(cycle)) != len(cycle):
        raise AssertionError("witness cycle repeats a vertex")
    n = len(cycle)
    position = {v: t for t, v in enumerate(cycle)}
    steps: list[int | None] = [None] * n  # weight of the edge cycle[t] -- cycle[t + 1]
    for i, j, w in link.edges:
        t = position.get(i)
        if t is None:
            continue
        u = position.get(j)
        if u is None:
            continue
        if u == (t + 1) % n:
            steps[t] = w
        elif t == (u + 1) % n:
            steps[u] = w
    for t, w in enumerate(steps):
        if w is None:
            raise AssertionError(f"witness uses a non-edge ({cycle[t]}, {cycle[(t + 1) % n]})")
    total = sum(steps)
    if total != claimed_length:
        raise AssertionError(f"witness length {total} != claimed {claimed_length}")
    if len(cycle) % 2 != 0:
        raise AssertionError("odd cycle in a bipartite link")


# ---------------------------------------------------------------------------
# certification pipeline


@dataclass
class LinkCertificate:
    case: str
    descriptor: str
    status: str  # PASS-complete | PASS-lemma | FAIL
    certificate: CycleCertificate | None
    members: list[str]
    stats: dict


@dataclass
class CertificationReport:
    ok: bool
    entries: list[LinkCertificate]

    def failures(self) -> list[LinkCertificate]:
        return [e for e in self.entries if e.status == "FAIL"]


def _status(cert: CycleCertificate) -> str:
    return "PASS-complete" if cert.passes else "FAIL"


# every {s} corner has one length, the length of every single link edge
(_SINGLE_UNITS,) = {corners[1] for corners in TRIANGLE_UNITS.values()}


def _single_entry(inst: Instance, s: str) -> LinkCertificate:
    """The entry of the link of the cyclic coset at s, read off its shape
    without building it: K_(n,u), the n = 2 SINGLE_POWERS + 1 drawn powers
    of s against the u parts and inter-edges above s, every edge the {s}
    corner.  With u >= 2 its girth is 4 edges, and the witness is the one
    the search of the built link returns: rooted at the first vertex r_0 of
    the smaller side r (the powers on a tie), it first closes r_1, q_0,
    r_0, q_1 through the first two vertices of the other side q, so only
    those four are spelled.  With u = 1 it is a star."""
    part = inst.family.parts[inst.family.part_of[s]]
    ies = inst.inter_edges_at[s]
    # the uppers in link order: s's part, unless that is {s}, then its inter-edges
    has_part = len(part) > 1
    n, u = 2 * SINGLE_POWERS + 1, has_part + len(ies)
    if u < 2:
        cert = CycleCertificate(True, None, None, [], True, "acyclic")
    else:
        firsts = ([part] if has_part else []) + [e[:2] for e in ies[:2]]
        uppers = [subset_label(t) for t in firsts[:2]]
        powers = [f"{s}^{k}" for k in (-SINGLE_POWERS, 1 - SINGLE_POWERS)]
        r, q = (powers, uppers) if n <= u else (uppers, powers)
        length = 4 * _SINGLE_UNITS
        cert = CycleCertificate(length >= TWO_PI_UNITS, length, 4, [q[1], r[0], q[0], r[1]], True)
    stats = {
        "vertices": n + u,
        "edges": n * u,
        "requested_radius": SINGLE_POWERS,
        "achieved_radius": None,
        "truncated": False,
    }
    descriptor = f"link of the cyclic coset at {s}"
    return LinkCertificate("single", descriptor, _status(cert), cert, [s], stats)


# the fewest coset vertices a cycle of a part or disjoint inter-edge link
# passes through, by the first lemma of the module docstring
LEMMA_COSETS = 4
_VAN_DER_LEK = (
    "no cycle through 2 or 3 coset vertices: standard parabolic "
    "subgroups A_X and A_Y intersect in A_(X cap Y) (van der Lek)"
)
_APPEL_SCHUPP = (
    "no cycle through fewer than 2m coset vertices, and the relator "
    "prod(a,b;m) prod(b,a;m)^-1 closes one through 2m: a trivial cyclic word "
    "of alternating syllables in A_m has at least 2m (Appel-Schupp)"
)


def _cosets_needed(case: str) -> int:
    """Coset vertices a cycle needs to reach 2pi in the link at a T of this
    TRIANGLE_UNITS case: 2 edges of T-corner units per coset vertex."""
    return -(-TWO_PI_UNITS // (2 * TRIANGLE_UNITS[case][2]))


def _lemma_entry(
    case: str,
    descriptor: str,
    members: list[str],
    cosets: int,
    note: str,
    witness: list[str] | None = None,
) -> LinkCertificate:
    """The entry of every link of one TRIANGLE_UNITS case whose cycles pass
    through at least ``cosets`` coset vertices, by the lemma that ``note``
    names: PASS-lemma when 2pi needs no more, and otherwise a FAIL whose
    ``witness`` is a cycle through exactly that many."""
    needed = _cosets_needed(case)
    units = TRIANGLE_UNITS[case][2]
    stats = {"cosets_needed": needed, "units": units, "note": note}
    kind = "part" if case == "part" else "inter-edge"
    if cosets >= needed:
        return LinkCertificate(kind, descriptor, "PASS-lemma", None, members, stats)
    if witness is None or len(witness) != 2 * cosets:
        raise AssertionError(f"{case} links need {needed} coset vertices; the lemma gives {cosets}")
    cert = CycleCertificate(
        passes=False,
        length_units=len(witness) * units,
        edge_count=len(witness),
        cycle=witness,
        complete=False,
    )
    return LinkCertificate(kind, descriptor, "FAIL", cert, members, stats)


def _relation_cycle(engine: DihedralEngine, exponents: tuple[int, ...]) -> list[str]:
    """The labels of the cycle 1, 1<s_1>, h_1, h_1<s_2>, ..., h_i the
    product of the first i syllables of a trivial word with these
    exponents, multiplied a letter at a time, checked: the word's normal
    form is the identity, the elements and the cosets are distinct, and
    h_i lies in h_(i-1)<s_i>."""
    gens = engine.generators
    letters = [gens[i % 2] for i in range(len(exponents))]
    elements = [engine.identity]
    for s, p in zip(letters, exponents):
        h = elements[-1]
        for _ in range(abs(p)):
            h = engine.mult_gen(h, s, 1 if p > 0 else -1)
        elements.append(h)
    if elements.pop() != engine.identity:
        raise AssertionError(f"witness word {exponents} is not trivial")
    cosets = [engine.coset_key(h, s) for h, s in zip(elements, letters)]
    k = len(exponents)
    if len(set(elements)) != k or len(set(cosets)) != k:
        raise AssertionError("witness cycle repeats a vertex")
    for i, s in enumerate(letters):
        if engine.coset_key(elements[(i + 1) % k], s) != cosets[i]:
            raise AssertionError(f"witness element {i + 1} is not in its coset")
    cycle = []
    for h, s in zip(elements, letters):
        cycle += [vertex_label(engine, h), vertex_label(engine, h, s)]
    return cycle


def _relator_entry(inst: Instance, group: list[InterEdge]) -> LinkCertificate:
    """The entry of one label class of non-disjoint inter-edge links, by
    the relator lemma of the module docstring: a cycle through 2m coset
    vertices, read off the relator when that is too few for 2pi."""
    dev = interedge_development(inst, group[0])
    m = dev.engine.m
    case = INTEREDGE_CASE[False]
    witness = None
    if 2 * m < _cosets_needed(case):
        witness = _relation_cycle(dev.engine, (1,) * m + (-1,) * m)
    members = [subset_label(e[:2]) for e in group]
    return _lemma_entry(case, dev.descriptor, members, 2 * m, _APPEL_SCHUPP, witness)


def _half(cycle: tuple, steps: tuple) -> tuple[tuple, bool]:
    """The vertices after cycle[0], walked forward up to the first one 8 or
    more units away, with steps[k] the units from cycle[k] to the next;
    and whether that vertex is past 8 units, the midpoint inside an edge."""
    units = k = 0
    while units < TWO_PI_UNITS // 2:
        units += steps[k]
        k += 1
    return cycle[1 : k + 1], units > TWO_PI_UNITS // 2


def _half_key(half: tuple) -> tuple:
    return tuple(map(subset_sort_key, half))


def _empty_witness(inst: Instance, singleton_roots: bool) -> list[tuple[str, ...]] | None:
    """The cycle that a search of the empty link, root by root, closes
    first at 16 units, or None when the link has none (module docstring).

    Each group is (hub, hub, spokes, the units of a spoke's steps), every
    spoke a tuple of vertices from the first hub to the second.  The splice
    is the later half without its last vertex, reversed, then the root,
    then the earlier half, also without its last vertex when the point 8
    units away lies inside an edge."""
    parts, at = inst.family.parts, inst.inter_edges_at
    # one tuple per singleton, shared by every spoke through it
    singleton = {s: (s,) for s in at}
    groups: list[tuple[tuple, tuple, list[tuple], tuple[int, ...]]] = []
    for y, es in at.items():
        fan: dict[int, list[str]] = {}
        for e in es:
            x, q = (e.u, e.part_u) if e.v == y else (e.v, e.part_v)
            fan.setdefault(q, []).append(x)
        for q, xs in fan.items():
            if len(xs) > 1:
                spokes = [(singleton[x], (x, y) if x < y else (y, x)) for x in xs]
                groups.append((parts[q], singleton[y], spokes, (2, 3, 3)))
    twins: dict[tuple[int, int], list[tuple]] = {}
    for u, v, _, pu, pv in inst.inter_edges:
        if inst.disjoint[u, v]:
            spoke = (singleton[u], (u, v), singleton[v])
            hubs, spoke = ((pu, pv), spoke) if pu < pv else ((pv, pu), spoke[::-1])
            twins.setdefault(hubs, []).append(spoke)
    for (p, q), spokes in twins.items():
        if len(spokes) > 1:
            groups.append((parts[p], parts[q], spokes, (2, 2, 2, 2)))
    side = {
        t
        for h0, h1, spokes, _ in groups
        for t in (h0, h1, *chain.from_iterable(spokes))
        if (len(t) == 1) == singleton_roots
    }
    if not side:
        return None
    r = min(side, key=subset_sort_key)
    best: tuple[tuple, tuple] | None = None
    for h0, h1, spokes, units in groups:
        if r == h0 or r == h1:
            # the least half from a hub starts the spoke with the least
            # vertex next to it, and the witness runs along that spoke
            end = 0 if r == h0 else -1
            mine = min(spokes, key=lambda sp: subset_sort_key(sp[end]))
        else:
            mine = next((sp for sp in spokes if r in sp), None)
            if mine is None:
                continue
        steps = units + units[::-1]
        for j in spokes:
            if j is mine:
                continue
            cycle = (h0, *j, h1, *mine[::-1])
            k = cycle.index(r)
            c, w = cycle[k:] + cycle[:k], steps[k:] + steps[:k]
            one, inside = _half(c, w)
            other, _ = _half(c[:1] + c[:0:-1], w[::-1])
            earlier, later = sorted((one, other), key=_half_key)
            key = _half_key(later)
            if best is None or key < best[0]:
                best = (key, later[-2::-1] + (r,) + earlier[: len(earlier) - inside])
    return list(best[1])


def _empty_cycle_units(inst: Instance, cycle: list[tuple[str, ...]]) -> int:
    """The length in units of a cycle of the empty link, checked: simple,
    every step a singleton {s} of an inter-edge vertex and an upper that
    contains s, its part or an inter-edge at s."""
    if len(set(cycle)) != len(cycle):
        raise AssertionError("witness cycle repeats a vertex")
    at, disjoint, family = inst.inter_edges_at, inst.disjoint, inst.family
    total = 0
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        low, top = sorted((a, b), key=len)
        s = low[0]
        if len(low) == 1 and s in at and s in top:
            if top in disjoint:
                total += TRIANGLE_UNITS[INTEREDGE_CASE[disjoint[top]]][0]
                continue
            if top == family.parts[family.part_of[s]]:
                total += TRIANGLE_UNITS["part"][0]
                continue
        raise AssertionError(f"witness uses a non-edge ({subset_label(a)}, {subset_label(b)})")
    return total


def _empty_entry(inst: Instance) -> LinkCertificate:
    """The entry of the empty link, read off the instance by the two-shape
    lemma of the module docstring, with the certificate and the stats a
    search of the built link gives."""
    parts, at, ies = inst.family.parts, inst.inter_edges_at, inst.inter_edges
    # the singletons joined to their part, which is not the singleton itself
    under = sum(len(parts[inst.family.part_of[s]]) > 1 for s in at)
    vertices = len(parts) + len(ies) + under
    edges = under + 2 * len(ies)
    if _is_forest(len(parts), [(e.part_u, e.part_v, 0) for e in ies]):
        cert = CycleCertificate(True, None, None, [], True, "acyclic")
    else:
        # roots on the smaller side, the singletons on a tie
        cycle = _empty_witness(inst, 2 * len(at) <= vertices)
        cert = None
        if cycle is not None:
            length = _empty_cycle_units(inst, cycle)
            if length != TWO_PI_UNITS:
                raise AssertionError(f"witness length {length} != {TWO_PI_UNITS}")
            cert = CycleCertificate(True, length, len(cycle), list(map(subset_label, cycle)), True)
    stats = {
        "vertices": vertices,
        "edges": edges,
        "requested_radius": None,
        "achieved_radius": None,
        "truncated": False,
    }
    status = "PASS-lemma" if cert is None else _status(cert)
    return LinkCertificate("empty", "link of the trivial coset", status, cert, ["[1]"], stats)


def certify_link_condition(inst: Instance) -> CertificationReport:
    """Run every link of the instance through its closed form (the empty
    and the single links) or a lemma of the module docstring (the part and
    inter-edge links).

    The empty link gives PASS-complete with its 2pi witness or as a forest,
    and otherwise PASS-lemma with no certificate, its girth above 2pi.
    Single links give PASS-complete.  Part links and disjoint inter-edge
    links give PASS-lemma, one entry per case listing every member.
    Non-disjoint inter-edges give one entry per label m: PASS-lemma for
    m >= 4, and a FAIL with the relator's witness cycle for m = 2 and 3.
    """
    entries = [_empty_entry(inst)]
    entries += [_single_entry(inst, s) for s in sorted(inst.inter_edges_at)]

    lemma = {"part": [subset_label(p) for p in inst.family.parts]}
    classes: dict[int, list[InterEdge]] = {}
    for e in inst.inter_edges:
        if inst.disjoint[e.u, e.v]:
            lemma.setdefault(INTEREDGE_CASE[True], []).append(subset_label(e[:2]))
        else:
            classes.setdefault(e.label, []).append(e)
    for case, members in lemma.items():
        kind = "part" if case == "part" else "disjoint inter-edge"
        entries.append(
            _lemma_entry(case, f"links of the {kind} cosets", members, LEMMA_COSETS, _VAN_DER_LEK)
        )
    entries += [_relator_entry(inst, classes[m]) for m in sorted(classes)]

    ok = all(e.status != "FAIL" for e in entries)
    return CertificationReport(ok=ok, entries=entries)
