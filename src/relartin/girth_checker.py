"""Exact shortest embedded cycles in link graphs and the 2pi certification.

An embedded loop in a 1-dimensional spherical link is a simple graph cycle;
the link condition asks every one to have length at least 2pi = 16 units.
All lengths are integers, so every comparison here is exact.

Forests are recognised upfront (union-find).  Every other link is
subdivided into a simple bipartite graph with unit edges, where one
breadth-first girth search, :func:`_bfs_girth`, finds the shortest cycle
and a simple witness.  An edge of w units becomes a path of k * w / g unit
edges, g the gcd of the link's weights.  A link is bipartite, so each of
its cycles has an even number of edges; with k = 1 when every w / g is
odd, the sum of an even number of odd path lengths is even, and otherwise
k = 2 makes every path even.  So the subdivided graph is bipartite too, a
uniform link is searched as it is, and a cycle of s unit steps is
s * g / k units long.

Certification runs every link of an instance.  The empty and single links
are finite and searched whole.  A link at a T coset (T a part or an
inter-edge) has an element vertex per element h of A_T and a coset vertex
per coset h<s>, s a generator of T, joined when h lies in h<s>; every edge
is the T corner of its triangle, c units.  A cycle alternates the two
kinds, so a cycle through k coset vertices is 2kc units long and 2pi needs
k >= 16 / 2c: 4 coset vertices at a part or a disjoint inter-edge (c = 2),
8 at a non-disjoint inter-edge (c = 1).

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

A non-disjoint inter-edge link needs 8 coset vertices, beyond the lemma,
and is searched instead, once per label m.  Its T = {a, b} has two
generators, so the generators of a cycle alternate and k is even: only
the even k from LEMMA_COSETS up to the number needed remain, k = 4 and
k = 6.  Rotated to start at an a-coset and translated to start at 1, such
a cycle is a trivial word a^p_1 b^q_1 ... of k syllables, all exponents
nonzero, in the dihedral Artin group A_m.  Conversely such a word with
k = 4 or 6 reads as a simple cycle h_0 = 1, h_0<a>, h_1, h_1<b>, ..., h_i
the product of its first i syllables.  A repeated element would split the
word into two trivial words, one of 1 to 3 syllables; s^p is not trivial,
and s^p t^q or s^p t^q s^r trivial would put t^q != 1 in
A_{s} ∩ A_{t} = 1.  A repeated coset h_i<s> = h_j<s> would put the word
between them, and the rest of the cycle, into <s>; one of the two has 2
syllables s^p t^q, and again t^q would lie in A_{s} ∩ A_{t}.

The word is trivial exactly when its first k/2 syllables, an a-first
word, equal the inverse of its last k/2, a word b^x_1 a^x_2 ... that
starts with b because the last syllable is a b-syllable.  So the search is
a meet in the middle over the window 0 < |p| <= EXPONENT_RADIUS: one table
of a-first normal forms, built a syllable at a time from the level before,
matched against its own image under the automorphism exchanging a and b,
which fixes Delta and swaps the first letter of every simple; that image
is the table of b-first forms, with no multiplication.  A hit is a FAIL,
its word the witness cycle; with none the link passes within the window,
PASS-within-radius.  Exponents outside the window are settled by Appel
and Schupp (1983): a relator of A_m has at least 2m syllables.  So m = 3
fails (aba = bab has 6) and m >= 4 passes, which the window confirms.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .defining_graph import GraphError, Instance, InterEdge
from .dihedral_garside import DihedralElement, DihedralEngine
from .link_builder import (
    TWO_PI_UNITS,
    LinkGraph,
    build_link_empty,
    build_link_single,
    interedge_development,
    vertex_label,
)
from .poset_complex import INTEREDGE_CASE, TRIANGLE_UNITS, subset_label

# largest mixed-weight link, in edges, that the girth search accepts
_WEIGHTED_EDGE_LIMIT = 20000


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


def _check_bipartite(adj: list[list[int]]) -> None:
    """Raise unless the graph has a 2-colouring."""
    colour = [-1] * len(adj)
    for s in range(len(adj)):
        if colour[s] >= 0:
            continue
        colour[s] = 0
        stack = [s]
        while stack:
            x = stack.pop()
            c = 1 - colour[x]
            for y in adj[x]:
                if colour[y] < 0:
                    colour[y] = c
                    stack.append(y)
                elif colour[y] != c:
                    raise GraphError(f"odd cycle through vertex {y}: graph is not bipartite")


def _bfs_girth(adj: list[list[int]], roots: list[int]) -> tuple[int, list[int]] | None:
    """Exact girth (edge count) of a simple bipartite graph, with a simple
    witness cycle; raises :class:`GraphError` on a graph that is not
    bipartite.  The roots must meet every cycle.

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
    on a minimal cycle.
    """
    _check_bipartite(adj)
    n = len(adj)
    # dist and parent are valid where mark holds the current root
    mark, dist, parent = [-1] * n, [0] * n, [-1] * n
    best: tuple[int, list[int]] | None = None
    for r in roots:
        if best is not None and best[0] == 4:
            break
        mark[r], dist[r], parent[r] = r, 0, -1
        frontier = [r]
        depth = 0
        closing: tuple[int, int] | None = None
        while frontier and closing is None and (best is None or 2 * depth + 2 < best[0]):
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


def _girth_subdivided(link: LinkGraph, weights: set[int]) -> tuple[int, list[int]]:
    """Search a link that is not a forest, its edge weights ``weights``,
    with each edge of w units subdivided into k * w / g unit edges (see the
    module docstring); return the length in units and the witness on the
    link's own vertices.  Subdivision vertices are numbered after those and
    have degree 2, so a simple cycle runs through whole paths and is a
    simple cycle of the link.  The roots are the smaller side of the link's
    own vertices, which every cycle meets."""
    if len(weights) > 1 and len(link.edges) > _WEIGHTED_EDGE_LIMIT:
        raise GraphError(
            f"the {link.case} link has {len(link.edges)} edges; the weighted "
            f"girth search takes at most {_WEIGHTED_EDGE_LIMIT}"
        )
    g = math.gcd(*weights)
    k = 1 if all(w // g % 2 for w in weights) else 2
    n = link.vertex_count
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j, w in link.edges:
        x = i
        for _ in range(k * w // g - 1):
            adj.append([x])
            adj[x].append(len(adj) - 1)
            x = len(adj) - 1
        adj[x].append(j)
        adj[j].append(x)
    side0 = [i for i in range(n) if link.sides[i] == 0]
    side1 = [i for i in range(n) if link.sides[i] == 1]
    found = _bfs_girth(adj, side0 if len(side0) <= len(side1) else side1)
    assert found is not None, "a link that is not a forest has a cycle"
    steps, cycle = found
    return steps * g // k, [v for v in cycle if v < n]


def shortest_embedded_cycle(link: LinkGraph) -> CycleCertificate:
    """Exact minimum-length simple cycle of a link graph."""
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
    length, cycle = _girth_subdivided(link, {w for _, _, w in link.edges})
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
    status: str  # PASS-complete | PASS-within-radius | PASS-lemma | FAIL
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
    if not cert.passes:
        return "FAIL"
    return "PASS-complete" if cert.complete else "PASS-within-radius"


def _stats(link: LinkGraph) -> dict:
    return {
        "vertices": link.vertex_count,
        "edges": len(link.edges),
        "requested_radius": link.truncation.requested_radius,
        "achieved_radius": link.truncation.achieved_radius,
        "truncated": link.truncation.truncated,
    }


# the fewest coset vertices a cycle of a link at a T coset can pass
# through, by the lemma of the module docstring
LEMMA_COSETS = 4


def _cosets_needed(case: str) -> int:
    """Coset vertices a cycle needs to reach 2pi in the link at a T of this
    TRIANGLE_UNITS case: 2 edges of T-corner units per coset vertex."""
    return -(-TWO_PI_UNITS // (2 * TRIANGLE_UNITS[case][2]))


def _lemma_entry(case: str, members: list[str]) -> LinkCertificate:
    """The entry of every link of one TRIANGLE_UNITS case that the coset
    lemma certifies."""
    needed = _cosets_needed(case)
    if needed > LEMMA_COSETS:
        raise AssertionError(
            f"{case} links need {needed} coset vertices; the lemma gives {LEMMA_COSETS}"
        )
    part = case == "part"
    return LinkCertificate(
        case="part" if part else "inter-edge",
        descriptor=f"links of the {'part' if part else 'disjoint inter-edge'} cosets",
        status="PASS-lemma",
        certificate=None,
        members=members,
        stats={
            "cosets_needed": needed,
            "units": TRIANGLE_UNITS[case][2],
            "note": (
                "no cycle through 2 or 3 coset vertices: standard parabolic "
                "subgroups A_X and A_Y intersect in A_(X cap Y) (van der Lek)"
            ),
        },
    )


# every exponent of a searched syllable word satisfies 0 < |p| <= EXPONENT_RADIUS
EXPONENT_RADIUS = 8


def _syllable_search(
    engine: DihedralEngine, counts: Iterable[int]
) -> tuple[list[int], list[tuple[int, ...]], int]:
    """Search the cyclic words a^p_1 b^q_1 ... of each even syllable count
    in ``counts``, a and b the engine's generators and every exponent in the
    window, for trivial ones (see the module docstring).

    Returns the counts searched, which stop at the first with a hit; the
    exponents of every trivial word of that count, sorted by the window
    order of their exponents, which puts smaller exponents first and each
    positive one before its negative; and the number of normal forms
    hashed.  ``level`` holds the a-first words of one syllable count, each
    with its normal form.
    """
    window = [p for n in range(1, EXPONENT_RADIUS + 1) for p in (n, -n)]
    rank = {p: i for i, p in enumerate(window)}
    a, b = engine.generators
    other = {a: b, b: a}
    level: list[tuple[tuple[int, ...], DihedralElement]] = [((), engine.identity)]
    searched: list[int] = []
    hits: list[tuple[int, ...]] = []
    words = 0
    for k in counts:
        while len(level[0][0]) < k // 2:
            g = b if len(level[0][0]) % 2 else a
            level = [
                (exps + (p,), engine.mult_power(el, g, p)) for exps, el in level for p in window
            ]
        table: dict[DihedralElement, list[tuple[int, ...]]] = {}
        for exps, el in level:
            table.setdefault(el, []).append(exps)
        words += len(level)
        searched.append(k)
        for exps, el in level:
            # el swapped is the normal form of b^x_1 a^x_2 ... for exps = x,
            # and each a-first word equal to it closes with its inverse
            lefts = table.get(DihedralElement(el.k, tuple([(other[f], n) for f, n in el.tail])))
            if lefts:
                right = tuple(-p for p in reversed(exps))
                hits += [left + right for left in lefts]
        if hits:
            break
    hits.sort(key=lambda w: [rank[p] for p in w])
    return searched, hits, words


def _relation_cycle(engine: DihedralEngine, exponents: tuple[int, ...]) -> list[str]:
    """The labels of the cycle 1, 1<s_1>, h_1, h_1<s_2>, ..., h_i the
    product of the first i syllables of a trivial word with these
    exponents, checked: the word's normal form is the identity, the
    elements and the cosets are distinct, and h_i lies in h_(i-1)<s_i>."""
    gens = engine.generators
    letters = [gens[i % 2] for i in range(len(exponents))]
    elements = [engine.identity]
    for s, p in zip(letters, exponents):
        elements.append(engine.mult_power(elements[-1], s, p))
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


def _window_entry(inst: Instance, case: str, group: list[InterEdge]) -> LinkCertificate:
    """The entry of one label class of inter-edge links of this
    TRIANGLE_UNITS case, by the syllable search of the module docstring."""
    dev = interedge_development(inst, group[0])
    needed = _cosets_needed(case)
    counts = range(LEMMA_COSETS + LEMMA_COSETS % 2, needed, 2)
    searched, hits, words = _syllable_search(dev.engine, counts)
    stats = {
        "cosets_needed": needed,
        "syllables_searched": searched,
        "exponent_radius": EXPONENT_RADIUS,
        "words": words,
        "units": dev.units,
    }
    members = [subset_label(e.pair) for e in group]
    if not hits:
        return LinkCertificate(dev.case, dev.descriptor, "PASS-within-radius", None, members, stats)
    # the first hit: fewest syllables, then the window order of its exponents
    cycle = _relation_cycle(dev.engine, hits[0])
    cert = CycleCertificate(
        passes=False,
        length_units=len(cycle) * dev.units,
        edge_count=len(cycle),
        cycle=cycle,
        complete=False,
    )
    return LinkCertificate(dev.case, dev.descriptor, "FAIL", cert, members, stats)


def certify_link_condition(inst: Instance) -> CertificationReport:
    """Run every link of the instance through the cycle search, the coset
    lemma where 2pi needs at most LEMMA_COSETS coset vertices, or the
    syllable search.

    Finite links give PASS-complete.  Part links and disjoint inter-edge
    links give PASS-lemma, one entry per case listing every member.
    Non-disjoint inter-edges are searched once per label, in the exponent
    window, and give PASS-within-radius or a FAIL with its witness cycle.
    """
    entries: list[LinkCertificate] = []

    def searched(link: LinkGraph, members: list[str]) -> LinkCertificate:
        cert = shortest_embedded_cycle(link)
        return LinkCertificate(link.case, link.descriptor, _status(cert), cert, members, _stats(link))

    entries.append(searched(build_link_empty(inst), ["[1]"]))
    for s in sorted(inst.inter_edges_at):
        entries.append(searched(build_link_single(inst, s), [s]))

    lemma = {"part": [subset_label(frozenset(p)) for p in inst.family.parts]}
    classes: dict[tuple[int, str], list[InterEdge]] = {}
    for e in inst.inter_edges:
        case = INTEREDGE_CASE[inst.disjoint[e.pair]]
        if _cosets_needed(case) <= LEMMA_COSETS:
            lemma.setdefault(case, []).append(subset_label(e.pair))
        else:
            classes.setdefault((e.label, case), []).append(e)
    entries += [_lemma_entry(case, members) for case, members in lemma.items()]
    entries += [_window_entry(inst, case, classes[m, case]) for m, case in sorted(classes)]

    ok = all(e.status != "FAIL" for e in entries)
    return CertificationReport(ok=ok, entries=entries)
