"""Coxeter quotient types: finite and affine classification over full subgraphs.

The quotient of the group presented by a defining graph adds s^2 = 1 for every
generator.  Whether that quotient is finite is read off the *classification
diagram* of the vertex subset: vertices are the generators, and a pair {u, v}
gets a diagram edge when its label differs from 2 (a missing defining edge is
recorded as an infinity label).  Connected diagram components are matched
against the classical finite and affine catalogues:

  finite  A_n, B_n (n>=2), D_n (n>=4), E6 E7 E8, F4, H3 H4, I2(m) (m>=3)
  affine  ~A1 (infinity edge), ~A_n (cycle, n>=2), ~B_n (n>=3), ~C_n (n>=2),
          ~D_n (n>=4), ~E6 ~E7 ~E8, ~F4, ~G2

Anything else is indefinite.  A subset is *spherical* exactly when every
component is finite.

Every spherical subset is a clique of the defining graph: a missing defining
edge is an infinity diagram label, and a component carrying one is ~A1 or
indefinite.  Sphericity is also hereditary.  So the spherical subsets are
found by growing cliques: a spherical set is extended only by a vertex above
its largest member that is adjacent to every member, which proposes each
clique exactly once.

The walk starts at the triangles.  The empty set, every vertex and every
edge are spherical by definition: an edge's diagram is A1 x A1, A2, B2 or
I2(m), all finite.  A triangle whose three labels are all 3 or more is ~A2
or indefinite, so every spherical triangle has an edge of label 2, and the
triangles tried are the common neighbours of the label-2 edges.  A
spherical set of four or more vertices has a spherical 3-vertex prefix,
by heredity, so growing each spherical triangle above its largest vertex
reaches every larger spherical set exactly once, and the list is the one
growing every clique from the empty set gives.

The walk is bounded: a right-angled clique of k vertices has 2^k spherical
subsets, so once it has listed more than ``SPHERICAL_CAP`` = 2^18 subsets
it raises GraphError naming the count reached.  A part of 17 commuting
vertices is listed; one of 18 or more is refused.

The classifier's flags list no subsets.  The full subgraph on a vertex set
is 2-dimensional when no three of its vertices are spherical, and FC when
every clique is spherical.  A minimal non-spherical clique is
diagram-connected: were it split into two diagram components, it would be
the product of two proper subsets, spherical by minimality, and so
spherical itself.  Its vertices can be ordered so that every prefix is
diagram-connected, and every proper prefix is a spherical clique.  So the
subgraph is FC exactly when growing diagram-connected cliques, one
diagram neighbour at a time and only while they stay spherical, never
meets a non-spherical one.  On a right-angled subgraph no pair is a
diagram edge, and the growth stops after one step per vertex.

A candidate is decided by one diagram component.  The Coxeter group of a
vertex set is the direct product of the groups of its diagram components
(Humphreys, *Reflection Groups and Coxeter Groups*, 1990, sections 2.7 and
6.5), so it is finite exactly when every component is.  When a vertex v is
added to a spherical set B, the components of B that hold a diagram
neighbour of v (a label other than 2; every label exists, since the
candidate is a clique) merge with v into one component, and every other
component of B is left as it was, finite because B is spherical.  So B + v
is spherical exactly when that merged component is finite.  A connected
three-vertex component of a clique is a path, whose third pair has label 2,
or a triangle, and its type depends only on the multiset of its three
labels: each path type (A3, B3, H3, ~C2, ~G2) reads the same from either
end, and a triangle is ~A2 when every label is 3 and indefinite otherwise.
So the enumeration classifies a three-vertex component once per sorted
label triple, and a larger one once per vertex set.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .defining_graph import DefiningGraph, GraphError

# diagram label for a missing defining edge
INFINITY: None = None


@dataclass(frozen=True)
class CoxeterType:
    """kind is 'finite', 'affine' or 'indefinite'; components are the
    irreducible factor names, sorted."""

    kind: str
    components: tuple[str, ...]


def diagram_edges(
    graph: DefiningGraph, subset: Iterable[str]
) -> dict[frozenset[str], int | None]:
    """Classification-diagram edges on ``subset``: label m when m != 2,
    INFINITY when the defining edge is absent, nothing when m == 2."""
    verts = sorted(set(subset))
    rows = _rows(graph, verts)
    out: dict[frozenset[str], int | None] = {}
    for i, u in enumerate(verts):
        for v in verts[i + 1 :]:
            # an absent edge reads INFINITY
            m = rows[u].get(v, INFINITY)
            if m != 2:
                out[frozenset((u, v))] = m
    return out


def _rows(graph: DefiningGraph, verts: list[str]) -> dict[str, dict[str, int]]:
    """The graph's adjacency map, after checking that it holds ``verts``."""
    rows = graph.adjacency
    unknown = [v for v in verts if v not in rows]
    if unknown:
        raise GraphError(f"unknown vertices {unknown}")
    return rows


def complement_components(
    verts: Iterable[str], apart: Mapping[str, Iterable[str]]
) -> list[list[str]]:
    """The components of the graph on ``verts`` that joins every pair except
    those ``apart`` names (``apart[v]`` holds the vertices not joined to v,
    and may name vertices outside ``verts``), each sorted, in order of their
    least vertex.  A popped vertex reaches every unvisited vertex not apart
    from it, so only those apart stay unvisited, and the walk costs the
    vertices plus the pairs named."""
    unvisited = set(verts)
    comps: list[list[str]] = []
    for start in sorted(unvisited):
        if start not in unvisited:
            continue
        unvisited.remove(start)
        comp = [start]
        stack = [start]
        while stack:
            reached = unvisited
            unvisited = reached.intersection(apart[stack.pop()])
            reached -= unvisited
            comp += reached
            stack += reached
        comps.append(sorted(comp))
    return comps


def _classify_path(labels: list[int]) -> str:
    """Name of the type of a path diagram given its edge labels in order."""
    k = len(labels)
    n = k + 1
    if all(l == 3 for l in labels):
        return f"A{n}"
    if k == 1:
        m = labels[0]
        if m == 4:
            return "B2"
        return f"I2({m})"
    non3 = [(i, l) for i, l in enumerate(labels) if l != 3]
    if len(non3) == 1:
        i, l = non3[0]
        at_end = i in (0, k - 1)
        if l == 4:
            if at_end:
                return f"B{n}"
            if k == 3:
                return "F4"
            if k == 4:
                return "~F4"
            return "indefinite"
        if l == 5 and at_end and n in (3, 4):
            return f"H{n}"
        if l == 6 and at_end and n == 3:
            return "~G2"
        return "indefinite"
    if len(non3) == 2:
        (i1, l1), (i2, l2) = non3
        if l1 == 4 and l2 == 4 and i1 == 0 and i2 == k - 1:
            return f"~C{n - 1}"
    return "indefinite"


def _classify_component(verts: list[str], comp_edges: dict[frozenset[str], int]) -> str:
    """The type of a connected diagram on a clique of the defining graph,
    given its diagram edges, none of them infinity."""
    n = len(verts)
    if n == 1:
        return "A1"
    adj: dict[str, list[str]] = {v: [] for v in verts}
    for e in comp_edges:
        u, v = sorted(e)
        adj[u].append(v)
        adj[v].append(u)
    ne = len(comp_edges)
    if ne > n:
        return "indefinite"
    if ne == n:
        # a single cycle through every vertex, all labels 3
        if all(len(adj[v]) == 2 for v in verts) and all(
            m == 3 for m in comp_edges.values()
        ):
            return f"~A{n - 1}"
        return "indefinite"
    # tree from here on
    branch = [v for v in verts if len(adj[v]) >= 3]
    if not branch:
        # walk the path from one endpoint
        ends = [v for v in verts if len(adj[v]) == 1]
        prev, cur = None, min(ends)
        labels: list[int] = []
        while True:
            nxt = [w for w in adj[cur] if w != prev]
            if not nxt:
                break
            labels.append(comp_edges[frozenset((cur, nxt[0]))])
            prev, cur = cur, nxt[0]
        return _classify_path(labels)
    if len(branch) == 1:
        b = branch[0]
        if len(adj[b]) == 4:
            if n == 5 and all(m == 3 for m in comp_edges.values()):
                return "~D4"
            return "indefinite"
        if len(adj[b]) > 4:
            return "indefinite"
        arms: list[list[int]] = []
        for w in sorted(adj[b]):
            labels = [comp_edges[frozenset((b, w))]]
            prev, cur = b, w
            while True:
                nxt = [x for x in adj[cur] if x != prev]
                if not nxt:
                    break
                labels.append(comp_edges[frozenset((cur, nxt[0]))])
                prev, cur = cur, nxt[0]
            arms.append(labels)
        arms.sort(key=len)
        lens = tuple(len(a) for a in arms)
        if all(l == 3 for a in arms for l in a):
            if lens[0] == 1 and lens[1] == 1:
                return f"D{lens[2] + 3}"
            if lens == (1, 2, 2):
                return "E6"
            if lens == (1, 2, 3):
                return "E7"
            if lens == (1, 2, 4):
                return "E8"
            if lens == (2, 2, 2):
                return "~E6"
            if lens == (1, 3, 3):
                return "~E7"
            if lens == (1, 2, 5):
                return "~E8"
            return "indefinite"
        # fork of two simple leaves plus one arm of 3s ending in a single 4
        non3_arms = [a for a in arms if any(l != 3 for l in a)]
        if len(non3_arms) == 1:
            tail = non3_arms[0]
            others = [a for a in arms if a is not tail]
            if (
                all(len(a) == 1 and a[0] == 3 for a in others)
                and tail[-1] == 4
                and all(l == 3 for l in tail[:-1])
            ):
                return f"~B{len(tail) + 2}"
        return "indefinite"
    if len(branch) == 2:
        b1, b2 = branch
        if (
            len(adj[b1]) == 3
            and len(adj[b2]) == 3
            and all(m == 3 for m in comp_edges.values())
            and sum(1 for w in adj[b1] if len(adj[w]) == 1) >= 2
            and sum(1 for w in adj[b2] if len(adj[w]) == 1) >= 2
        ):
            return f"~D{n - 1}"
        return "indefinite"
    return "indefinite"


def _kind(names: list[str]) -> str:
    """The kind of a product of components with these type names."""
    if any(n == "indefinite" for n in names):
        return "indefinite"
    if any(n.startswith("~") for n in names):
        return "affine"
    return "finite"


def classify_type(graph: DefiningGraph, subset: Iterable[str]) -> CoxeterType:
    """The type of the full subgraph on ``subset``.  Its diagram components
    are the complement components of its label-2 edges.  A component that
    is not a clique carries an infinity label, so it is ~A1 on two vertices
    and indefinite otherwise; only a clique's pairs are listed."""
    verts = sorted(set(subset))
    rows = _rows(graph, verts)
    # diagram edges join every pair whose label is not 2, absent edges too
    commuting = {v: [w for w, m in rows[v].items() if m == 2] for v in verts}
    names = []
    for comp in complement_components(verts, commuting):
        inside = set(comp)
        if all(len(inside.intersection(rows[v])) == len(comp) - 1 for v in comp):
            names.append(_classify_component(comp, diagram_edges(graph, comp)))
        else:
            # an absent edge is an infinity label
            names.append("~A1" if len(comp) == 2 else "indefinite")
    names.sort()
    return CoxeterType(kind=_kind(names), components=tuple(names))


def is_spherical(graph: DefiningGraph, subset: Iterable[str]) -> bool:
    """True when the Coxeter quotient of the full subgraph on ``subset`` is
    finite."""
    return classify_type(graph, subset).kind == "finite"


def _finite_components(labels: Mapping[str, Mapping[str, int]]):
    """A test of whether a diagram-connected clique is finite, memoised for
    the caller's lifetime: by sorted label triple for three vertices (see
    the module docstring), by vertex set for more."""
    finite: dict[object, bool] = {}

    def is_finite(comp: frozenset[str]) -> bool:
        if len(comp) == 3:
            a, b, c = comp
            key: object = tuple(sorted((labels[a][b], labels[a][c], labels[b][c])))
        else:
            key = comp
        if key not in finite:
            verts = sorted(comp)
            edges = {
                frozenset((x, y)): labels[x][y]
                for i, x in enumerate(verts)
                for y in verts[i + 1 :]
                if labels[x][y] != 2
            }
            finite[key] = _kind([_classify_component(verts, edges)]) == "finite"
        return finite[key]

    return is_finite


# the most spherical subsets ``enumerate_spherical_subsets`` lists
SPHERICAL_CAP = 2**18


def enumerate_spherical_subsets(graph: DefiningGraph) -> list[frozenset[str]]:
    """Every vertex subset with finite Coxeter quotient, smallest first and
    each size in lexicographic order.

    The empty set, the vertices and the edges are spherical.  A spherical
    triangle has a label-2 edge, so the triangles tried are the common
    neighbours of those edges.  Each larger spherical set grows from its
    spherical 3-vertex prefix, only by common neighbours above its largest
    vertex, so every clique above a triangle is proposed once and
    non-cliques never are (module docstring).

    Each candidate is decided by the one diagram component its new vertex
    changes (see the module docstring).  The components' verdicts are
    memoised for this call only.

    A graph with more than ``SPHERICAL_CAP`` spherical subsets raises
    GraphError naming the count reached: a right-angled clique of k
    vertices has 2^k of them.
    """
    labels = graph.adjacency
    vertices = graph.vertices
    linked = {v: frozenset(w for w, m in labels[v].items() if m != 2) for v in labels}
    is_finite = _finite_components(labels)

    def grown(comps: tuple[frozenset[str], ...], v: str):
        """The diagram components of a spherical set with its components
        ``comps`` and v added, or None when that set is not spherical."""
        near = linked[v]
        joined = [c for c in comps if not c.isdisjoint(near)]
        merged = frozenset((v,)).union(*joined)
        # one or two clique vertices are A1, A2, B2 or I2(m)
        if len(merged) > 2 and not is_finite(merged):
            return None
        return tuple(c for c in comps if c not in joined) + (merged,)

    def check_cap(size: int) -> None:
        if len(out) > SPHERICAL_CAP:
            raise GraphError(
                f"more than {SPHERICAL_CAP} spherical subsets: the walk reached "
                f"{len(out)} at size {size}, too many to list"
            )

    out = [frozenset()]
    out += [frozenset((v,)) for v in vertices]
    out += [frozenset((u, v)) for u in vertices for v in labels[u] if v > u]
    check_cap(2)
    triangles = sorted(
        {
            tuple(sorted((u, v, w)))
            for u in vertices
            for v, m in labels[u].items()
            if m == 2 and u < v
            for w in labels[u].keys() & labels[v].keys()
        }
    )
    # (spherical set as a sorted tuple, its common neighbours above its max,
    # its diagram components)
    level: list[tuple[tuple[str, ...], tuple[str, ...], tuple[frozenset[str], ...]]] = []
    for a, b, c in triangles:
        # only the last step can meet an infinite component
        comps = grown(grown(grown((), a), b), c)
        if comps is not None:
            out.append(frozenset((a, b, c)))
            common = tuple(w for w in labels[c] if w > c and w in labels[a] and w in labels[b])
            level.append(((a, b, c), common, comps))
    check_cap(3)
    while level:
        nxt = []
        for base, above, comps in level:
            for i, v in enumerate(above):
                comps_v = grown(comps, v)
                if comps_v is None:
                    continue
                cand = base + (v,)
                out.append(frozenset(cand))
                nxt.append((cand, tuple(w for w in above[i + 1 :] if w in labels[v]), comps_v))
            check_cap(len(base) + 1)
        level = nxt
    return out


def has_spherical_triangle(graph: DefiningGraph, subset: Iterable[str]) -> bool:
    """True when the full subgraph on ``subset`` has a spherical clique of
    three vertices.  A triangle of labels 3 or more is ~A2 or indefinite,
    so each spherical one has an edge {u, v} of label 2, and only common
    neighbours w of such edges are tried.  With a second label 2 the
    diagram has at most one edge, A1 x A1 x A1 or A1 x I2(m); otherwise it
    is the path u - w - v."""
    inside = set(subset)
    rows = _rows(graph, sorted(inside))
    is_finite = _finite_components(rows)
    for u in inside:
        for v, m in rows[u].items():
            if m == 2 and u < v and v in inside:
                for w in rows[u].keys() & rows[v].keys() & inside:
                    if 2 in (rows[u][w], rows[v][w]) or is_finite(frozenset((u, v, w))):
                        return True
    return False


def is_fc(graph: DefiningGraph, subset: Iterable[str]) -> bool:
    """True when every clique of the full subgraph on ``subset`` is
    spherical, found by growing diagram-connected cliques while they stay
    spherical (module docstring).  A clique grows by a vertex joined to
    all of it and a diagram neighbour of one member, so it stays
    diagram-connected and is decided as one component."""
    inside = set(subset)
    rows = _rows(graph, sorted(inside))
    is_finite = _finite_components(rows)
    linked = {v: {w for w, m in rows[v].items() if m != 2 and w in inside} for v in inside}
    seen: set[frozenset[str]] = set()
    stack = [frozenset((v,)) for v in inside]
    while stack:
        clique = stack.pop()
        for w in set().union(*(linked[v] for v in clique)) - clique:
            grown = clique | {w}
            if grown in seen or not clique <= rows[w].keys():
                continue
            # one or two clique vertices are A1, A2, B2 or I2(m)
            if len(grown) > 2 and not is_finite(grown):
                return False
            seen.add(grown)
            stack.append(grown)
    return True
