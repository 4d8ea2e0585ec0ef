"""Weighted link graphs at each vertex type of the coset complex.

The complex has one vertex orbit per element of S^l, so four links cover
everything:

  empty       link of the trivial coset: finite bipartite graph with the
              inter-edge-vertex subgroups on one side, the parts and
              inter-edge subgroups on the other;
  single      link of an inter-edge-vertex subgroup coset: complete
              bipartite between the powers of the generator and the parts
              or inter-edges above it; only finitely many powers are drawn,
              which cannot change the cycle structure of a complete
              bipartite graph;
  part        link of a part subgroup coset, developed as a ball: element
              cosets on one side, generator-cyclic cosets on the other;
              needs an exact word-problem engine;
  inter-edge  link of an inter-edge subgroup coset, developed with the
              dihedral engine.

An edge of a link is the angle, at the link's own corner, of the metric
triangle [empty < {s} < T] it crosses: the empty, {s} or T corner of
``poset_complex.TRIANGLE_UNITS`` for the empty, single and developed links.
Lengths are integer units of pi/8; the 2pi threshold is the integer 16.

Developments are balls of infinite graphs.  Enumeration keeps only complete
word-length levels under the element cap, records the achieved radius, and
marks outer-level element vertices and every coset vertex touching them as
boundary.  An element vertex is labelled by its normal form, and a coset
vertex el<g> by the label of the element vertex el that first met it,
followed by ``.<g>``.
Coset vertices follow the ball's Cayley edges from ``ball_levels``: an
element with a lower-numbered neighbour along g joins that neighbour's
coset vertex of g, and only the others compute a coset key.  The edges
are ``Rows`` columns, ``v`` the coset targets, checked as columns.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count, repeat
from operator import add, itemgetter, mul, ne

from .defining_graph import GraphError, Instance, InterEdge
from .dihedral_garside import BALL_CAP, DihedralEngine, engine_for_part
from .poset_complex import INTEREDGE_CASE, TRIANGLE_UNITS, dot_escape, subset_label

TWO_PI_UNITS = 16
# the lengths a link edge may have, in units of pi/8
_UNIT_RANGE = frozenset((1, 2, 3, 4))


class UnsupportedPartError(GraphError):
    """No exact word-problem engine exists for this part."""


@dataclass(frozen=True)
class TruncationInfo:
    complete: bool
    truncated: bool = False
    requested_radius: int | None = None
    achieved_radius: int | None = None
    cap: int | None = None


class Rows:
    """JSON objects of one key set as columns, for the writers of
    ``relartin.cli``: each key, in text order, maps to a list of one value
    per row.  Iteration spells each row's values as a tuple in key order."""

    def __init__(self, columns: dict[str, list]):
        self.columns = columns

    def __len__(self) -> int:
        return len(next(iter(self.columns.values())))

    def __iter__(self):
        return zip(*self.columns.values())


@dataclass
class LinkGraph:
    """Simple weighted graph with a bipartition and development metadata,
    checked to be simple and bipartite when it is built."""

    case: str
    descriptor: str
    vertex_kinds: list[str]
    vertex_labels: list[str]
    sides: list[int]
    edges: list[tuple[int, int, int]] | Rows
    truncation: TruncationInfo
    boundary: set[int] = field(default_factory=set)

    def __post_init__(self) -> None:
        self.check_simple_bipartite()

    @property
    def vertex_count(self) -> int:
        return len(self.vertex_labels)

    def edge_columns(self) -> tuple[list[int], list[int], list[int]]:
        """The edges' two ends and lengths as three columns."""
        if type(self.edges) is Rows:
            return tuple(self.edges.columns.values())
        # columns by itemgetter: zip(*edges) would make an iterator per edge
        return tuple(list(map(itemgetter(c), self.edges)) for c in range(3))

    def check_simple_bipartite(self) -> None:
        """Raise GraphError at the first edge that is a self-loop, repeats
        an earlier edge, lies inside one side or has a length outside 1..4
        units.

        The edge columns are first tested all at once: an edge (i, j) is
        coded as the int i n + j for n vertices, and a repeat is a code met
        twice or also met as j n + i; a self-loop lies inside its side.
        Only a graph that fails is scanned edge by edge, to name its first
        fault."""
        us, vs, ws = self.edge_columns()
        if us:
            n = self.vertex_count
            codes = set(map(add, map(mul, us, repeat(n)), vs))
            sides = self.sides.__getitem__
            if (
                len(codes) == len(us)
                and codes.isdisjoint(map(add, map(mul, vs, repeat(n)), us))
                and all(map(ne, map(sides, us), map(sides, vs)))
                and set(ws) <= _UNIT_RANGE
            ):
                return
        seen = set()
        for i, j, w in self.edges:
            if i == j:
                raise GraphError(f"self-loop at vertex {i}")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise GraphError(f"parallel edge {key}")
            seen.add(key)
            if self.sides[i] == self.sides[j]:
                raise GraphError(f"edge {key} inside one side of the bipartition")
            if w not in _UNIT_RANGE:
                raise GraphError(f"edge length {w} outside 1..4 units")

    def to_json_dict(self) -> dict:
        vertices = {"kind": self.vertex_kinds, "label": self.vertex_labels, "side": self.sides}
        vertices["boundary"] = list(map(self.boundary.__contains__, range(self.vertex_count)))
        return {
            "case": self.case,
            "descriptor": self.descriptor,
            "vertices": Rows(vertices),
            "edges": Rows(dict(zip(("u", "v", "units"), self.edge_columns()))),
            "truncation": {
                "complete": self.truncation.complete,
                "truncated": self.truncation.truncated,
                "requested_radius": self.truncation.requested_radius,
                "achieved_radius": self.truncation.achieved_radius,
                "cap": self.truncation.cap,
            },
        }

    def to_dot(self) -> str:
        labels, boundary = self.vertex_labels, self.boundary
        # developed labels are spelled from generator names, so mostly
        # none needs escaping
        joined = "".join(labels)
        if "\\" in joined or '"' in joined:
            labels = list(map(dot_escape, labels))
        lines = [f'graph "{dot_escape(self.descriptor)}" {{']
        lines += [
            f'  n{i} [label="{label}", shape={"box" if side else "ellipse"}'
            f'{", style=dashed" if i in boundary else ""}];'
            for i, label, side in zip(count(), labels, self.sides)
        ]
        lines += [f'  n{i} -- n{j} [label="{w}"];' for i, j, w in zip(*self.edge_columns())]
        lines.append("}")
        return "\n".join(lines)


def build_link_empty(inst: Instance) -> LinkGraph:
    """Finite link of the trivial coset."""
    s_ell = inst.s_ell
    family = inst.family
    uppers = s_ell.members[1:]
    index = {t: i for i, t in enumerate(uppers)}
    kinds, labels, sides = [], [], []
    for t, tags in zip(uppers, s_ell.tag_rows[1:]):
        if "inter-edge" in tags:
            kind = "inter-edge"
        elif "part" in tags:
            # a singleton part that is also an inter-edge vertex sits on the
            # singleton side: its only link edges go up to inter-edges
            kind = "part" if "inter-edge-vertex" not in tags else "singleton"
        else:
            kind = "singleton"
        kinds.append(kind)
        labels.append(subset_label(t))
        sides.append(0 if kind == "singleton" else 1)
    # a singleton's only S^l elements above it are its part and its
    # inter-edges (an inter-edge meets two parts, so it is no part)
    edges: list[tuple[int, int, int]] = []
    for t in uppers:
        if kinds[index[t]] != "singleton":
            continue
        (s,) = t
        part = family.parts[family.part_of[s]]
        if part != t:
            edges.append((index[t], index[part], TRIANGLE_UNITS["part"][0]))
    for e in inst.inter_edges:
        units = TRIANGLE_UNITS[INTEREDGE_CASE[inst.disjoint[e[:2]]]][0]
        for s in e[:2]:
            edges.append((index[(s,)], index[e[:2]], units))
    return LinkGraph(
        case="empty",
        descriptor="link of the trivial coset",
        vertex_kinds=kinds,
        vertex_labels=labels,
        sides=sides,
        edges=sorted(edges),
        truncation=TruncationInfo(complete=True),
    )


# a single link draws the powers s^k with |k| <= SINGLE_POWERS
SINGLE_POWERS = 3


def build_link_single(inst: Instance, s: str) -> LinkGraph:
    """Link of the cyclic subgroup coset at inter-edge vertex s: complete
    bipartite between the drawn powers of s and the parts and inter-edges
    above s, each edge the {s} corner of its triangle; raises
    :class:`GraphError` when s is not an inter-edge vertex.

    Only powers s^k with |k| <= SINGLE_POWERS are drawn.  Extra powers
    attach by the same complete-bipartite rule, so the minimal cycle (4
    edges when both sides have two vertices, none otherwise) is already
    exact; the graph is marked complete.
    """
    ies = inst.inter_edges_at.get(s)
    if not ies:
        raise GraphError(f"{s!r} is not an inter-edge vertex")
    part = inst.family.parts[inst.family.part_of[s]]
    uppers = [("part", part, TRIANGLE_UNITS["part"][1])] if len(part) > 1 else []
    uppers += [
        ("inter-edge", e[:2], TRIANGLE_UNITS[INTEREDGE_CASE[inst.disjoint[e[:2]]]][1])
        for e in ies
    ]
    powers = [f"{s}^{k}" for k in range(-SINGLE_POWERS, SINGLE_POWERS + 1)]
    n_powers = len(powers)
    return LinkGraph(
        case="single",
        descriptor=f"link of the cyclic coset at {s}",
        vertex_kinds=["power"] * n_powers + [kind for kind, _, _ in uppers],
        vertex_labels=powers + [subset_label(t) for _, t, _ in uppers],
        sides=[0] * n_powers + [1] * len(uppers),
        edges=[(i, n_powers + j, w) for i in range(n_powers) for j, (_, _, w) in enumerate(uppers)],
        truncation=TruncationInfo(complete=True, requested_radius=SINGLE_POWERS),
    )


def vertex_label(engine, el, generator: str | None = None) -> str:
    """Label of the element vertex el, or of the coset vertex el<generator>."""
    text = engine.describe(el)
    return text if generator is None else f"{text}.<{generator}>"


@dataclass(frozen=True)
class Development:
    """What a ball development needs besides its radius and cap."""

    engine: object
    units: int
    case: str
    descriptor: str


def part_development(inst: Instance, i: int) -> Development:
    """The development of the link of the part subgroup coset S_i, every
    edge the T corner of a part triangle.

    An exact engine is required; parts that are neither edgeless nor a
    single labeled edge have none and raise :class:`UnsupportedPartError`.
    """
    part = inst.family.parts[i]
    engine = engine_for_part(inst.graph, part)
    if engine is None:
        raise UnsupportedPartError(
            f"no exact word-problem engine for part {list(part)}"
        )
    descriptor = f"link of the part coset {subset_label(part)}"
    return Development(engine, TRIANGLE_UNITS["part"][2], "part", descriptor)


def interedge_development(inst: Instance, edge: InterEdge) -> Development:
    """The development of the link of an inter-edge subgroup coset, every
    edge the T corner of its triangle, which depends on whether the
    inter-edge shares a vertex with another.
    """
    disjoint = inst.disjoint[edge.u, edge.v]
    flavor = "disjoint" if disjoint else "non-disjoint"
    return Development(
        DihedralEngine(edge.u, edge.v, m=edge.label),
        TRIANGLE_UNITS[INTEREDGE_CASE[disjoint]][2],
        "inter-edge",
        f"link of the inter-edge coset {subset_label(edge[:2])} "
        f"(m={edge.label}, {flavor})",
    )


def _develop(dev: Development, radius: int, cap: int) -> LinkGraph:
    """Shared ball development: element vertices on side 0, one coset vertex
    per generator-cyclic coset on side 1, every incidence one edge.

    Element i's coset vertex along the gi-th generator is targets[i * gens
    + gi].  An element whose g or g^-1 neighbour in the ball has a smaller
    number shares that neighbour's coset vertex of g; only the other
    elements pay for ``coset_key``, which stays the exact test because a
    coset can meet the ball in pieces that no g-step joins.  A shared
    coset vertex was created at or before that neighbour, so the
    numbering is the one the keys alone would give.  The element labels
    come first, so a coset vertex is labelled as it is created."""
    if radius < 1:
        raise GraphError("radius must be >= 1")
    engine = dev.engine
    levels, truncated, edges = engine.ball_levels(radius, cap)
    ball = [el for level in levels for el in level]
    elements = len(ball)
    outer = elements - len(levels[-1])
    # element labels, then each coset vertex's label as it is created
    labels = list(map(engine.describe, ball))
    coset_index: dict[tuple, int] = {}
    targets: list[int] = []
    coset_key, generators = engine.coset_key, engine.generators
    gens = len(generators)
    # the ball's slots pair up as (g^+1, g^-1) neighbours in target order
    slot = iter(edges)
    for k, (up, down) in enumerate(zip(slot, slot)):
        i, gi = divmod(k, gens)
        if 0 <= up < i:
            j = targets[up * gens + gi]
        elif 0 <= down < i:
            j = targets[down * gens + gi]
        else:
            g = generators[gi]
            key = coset_key(ball[i], g)
            j = coset_index.get(key)
            if j is None:
                j = coset_index[key] = len(labels)
                labels.append(f"{labels[i]}.<{g}>")
        targets.append(j)
    cosets = len(labels) - elements
    # the outer level's element vertices and every coset vertex they touch
    boundary = set(range(outer, elements))
    boundary.update(targets[outer * gens :])
    # element i's number gens times over, one int object per element
    heads = sorted([*range(elements)] * gens)
    return LinkGraph(
        case=dev.case,
        descriptor=dev.descriptor,
        vertex_kinds=["element"] * elements + ["coset"] * cosets,
        vertex_labels=labels,
        sides=[0] * elements + [1] * cosets,
        edges=Rows({"u": heads, "v": targets, "units": [dev.units] * len(targets)}),
        truncation=TruncationInfo(
            complete=False,
            truncated=truncated,
            requested_radius=radius,
            achieved_radius=len(levels) - 1,
            cap=cap,
        ),
        boundary=boundary,
    )


def develop_link_part(
    inst: Instance,
    i: int,
    radius: int | None = None,
    cap: int = BALL_CAP,
) -> LinkGraph:
    """Ball development of the link of the part subgroup coset S_i (see
    :func:`part_development`).  The default radius is 16."""
    if radius is None:
        radius = 16
    return _develop(part_development(inst, i), radius, cap)


def develop_link_interedge(
    inst: Instance,
    edge: InterEdge,
    radius: int | None = None,
    cap: int = BALL_CAP,
) -> LinkGraph:
    """Ball development of the link of an inter-edge subgroup coset (see
    :func:`interedge_development`).  The default radius is 8m."""
    if radius is None:
        radius = 8 * edge.label
    return _develop(interedge_development(inst, edge), radius, cap)
