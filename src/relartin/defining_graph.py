"""Labeled defining graphs, vertex-set families, and the relative extra-large conditions.

A defining graph is a finite simplicial graph whose edges carry integer labels
m >= 2.  Vertices are generators; an edge {s, t} with label m imposes the
relation prod(s,t;m) = prod(t,s;m), where prod(x,y;m) is the alternating word
xyxy... of length m.  A missing edge means the two generators satisfy no
relation at all (m = infinity).

A family is an ordered list of disjoint, non-empty vertex subsets covering the
graph.  Edges inside a part are "intra" edges; edges joining two different
parts are "inter" edges.  The relative extra-large conditions constrain the
labels of inter edges only:

  REL   every inter edge has label >= 4;
  REL'  every inter edge that shares a vertex with a distinct inter edge has
        label >= 4 (an isolated inter edge may carry label 2 or 3).

REL implies REL'.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence


class GraphError(ValueError):
    """Malformed graph, family, or input document."""


@dataclass(frozen=True)
class DefiningGraph:
    """Finite simplicial graph with integer edge labels >= 2.

    ``edges`` is canonically sorted with u < v in every entry.  Use
    :meth:`build` rather than the raw constructor so that edge order and
    validation are taken care of.
    """

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str, int], ...]

    @classmethod
    def build(cls, vertices: Iterable[str], edges: Iterable[tuple[str, str, int]]) -> "DefiningGraph":
        vs = tuple(vertices)
        seen: set[str] = set()
        for v in vs:
            if not isinstance(v, str) or not v:
                raise GraphError(f"vertex names must be non-empty strings, got {v!r}")
            if v in seen:
                raise GraphError(f"duplicate vertex {v!r}")
            seen.add(v)
        canon: list[tuple[str, str, int]] = []
        pairs: set[tuple[str, str]] = set()
        for u, v, m in edges:
            if not isinstance(u, str) or not isinstance(v, str):
                raise GraphError(f"edge endpoints must be vertex names, got ({u!r}, {v!r})")
            if u not in seen or v not in seen:
                raise GraphError(f"edge ({u!r}, {v!r}) mentions an unknown vertex")
            if u == v:
                raise GraphError(f"self-loop at {u!r}")
            # bool is an int subclass; reject it explicitly
            if isinstance(m, bool) or not isinstance(m, int):
                raise GraphError(f"edge label must be an integer, got {m!r}")
            if m < 2:
                raise GraphError(f"edge label must be >= 2, got {m} on ({u!r}, {v!r})")
            key = (u, v) if u < v else (v, u)
            if key in pairs:
                raise GraphError(f"parallel edge ({u!r}, {v!r})")
            pairs.add(key)
            canon.append((*key, m))
        return cls(vertices=tuple(sorted(vs)), edges=tuple(sorted(canon)))

    @cached_property
    def adjacency(self) -> dict[str, dict[str, int]]:
        """Each vertex's neighbours with their edge labels, in name order:
        the one form in which the graph's labels and neighbours are read.
        ``edges`` is sorted, so each row fills in name order."""
        rows: dict[str, dict[str, int]] = {v: {} for v in self.vertices}
        for u, v, m in self.edges:
            rows[u][v] = rows[v][u] = m
        return rows

    def label(self, u: str, v: str) -> int | None:
        """Edge label of {u, v}, or None when the edge is absent (m = infinity)."""
        return self.adjacency.get(u, {}).get(v)


@dataclass(frozen=True)
class SubgraphFamily:
    """Ordered list of disjoint non-empty vertex subsets covering the graph,
    with ``part_of``, each vertex's part index, kept from validation."""

    parts: tuple[tuple[str, ...], ...]
    part_of: dict[str, int] = field(compare=False, repr=False)

    @classmethod
    def build(cls, graph: DefiningGraph, parts: Sequence[Iterable[str]]) -> "SubgraphFamily":
        vs = set(graph.vertices)
        norm: list[tuple[str, ...]] = []
        seen: dict[str, int] = {}
        for i, part in enumerate(parts):
            p = list(part)
            for v in p:
                if not isinstance(v, str):
                    raise GraphError(f"family part {i} holds {v!r}, not a vertex name")
            p.sort()
            if not p:
                raise GraphError(f"family part {i} is empty")
            for v in p:
                if v not in vs:
                    raise GraphError(f"family part {i} mentions unknown vertex {v!r}")
                if v in seen:
                    where = f"twice in family part {i}" if seen[v] == i else (
                        f"in family parts {seen[v]} and {i}"
                    )
                    raise GraphError(f"vertex {v!r} appears {where}")
                seen[v] = i
            norm.append(tuple(p))
        if len(seen) != len(vs):
            missing = sorted(vs - seen.keys())
            raise GraphError(f"family does not cover vertices {missing}")
        if not norm:
            raise GraphError("family has no parts")
        return cls(parts=tuple(norm), part_of=seen)


class InterEdge(NamedTuple):
    """Edge joining two distinct family parts.  ``u < v`` canonically, so
    ``(u, v)`` is the sorted member tuple of the edge, the key of its facts."""

    u: str
    v: str
    label: int
    part_u: int
    part_v: int


@dataclass(frozen=True)
class Instance:
    """A defining graph with its family of parts, and the facts every check
    derives from the pair, each computed on first use and then kept."""

    graph: DefiningGraph
    family: SubgraphFamily

    @cached_property
    def inter_edges(self) -> tuple[InterEdge, ...]:
        # the module-level function of the same name, not this property
        return inter_edges(self)

    @cached_property
    def inter_edges_at(self) -> dict[str, tuple[InterEdge, ...]]:
        """The inter edges at each inter-edge vertex, sorted by vertex pair."""
        at: dict[str, list[InterEdge]] = {}
        for e in self.inter_edges:
            at.setdefault(e.u, []).append(e)
            at.setdefault(e.v, []).append(e)
        return {v: tuple(es) for v, es in at.items()}

    @cached_property
    def disjoint(self) -> dict[tuple[str, str], bool]:
        """For each inter-edge ``(u, v)``, whether it shares no vertex with any
        other inter edge."""
        from . import poset_complex

        return poset_complex.disjoint_inter_edges(self)

    @cached_property
    def spherical(self):
        """The graph's spherical subsets (see :mod:`relartin.coxeter`)."""
        from . import coxeter

        return coxeter.enumerate_spherical_subsets(self.graph)

    @cached_property
    def s_ell(self):
        """The S^l poset (see :mod:`relartin.poset_complex`)."""
        from . import poset_complex

        return poset_complex.build_S_ell(self)


_TOP_KEYS = {"vertices", "edges", "family"}
_EDGE_KEYS = {"u", "v", "m"}


def parse_graph(text: str) -> Instance:
    """Parse the JSON input document.

    Expected shape::

        {"vertices": ["a", ...],
         "edges": [{"u": "a", "v": "b", "m": 4}, ...],
         "family": [["a", ...], ...]}

    The format is strict: unknown keys, duplicate vertices, self-loops,
    parallel edges, labels below 2 and non-covering or overlapping families
    are all rejected with :class:`GraphError`.
    """
    try:
        doc = json.loads(text)
    except RecursionError as exc:
        raise GraphError("invalid JSON: nested too deeply to read") from exc
    except ValueError as exc:
        # a JSONDecodeError, or an integer of more digits than int converts
        raise GraphError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise GraphError("top-level document must be an object")
    extra = set(doc) - _TOP_KEYS
    if extra:
        raise GraphError(f"unknown keys {sorted(extra)}")
    missing = _TOP_KEYS - set(doc)
    if missing:
        raise GraphError(f"missing keys {sorted(missing)}")
    if not isinstance(doc["vertices"], list):
        raise GraphError("'vertices' must be a list")
    if not isinstance(doc["edges"], list):
        raise GraphError("'edges' must be a list")
    if not isinstance(doc["family"], list):
        raise GraphError("'family' must be a list of vertex lists")
    edges: list[tuple[str, str, int]] = []
    for i, entry in enumerate(doc["edges"]):
        if not isinstance(entry, dict):
            raise GraphError(f"edge {i} must be an object")
        if entry.keys() != _EDGE_KEYS:
            extra = entry.keys() - _EDGE_KEYS
            if extra:
                raise GraphError(f"edge {i} has unknown keys {sorted(extra)}")
            raise GraphError(f"edge {i} must have keys u, v, m")
        edges.append((entry["u"], entry["v"], entry["m"]))
    graph = DefiningGraph.build(doc["vertices"], edges)
    for i, part in enumerate(doc["family"]):
        if not isinstance(part, list):
            raise GraphError(f"family part {i} must be a list")
    family = SubgraphFamily.build(graph, doc["family"])
    return Instance(graph, family)


def inter_edges(inst: Instance) -> tuple[InterEdge, ...]:
    """All edges joining two distinct parts, sorted by vertex pair: the
    graph's edges are, so one pass over them keeps that order."""
    part_of = inst.family.part_of
    out: list[InterEdge] = []
    for u, v, m in inst.graph.edges:
        pu, pv = part_of[u], part_of[v]
        if pu != pv:
            out.append(InterEdge(u, v, m, pu, pv))
    return tuple(out)


@dataclass(frozen=True)
class RelVerdict:
    ok: bool
    violations: tuple[InterEdge, ...]


def check_rel(inst: Instance) -> RelVerdict:
    """REL: every inter edge has label >= 4."""
    bad = tuple(e for e in inst.inter_edges if e.label < 4)
    return RelVerdict(ok=not bad, violations=bad)


def check_rel_prime(inst: Instance) -> RelVerdict:
    """REL': every non-isolated inter edge has label >= 4.

    An inter edge is non-isolated when it shares a vertex with a distinct
    inter edge, regardless of which parts that second edge joins: when it
    is not ``inst.disjoint``, the fact the link entries read too.
    """
    disjoint = inst.disjoint
    bad = tuple(e for e in inst.inter_edges if e.label < 4 and not disjoint[e.u, e.v])
    return RelVerdict(ok=not bad, violations=bad)


@dataclass(frozen=True)
class ClassifierReport:
    """Membership flags for the standard presentation classes.

    ``locally_reducible`` is None: deciding it needs input beyond the graph,
    so the classifier never claims it either way.
    """

    spherical_type: bool
    affine_type: bool
    two_dimensional: bool
    fc_type: bool
    large_type: bool
    extra_large_type: bool
    xxl_type: bool
    right_angled: bool
    join_decomposable: bool
    locally_reducible: None
    notes: tuple[str, ...]


def classify_known(graph: DefiningGraph, vertices: Iterable[str]) -> ClassifierReport:
    """Flags for the presentation classes with a known K(pi,1) or known
    acylindrical hyperbolicity status, for the full subgraph on
    ``vertices``, read off its adjacency rows without listing its
    subsets (see :mod:`relartin.coxeter`).  Label quantifiers run over the
    edges that are present; a subgraph with no edges is therefore
    vacuously large/extra-large/XXL and right-angled.
    """
    from . import coxeter

    inside = frozenset(vertices)
    ctype = coxeter.classify_type(graph, inside)
    rows = graph.adjacency
    labels = {m for v in inside for w, m in rows[v].items() if w in inside}
    notes = (f"coxeter type: {ctype.kind} ({', '.join(ctype.components) or 'empty'})",)
    return ClassifierReport(
        spherical_type=ctype.kind == "finite",
        affine_type=ctype.kind == "affine",
        two_dimensional=not coxeter.has_spherical_triangle(graph, inside),
        fc_type=coxeter.is_fc(graph, inside),
        large_type=all(m >= 3 for m in labels),
        extra_large_type=all(m >= 4 for m in labels),
        xxl_type=all(m >= 5 for m in labels),
        right_angled=all(m == 2 for m in labels),
        join_decomposable=len(coxeter.complement_components(inside, rows)) > 1,
        locally_reducible=None,
        notes=notes,
    )
