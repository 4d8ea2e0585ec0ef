"""Subset posets, derived complexes, the piecewise-Euclidean metric, and the
retraction from the big fundamental domain onto the small one.

Three posets under inclusion:

  S^l   the empty set, the family parts S_i, the inter-edges, and the
        singletons of inter-edge vertices;
  S^f   every subset whose Coxeter quotient is finite;
  S_bar the union of S^l with every subset of every part.

Every order fact of a poset is read off one up-set map,
``SubsetPoset.above``, and its covering relation, both computed once per
poset.  The derived complex of a poset has one simplex per chain.  Only the
S^l complex is ever listed chain by chain, and only for ``build``'s report
and the metric.  The S_bar complex grows with the factorial of the part
sizes, so it is never materialised: its chains are counted by dynamic
programming (``SubsetPoset.chain_count``), and the retraction audit counts
and checks its maximal chains by dynamic programming along the covering
relation, one state per distinct image.  The dimension of a complex comes
from the longest chain of its poset (``SubsetPoset.longest_chain``).

Over S^l the complex is 2-dimensional and every 2-chain has the shape
[empty < {s} < T].  Such a triangle receives Euclidean angles in integer
units of pi/8 from one table, ``TRIANGLE_UNITS``, keyed by the kind of T; the
vertex links read their edge lengths off the same table.  Side lengths
follow the law of sines once the edge [empty, {s}] is normalised to
length 1; they are kept exactly as ratios sin(p pi/8) / sin(q pi/8) with
p, q in {1..4}, one triple per triangle shape.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .defining_graph import GraphError, Instance, SubgraphFamily

def subset_sort_key(t: frozenset) -> tuple:
    return (len(t), tuple(sorted(t)))


def subset_label(t: frozenset) -> str:
    return "{" + ",".join(sorted(t)) + "}"


def dot_escape(text: str) -> str:
    """text for a double-quoted DOT string: backslashes and quotes escaped."""
    return text.replace("\\", "\\\\").replace('"', '\\"')


@dataclass
class SubsetPoset:
    """Finite family of vertex subsets ordered by inclusion, with tags.

    ``elements`` is sorted by ``subset_sort_key``, so by size first.
    """

    elements: tuple[frozenset, ...]
    tags: dict[frozenset, frozenset]

    @classmethod
    def from_tagged(cls, tagged: Iterable[tuple[frozenset, str]]) -> "SubsetPoset":
        tags: dict[frozenset, set[str]] = {}
        for subset, tag in tagged:
            tags.setdefault(subset, set()).add(tag)
        elements = tuple(sorted(tags, key=subset_sort_key))
        return cls(elements=elements, tags={t: frozenset(ts) for t, ts in tags.items()})

    def __contains__(self, subset: frozenset) -> bool:
        return subset in self.tags

    @cached_property
    def above(self) -> dict[frozenset, list[frozenset]]:
        """For each element, the elements strictly above it, in element order.

        An element above a nonempty t contains every vertex of t, so it is
        found among the elements containing t's rarest vertex.
        """
        containing: dict[str, list[frozenset]] = {}
        for u in self.elements:
            for v in u:
                containing.setdefault(v, []).append(u)
        # every element lies above the empty set, which has no rarest vertex
        return {
            t: [u for u in min((containing[v] for v in t), key=len, default=self.elements) if t < u]
            for t in self.elements
        }

    @cached_property
    def upper_covers(self) -> dict[frozenset, list[frozenset]]:
        """For each element, the elements covering it, in element order.

        The elements above ``small`` come in order of size, so a candidate
        ``big`` covers ``small`` exactly when no cover of ``small`` kept so
        far lies below it: a strictly intermediate element would contain a
        cover that is smaller than ``big`` and hence already kept.
        """
        out: dict[frozenset, list[frozenset]] = {}
        for small, bigger in self.above.items():
            kept = out[small] = []
            for big in bigger:
                if not any(c < big for c in kept):
                    kept.append(big)
        return out

    def covers(self) -> list[tuple[frozenset, frozenset]]:
        """Covering relations of the inclusion order (Hasse diagram edges),
        listed by the index of ``small``, then of ``big``."""
        return [(small, big) for small, bigs in self.upper_covers.items() for big in bigs]

    def chain_count(self) -> int:
        """Number of nonempty chains, i.e. of simplices of the derived
        complex, without listing them.

        With f(t) the number of chains whose least element is t,
        f(t) = 1 + sum of f(u) over u > t, and the total is the sum of f.
        """
        f: dict[frozenset, int] = {}
        for t in reversed(self.elements):
            f[t] = 1 + sum(f[u] for u in self.above[t])
        return sum(f.values())

    def longest_chain(self) -> tuple[frozenset, ...]:
        """The first chain of greatest length in derived-complex order (by
        length, then element by element in element order), without listing
        the chains.

        With h(t) the length of the longest chain whose least element is t,
        h(t) = 1 + max of h(u) over u > t.  The chain starts at the first
        element of greatest h and steps each time to the first element above
        with h one less.
        """
        h: dict[frozenset, int] = {}
        for t in reversed(self.elements):
            h[t] = 1 + max((h[u] for u in self.above[t]), default=0)
        chain: list[frozenset] = []
        for need in range(max(h.values(), default=0), 0, -1):
            candidates = self.above[chain[-1]] if chain else self.elements
            chain.append(next(u for u in candidates if h[u] == need))
        return tuple(chain)

    def to_json_dict(self) -> dict:
        return {
            "elements": [
                {"subset": sorted(t), "tags": sorted(self.tags[t])}
                for t in self.elements
            ],
            "covers": [
                [sorted(a), sorted(b)] for a, b in self.covers()
            ],
        }

    def to_dot(self) -> str:
        lines = ["digraph poset {", "  rankdir=BT;"]
        index = {t: i for i, t in enumerate(self.elements)}
        for t in self.elements:
            tag_str = ",".join(sorted(self.tags[t]))
            label = f"{dot_escape(subset_label(t))}\\n{dot_escape(tag_str)}"
            lines.append(f'  n{index[t]} [label="{label}"];')
        for a, b in self.covers():
            lines.append(f"  n{index[a]} -> n{index[b]};")
        lines.append("}")
        return "\n".join(lines)


def build_S_ell(inst: Instance) -> SubsetPoset:
    """The empty set, the parts, the inter-edges, and the singletons of
    inter-edge vertices, each stored once with all applicable tags."""
    tagged: list[tuple[frozenset, str]] = [(frozenset(), "empty")]
    for part in inst.family.parts:
        tagged.append((frozenset(part), "part"))
    for e in inst.inter_edges:
        tagged.append((e.pair, "inter-edge"))
        tagged.append((frozenset((e.u,)), "inter-edge-vertex"))
        tagged.append((frozenset((e.v,)), "inter-edge-vertex"))
    return SubsetPoset.from_tagged(tagged)


def build_S_f(inst: Instance) -> SubsetPoset:
    """The graph's spherical subsets."""
    return SubsetPoset.from_tagged((t, "spherical") for t in inst.spherical)


def build_S_bar(inst: Instance) -> SubsetPoset:
    """S^l together with every subset of every part."""
    s_ell = inst.s_ell
    tagged = [(t, tag) for t in s_ell.elements for tag in s_ell.tags[t]]
    for part in inst.family.parts:
        members = sorted(part)
        for mask in range(1 << len(members)):
            subset = frozenset(m for i, m in enumerate(members) if mask >> i & 1)
            tagged.append((subset, "part-subset"))
    return SubsetPoset.from_tagged(tagged)


@dataclass
class DerivedComplex:
    """All chains of a poset; a chain of n+1 subsets is an n-simplex."""

    poset: SubsetPoset
    chains: tuple[tuple[frozenset, ...], ...]

    @property
    def dimension(self) -> int:
        return max(len(c) for c in self.chains) - 1 if self.chains else -1

    def chains_of_length(self, n: int) -> list[tuple[frozenset, ...]]:
        return [c for c in self.chains if len(c) == n]

    def to_json_dict(self) -> dict:
        return {
            "vertex_count": len(self.poset.elements),
            "chain_counts": {
                str(n): len(self.chains_of_length(n))
                for n in range(1, self.dimension + 2)
            },
            "chains": [[sorted(t) for t in c] for c in self.chains],
        }


def _chain_sort_key(poset: SubsetPoset):
    """Sort key for chains: by length, then element by element in
    ``subset_sort_key`` order (the index in ``poset.elements``)."""
    rank = {t: i for i, t in enumerate(poset.elements)}
    return lambda c: (len(c), tuple(rank[t] for t in c))


def derived_complex(poset: SubsetPoset) -> DerivedComplex:
    """Every nonempty chain, face-closed by construction.

    Chain counts grow with the factorial of the largest part size, so this
    is for the small fundamental domain S^l only.  The S_bar complex is
    never listed: ``SubsetPoset.chain_count`` counts it.
    """
    above = poset.above
    chains: list[tuple[frozenset, ...]] = []

    def grow(chain: tuple[frozenset, ...]) -> None:
        chains.append(chain)
        for u in above[chain[-1]]:
            grow(chain + (u,))

    for t in poset.elements:
        grow((t,))
    chains.sort(key=_chain_sort_key(poset))
    return DerivedComplex(poset=poset, chains=tuple(chains))


@dataclass(frozen=True)
class DimensionVerdict:
    ok: bool
    max_chain_length: int
    witness: tuple[frozenset, ...] | None


def check_two_dimensional(poset: SubsetPoset) -> DimensionVerdict:
    """True when no chain of the poset has four or more subsets."""
    longest = poset.longest_chain()
    return DimensionVerdict(
        ok=len(longest) <= 3,
        max_chain_length=len(longest),
        witness=longest if len(longest) > 3 else None,
    )


# ---------------------------------------------------------------------------
# metric

def canonical_sine_ratio(p: int, q: int) -> tuple[int, int]:
    """The ratio sin(p pi/8) / sin(q pi/8) as a pair.  The 16 ratios for
    p, q in 1..4 are distinct except the four with p == q, all equal to 1."""
    if not (1 <= p <= 4 and 1 <= q <= 4):
        raise ValueError("sine units must lie in 1..4")
    return (1, 1) if p == q else (p, q)


@dataclass(frozen=True)
class MetricSimplex:
    """A 2-chain [empty < {s} < T] with corner angles in pi/8 units and the
    three side lengths as exact sine ratios, normalised so that the side
    [empty, {s}] has length 1."""

    chain: tuple[frozenset, frozenset, frozenset]
    units: tuple[int, int, int]
    case: str
    sides: tuple[tuple[int, int], tuple[int, int], tuple[int, int]]
    # sides listed for edges ([empty,{s}], [{s},T], [empty,T])

    def edge_lengths(self) -> dict[tuple[frozenset, frozenset], tuple[int, int]]:
        t0, t1, t2 = self.chain
        return {(t0, t1): self.sides[0], (t1, t2): self.sides[1], (t0, t2): self.sides[2]}


# angles of [empty < {s} < T] at its (empty, {s}, T) corners in pi/8, by the kind of T
TRIANGLE_UNITS: dict[str, tuple[int, int, int]] = {
    "part": (2, 4, 2),
    "inter-edge-disjoint": (2, 4, 2),
    "inter-edge-nondisjoint": (3, 4, 1),
}
# the TRIANGLE_UNITS key of an inter-edge, by whether it is disjoint from all others
INTEREDGE_CASE = {True: "inter-edge-disjoint", False: "inter-edge-nondisjoint"}


def _sides_from_units(units: tuple[int, int, int]) -> tuple:
    a0, a1, a2 = units
    assert sum(units) == 8, f"angles {units} of a Euclidean triangle must sum to pi"
    # law of sines: each side is proportional to the sine of the opposite
    # corner; dividing by sin(top corner) normalises [empty,{s}] to 1
    return (
        canonical_sine_ratio(a2, a2),
        canonical_sine_ratio(a0, a2),
        canonical_sine_ratio(a1, a2),
    )


_SIDES = {case: _sides_from_units(units) for case, units in TRIANGLE_UNITS.items()}


def disjoint_inter_edges(inst: Instance) -> dict[frozenset, bool]:
    """For each inter-edge pair, whether it shares no vertex with any other
    inter-edge."""
    at = inst.inter_edges_at
    return {e.pair: len(at[e.u]) == len(at[e.v]) == 1 for e in inst.inter_edges}


def assign_metric(
    cx: DerivedComplex, inst: Instance
) -> list[MetricSimplex]:
    """Angles and side lengths for every 2-chain of the S^l complex."""
    disjoint = inst.disjoint
    tags = cx.poset.tags
    out: list[MetricSimplex] = []
    for chain in cx.chains_of_length(3):
        t0, t1, t2 = chain
        if t0 != frozenset() or len(t1) != 1:
            raise GraphError(f"unrecognised 2-chain shape {[sorted(t) for t in chain]}")
        top_tags = tags[t2]
        if "inter-edge" in top_tags:
            case = INTEREDGE_CASE[disjoint[t2]]
        elif "part" in top_tags:
            case = "part"
        else:
            raise GraphError(f"2-chain top {sorted(t2)} is neither part nor inter-edge")
        out.append(MetricSimplex(chain, TRIANGLE_UNITS[case], case, _SIDES[case]))
    return out


@dataclass
class GluingReport:
    ok: bool
    conflicts: list[dict]


def check_gluing(simplices: list[MetricSimplex]) -> GluingReport:
    """Every 1-cell shared by several metric triangles must receive one
    length."""
    lengths: dict[tuple[frozenset, frozenset], set[tuple[int, int]]] = {}
    for sx in simplices:
        for edge, ratio in sx.edge_lengths().items():
            lengths.setdefault(edge, set()).add(ratio)
    clashing = sorted(
        (edge for edge, ratios in lengths.items() if len(ratios) > 1),
        key=lambda edge: (subset_sort_key(edge[0]), subset_sort_key(edge[1])),
    )
    conflicts = [
        {"edge": [sorted(lo), sorted(hi)], "lengths": sorted(lengths[lo, hi])}
        for lo, hi in clashing
    ]
    return GluingReport(ok=not conflicts, conflicts=conflicts)


# ---------------------------------------------------------------------------
# retraction from the S_bar complex onto the S^l complex


@dataclass
class RetractionReport:
    total_maximal_chains: int
    lands_in_s_ell: bool
    identity_on_s_ell: bool
    idempotent: bool
    face_compatible: bool
    vertex_map: dict[frozenset, frozenset]
    failures: list[str]

    @property
    def ok(self) -> bool:
        return (
            self.lands_in_s_ell
            and self.identity_on_s_ell
            and self.idempotent
            and self.face_compatible
        )


def maximal_chains(poset: SubsetPoset) -> list[tuple[frozenset, ...]]:
    """Every maximal chain, in the order of ``derived_complex`` chains.

    A maximal chain is saturated and runs from a minimal element to a
    maximal one, so the chains are the upward walks along the covering
    relation from each minimal element.  Inside a part of size k they are
    the k! orders in which its vertices can be added; ``retraction_map``
    counts and checks them without this listing.
    """
    up = poset.upper_covers
    minimal = set(poset.elements).difference(*up.values())
    out: list[tuple[frozenset, ...]] = []

    def walk(chain: tuple[frozenset, ...]) -> None:
        above = up[chain[-1]]
        if not above:
            out.append(chain)
        for u in above:
            walk(chain + (u,))

    for t in minimal:
        walk((t,))
    out.sort(key=_chain_sort_key(poset))
    return out


def retraction_map(
    s_bar: SubsetPoset,
    s_ell: SubsetPoset,
    family: SubgraphFamily,
) -> RetractionReport:
    """The simplicial retraction: subsets already in S^l stay fixed, proper
    part-subsets collapse onto their part.

    On a maximal chain inside a part this sends [empty < {s} < ... < S_i]
    to [empty < {s} < S_i] when s lies on an inter-edge and to
    [empty < S_i] otherwise; maximal inter-edge chains are fixed pointwise.

    The maximal chains of S_bar are not listed.  What the audit reads off a
    chain depends only on its second element, its image with repeats
    dropped, whether every element so far is fixed (the rule for an
    inter-edge on top) and whether that image strictly increases (an S^l
    chain).  Upward walks along the covering relation merge on that state,
    so the k! chains inside a part of size k make about k states per
    subset.  Each failing state is reported once, with its first chain in
    ``derived_complex`` order as the witness.
    """
    part_of: dict[frozenset, frozenset] = {}
    for part in family.parts:
        pset = frozenset(part)
        for t in s_bar.elements:
            if t and t <= pset:
                part_of.setdefault(t, pset)

    failures: list[str] = []
    vertex_map: dict[frozenset, frozenset] = {}
    for t in s_bar.elements:
        if t in s_ell:
            vertex_map[t] = t
        elif t in part_of:
            vertex_map[t] = part_of[t]
        else:
            failures.append(f"no image for {sorted(t)}")

    # an unmapped element makes the retraction partial, so it cannot land
    lands = not failures and all(img in s_ell for img in vertex_map.values())
    identity = all(vertex_map.get(t) == t for t in s_ell.elements)
    idempotent = all(vertex_map.get(img) == img for img in vertex_map.values())

    # monotone vertex maps carry chains to chains, which is exactly
    # compatibility on shared faces; additionally the image of each maximal
    # chain must match the stated formula.  Inclusion is transitive, so
    # covers suffice when every element has an image, and a partial map
    # fails already
    up = s_bar.upper_covers
    monotone = True
    for a, bigger in up.items():
        for b in bigger:
            if a in vertex_map and b in vertex_map and not vertex_map[a] <= vertex_map[b]:
                monotone = False
                failures.append(f"not monotone on {sorted(a)} < {sorted(b)}")

    iev = {t for t in s_ell.elements if "inter-edge-vertex" in s_ell.tags[t]}
    rank = {t: i for i, t in enumerate(s_bar.elements)}
    # per mapped element: (second element, image, all fixed, image rising)
    # -> [walks from a minimal element ending in that state, the first of
    # them in chain order as element ranks]; walks through an unmapped
    # element are dropped
    states: dict[frozenset, dict[tuple, list]] = {t: {} for t in vertex_map}
    for t in set(s_bar.elements).difference(*up.values()):
        if t in vertex_map:
            states[t][(None, (vertex_map[t],), vertex_map[t] == t, True)] = [1, (rank[t],)]
    total = 0
    failing = []
    # elements come by size, so each after every element below it
    for t in s_bar.elements:
        here = states.get(t)
        if not here:
            continue
        if not up[t]:
            inter_edge_top = "inter-edge" in s_bar.tags[t]
            for (second, image, fixed, rising), (count, walk) in here.items():
                total += count
                if inter_edge_top:
                    expected, formula = None, fixed
                else:
                    part = image[-1]
                    expected = (frozenset(), second, part) if second in iev else (frozenset(), part)
                    formula = image == expected
                in_s_ell = rising and all(img in s_ell for img in image)
                if not (formula and in_s_ell):
                    failing.append((walk, image, expected, formula, in_s_ell))
            continue
        for u in up[t]:
            img = vertex_map.get(u)
            if img is None:
                continue
            into = states[u]
            for (second, image, fixed, rising), (count, walk) in here.items():
                if img != image[-1]:
                    rising = rising and image[-1] < img
                    image = image + (img,)
                state = (u if second is None else second, image, fixed and img == u, rising)
                walk = walk + (rank[u],)
                seen = into.get(state)
                if seen is None:
                    into[state] = [count, walk]
                else:
                    seen[0] += count
                    if (len(walk), walk) < (len(seen[1]), seen[1]):
                        seen[1] = walk

    formula_ok = True
    failing.sort(key=lambda f: (len(f[0]), f[0]))
    for walk, image, expected, formula, in_s_ell in failing:
        chain = tuple(s_bar.elements[i] for i in walk)
        if expected is None:
            expected = chain
        if not formula:
            formula_ok = False
            failures.append(
                f"chain {[sorted(t) for t in chain]} mapped to "
                f"{[sorted(t) for t in image]}, expected {[sorted(t) for t in expected]}"
            )
        if not in_s_ell:
            lands = False
            failures.append(f"image of {[sorted(t) for t in chain]} is not an S^l chain")

    return RetractionReport(
        total_maximal_chains=total,
        lands_in_s_ell=lands,
        identity_on_s_ell=identity,
        idempotent=idempotent,
        face_compatible=monotone and formula_ok,
        vertex_map=vertex_map,
        failures=failures,
    )
