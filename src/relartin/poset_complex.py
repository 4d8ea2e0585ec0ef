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
and the metric.  S_bar holds every subset of every part, so no program path
builds it: ``build`` reads its size and its chain count off the closed
forms below, and ``kpi1`` reads its facts off lemmas.

``build`` reads the dimension and the gluing off the listed S^l complex.
``derived_complex`` lists the chains level by level, by length, so the
first chain of the last level is the first chain of greatest length, the
dimension's witness, and the 2-chains are one slice of the list.  The
gluing check passes over those 2-chains once, reading each top's side
lengths once and collecting the lengths each 1-cell receives.

S_bar and its retraction onto S^l are known in closed form.  Parts are
disjoint, so S_bar holds the empty set, the non-empty subsets of each part
once, and the inter-edges, the only members of S^l that lie in no part:
|S_bar| = 1 + sum (2^k_i - 1) + |inter-edges| over parts of k_i vertices.
The retraction r fixes S^l and sends every other member, a subset of a
part, to that part.  It lands in S^l, is the identity there and so
idempotent.  It is monotone, so it carries chains to chains and agrees on
shared faces: below a part-subset t' other than a singleton lie only
subsets t of its part, with r(t) in {t, part} and r(t') the part; below an
inter-edge lie the empty set and its two singletons, all fixed.  A maximal
chain runs from the empty set to a maximal element, a part or an
inter-edge; a singleton part on an inter-edge lies below that inter-edge.
Every subset of a part is in S_bar, so the maximal chains up to a part of
k vertices are its k! vertex orders, and each inter-edge {u, v} tops the
two chains through {u} and {v}.  r sends [empty < {s} < ... < S_i] to
[empty < {s} < S_i] when s lies on an inter-edge and to [empty < S_i]
otherwise, and fixes the inter-edge chains: each image is a chain of S^l.

The chains of S_bar, the simplices of its complex, are counted in closed
form too.  A chain of S_bar either holds the empty set or not, and adding
the empty set to a chain of non-empty members gives every chain that holds
it but {empty}.  So the count is 1 + 2N, with N the number of chains of
non-empty members.  An inter-edge lies in no part, no member lies above
it, and its only non-empty members below are its two singletons, which
are incomparable.  So every such chain lies inside one part, or is one of
{e}, {u} < e and {v} < e for an inter-edge e = {u, v}.  Inside a part K
of k vertices, a chain T_1 < ... < T_r of non-empty subsets spells the
ordered partition T_1, T_2 - T_1, ..., T_r - T_(r-1) of T_r.  When T_r is
K that is an ordered partition of K; otherwise adding the block K - T_r
gives one of two or more blocks.  Each ordered partition of K arises once
each way, but the one-block partition only the first way.  So with F(k)
the number of ordered partitions of a k-set (the Fubini number: 1, 1, 3,
13, 75, ...), the part holds 2 F(k) - 1 chains, and the S_bar complex has
1 + 2 (sum (2 F(k_i) - 1) + 3 |inter-edges|) simplices.

Over S^l the complex is 2-dimensional and every 2-chain has the shape
[empty < {s} < T].  Such a triangle receives Euclidean angles in integer
units of pi/8 from one table, ``TRIANGLE_UNITS``, keyed by the kind of T; the
vertex links read their edge lengths off the same table.  Side lengths
follow the law of sines once the edge [empty, {s}] is normalised to
length 1; they are kept exactly as ratios sin(p pi/8) / sin(q pi/8) with
p, q in {1..4}, one triple per triangle shape.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from math import comb, factorial, lgamma, log
from sys import get_int_max_str_digits
from typing import Iterable

from .defining_graph import GraphError, Instance

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
        cover that is smaller than ``big`` and hence already kept.  So
        ``big`` is a cover exactly when it lies above no kept cover.
        """
        above = self.above
        out: dict[frozenset, list[frozenset]] = {}
        for small, bigger in above.items():
            kept = out[small] = []
            shadowed: set[frozenset] = set()
            for big in bigger:
                if big not in shadowed:
                    kept.append(big)
                    shadowed.update(above[big])
        return out

    def covers(self) -> list[tuple[frozenset, frozenset]]:
        """Covering relations of the inclusion order (Hasse diagram edges),
        listed by the index of ``small``, then of ``big``."""
        return [(small, big) for small, bigs in self.upper_covers.items() for big in bigs]

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
    """S^l together with every subset of every part.  No program path
    builds it; the tests check the closed forms against it."""
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

    def chains_of_length(self, n: int) -> tuple[tuple[frozenset, ...], ...]:
        """The chains of n subsets.  ``chains`` is sorted by length, so
        they are one slice of it."""
        chains = self.chains
        return chains[bisect_left(chains, n, key=len) : bisect_right(chains, n, key=len)]

    def to_json_dict(self) -> dict:
        counts = Counter(map(len, self.chains))
        # each element spelled once, the same list in every chain through it
        spelled = {t: sorted(t) for t in self.poset.elements}.__getitem__
        return {
            "vertex_count": len(self.poset.elements),
            "chain_counts": {str(n): counts[n] for n in range(1, max(counts, default=0) + 1)},
            "chains": [list(map(spelled, c)) for c in self.chains],
        }


def _chain_sort_key(poset: SubsetPoset):
    """Sort key for chains: by length, then element by element in
    ``subset_sort_key`` order (the index in ``poset.elements``)."""
    rank = {t: i for i, t in enumerate(poset.elements)}
    return lambda c: (len(c), tuple(rank[t] for t in c))


def derived_complex(poset: SubsetPoset) -> DerivedComplex:
    """Every nonempty chain, face-closed by construction, in the order of
    ``_chain_sort_key``.

    The chains grow level by level, each extended by the elements above
    its top in element order, so each level is in that order as it is
    made.  Chain counts grow with the factorial of the largest part size,
    so this is for the small fundamental domain S^l only.  The S_bar
    complex is never listed: ``s_bar_chain_count`` counts it.
    """
    above = poset.above
    level = [(t,) for t in poset.elements]
    chains: list[tuple[frozenset, ...]] = []
    while level:
        chains += level
        level = [c + (u,) for c in level for u in above[c[-1]]]
    return DerivedComplex(poset=poset, chains=tuple(chains))


@dataclass(frozen=True)
class DimensionVerdict:
    ok: bool
    max_chain_length: int
    witness: tuple[frozenset, ...] | None


def check_two_dimensional(cx: DerivedComplex) -> DimensionVerdict:
    """True when no chain of the complex's poset has four or more subsets.
    The chains are listed by length, so the witness, the first chain of
    greatest length, opens the last level."""
    chains = cx.chains
    longest = chains[bisect_left(chains, len(chains[-1]), key=len)] if chains else ()
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


@dataclass
class GluingReport:
    ok: bool
    conflicts: list[dict]


def check_gluing(cx: DerivedComplex, inst: Instance) -> GluingReport:
    """Every 1-cell shared by several metric triangles must receive one
    length.  Each 2-chain [empty < {s} < T] of the S^l complex takes the
    side lengths of its top's kind, read once per top; its sides are
    listed for the edges ([empty,{s}], [{s},T], [empty,T])."""
    disjoint = inst.disjoint
    tags = cx.poset.tags
    empty = frozenset()
    sides_at: dict[frozenset, tuple] = {}
    lengths: dict[tuple[frozenset, frozenset], set[tuple[int, int]]] = {}
    for t0, t1, t2 in cx.chains_of_length(3):
        if t0 != empty or len(t1) != 1:
            raise GraphError(f"unrecognised 2-chain shape {[sorted(t) for t in (t0, t1, t2)]}")
        sides = sides_at.get(t2)
        if sides is None:
            top_tags = tags[t2]
            if "inter-edge" in top_tags:
                case = INTEREDGE_CASE[disjoint[t2]]
            elif "part" in top_tags:
                case = "part"
            else:
                raise GraphError(f"2-chain top {sorted(t2)} is neither part nor inter-edge")
            sides = sides_at[t2] = _SIDES[case]
        lengths.setdefault((t0, t1), set()).add(sides[0])
        lengths.setdefault((t1, t2), set()).add(sides[1])
        lengths.setdefault((t0, t2), set()).add(sides[2])
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


def maximal_chains(poset: SubsetPoset) -> list[tuple[frozenset, ...]]:
    """Every maximal chain, in the order of ``derived_complex`` chains.

    A maximal chain is saturated and runs from a minimal element to a
    maximal one, so the chains are the upward walks along the covering
    relation from each minimal element.  Inside a part of size k they are
    the k! orders in which its vertices can be added; ``retraction_map``
    counts them in closed form.
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


def retraction_map(inst: Instance) -> int:
    """The number of maximal chains of the S_bar complex, each of which the
    retraction onto S^l carries onto an S^l chain (module docstring):
    k! for each part of k vertices, except a singleton part on an
    inter-edge, and 2 for each inter-edge."""
    on_edges = inst.inter_edges_at
    total = 2 * len(inst.inter_edges)
    for part in inst.family.parts:
        if len(part) > 1 or part[0] not in on_edges:
            total += factorial(len(part))
    return total


def s_bar_size(inst: Instance) -> int:
    """|S_bar| = 1 + sum (2^k_i - 1) + |inter-edges| over parts of k_i
    vertices (module docstring)."""
    return 1 + sum(2 ** len(p) - 1 for p in inst.family.parts) + len(inst.inter_edges)


def s_bar_chain_count(inst: Instance) -> int:
    """The number of chains of S_bar, the simplices of its complex, from
    the Fubini numbers of the part sizes (module docstring).  An ordered
    partition of an n-set is a first block of j vertices and an ordered
    partition of the rest: F(n) = sum C(n, j) F(n - j) over j in 1..n.

    A count of more digits than ``int`` may print raises GraphError, and
    a large part is refused before the O(k^2) recurrence runs.  For
    k >= 1, F(k) = sum j^k / 2^(j+1) over j >= 0.  The term rises and then
    falls in j, so the sum is at least its integral, k! / (2 (ln 2)^(k+1)),
    less its largest term.  That term over the integral is
    ln 2 k^k e^-k / k! <= ln 2 / sqrt(2 pi k) < 1/2 by Stirling, so
    F(k) >= k! / (4 (ln 2)^(k+1)), and the count, at least 4 F(k) - 1 for
    the largest part's k, is at least that."""
    sizes = [len(p) for p in inst.family.parts]
    k = max(sizes)
    limit = get_int_max_str_digits()
    too_long = (
        f"the S_bar chain count has more than {limit} digits, too many to print "
        f"(the largest part has {k} vertices)"
    )
    if limit and lgamma(k + 1) - (k + 1) * log(log(2)) - log(4) >= limit * log(10):
        raise GraphError(too_long)
    fubini = [1]
    for n in range(1, k + 1):
        fubini.append(sum(comb(n, j) * fubini[n - j] for j in range(1, n + 1)))
    count = 1 + 2 * (sum(2 * fubini[size] - 1 for size in sizes) + 3 * len(inst.inter_edges))
    if limit and count >= 10**limit:
        raise GraphError(too_long)
    return count
