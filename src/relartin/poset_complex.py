"""Subset posets, derived complexes, the piecewise-Euclidean metric, and the
retraction from the big fundamental domain onto the small one.

Three posets under inclusion:

  S^l   the empty set, the family parts S_i, the inter-edges, and the
        singletons of inter-edge vertices;
  S^f   every subset whose Coxeter quotient is finite;
  S_bar the union of S^l with every subset of every part.

S^l's order is read off the S^l lemma at the end of this docstring, with
no subset tested for inclusion (``build_S_ell``).  The derived complex has
one simplex per chain, and only the S^l complex is listed, for ``build``'s
json and text report.  By the lemma its chains are runs that share all
members but the last (``Runs``), which ``derived_complex`` lists level by
level with no chain built; the writers spell each element once per list
and each chain as one concatenation of those texts.  ``build`` reads the
dimension and the gluing off the lemma too; the passes that check them
chain by chain are oracles in the tests.  S_bar holds every subset of every
part, so no program path builds it: ``build`` reads its size and its chain
count off the closed forms below, and ``kpi1`` reads its facts off lemmas.

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

The S^l lemma.  Nothing lies above a part or an inter-edge.  Above a
singleton {s} lie only its part, when that part has more than one vertex,
and the inter-edges through s, and none of these lies below another,
since a part inside an inter-edge is one of its singletons.  So these are
the covers of {s}, and the covers of the empty set are the singletons and
the parts of two or more vertices that hold no inter-edge vertex: every
other element lies above a singleton.  A chain of S^l has at most three
members, and the
longest chains are [empty < {u} < {u, v}] when an inter-edge {u, v}
exists and [empty < part] otherwise: ``s_ell_max_chain_length`` is 3 or
2, and the complex is 2-dimensional.  Every 2-chain has the shape
[empty < {s} < T], with T a part or an inter-edge and never both.

Such a triangle receives Euclidean angles in integer units of pi/8 from
one table, ``TRIANGLE_UNITS``, keyed by the kind of T; the vertex links
read their edge lengths off the same table.  Side lengths follow the law
of sines once the side [empty, {s}] is normalised to length 1, so the
metric glues: each 1-cell receives one length.  Every [empty, {s}] side
is 1.  A side [{s}, T] lies in exactly one triangle, since only the empty
set lies below {s} and nothing lies above T.  A side [empty, T] takes
the length of T's one case in every triangle through it.  So ``build``
prints the gluing report with no conflict.
"""
from __future__ import annotations

from bisect import insort
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from math import comb, factorial, lgamma, log
from sys import get_int_max_str_digits
from typing import Collection, Iterable, Iterator, Sequence

from .defining_graph import GraphError, Instance

def subset_sort_key(t: Collection[str]) -> tuple:
    """S^l's order, which links keep: by size, then by sorted members."""
    return (len(t), tuple(sorted(t)))


def subset_label(t: Collection[str]) -> str:
    return "{" + ",".join(sorted(t)) + "}"


def dot_escape(text: str) -> str:
    """text for a double-quoted DOT string: backslashes and quotes escaped."""
    return text.replace("\\", "\\\\").replace('"', '\\"')


@dataclass
class SubsetPoset:
    """Finite family of vertex subsets ordered by inclusion, with tags.

    ``elements`` is sorted by ``subset_sort_key``, so by size first.  No
    subcommand reads this general order: S^l's is read off its lemma.
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


class Runs:
    """A list of groups of ``items``, such as the chains of a complex,
    stored as runs: each (prefix, tails) pair of ``runs`` stands for the
    groups prefix + (j,) for j in tails, in that order, each a tuple of
    indices into ``items``.  The writers spell each item once and each
    group as one concatenation of those texts.
    """

    __slots__ = ("items", "runs")

    def __init__(self, items: Sequence, runs: Sequence[tuple[tuple[int, ...], Sequence[int]]]):
        self.items = items
        self.runs = runs

    def __len__(self) -> int:
        return sum(len(tails) for _, tails in self.runs)

    def indices(self) -> Iterator[tuple[int, ...]]:
        for prefix, tails in self.runs:
            for j in tails:
                yield prefix + (j,)


# the tag rows of S^l elements, each sorted
_EMPTY, _VERTEX, _PART, _INTER_EDGE = ("empty",), ("inter-edge-vertex",), ("part",), ("inter-edge",)


class SEll:
    """S^l with its order read off the S^l lemma (module docstring).

    ``members`` lists each element's sorted vertices, in (size, members)
    order: the empty set, the singletons, the pairs (the two-vertex parts
    and the inter-edges) and the larger parts.  ``tag_rows`` holds each
    element's sorted tags.  Only the empty set and the singletons lie
    below anything.  ``minimal`` lists the elements covering the empty
    set, and ``up[i - 1]`` the elements above the singleton at index i:
    its part, when that part has more than one vertex, and its
    inter-edges.  All of them are indices, in element order.
    """

    def __init__(self, members: tuple, tag_rows: tuple, minimal: tuple, up: tuple):
        self.members, self.tag_rows, self.minimal, self.up = members, tag_rows, minimal, up

    @property
    def covers(self) -> Runs:
        """The covering relation (Hasse diagram edges), listed by the index
        of the smaller element, then of the larger."""
        above_singletons = [((i,), up) for i, up in enumerate(self.up, 1)]
        return Runs(self.members, [((0,), self.minimal), *above_singletons])

    def to_json_dict(self) -> dict:
        return {
            "elements": [{"subset": m, "tags": r} for m, r in zip(self.members, self.tag_rows)],
            "covers": self.covers,
        }

    def to_dot(self) -> str:
        lines = ["digraph poset {", "  rankdir=BT;"]
        for i, (members, tags) in enumerate(zip(self.members, self.tag_rows)):
            label = f"{dot_escape(subset_label(members))}\\n{dot_escape(','.join(tags))}"
            lines.append(f'  n{i} [label="{label}"];')
        lines += [f"  n{a} -> n{b};" for a, b in self.covers.indices()]
        lines.append("}")
        return "\n".join(lines)


def build_S_ell(inst: Instance) -> SEll:
    """The empty set, the parts, the inter-edges, and the singletons of
    inter-edge vertices, each stored once with all applicable tags, and
    the order among them, read off the instance by the S^l lemma.

    Part tuples and inter-edge pairs are sorted, and the inter-edges come
    in pair order, so the elements fall into (size, members) order by one
    merge, with no subset sorted and none tested for inclusion.
    """
    parts, part_of, on_edges = inst.family.parts, inst.family.part_of, inst.inter_edges_at
    by_size = sorted(range(len(parts)), key=lambda i: (len(parts[i]), parts[i]))
    singles = sorted(on_edges.keys() | {p[0] for p in parts if len(p) == 1})
    members: list[tuple[str, ...]] = [(), *((s,) for s in singles)]
    tag_rows = [_EMPTY]
    # a singleton is an inter-edge vertex, a part of one vertex, or both
    tag_rows += [_VERTEX * (s in on_edges) + _PART * (len(parts[part_of[s]]) == 1) for s in singles]
    # the elements above each singleton, and the index of each part of two
    # or more vertices, both filled in element order
    up: dict[str, list[int]] = {s: [] for s in singles}
    part_at: dict[int, int] = {}
    # two runs already in pair order, which sorted merges in one pass
    pairs = [(parts[i], i) for i in by_size if len(parts[i]) == 2]
    pairs += [(e[:2], None) for e in inst.inter_edges]
    for pair, part in sorted(pairs):
        if part is None:
            up[pair[0]].append(len(members))
            up[pair[1]].append(len(members))
            tag_rows.append(_INTER_EDGE)
        else:
            part_at[part] = len(members)
            tag_rows.append(_PART)
        members.append(pair)
    for i in by_size:
        if len(parts[i]) > 2:
            part_at[i] = len(members)
            members.append(parts[i])
            tag_rows.append(_PART)
    for s in singles:
        if part_of[s] in part_at:
            insort(up[s], part_at[part_of[s]])
    # such a part covers the empty set when no singleton lies below it
    bare = [at for i, at in part_at.items() if on_edges.keys().isdisjoint(parts[i])]
    return SEll(
        members=tuple(members),
        tag_rows=tuple(tag_rows),
        minimal=(*range(1, len(singles) + 1), *bare),
        up=tuple(up.values()),
    )


def build_S_f(inst: Instance) -> SubsetPoset:
    """The graph's spherical subsets."""
    return SubsetPoset.from_tagged((t, "spherical") for t in inst.spherical)


def build_S_bar(inst: Instance) -> SubsetPoset:
    """S^l together with every subset of every part.  No program path
    builds it; the tests check the closed forms against it."""
    s_ell = inst.s_ell
    tagged = [(frozenset(m), tag) for m, row in zip(s_ell.members, s_ell.tag_rows) for tag in row]
    for part in inst.family.parts:
        members = sorted(part)
        for mask in range(1 << len(members)):
            subset = frozenset(m for i, m in enumerate(members) if mask >> i & 1)
            tagged.append((subset, "part-subset"))
    return SubsetPoset.from_tagged(tagged)


@dataclass
class DerivedComplex:
    """All chains of S^l; a chain of n+1 elements is an n-simplex."""

    poset: SEll
    chains: Runs

    def to_json_dict(self) -> dict:
        counts = Counter()
        for prefix, tails in self.chains.runs:
            if tails:
                counts[len(prefix) + 1] += len(tails)
        return {
            "vertex_count": len(self.poset.members),
            "chain_counts": {str(n): counts[n] for n in range(1, max(counts, default=0) + 1)},
            "chains": self.chains,
        }


def _chain_sort_key(poset: SubsetPoset):
    """Sort key for chains: by length, then element by element in
    ``subset_sort_key`` order (the index in ``poset.elements``)."""
    rank = {t: i for i, t in enumerate(poset.elements)}
    return lambda c: (len(c), tuple(rank[t] for t in c))


def derived_complex(s_ell: SEll) -> DerivedComplex:
    """Every nonempty chain of S^l, by length and then element by element
    in element order, as runs over its elements.

    By the S^l lemma a chain of two is [empty < T] for every other T, or
    [{s} < T] for T above a singleton, and a chain of three is
    [empty < {s} < T].  The singletons directly follow the empty set, so
    listing these level by level, each by its least elements, keeps the
    order with no chain compared.
    """
    n = len(s_ell.members)
    singles = list(enumerate(s_ell.up, 1))
    runs = [((), range(n)), ((0,), range(1, n))]
    runs += [((i,), up) for i, up in singles]
    runs += [((0, i), up) for i, up in singles]
    return DerivedComplex(poset=s_ell, chains=Runs(s_ell.members, runs))


def s_ell_max_chain_length(inst: Instance) -> int:
    """The most members of a chain of S^l, read off the S^l lemma of the
    module docstring: 3 when an inter-edge exists and 2 otherwise."""
    return 3 if inst.inter_edges else 2


# ---------------------------------------------------------------------------
# metric

# angles of [empty < {s} < T] at its (empty, {s}, T) corners in pi/8, by the kind of T
TRIANGLE_UNITS: dict[str, tuple[int, int, int]] = {
    "part": (2, 4, 2),
    "inter-edge-disjoint": (2, 4, 2),
    "inter-edge-nondisjoint": (3, 4, 1),
}
# the TRIANGLE_UNITS key of an inter-edge, by whether it is disjoint from all others
INTEREDGE_CASE = {True: "inter-edge-disjoint", False: "inter-edge-nondisjoint"}


def disjoint_inter_edges(inst: Instance) -> dict[tuple[str, str], bool]:
    """For each inter-edge ``(u, v)``, whether it shares no vertex with any
    other inter-edge."""
    at = inst.inter_edges_at
    return {(u, v): len(at[u]) == len(at[v]) == 1 for u, v, _, _, _ in inst.inter_edges}


# ---------------------------------------------------------------------------
# retraction from the S_bar complex onto the S^l complex


def maximal_chains(poset: SubsetPoset) -> list[tuple[frozenset, ...]]:
    """Every maximal chain, in the order of ``_chain_sort_key``.

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
