"""Independent oracles used to pin down derived expectations.

Word problem: the dihedral Artin group on {a, b} with label m has infinite
cyclic center, and the quotient by the center is a free product of finite
or cyclic groups where equality is decided by syllable reduction.  With
x = prod(a,b;m) and y = ab:

  m odd:   A ~ <x, y | x^2 = y^m>, center <x^2>, A / center ~ Z/2 * Z/m,
           a = y^{-(m-1)/2} x and b = x y^{(m+1)/2} in the quotient.
  m even:  with t = ab, A ~ <a, t | [a, t^{m/2}] = 1>, center <t^{m/2}>,
           A / center ~ Z * Z/(m/2), a = a and b = a^{-1} t.
  m = 2:   Z ⊕ Z, equality of exponent vectors.

The kernel is the cyclic group generated by the central element, on which
the total exponent sum is injective, so two words are equal exactly when
their quotient images and total exponent sums agree.  This route shares no
code with the Garside engine.

A second word oracle computes the rewriting closure over a padded word
universe: free cancellations plus flips of the defining relation and its
inverse.  It can only under-merge (never equates distinct elements), so it
is cross-checked against the quotient oracle.

Girth: exhaustive depth-first enumeration of simple cycles anchored at
their minimal vertex, with weight pruning.

Posets: the covering relation by testing every intermediate element, the
maximal chains by scanning every chain of the derived complex for an
element that would extend it, and the chain count as the length of that
complex.

Coxeter types: the smallest eigenvalue of the cosine matrix
B_ij = -cos(pi / m_ij) (a missing defining edge gives -1) is positive for a
finite quotient, zero for an affine one and negative otherwise.  The
spherical subsets are every vertex subset that ``classify_type`` calls
finite, and FC type is every clique being spherical, with cliques grown one
vertex at a time.
"""
import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

from relartin import coxeter
from relartin.defining_graph import GraphError
from relartin.poset_complex import derived_complex, subset_sort_key


# ---------------------------------------------------------------- words

def _exponents(word) -> tuple[int, int]:
    ea = sum(s for g, s in word if g == "a")
    eb = sum(s for g, s in word if g == "b")
    return ea, eb


def _push(stack: list, sym: str, exp: int, modulus: int | None) -> None:
    if stack and stack[-1][0] == sym:
        exp += stack.pop()[1]
    if modulus is not None:
        exp %= modulus
    if exp != 0:
        stack.append((sym, exp))


def _reduce_free_product(syllables, mod_x: int | None, mod_y: int | None):
    """Normal form in <x>_modx * <y>_mody, syllables as (sym, exp) pairs."""
    stack: list[tuple[str, int]] = []
    changed = True
    items = list(syllables)
    while changed:
        changed = False
        stack = []
        for sym, exp in items:
            _push(stack, sym, exp, mod_x if sym == "x" else mod_y)
        if len(stack) != len(items) or any(a != b for a, b in zip(stack, items)):
            items = stack
            changed = True
    return tuple(items)


def quotient_image(m: int, word) -> tuple:
    """Image of the word in the central quotient, in syllable normal form."""
    if m == 2:
        return _exponents(word)
    syllables: list[tuple[str, int]] = []
    if m % 2 == 1:
        half = (m - 1) // 2
        for g, s in word:
            if g == "a":
                if s == 1:
                    syllables += [("y", -half), ("x", 1)]
                else:
                    syllables += [("x", 1), ("y", half)]
            else:
                if s == 1:
                    syllables += [("x", 1), ("y", half + 1)]
                else:
                    syllables += [("y", -(half + 1)), ("x", 1)]
        return _reduce_free_product(syllables, 2, m)
    k = m // 2
    for g, s in word:
        if g == "a":
            syllables.append(("x", s))
        elif s == 1:
            syllables += [("x", -1), ("y", 1)]
        else:
            syllables += [("y", -1), ("x", 1)]
    return _reduce_free_product(syllables, None, k)


def quotient_equal(m: int, w1, w2) -> bool:
    if sum(s for _, s in w1) != sum(s for _, s in w2):
        return False
    return quotient_image(m, w1) == quotient_image(m, w2)


# ------------------------------------------------- rewriting closure

_LETTERS = {"a": ("a", 1), "A": ("a", -1), "b": ("b", 1), "B": ("b", -1)}
_INVERSE = {"a": "A", "A": "a", "b": "B", "B": "b"}


def string_to_word(text: str):
    return tuple(_LETTERS[c] for c in text)


def _relator_strings(m: int) -> list[tuple[str, str]]:
    r1 = "".join("ab"[i % 2] for i in range(m))
    r2 = "".join("ba"[i % 2] for i in range(m))
    inv1 = "".join(_INVERSE[c] for c in reversed(r1))
    inv2 = "".join(_INVERSE[c] for c in reversed(r2))
    return [(r1, r2), (inv1, inv2)]


def rewriting_classes(m: int, pad: int) -> dict[str, str]:
    """Union-find closure over all words of length <= pad.

    Moves: delete an adjacent inverse pair; swap an occurrence of one side
    of the defining relation (or of its inverse) for the other side.
    Deleting from the longer word also connects the inverse insertion, so
    the closure is symmetric.  Returns a representative per word.
    """
    universe: list[str] = [""]
    frontier = [""]
    for _ in range(pad):
        frontier = [w + c for w in frontier for c in "aAbB"]
        universe += frontier
    parent: dict[str, str] = {w: w for w in universe}

    def find(w: str) -> str:
        root = w
        while parent[root] != root:
            root = parent[root]
        while parent[w] != root:
            parent[w], w = root, parent[w]
        return root

    def union(w1: str, w2: str) -> None:
        r1, r2 = find(w1), find(w2)
        if r1 != r2:
            parent[r2] = r1

    pairs = _relator_strings(m)
    for w in universe:
        for i in range(len(w) - 1):
            if _INVERSE[w[i]] == w[i + 1]:
                union(w, w[:i] + w[i + 2 :])
        for left, right in pairs:
            start = w.find(left)
            while start != -1:
                union(w, w[:start] + right + w[start + len(left) :])
                start = w.find(left, start + 1)
            start = w.find(right)
            while start != -1:
                union(w, w[:start] + left + w[start + len(right) :])
                start = w.find(right, start + 1)
    return {w: find(w) for w in universe}


# ----------------------------------------------------------- girth

def brute_min_cycle(edges) -> tuple[float, list]:
    """Minimum-weight simple cycle by exhaustive anchored DFS.

    Cycles are enumerated from their minimal vertex only, weight-pruned
    against the best so far.  Exact on any small graph.
    """
    adjacency: dict = {}
    for u, v, w in edges:
        adjacency.setdefault(u, []).append((v, w))
        adjacency.setdefault(v, []).append((u, w))
    order = {v: i for i, v in enumerate(sorted(adjacency))}
    best = float("inf")
    best_cycle: list = []

    def dfs(anchor, node, weight, path, on_path):
        nonlocal best, best_cycle
        for nxt, w in adjacency[node]:
            if weight + w >= best:
                continue
            if nxt == anchor and len(path) >= 3:
                best = weight + w
                best_cycle = list(path)
            elif nxt not in on_path and order[nxt] > order[anchor]:
                on_path.add(nxt)
                path.append(nxt)
                dfs(anchor, nxt, weight + w, path, on_path)
                path.pop()
                on_path.remove(nxt)

    for anchor in sorted(adjacency, key=order.get):
        dfs(anchor, anchor, 0, [anchor], {anchor})
    return best, best_cycle


def dijkstra(adjacency: dict, source) -> dict:
    dist = {source: 0}
    heap = [(0, source)]
    while heap:
        d, node = heapq.heappop(heap)
        if d > dist.get(node, float("inf")):
            continue
        for nxt, w in adjacency.get(node, ()):
            nd = d + w
            if nd < dist.get(nxt, float("inf")):
                dist[nxt] = nd
                heapq.heappush(heap, (nd, nxt))
    return dist


# ----------------------------------------------------------- posets

def brute_covers(poset) -> list:
    """Pairs small < big with no element strictly between, in element order."""
    out = []
    for small in poset.elements:
        for big in poset.elements:
            if small < big and not any(small < mid < big for mid in poset.elements):
                out.append((small, big))
    return out


def brute_maximal_chains(poset) -> list:
    """Chains of the derived complex that no element can extend, by length
    and then element by element in ``subset_sort_key`` order."""
    out = []
    for chain in derived_complex(poset).chains:
        cset = set(chain)
        extendable = any(
            x not in cset and all(x < t or t < x for t in chain)
            for x in poset.elements
        )
        if not extendable:
            out.append(chain)
    return sorted(out, key=lambda c: (len(c), tuple(subset_sort_key(t) for t in c)))


def brute_chain_count(poset) -> int:
    return len(derived_complex(poset).chains)


# ---------------------------------------------------------- coxeter

@dataclass(frozen=True)
class OracleVerdict:
    classification: str
    min_eigenvalue: float
    low_confidence: bool


def cosine_matrix(graph, subset) -> np.ndarray:
    """B_ij = -cos(pi / m_ij) over the sorted subset; missing edge gives -1."""
    verts = sorted(set(subset))
    unknown = set(verts) - set(graph.vertices)
    if unknown:
        raise GraphError(f"unknown vertices {sorted(unknown)}")
    n = len(verts)
    mat = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            m = graph.label(verts[i], verts[j])
            c = -1.0 if m is None else -math.cos(math.pi / m)
            mat[i, j] = mat[j, i] = c
    return mat


def definiteness_oracle(graph, subset, tolerance: float = 1e-9) -> OracleVerdict:
    """Numerical counterpart of ``coxeter.classify_type``.

    Positive definite cosine matrix (min eigenvalue > tolerance) means finite,
    a kernel within tolerance means affine, a negative eigenvalue means
    indefinite.  ``low_confidence`` flags minima within 10x of the tolerance,
    where the table decision should be trusted over floating point.
    """
    verts = sorted(set(subset))
    if not verts:
        return OracleVerdict(classification="finite", min_eigenvalue=math.inf, low_confidence=False)
    lam = float(np.linalg.eigvalsh(cosine_matrix(graph, verts))[0])
    if lam > tolerance:
        cls = "finite"
    elif lam >= -tolerance:
        cls = "affine"
    else:
        cls = "indefinite"
    return OracleVerdict(
        classification=cls,
        min_eigenvalue=lam,
        low_confidence=abs(lam) <= 10 * tolerance,
    )


def brute_spherical_subsets(graph) -> list:
    """Every vertex subset with a finite quotient, by size and then
    lexicographically."""
    return [
        frozenset(subset)
        for k in range(len(graph.vertices) + 1)
        for subset in itertools.combinations(sorted(graph.vertices), k)
        if coxeter.classify_type(graph, subset).kind == "finite"
    ]


def brute_fc(graph) -> bool:
    """True when every clique is spherical; cliques are grown one vertex at
    a time from the singletons, each extended by the larger vertices
    adjacent to all of its members."""
    vs = graph.vertices
    frontier = [frozenset((v,)) for v in vs]
    cliques = list(frontier)
    while frontier:
        nxt: set = set()
        for c in frontier:
            top = max(c)
            for v in vs:
                if v > top and all(graph.has_edge(v, u) for u in c):
                    nxt.add(c | {v})
        frontier = sorted(nxt, key=sorted)
        cliques.extend(frontier)
    return all(coxeter.is_spherical(graph, c) for c in cliques)
