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

Syllable growth: one word-metric ball enumerated per radius, and a 0/1
breadth-first search over (normal form, last letter) states that multiplies
each step out and tests membership in the ball, never reading its edges.

Developments: ``coset_key`` for every (element, generator) pair, with no
coset vertex shared along the ball's edges; the ball with each level
multiplied out in full before the cap is tested, and the level then
dropped, each level sorted by its elements' (first letter, length) pairs
rather than by their natural order; and the development girth searched on
the coset multigraph, not on the link itself: each element contracted to
an edge between its two cosets through dicts keyed by vertex, the coset
vertices renumbered in sorted order, and the search rooted at every coset
vertex.

Dihedral multiplication letter by letter: a positive atom extends or
appends the last simple (a Delta it fills migrates left), and t^-1 is
Delta^-1 followed by m - 1 positive atoms; coset representatives multiply
by |eps| such letters.  A whole power t^n multiplied in one pass over the
tail, as the engine once did, against which ``mult_gen`` is checked on
whole balls.

Girth: exhaustive depth-first enumeration of simple cycles anchored at
their minimal vertex, with weight pruning; the shortest cycle through each
edge by one Dijkstra per edge, with that edge removed; and breadth-first
girth search from every root that expands every depth up to half the best
length so far and tests every non-tree edge it meets.

S^l as a general subset poset: its elements tagged one by one and sorted
by ``subset_sort_key`` (``s_ell_poset``), its covers read off the general
covering relation, and its complex listed chain by chain, each chain
extended by every element of the poset's up-set above its top
(``listed_complex``).  The S^l that ``build`` reads off its lemma is
compared with these element for element and chain for chain.

Posets: the up-set of each element and the covering relation by testing
every pair and every intermediate element, the chains of the derived
complex by extending each chain by every larger element found in a scan of
all pairs, the maximal chains by scanning every such chain for an element
that would extend it, and the chain count twice: as the number of such
chains, and by dynamic programming over the up-sets, which counts without
listing.  Both check the closed forms of ``poset_complex.s_bar_size`` and
``s_bar_chain_count`` on the S_bar that ``build_S_bar`` lists.  The
longest chain by dynamic programming over the up-sets, which finds it
without listing the chains.
The retraction audit with monotonicity tested on every comparable pair of
mapped elements, not on covers only, and with every maximal chain listed
and its image looked up among the listed chains of S^l; and by dynamic
programming along the covering relation, which counts and checks the
maximal chains without listing them, one state per distinct image.  Both
check the closed forms of ``poset_complex.retraction_map``.  The family
audit by scanning every subset of every element of S_bar for subset
closure and every spherical subset of the graph for coverage, and the
spherical subsets that cross parts read off the whole-graph enumeration:
they check the lemmas of ``kpi1_checker``.

Dimension and metric of S^l, which ``build`` prints from the S^l lemma of
``poset_complex``: the longest chain read off the listed complex
(``check_two_dimensional``), and the gluing checked twice, by one pass
over the 2-chains that reads each top's side lengths once
(``check_gluing``) and by one ``MetricSimplex`` per 2-chain, with its
angles, case and side lengths, collecting each triangle's three edge
lengths.  Side lengths are exact sine ratios named by their pair of
pi/8 units.

Certification: each non-disjoint inter-edge developed alone at radius 8m
and cap 4000 and searched, with no development shared between links of
one label.  The syllable search: every cyclic word of each syllable count
multiplied out in full and compared with the identity, with no table and
no use of the automorphism exchanging the generators; and the search as it
was first written, a table of (exponents, normal form) pairs built with
``mult_gen`` a letter at a time and matched pair by pair.

Coxeter types: the smallest eigenvalue of the cosine matrix
B_ij = -cos(pi / m_ij) (a missing defining edge gives -1) is positive for a
finite quotient, zero for an affine one and negative otherwise.  The
type is also read off the diagram listed pair by pair: every pair with a
label other than 2 is a diagram edge, and each component found along those
edges is typed from them.  The spherical subsets are every vertex subset
that ``classify_type`` calls finite, and also every clique grown from the
empty set one common neighbour at a time, each candidate decided by its
merged diagram component, with no triangle seeding and no cap.  FC type
is every clique being spherical, with cliques grown one vertex at a
time.  A part's classifier
flags are worked out on a copy of the part's full subgraph: its own
enumeration, FC read off that enumeration, its own Coxeter type, its own
edge labels and its own complement.

Graph readers: each part's word-problem engine chosen from a scan of every
edge of the graph, and the acylindricity witness's third vertex found by
testing every vertex of the graph for an edge to either endpoint.

Helpers the tests share and the package has no use for: a word multiplied
out one letter at a time, parsing a word and its syllable length, an
instance written back as JSON, a sine ratio as a float, and whether a
growth table strictly increases.
"""
import heapq
import itertools
import json
import math
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass

import numpy as np

from relartin import coxeter
from relartin.defining_graph import ClassifierReport, DefiningGraph, GraphError
from relartin.dihedral_garside import CapExceeded, DihedralEngine, FreeEngine
from relartin.girth_checker import LinkCertificate, _bfs_girth, shortest_embedded_cycle
from relartin.link_builder import LinkGraph, develop_link_interedge
from relartin.poset_complex import (
    INTEREDGE_CASE,
    TRIANGLE_UNITS,
    SubsetPoset,
    maximal_chains,
    subset_label,
    subset_sort_key,
)


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


# ------------------------------------------ letter-by-letter products
#
# The oracle keeps its own normal form, the plain tuple (k, pairs): Delta's
# power and the (first letter, length) pair of every simple of the tail.
# ``as_pairs`` spells an engine element in this form.

def other_letter(ctx, t: str) -> str:
    """The generator of the two-generator engine ctx that is not t."""
    a, b = ctx.generators
    assert t in (a, b), t
    return b if t == a else a


def as_pairs(ctx, el) -> tuple:
    """The engine element el as (k, pairs), each simple's first letter read
    off from the right: a simple starts with the letter it ends with when
    its length is odd, and ends with the letter the next one starts with.
    An empty tail, and only an empty tail, has no last letter."""
    k, _, _, lengths, letter = el
    assert (letter is None) == (not lengths), el
    pairs = []
    for length in reversed(lengths):
        if length % 2 == 0:
            letter = other_letter(ctx, letter)
        pairs.append((letter, length))
    return k, tuple(reversed(pairs))


def pairs_label(ctx, k: int, pairs) -> str:
    """The develop label of (k, pairs): Delta's power, then each simple's
    alternating letters."""
    words = ".".join(((f + other_letter(ctx, f)) * length)[:length] for f, length in pairs)
    if k == 0:
        return words or "1"
    return f"D^{k}.{words}" if words else f"D^{k}"


def _tau_tail(ctx, tail):
    if ctx.m % 2 == 0:
        return tail
    return tuple((other_letter(ctx, f), l) for f, l in tail)


def atom_mult_pos(ctx, el, t: str):
    k, tail = el
    if tail:
        first, length = tail[-1]
        last = first if length % 2 == 1 else other_letter(ctx, first)
        if last != t:
            if length + 1 == ctx.m:
                return k + 1, _tau_tail(ctx, tail[:-1])
            return k, tail[:-1] + ((first, length + 1),)
    return k, tail + ((t, 1),)


def atom_mult_neg(ctx, el, t: str):
    """el . t^-1 as Delta^-1 and then the m - 1 letters of Delta t^-1."""
    out = el[0] - 1, _tau_tail(ctx, el[1])
    letter = t if ctx.m % 2 == 1 else other_letter(ctx, t)
    for _ in range(ctx.m - 1):
        out = atom_mult_pos(ctx, out, letter)
        letter = other_letter(ctx, letter)
    return out


def atom_mult_power(ctx, el, t: str, n: int):
    step = atom_mult_pos if n > 0 else atom_mult_neg
    for _ in range(abs(n)):
        el = step(ctx, el, t)
    return el


def atom_normal_form(ctx, word):
    el = (0, ())
    for letter, sign in word:
        el = atom_mult_power(ctx, el, letter, sign)
    return el


def pair_order_key(ctx):
    """The sort key of a ball level read off the (first letter, length)
    pairs, (k, number of simples, pairs), for a dihedral engine, and
    (length, word) for a free one."""
    if isinstance(ctx, FreeEngine):
        return lambda w: (len(w), w)

    def key(el):
        k, pairs = as_pairs(ctx, el)
        return k, len(pairs), pairs

    return key


def one_pass_mult_power(ctx, el, t: str, n: int):
    """el times t^n in one pass over the tail.

    t^n for n > 0 is the left-weighted chain of n atoms t.  For n < 0,
    with y = Delta t^-1 the proper simple of length m-1,

        t^n = Delta^n . tau^(-n-1)(y) ... tau(y) . y,

    again left-weighted (tau(y) ends with the letter y starts with), and
    Delta^n migrates left through the tail as tau^n, which flips the
    tail's last letter when m and n are odd.  Either way the product is
    a normal tail followed by a normal chain whose simples all have one
    length and whose last letter is t (n > 0) or the other generator
    (n < 0), so the only repair is at the junction.  While the last
    simple x of the tail and the head c of the chain are not
    left-weighted, x c is one alternating word: shorter than m it
    becomes one simple; longer, it fills a Delta that migrates left,
    and the rest of c is left-weighted after the new last simple; of
    length exactly m, the Delta leaves the next chain factor to meet
    the new last simple, and the cascade goes on.  The tail's lengths
    are walked from the right, carrying the last letter of the part
    still standing, and the first letter is read off the result.
    """
    if n == 0:
        return el
    m, odd = ctx.m, ctx.m % 2 == 1
    k, _, _, lengths, last = el
    if n > 0:
        # the chain's simples have length size, its head starts with hf
        # and its last simple ends with end
        size, hf, end = 1, t, t
    else:
        n = -n
        k -= n
        size, end = m - 1, other_letter(ctx, t)
        if odd:
            hf = t if n % 2 else end
            if n % 2 and lengths:
                last = other_letter(ctx, last)
        else:
            hf = end
    hl = size  # the head's length, 0 once the chain is used up
    rest = n - 1  # chain factors after the head
    j = len(lengths)  # length of the standing tail prefix, ending with last
    while j and last != hf:
        length = lengths[j - 1]
        j -= 1
        # the first letter of x, which the prefix before it ends with
        first = last if length % 2 else other_letter(ctx, last)
        total = length + hl
        if total < m:
            hl = total
            break
        # x c fills a Delta, which migrates left through the prefix
        k += 1
        last = other_letter(ctx, first) if odd else first
        if total > m:
            # the rest of c starts with the letter the prefix ends with
            hl = total - m
            break
        if not rest:
            hl = 0
            break
        rest -= 1
        hl = size
        if size % 2 == 0:
            hf = other_letter(ctx, hf)
    if hl:
        last, lengths = end, lengths[:j] + (hl,) + (size,) * rest
    else:
        lengths = lengths[:j]
    if not lengths:
        return k, 0, None, (), None
    # each simple flips the letter length - 1 times from its first to its last
    first = last
    if (sum(lengths) - len(lengths)) % 2:
        first = other_letter(ctx, first)
    return k, len(lengths), first, lengths, last


def atom_coset_rep(ctx, g, generator: str):
    """The exponent-sum-zero element of g<generator>, one letter at a time."""
    e = g[0] * ctx.m + sum(l for _, l in g[1])
    return atom_mult_power(ctx, g, generator, -e)


def confined_syllable_max(ctx, members: set) -> int:
    """Least block count per element among words whose prefixes all stay in
    ``members``, maximised over the set: a 0/1 breadth-first search over
    (normal form, last letter) states that multiplies every step out with
    ``mult_gen`` and tests membership in the set."""
    start = (ctx.identity, None)
    cost = {start: 0}
    dq = deque([start])
    while dq:
        el, last = dq.popleft()
        c = cost[(el, last)]
        for g in ctx.generators:
            step = 0 if g == last else 1
            for sign in (1, -1):
                nxt = ctx.mult_gen(el, g, sign)
                if nxt not in members:
                    continue
                state = (nxt, g)
                if cost.get(state, c + step + 1) <= c + step:
                    continue
                cost[state] = c + step
                if step == 0:
                    dq.appendleft(state)
                else:
                    dq.append(state)
    syll: dict = {}
    for (el, _last), c in cost.items():
        if el not in syll or c < syll[el]:
            syll[el] = c
    return max(syll.values())


def per_radius_orbit_growth(m: int, radii, cap: int):
    """Syllable growth table with one ball enumerated per radius and the
    normal-form search of ``confined_syllable_max`` over its members."""
    ctx = DihedralEngine("a", "b", m)
    rows = []
    for r in sorted(radii):
        levels, truncated, _ = ctx.ball_levels(r, cap)
        if truncated:
            raise CapExceeded(
                requested_radius=r,
                completed_radius=len(levels) - 1,
                count=sum(len(l) for l in levels),
                cap=cap,
            )
        members = {el for level in levels for el in level}
        rows.append((r, confined_syllable_max(ctx, members)))
    return rows


# ------------------------------------------------------ developments

def per_pair_development(engine, radius: int, cap: int):
    """A ball development with ``coset_key`` called for every (element,
    generator) pair: (the coset vertex of each pair, in ``_develop``'s
    target order, the normal form of every vertex, boundary, truncated,
    achieved radius), vertices numbered as in ``_develop``."""
    levels, truncated, _ = engine.ball_levels(radius, cap)
    forms = [(el, None) for level in levels for el in level]
    elements = len(forms)
    coset_index: dict = {}
    targets = []
    for i in range(elements):
        for g in engine.generators:
            key = engine.coset_key(forms[i][0], g)
            if key not in coset_index:
                coset_index[key] = len(forms)
                forms.append((forms[i][0], g))
            targets.append(coset_index[key])
    outer = elements - len(levels[-1])
    boundary = set(range(outer, elements))
    boundary.update(targets[outer * len(engine.generators) :])
    return targets, forms, boundary, truncated, len(levels) - 1


def expand_then_drop_ball_levels(engine, radius: int, cap: int = 10**6):
    """``ball_levels`` with the cap tested only after a whole level has been
    multiplied out, which is then dropped when it would pass the cap."""
    mult_gen = engine.mult_gen
    steps = [(g, sign) for g in engine.generators for sign in (1, -1)]
    slots = len(steps)
    levels = [[engine.identity]]
    edges = [-1] * slots
    for _ in range(radius):
        base = len(edges) // slots - len(levels[-1])
        products = [
            mult_gen(x, g, sign) if edges[(base + xi) * slots + slot] < 0 else None
            for xi, x in enumerate(levels[-1])
            for slot, (g, sign) in enumerate(steps)
        ]
        found = set(products)
        found.discard(None)
        if not found:
            return levels, False, edges
        if len(edges) // slots + len(found) > cap:
            return levels, True, edges
        level = sorted(found, key=pair_order_key(engine))
        number = {w: wi for wi, w in enumerate(level, len(edges) // slots)}
        edges.extend([-1] * slots * len(level))
        for k, w in enumerate(products):
            if w is not None:
                xi, slot = divmod(k, slots)
                wi = number[w]
                edges[(xi + base) * slots + slot] = wi
                edges[wi * slots + (slot ^ 1)] = xi + base
        levels.append(level)
    return levels, False, edges


def all_roots_development_girth(link):
    """(edge count, witness) of a development whose element vertices all
    have two edges, or None: each element contracted to an edge between its
    two cosets through dicts, the cosets renumbered in sorted order, and the
    girth search rooted at every one of them."""
    incident: dict = {}
    for i, j, _ in link.edges:
        e, c = (i, j) if link.sides[i] == 0 else (j, i)
        incident.setdefault(e, []).append(c)
    pair_seen: dict = {}
    m_adj: dict = {}
    for e, cosets in incident.items():
        c1, c2 = sorted(cosets)
        if (c1, c2) in pair_seen:
            return 4, [c1, pair_seen[(c1, c2)], c2, e]
        pair_seen[(c1, c2)] = e
        m_adj.setdefault(c1, []).append((c2, e))
        m_adj.setdefault(c2, []).append((c1, e))
    cosets_sorted = sorted(m_adj)
    cindex = {c: i for i, c in enumerate(cosets_sorted)}
    adj = [[] for _ in cosets_sorted]
    element_of = {}
    for c, nbrs in m_adj.items():
        for c2, e in nbrs:
            adj[cindex[c]].append(cindex[c2])
            element_of[(cindex[c], cindex[c2])] = e
    found = _bfs_girth(adj, list(range(len(cosets_sorted))))
    if found is None:
        return None
    k, m_cycle = found
    cycle = []
    for t in range(k):
        c_now, c_next = m_cycle[t], m_cycle[(t + 1) % k]
        cycle.append(cosets_sorted[c_now])
        cycle.append(element_of[(c_now, c_next)])
    return 2 * k, cycle


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


# Words over aAbB are integer-encoded: the letters are the digits a=0, A=1,
# b=2, B=3 (a letter's inverse is its digit xor 1), and a word of length L
# is its base-4 number plus (4^L - 1) / 3, the count of shorter words.
_DIGITS = "aAbB"


def _code(text: str) -> int:
    code = 0
    for c in text:
        code = 4 * code + _DIGITS.index(c)
    return code


def _word_index(text: str) -> int:
    return (4 ** len(text) - 1) // 3 + _code(text)


def _move_edges(pad: int, width: int, match, target) -> tuple[np.ndarray, np.ndarray]:
    """One edge (word, moved word) for every word of length <= pad and every
    position whose window of ``width`` letters satisfies ``match``;
    ``target(code, length, shift)`` encodes the moved word, where ``shift``
    is twice the number of letters right of the window."""
    sources, targets = [], []
    for length in range(width, pad + 1):
        codes = np.arange(4**length, dtype=np.int32)
        base = (4**length - 1) // 3
        for shift in range(0, 2 * (length - width) + 1, 2):
            hit = codes[match((codes >> shift) & (4**width - 1))]
            sources.append(base + hit)
            targets.append(target(hit, length, shift))
    return np.concatenate(sources), np.concatenate(targets)


def _merge(root: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Merge the classes joined by the edges (u, v); ``root`` is updated in
    place and returned.

    ``root`` maps every word to its class's root, a word of the class with
    an index no larger.  Each round hooks the larger root of every edge
    joining two classes under the smaller, then jumps pointers until every
    word points at a root again.
    """
    while True:
        ru, rv = root[u], root[v]
        apart = ru != rv
        if not apart.any():
            return root
        np.minimum.at(root, np.maximum(ru, rv)[apart], np.minimum(ru, rv)[apart])
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root[:] = jumped


def rewriting_classes(ms, pad: int, words) -> dict[int, dict[str, int]]:
    """Union-find closure over all words of length <= pad, for each label
    in ``ms``; the class id of each of ``words`` under each closure.

    Moves: delete an adjacent inverse pair; swap an occurrence of one side
    of the defining relation (or of its inverse) for the other side.
    Deleting from the longer word also connects the inverse insertion, so
    the closure is symmetric.  The deletions do not depend on the label, so
    their classes are built once and each label's swaps merge into a copy.
    """

    def inverse_pair(window):
        return (window >> 2) ^ 1 == window & 3

    def delete(code, length, shift):
        kept = ((code >> (shift + 4)) << shift) + (code & ((1 << shift) - 1))
        return (4 ** (length - 2) - 1) // 3 + kept

    def swap(left: str, right: str):
        old, step = _code(left), _code(right) - _code(left)
        return (
            lambda window: window == old,
            lambda code, length, shift: (4**length - 1) // 3 + code + (step << shift),
        )

    free = _merge(
        np.arange((4 ** (pad + 1) - 1) // 3, dtype=np.int32),
        *_move_edges(pad, 2, inverse_pair, delete),
    )
    out = {}
    for m in ms:
        sources, targets = [], []
        for pair in _relator_strings(m):
            for left, right in (pair, pair[::-1]):
                u, v = _move_edges(pad, m, *swap(left, right))
                sources.append(u)
                targets.append(v)
        root = _merge(free.copy(), np.concatenate(sources), np.concatenate(targets))
        out[m] = {w: int(root[_word_index(w)]) for w in words}
    return out


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


def per_edge_dijkstra_girth(n: int, edges) -> tuple[int, int, list] | None:
    """Minimum-weight cycle of a graph on vertices 0..n-1 as (length, edge
    count, vertices), or None for a forest: for each edge (i, j, w), one
    Dijkstra from i with that edge removed finds the shortest cycle through
    it.  Exact for positive weights."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i, j, w in edges:
        adj[i].append((j, w))
        adj[j].append((i, w))
    best: tuple[int, int, list] | None = None
    for i, j, w in sorted(edges):
        if best is not None and w >= best[0]:
            continue
        dist = {i: 0}
        parent = {i: -1}
        heap = [(0, i)]
        while heap:
            d, x = heapq.heappop(heap)
            if d > dist.get(x, d + 1):
                continue
            if x == j:
                break
            for y, wy in adj[x]:
                if x == i and y == j or x == j and y == i:
                    continue
                nd = d + wy
                if best is not None and nd + w >= best[0]:
                    continue
                if nd < dist.get(y, nd + 1):
                    dist[y] = nd
                    parent[y] = x
                    heapq.heappush(heap, (nd, y))
        if j in dist:
            total = dist[j] + w
            if best is None or total < best[0]:
                path = [j]
                while path[-1] != i:
                    path.append(parent[path[-1]])
                best = (total, len(path), path)
    return best


def full_depth_bfs_girth(adj, roots):
    """Girth (edge count) and witness of a simple graph: a BFS from every
    root expands each depth up to half the best length so far and splices
    every shorter non-tree edge it meets at the lowest common ancestor."""
    best = None
    for r in roots:
        if best is not None and best[0] <= 3:
            break
        dist = {r: 0}
        parent = {r: -1}
        frontier = [r]
        depth = 0
        while frontier:
            if best is not None and depth > best[0] // 2:
                break
            nxt = []
            for x in frontier:
                for y in adj[x]:
                    if y not in dist:
                        dist[y] = depth + 1
                        parent[y] = x
                        nxt.append(y)
                    elif parent[x] != y and parent[y] != x:
                        cand = dist[x] + dist[y] + 1
                        if best is None or cand < best[0]:
                            cycle = _lca_splice(x, y, parent, dist)
                            if best is None or len(cycle) < best[0]:
                                best = (len(cycle), cycle)
            frontier = nxt
            depth += 1
    return best


def first_root_floor_girth(adj, roots, floor=None):
    """The girth search by the reference rule: with no floor, the reference
    search from every root; with one, the reference search from each root
    alone, in root order, and the first cycle of ``floor`` edges that runs
    through its own root, or None."""
    if floor is None:
        return full_depth_bfs_girth(adj, roots)
    for r in roots:
        found = full_depth_bfs_girth(adj, [r])
        if found is not None and found[0] == floor and r in found[1]:
            return found
    return None


def _lca_splice(x, y, parent, dist):
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
    return px + py[-2::-1]


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

def s_ell_poset(inst) -> SubsetPoset:
    """S^l as a general subset poset: the empty set, the parts, the
    inter-edges and the singletons of inter-edge vertices, each tagged
    once per role and sorted by ``subset_sort_key``."""
    tagged = [(frozenset(), "empty")]
    tagged += [(frozenset(part), "part") for part in inst.family.parts]
    for e in inst.inter_edges:
        tagged.append((frozenset(e[:2]), "inter-edge"))
        tagged.append((frozenset((e.u,)), "inter-edge-vertex"))
        tagged.append((frozenset((e.v,)), "inter-edge-vertex"))
    return SubsetPoset.from_tagged(tagged)


def poset_covers(poset) -> list:
    """The covering relation of a SubsetPoset read off its
    ``upper_covers``, listed by the index of ``small``, then of ``big``."""
    return [(small, big) for small, bigs in poset.upper_covers.items() for big in bigs]


@dataclass(frozen=True)
class ListedComplex:
    """Every chain of ``poset``, each a tuple of its elements."""

    poset: SubsetPoset
    chains: tuple


def listed_complex(poset) -> ListedComplex:
    """Every nonempty chain of a SubsetPoset, by length and then element by
    element in element order: the chains grow level by level, each
    extended by the elements above its top in element order."""
    above = poset.above
    level = [(t,) for t in poset.elements]
    chains = []
    while level:
        chains += level
        level = [c + (u,) for c in level for u in above[c[-1]]]
    return ListedComplex(poset, tuple(chains))


def brute_covers(poset) -> list:
    """Pairs small < big with no element strictly between, in element order."""
    out = []
    for small in poset.elements:
        for big in poset.elements:
            if small < big and not any(small < mid < big for mid in poset.elements):
                out.append((small, big))
    return out


def _chain_order(chain) -> tuple:
    return (len(chain), tuple(subset_sort_key(t) for t in chain))


def brute_above(poset) -> dict:
    """For each element, the elements strictly above it, found by comparing
    all pairs, in element order."""
    return {t: [u for u in poset.elements if t < u] for t in poset.elements}


def brute_chains(poset) -> list:
    """Every nonempty chain, grown along ``brute_above``, by length and then
    element by element in ``subset_sort_key`` order."""
    above = brute_above(poset)
    chains = []

    def grow(chain):
        chains.append(chain)
        for u in above[chain[-1]]:
            grow(chain + (u,))

    for t in poset.elements:
        grow((t,))
    return sorted(chains, key=_chain_order)


def brute_maximal_chains(poset) -> list:
    """Chains that no element can extend, in the order of ``brute_chains``."""
    out = []
    for chain in brute_chains(poset):
        cset = set(chain)
        extendable = any(
            x not in cset and all(x < t or t < x for t in chain)
            for x in poset.elements
        )
        if not extendable:
            out.append(chain)
    return out


def brute_chain_count(poset) -> int:
    return len(brute_chains(poset))


def dp_chain_count(poset) -> int:
    """Number of nonempty chains, i.e. of simplices of the derived
    complex, without listing them.

    With f(t) the number of chains whose least element is t,
    f(t) = 1 + sum of f(u) over u > t, and the total is the sum of f.
    """
    f = {}
    for t in reversed(poset.elements):
        f[t] = 1 + sum(f[u] for u in poset.above[t])
    return sum(f.values())


def dp_longest_chain(poset) -> tuple:
    """The first chain of greatest length in derived-complex order, without
    listing the chains.

    With h(t) the length of the longest chain whose least element is t,
    h(t) = 1 + max of h(u) over u > t.  The chain starts at the first
    element of greatest h and steps each time to the first element above
    with h one less.
    """
    h = {}
    for t in reversed(poset.elements):
        h[t] = 1 + max((h[u] for u in poset.above[t]), default=0)
    chain = []
    for need in range(max(h.values(), default=0), 0, -1):
        candidates = poset.above[chain[-1]] if chain else poset.elements
        chain.append(next(u for u in candidates if h[u] == need))
    return tuple(chain)


# ----------------------------------------------------------- metric

def chains_of_length(cx, n: int) -> tuple:
    """The chains of n subsets of a derived complex.  ``cx.chains`` is
    sorted by length, so they are one slice of it."""
    chains = cx.chains
    return chains[bisect_left(chains, n, key=len) : bisect_right(chains, n, key=len)]


@dataclass(frozen=True)
class DimensionVerdict:
    ok: bool
    max_chain_length: int
    witness: tuple | None


def check_two_dimensional(cx) -> DimensionVerdict:
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


def canonical_sine_ratio(p: int, q: int) -> tuple[int, int]:
    """The ratio sin(p pi/8) / sin(q pi/8) as a pair.  The 16 ratios for
    p, q in 1..4 are distinct except the four with p == q, all equal to 1."""
    if not (1 <= p <= 4 and 1 <= q <= 4):
        raise ValueError("sine units must lie in 1..4")
    return (1, 1) if p == q else (p, q)


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


@dataclass
class GluingReport:
    ok: bool
    conflicts: list[dict]


def check_gluing(cx, inst) -> GluingReport:
    """Every 1-cell shared by several metric triangles must receive one
    length.  Each 2-chain [empty < {s} < T] of the S^l complex takes the
    side lengths of its top's kind, read once per top; its sides are
    listed for the edges ([empty,{s}], [{s},T], [empty,T])."""
    disjoint = inst.disjoint
    tags = cx.poset.tags
    empty = frozenset()
    sides_at = {}
    lengths = {}
    for t0, t1, t2 in chains_of_length(cx, 3):
        if t0 != empty or len(t1) != 1:
            raise GraphError(f"unrecognised 2-chain shape {[sorted(t) for t in (t0, t1, t2)]}")
        sides = sides_at.get(t2)
        if sides is None:
            top_tags = tags[t2]
            if "inter-edge" in top_tags:
                case = INTEREDGE_CASE[disjoint[tuple(sorted(t2))]]
            elif "part" in top_tags:
                case = "part"
            else:
                raise GraphError(f"2-chain top {sorted(t2)} is neither part nor inter-edge")
            sides = sides_at[t2] = _SIDES[case]
        lengths.setdefault((t0, t1), set()).add(sides[0])
        lengths.setdefault((t1, t2), set()).add(sides[1])
        lengths.setdefault((t0, t2), set()).add(sides[2])
    return _gluing_report(lengths)


def _gluing_report(lengths) -> GluingReport:
    """The 1-cells given two or more lengths, in edge order."""
    clashing = sorted(
        (edge for edge, ratios in lengths.items() if len(ratios) > 1),
        key=lambda edge: (subset_sort_key(edge[0]), subset_sort_key(edge[1])),
    )
    conflicts = [
        {"edge": [sorted(lo), sorted(hi)], "lengths": sorted(lengths[lo, hi])}
        for lo, hi in clashing
    ]
    return GluingReport(ok=not conflicts, conflicts=conflicts)


@dataclass(frozen=True)
class MetricSimplex:
    """A 2-chain [empty < {s} < T] with corner angles in pi/8 units and the
    three side lengths as exact sine ratios, normalised so that the side
    [empty, {s}] has length 1."""

    chain: tuple
    units: tuple
    case: str
    # sides listed for edges ([empty,{s}], [{s},T], [empty,T])
    sides: tuple

    def edge_lengths(self) -> dict:
        t0, t1, t2 = self.chain
        return {(t0, t1): self.sides[0], (t1, t2): self.sides[1], (t0, t2): self.sides[2]}


def assign_metric(cx, inst) -> list:
    """Angles and side lengths for every 2-chain of the S^l complex."""
    disjoint = inst.disjoint
    tags = cx.poset.tags
    out = []
    for chain in chains_of_length(cx, 3):
        t0, t1, t2 = chain
        if t0 != frozenset() or len(t1) != 1:
            raise GraphError(f"unrecognised 2-chain shape {[sorted(t) for t in chain]}")
        top_tags = tags[t2]
        if "inter-edge" in top_tags:
            case = INTEREDGE_CASE[disjoint[tuple(sorted(t2))]]
        elif "part" in top_tags:
            case = "part"
        else:
            raise GraphError(f"2-chain top {sorted(t2)} is neither part nor inter-edge")
        out.append(MetricSimplex(chain, TRIANGLE_UNITS[case], case, _SIDES[case]))
    return out


def simplex_gluing(simplices) -> GluingReport:
    """Every 1-cell shared by several metric triangles must receive one
    length, from each triangle's own edge-length dict."""
    lengths = {}
    for sx in simplices:
        for edge, ratio in sx.edge_lengths().items():
            lengths.setdefault(edge, set()).add(ratio)
    return _gluing_report(lengths)


# ----------------------------------------------------------- retraction

@dataclass
class RetractionReport:
    total_maximal_chains: int
    lands_in_s_ell: bool
    identity_on_s_ell: bool
    idempotent: bool
    face_compatible: bool
    vertex_map: dict
    failures: list

    @property
    def ok(self) -> bool:
        return (
            self.lands_in_s_ell
            and self.identity_on_s_ell
            and self.idempotent
            and self.face_compatible
        )


def cover_walk_retraction_map(s_bar, s_ell, family) -> RetractionReport:
    """The retraction audit with monotonicity tested on covers and the
    maximal chains counted and checked by dynamic programming along the
    covering relation, not listed.

    What the audit reads off a chain depends only on its second element,
    its image with repeats dropped, whether every element so far is fixed
    (the rule for an inter-edge on top) and whether that image strictly
    increases (an S^l chain).  Upward walks along the covering relation
    merge on that state, so the k! chains inside a part of size k make
    about k states per subset.  Each failing state is reported once, with
    its first chain in ``derived_complex`` order as the witness.
    """
    parts = [frozenset(p) for p in family.parts]
    failures = []
    vertex_map = {}
    for t in s_bar.elements:
        if t in s_ell.tags:
            vertex_map[t] = t
            continue
        # parts are disjoint, so one vertex names the only part t can lie in
        part = parts[family.part_of[next(iter(t))]] if t else frozenset()
        if t and t <= part:
            vertex_map[t] = part
        else:
            failures.append(f"no image for {sorted(t)}")

    # an unmapped element makes the retraction partial, so it cannot land
    lands = not failures and all(img in s_ell.tags for img in vertex_map.values())
    identity = all(vertex_map.get(t) == t for t in s_ell.elements)
    idempotent = all(vertex_map.get(img) == img for img in vertex_map.values())

    # inclusion is transitive, so covers suffice when every element has an
    # image, and a partial map fails already
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
    states = {t: {} for t in vertex_map}
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
                in_s_ell = rising and all(img in s_ell.tags for img in image)
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


def all_pairs_retraction_map(s_bar, s_ell, family) -> RetractionReport:
    """``retraction_map`` with monotonicity tested on every pair a < b of
    mapped elements of S_bar, and every maximal chain listed and tested on
    its own against the listed chains of S^l."""
    part_of = {}
    for part in family.parts:
        pset = frozenset(part)
        for t in s_bar.elements:
            if t and t <= pset:
                part_of.setdefault(t, pset)

    failures = []
    vertex_map = {}
    for t in s_bar.elements:
        if t in s_ell.tags:
            vertex_map[t] = t
        elif t in part_of:
            vertex_map[t] = part_of[t]
        else:
            failures.append(f"no image for {sorted(t)}")

    lands = not failures and all(img in s_ell.tags for img in vertex_map.values())
    identity = all(vertex_map.get(t) == t for t in s_ell.elements)
    idempotent = all(vertex_map.get(img) == img for img in vertex_map.values())

    monotone = True
    elems = [t for t in s_bar.elements if t in vertex_map]
    for a in elems:
        for b in elems:
            if a < b and not vertex_map[a] <= vertex_map[b]:
                monotone = False
                failures.append(f"not monotone on {sorted(a)} < {sorted(b)}")

    iev = {t for t in s_ell.elements if "inter-edge-vertex" in s_ell.tags[t]}
    s_ell_chains = set(brute_chains(s_ell))
    total = 0
    formula_ok = True
    for chain in maximal_chains(s_bar):
        if any(t not in vertex_map for t in chain):
            continue
        total += 1
        image = []
        for t in chain:
            img = vertex_map[t]
            if not image or image[-1] != img:
                image.append(img)
        top = chain[-1]
        if "inter-edge" in s_bar.tags.get(top, frozenset()):
            expected = chain
        else:
            bottom = chain[1] if len(chain) > 1 else None
            part = vertex_map[top]
            if bottom is not None and bottom in iev:
                expected = (frozenset(), bottom, part)
            else:
                expected = (frozenset(), part)
        if tuple(image) != expected:
            formula_ok = False
            failures.append(
                f"chain {[sorted(t) for t in chain]} mapped to "
                f"{[sorted(t) for t in image]}, expected {[sorted(t) for t in expected]}"
            )
        if tuple(image) not in s_ell_chains:
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


@dataclass
class ScanAudit:
    condition1_ok: bool
    condition1_witness: tuple | None
    condition3_ok: bool
    condition3_witness: frozenset | None


def scan_audit_family(s_bar, inst) -> ScanAudit:
    """The family audit by scanning: subset closure by the 2^|t| subsets
    of every element t, in element order and then mask order, and
    spherical coverage by every spherical subset of the graph."""
    cond1_witness = None
    for t in s_bar.elements:
        members = sorted(t)
        for mask in range(1 << len(members)):
            sub = frozenset(m for i, m in enumerate(members) if mask >> i & 1)
            if sub not in s_bar.tags:
                cond1_witness = (sub, t)
                break
        if cond1_witness:
            break
    cond3_witness = next((t for t in inst.spherical if t not in s_bar.tags), None)
    return ScanAudit(
        condition1_ok=cond1_witness is None,
        condition1_witness=cond1_witness,
        condition3_ok=cond3_witness is None,
        condition3_witness=cond3_witness,
    )


def enumerated_crossing_spherical(inst) -> list:
    """The graph's spherical subsets that lie inside no part, from the
    whole-graph enumeration, in its order."""
    sets = [frozenset(p) for p in inst.family.parts]
    return [t for t in inst.spherical if not any(t <= p for p in sets)]


# ---------------------------------------------------- certification

def link_stats(link: LinkGraph) -> dict:
    """The stats of a certification entry, read off a built link."""
    return {
        "vertices": link.vertex_count,
        "edges": len(link.edges),
        "requested_radius": link.truncation.requested_radius,
        "achieved_radius": link.truncation.achieved_radius,
        "truncated": link.truncation.truncated,
    }


def independent_certification(inst) -> list:
    """One entry per non-disjoint inter-edge, each developed alone at radius
    8m and cap 4000 and then searched; a truncated development that passes
    is PASS-within-radius."""
    entries = []
    for e in inst.inter_edges:
        if inst.disjoint[e.u, e.v]:
            continue
        link = develop_link_interedge(inst, e, radius=8 * e.label, cap=4000)
        cert = shortest_embedded_cycle(link)
        member = subset_label(e[:2])
        if not cert.passes:
            status = "FAIL"
        else:
            status = "PASS-complete" if cert.complete else "PASS-within-radius"
        entries.append(
            LinkCertificate(link.case, link.descriptor, status, cert, [member], link_stats(link))
        )
    return entries


def brute_syllable_relations(engine, radius: int, counts=(4, 6)):
    """(k, exponents of every trivial word) for the least k of ``counts``
    with a trivial word s_1^p_1 s_2^p_2 ... of k syllables, s_1 the
    engine's first generator, the generators alternating and
    0 < |p_i| <= radius; the words in the window order of their exponents
    (smaller first, each positive before its negative).  None when no
    such word is trivial.  Every word is multiplied out in full, prefixes
    shared."""
    window = [p for n in range(1, radius + 1) for p in (n, -n)]
    gens = engine.generators

    def words(exps, el, k):
        if len(exps) == k:
            yield exps, el
            return
        for p in window:
            syllable = ((gens[len(exps) % 2], p // abs(p)),) * abs(p)
            yield from words(exps + (p,), mult_word(engine, el, syllable), k)

    for k in counts:
        hits = [exps for exps, el in words((), engine.identity, k) if el == engine.identity]
        if hits:
            return k, hits
    return None


def reference_syllable_search(engine, radius: int, counts=(4, 6)):
    """The trivial cyclic words of ``brute_syllable_relations``, found by
    meeting in the middle: (the counts searched, which stop at the first
    with a hit; the hits of that count in window order; the number of
    a-first half words).  A word of k syllables is trivial exactly when its
    first k/2 syllables equal the inverse of its last k/2, a b-first word,
    which is an a-first word's image under the exchange of the generators:
    that fixes Delta and the lengths and flips the first and last
    letters.  So each a-first half word is kept with its exponent tuple and
    multiplied out with ``mult_gen``, and every one is looked up in a table
    keyed by normal form for its image."""
    window = [p for n in range(1, radius + 1) for p in (n, -n)]
    rank = {p: i for i, p in enumerate(window)}
    a, b = engine.generators
    other = {a: b, b: a, None: None}
    level = [((), engine.identity)]
    searched, hits, words = [], [], 0
    for k in counts:
        while len(level[0][0]) < k // 2:
            g = b if len(level[0][0]) % 2 else a
            level = [
                (exps + (p,), mult_word(engine, el, ((g, p // abs(p)),) * abs(p)))
                for exps, el in level
                for p in window
            ]
        table = {}
        for exps, el in level:
            table.setdefault(el, []).append(exps)
        words += len(level)
        searched.append(k)
        for exps, el in level:
            power, r, first, lengths, last = el
            lefts = table.get((power, r, other[first], lengths, other[last]))
            if lefts:
                right = tuple(-p for p in reversed(exps))
                hits += [left + right for left in lefts]
        if hits:
            break
    hits.sort(key=lambda w: [rank[p] for p in w])
    return searched, hits, words


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


def all_pairs_classify_type(graph, subset) -> coxeter.CoxeterType:
    """``coxeter.classify_type`` from the diagram of every pair, listed
    here: its components are walked along its edges, a component with an
    infinity edge is ~A1 on two vertices and indefinite otherwise, and
    each other component is a clique that ``_classify_component`` types."""
    verts = sorted(set(subset))
    rows = graph.adjacency
    # every pair of label other than 2, an absent edge as None (infinity)
    edges = {
        frozenset((u, v)): rows[u].get(v)
        for i, u in enumerate(verts)
        for v in verts[i + 1 :]
        if rows[u].get(v) != 2
    }
    adj = {v: set() for v in verts}
    for u, v in map(tuple, edges):
        adj[u].add(v)
        adj[v].add(u)
    seen: set = set()
    names = []
    for start in verts:
        if start in seen:
            continue
        comp, stack = {start}, [start]
        while stack:
            for w in adj[stack.pop()] - comp:
                comp.add(w)
                stack.append(w)
        seen |= comp
        if any(m is None for e, m in edges.items() if e <= comp):
            names.append("~A1" if len(comp) == 2 else "indefinite")
        else:
            names.append(coxeter._classify_component(sorted(comp), rows))
    names.sort()
    return coxeter.CoxeterType(kind=coxeter._kind(names), components=tuple(names))


def brute_spherical_subsets(graph) -> list:
    """Every vertex subset with a finite quotient, by size and then
    lexicographically."""
    return [
        frozenset(subset)
        for k in range(len(graph.vertices) + 1)
        for subset in itertools.combinations(sorted(graph.vertices), k)
        if coxeter.classify_type(graph, subset).kind == "finite"
    ]


def clique_growth_spherical_subsets(graph) -> list:
    """Every spherical subset, smallest first and each size in
    lexicographic order, grown from the empty set: each spherical set is
    extended by every common neighbour above its largest vertex, and the
    candidate is decided by the diagram component its new vertex merges,
    with no triangle seeding and no cap."""
    labels = graph.adjacency
    linked = {v: frozenset(w for w, m in labels[v].items() if m != 2) for v in labels}
    is_finite = coxeter._finite_components(labels)
    out = [frozenset()]
    level = [((), graph.vertices, ())]
    while level:
        nxt = []
        for base, above, comps in level:
            for i, v in enumerate(above):
                cand = base + (v,)
                joined = [c for c in comps if not c.isdisjoint(linked[v])]
                merged = frozenset((v,)).union(*joined)
                if len(merged) > 2 and not is_finite(merged):
                    continue
                out.append(frozenset(cand))
                kept = tuple(c for c in comps if c not in joined)
                common = tuple(w for w in above[i + 1 :] if w in labels[v])
                nxt.append((cand, common, kept + (merged,)))
        level = nxt
    return out


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
                if v > top and c <= graph.adjacency[v].keys():
                    nxt.add(c | {v})
        frontier = sorted(nxt, key=sorted)
        cliques.extend(frontier)
    return all(coxeter.is_spherical(graph, c) for c in cliques)


def induced_subgraph(graph, vertices):
    """A new graph: the full subgraph on ``vertices``."""
    inside = set(vertices)
    return DefiningGraph.build(
        sorted(inside), [(u, v, m) for u, v, m in graph.edges if u in inside and v in inside]
    )


def edge_scan_engine_for_part(graph, part):
    """``dihedral_garside.engine_for_part`` from the part's edges, found by
    scanning every edge of the graph."""
    verts = sorted(part)
    inside = set(verts)
    edges = [(u, v, m) for u, v, m in graph.edges if u in inside and v in inside]
    if not edges:
        return FreeEngine(verts)
    if len(verts) == 2:
        return DihedralEngine(*edges[0])
    return None


def all_vertex_find_witness(inst):
    """``acyl_checker.find_witness`` with every vertex of the graph tested
    for an edge to either endpoint of each inter-edge of label >= 3."""
    graph = inst.graph
    ies = sorted(
        (e for e in inst.inter_edges if e.label >= 3), key=lambda e: (-e.label, e.u, e.v)
    )
    for e in ies:
        candidates = sorted(
            v
            for v in graph.vertices
            if v != e.u and v != e.v and not graph.adjacency[v].keys().isdisjoint(e[:2])
        )
        if candidates:
            return e, candidates[0], (e.u, e.v, candidates[0])
    return None


def part_alone_report(graph, part) -> ClassifierReport:
    """The classifier flags of the full subgraph on ``part``, from a copy
    of that subgraph alone."""
    sub = induced_subgraph(graph, part)
    spherical = coxeter.enumerate_spherical_subsets(sub)
    ctype = coxeter.classify_type(sub, sub.vertices)
    labels = [m for _, _, m in sub.edges]
    vs = sub.vertices
    # FC: no spherical set plus a vertex joined to all of it is a
    # non-spherical clique, since a minimal one minus any vertex is spherical
    listed = set(spherical)
    fc = all(t | {v} in listed for t in spherical for v in vs if t <= sub.adjacency[v].keys())
    reached = {vs[0]}
    frontier = [vs[0]]
    while frontier:
        v = frontier.pop()
        for w in vs:
            if w not in reached and w != v and w not in sub.adjacency[v]:
                reached.add(w)
                frontier.append(w)
    return ClassifierReport(
        spherical_type=ctype.kind == "finite",
        affine_type=ctype.kind == "affine",
        two_dimensional=all(len(t) <= 2 for t in spherical),
        fc_type=fc,
        large_type=all(m >= 3 for m in labels),
        extra_large_type=all(m >= 4 for m in labels),
        xxl_type=all(m >= 5 for m in labels),
        right_angled=all(m == 2 for m in labels),
        join_decomposable=len(reached) < len(vs),
        locally_reducible=None,
        notes=(f"coxeter type: {ctype.kind} ({', '.join(ctype.components) or 'empty'})",),
    )


# ---------------------------------------------------------- helpers

def mult_word(engine, el, word):
    """el times the word, one letter at a time through ``mult_gen``; from
    the identity this is the word's normal form."""
    for letter, sign in word:
        el = engine.mult_gen(el, letter, sign)
    return el


def parse_word(text: str, letters):
    """Tokens separated by whitespace: "a", "a^-1", or single-char uppercase
    for the inverse of a single-char generator."""
    lower = set(letters)
    out = []
    for tok in text.split():
        if tok.endswith("^-1"):
            base, sign = tok[:-3], -1
        elif tok not in lower and len(tok) == 1 and tok.lower() in lower:
            base, sign = tok.lower(), -1
        else:
            base, sign = tok, 1
        if base not in lower:
            raise ValueError(f"unknown letter {tok!r}")
        out.append((base, sign))
    return tuple(out)


def syllable_length(word) -> int:
    """Number of maximal one-generator blocks after cancelling within blocks.

    Blocks that cancel to nothing disappear and same-generator neighbours
    merge, repeatedly.
    """
    stack = []
    for letter, sign in word:
        if stack and stack[-1][0] == letter:
            exp = stack[-1][1] + sign
            stack.pop()
            if exp != 0:
                stack.append((letter, exp))
        else:
            stack.append((letter, sign))
    return len(stack)


def instance_to_json(inst) -> str:
    """The instance in the CLI's input format."""
    doc = {
        "vertices": list(inst.graph.vertices),
        "edges": [{"u": u, "v": v, "m": m} for u, v, m in inst.graph.edges],
        "family": [list(p) for p in inst.family.parts],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def sine_ratio_value(ratio: tuple[int, int]) -> float:
    """sin(p pi/8) / sin(q pi/8) for the pair (p, q)."""
    p, q = ratio
    return math.sin(p * math.pi / 8) / math.sin(q * math.pi / 8)


def strictly_increasing(rows: list[tuple[int, int]]) -> bool:
    vals = [v for _, v in rows]
    return all(x < y for x, y in zip(vals, vals[1:]))
