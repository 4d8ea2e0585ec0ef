"""Garside normal forms for dihedral presentations, plus word-problem engines.

The group on two generators a, b with the relation prod(a,b;m) = prod(b,a;m)
(2 <= m < infinity) is spherical type, with Garside element Delta equal to
either alternating product of length m.  Every element is uniquely

    Delta^k . x_1 x_2 ... x_r

where each x_i is a proper simple (an alternating positive word of length
1..m-1) and consecutive factors are left-weighted: the last letter of x_i
equals the first letter of x_{i+1}.  So the first letter of x_1 and the
lengths of x_1 .. x_r fix every letter.  Pairwise left-weightedness
characterises the normal form, so multiplying by one letter needs only a
local repair at the right end, with Delta powers migrating left through
tau (the atom swap when m is odd, identity when m is even).

An element is the plain tuple (k, r, first, lengths, last): Delta's power,
the number of simples, the tail's first letter, the lengths, and the tail's
last letter, both letters None exactly when r = 0.  Equality of words is
equality of these tuples, and their natural order is the order a ball's
levels are numbered in, (k, r, first letter, lengths), which is the order
of the (first letter, length) pairs, since each later first letter follows
from the pair before it.  ``last`` follows from the fields before it, so it
never decides a comparison, and None is only ever compared with None.  So
``ball_levels`` sorts a level with no key function, and every product is a
tuple display built in C, not a named tuple or a dataclass.

``coset_key`` keys a coset g<s> by where its elements' positive s-orbits
settle: once the tail ends with s, multiplying by s appends a simple of
length 1 and changes nothing before it (see its docstring).

``describe`` spells Delta's power and then the tail's simples.  Many
elements of a ball share a tail and differ only in their Delta power, so
each engine keeps a memo of the tails it has spelled, keyed by last letter
and lengths.  The memo lives and dies with its engine, which each CLI call
makes afresh, and holds only the tails of described elements.

Two word-problem engines share one small interface used by link
development (identity, generators, mult_gen, ball_levels, coset_key,
describe), and the elements of each sort in ball order by their natural
order: the exact dihedral engine above, and an exact free-group engine
(reduced words, one length per level) for edgeless subgraphs.

``ball_levels`` returns the word-metric ball level by level together with
its Cayley edges as one flat list of slots, element i's g^+1 and g^-1
neighbours at i * slots + 2 gi and the slot after it, filled from the
products the enumeration computes anyway.  Every Artin relator has even
length, so all words for one element have lengths of one parity and a
generator step flips it: no edge stays inside a level, and each level's
edges down to the one before are the reverses of edges found while
expanding that level.  Developments and the syllable growth table read
these slots by offset instead of multiplying again.
"""
from __future__ import annotations

from itertools import islice, product
from typing import Sequence

Word = tuple[tuple[str, int], ...]


class CapExceeded(RuntimeError):
    """Ball enumeration hit the element cap before finishing the radius."""

    def __init__(self, requested_radius: int, completed_radius: int, count: int, cap: int):
        super().__init__(
            f"element cap {cap} exceeded: completed radius {completed_radius} "
            f"of {requested_radius} with {count} elements"
        )
        self.requested_radius = requested_radius
        self.completed_radius = completed_radius
        self.count = count
        self.cap = cap


def word_to_str(word: Word) -> str:
    toks = []
    for letter, sign in word:
        if sign == 1:
            toks.append(letter)
        elif len(letter) == 1:
            toks.append(letter.upper())
        else:
            toks.append(f"{letter}^-1")
    return " ".join(toks)


# the default element cap of a ball, and the largest the CLI accepts
BALL_CAP = 10**6


def _ball_levels(
    engine, radius: int, cap: int = BALL_CAP
) -> tuple[list[list], bool, list[int]]:
    """BFS levels of the word metric ball, through the engine's identity,
    generators and mult_gen, with the ball's Cayley edges.

    Only complete levels are kept: when adding the next level would pass the
    cap, enumeration stops and the truncated flag is set.  The test runs
    while the level is found, so expansion stops with the first element
    whose products pass the cap, and the rest of a level that would be
    dropped is never multiplied out.  levels[d] holds exactly the elements
    at distance d, each level in the natural order of the engine's elements.

    Elements are numbered by position in the concatenated levels, and the
    edges are one flat list of 2 * len(generators) slots per element: for
    the generator g at position gi, slot i * slots + 2 gi holds the number
    of el_i g^+1 and the slot after it the number of el_i g^-1, or -1 when
    that product lies outside the kept ball.

    Every Artin relator has even length, so all words for one element have
    lengths of one parity, and a generator step flips it: the products of
    a level land one level down or one level up, never inside it.  When
    x g^s = w is found, w is new and both slots x -> w and w -> x (sign -s)
    are filled.  So every edge down to the previous level is known before a
    level is expanded and needs no multiplication, every other product is
    an element of the next level, and the last kept level, never expanded,
    already holds all its in-ball edges.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    mult_gen = engine.mult_gen
    steps = [(g, sign) for g in engine.generators for sign in (1, -1)]
    slots = len(steps)
    levels: list[list] = [[engine.identity]]
    edges = [-1] * slots
    for _ in range(radius):
        # the last level's elements, the offset of its first slot, and the
        # elements of the next level found so far; products holds one entry
        # per slot from that offset on, None where the slot is filled
        count = len(edges) // slots
        last = iter(levels[-1])
        start = offset = len(edges) - slots * len(levels[-1])
        room = cap - count  # new elements the cap still admits
        products: list = []
        found: set = set()
        while offset < len(edges):
            # an element adds at most `slots` new ones, so a chunk of this
            # many cannot pass the cap; near it the chunks are single elements
            chunk = min(len(edges) - offset, max(1, (room - len(found)) // slots) * slots)
            new = [
                mult_gen(x, g, sign) if filled < 0 else None
                for (x, (g, sign)), filled in zip(
                    product(islice(last, chunk // slots), steps),
                    edges[offset : offset + chunk],
                )
            ]
            offset += chunk
            products += new
            found.update(new)
            found.discard(None)
            if len(found) > room:
                return levels, True, edges
        if not found:
            return levels, False, edges
        level = sorted(found)
        number = dict(zip(level, range(count, count + len(level))))
        edges += [-1] * (slots * len(level))
        for off, wi in enumerate(map(number.get, products), start):
            if wi is not None:
                edges[off] = wi
                xi, slot = divmod(off, slots)
                edges[wi * slots + (slot ^ 1)] = xi
        levels.append(level)
    return levels, False, edges


class DihedralEngine:
    """Exact engine for two generators with one finite label m >= 2."""

    def __init__(self, a: str, b: str, m: int):
        if a == b:
            raise ValueError("generators must be distinct")
        if m < 2:
            raise ValueError("label must be >= 2")
        self.generators = (a, b)
        self.m = m
        self.identity = (0, 0, None, (), None)
        self._other = {a: b, b: a}
        # the letter tau sends each generator to
        self._tau = {a: b, b: a} if m % 2 else {a: a, b: b}
        # by last letter, then lengths: the spelled tail of each element
        # describe has met
        self._tails: dict = {None: {(): ""}, a: {}, b: {}}

    def mult_gen(self, el: tuple, letter: str, sign: int) -> tuple:
        """Right-multiply by letter^sign, repairing the right end.

        For t, the tail's last simple x either ends with t (or the tail is
        empty), and t is a new simple; or x t is alternating, one longer
        simple, or Delta when x has length m - 1.  That Delta migrates left,
        tau-twisting the prefix standing before x, which ends with x's
        first letter, flipped by tau when m is odd: the other generator
        either way.

        For t^-1 = Delta^-1 y, y = Delta t^-1 of length m - 1 and ending
        with the other generator: when x ends with t, x t^-1 drops that
        letter, leaving the prefix (which ends with t) when x was t alone;
        otherwise y is left-weighted after the tau-twisted tail and is
        appended, and starts with tau of the other generator when the tail
        is empty."""
        other = self._other
        if letter not in other:
            raise ValueError(f"unknown generator {letter!r}")
        k, r, first, lengths, last = el
        if sign == 1:
            if not r:
                return k, 1, letter, (1,), letter
            if last == letter:
                return k, r + 1, first, lengths + (1,), letter
            length = lengths[-1] + 1
            if length < self.m:
                return k, r, first, lengths[:-1] + (length,), letter
            if r == 1:
                return k + 1, 0, None, (), None
            return k + 1, r - 1, self._tau[first], lengths[:-1], other[letter]
        if sign == -1:
            if not r:
                return k - 1, 1, self._tau[other[letter]], (self.m - 1,), other[letter]
            if last != letter:
                return k - 1, r + 1, self._tau[first], lengths + (self.m - 1,), other[letter]
            length = lengths[-1] - 1
            if length:
                return k, r, first, lengths[:-1] + (length,), other[letter]
            if r == 1:
                return k, 0, None, (), None
            return k, r - 1, first, lengths[:-1], letter
        raise ValueError(f"sign must be +-1, got {sign}")

    # shared with FreeEngine, and assigned rather than inherited so that each
    # class holds its own entry for the benchmark's layer tracer to patch
    ball_levels = _ball_levels

    def coset_key(self, el: tuple, generator: str) -> tuple:
        """(g, k, the prefix's lengths) for the coset el<g>, g the
        generator: el is multiplied by g until its positive g-orbit
        settles, and the prefix is its tail without the length-1 simples
        the tail ends with.  The prefix is empty or ends with g, so its
        lengths fix its letters.

        While the tail is non-empty and does not end with g, each step
        makes it end with g or consumes a simple into Delta, so at most
        r + 1 steps are taken.  Once the tail is empty or ends with g,
        every further g appends a simple of length 1 and changes neither k
        nor anything before it; the length-1 simples at the end of a tail
        all share one letter, here g, so stripping them leaves one k and
        one prefix for the whole settled orbit.  Two elements h and h g^d
        of one coset settle at h g^a and h g^(d+b), one a positive g-power
        of the other, so they get one key; and equal keys mean Delta^k
        times one prefix times powers of g, one coset.  So two elements
        share a key exactly when their cosets coincide, whatever ball they
        were met in.
        """
        while el[1] and el[4] != generator:
            el = self.mult_gen(el, generator, 1)
        k, r, _, lengths, _ = el
        while r and lengths[r - 1] == 1:
            r -= 1
        return generator, k, lengths[:r]

    def describe(self, el: tuple) -> str:
        """Delta's power, then each simple's alternating letters."""
        k, _, _, lengths, last = el
        words = self._tails[last].get(lengths)
        if words is None:
            words = self._spell(last, lengths)
        if k == 0:
            return words or "1"
        return f"D^{k}.{words}" if words else f"D^{k}"

    def _spell(self, last: str, lengths: tuple[int, ...]) -> str:
        """The tail's simples spelled out and joined by dots, kept in the
        memo.  Simples are spelled from the right until the rest of the
        tail is found in the memo: a new tail of a ball is mostly a spelled
        one plus one simple."""
        tails, other, simples, rest = self._tails, self._other, [], ""
        end = last
        for r in range(len(lengths), 0, -1):
            # the simple ends with end; the tail before it ends with the
            # simple's first letter
            length = lengths[r - 1]
            first = end if length % 2 else other[end]
            simples.append((first + other[first]) * (length // 2) + first * (length % 2))
            end = first
            known = tails[end].get(lengths[: r - 1]) if r > 1 else None
            if known is not None:
                rest = known + "."
                break
        words = tails[last][lengths] = rest + ".".join(reversed(simples))
        return words


# the benchmark's layer tracer patches mult_gen under this name
DihedralGroupCtx = DihedralEngine


class FreeEngine:
    """Exact engine for an edgeless part: the free group on its generators
    (rank 1 is the integers), elements as reduced words."""

    def __init__(self, generators: Sequence[str]):
        if len(set(generators)) != len(generators) or not generators:
            raise ValueError("generators must be distinct and non-empty")
        self.generators = tuple(generators)
        self.identity: Word = ()

    def mult_gen(self, el: Word, letter: str, sign: int) -> Word:
        if letter not in self.generators:
            raise ValueError(f"unknown generator {letter!r}")
        if el and el[-1] == (letter, -sign):
            return el[:-1]
        return el + ((letter, sign),)

    ball_levels = _ball_levels

    def coset_key(self, el: Word, generator: str) -> tuple:
        while el and el[-1][0] == generator:
            el = el[:-1]
        return (generator, el)

    def describe(self, el: Word) -> str:
        return word_to_str(el) if el else "1"


def engine_for_part(graph, part: Sequence[str]) -> DihedralEngine | FreeEngine | None:
    """Exact engine for a family part when one exists, else None.

    Supported: any edgeless part (free group, rank 1 included) and any
    two-vertex part with an edge (dihedral).
    """
    verts = sorted(part)
    inside = set(verts)
    rows = graph.adjacency
    if all(rows[v].keys().isdisjoint(inside) for v in verts):
        return FreeEngine(verts)
    if len(verts) == 2:
        a, b = verts
        return DihedralEngine(a, b, rows[a][b])
    return None
