"""Garside normal forms for dihedral presentations, plus word-problem engines.

The group on two generators a, b with the relation prod(a,b;m) = prod(b,a;m)
(2 <= m < infinity) is spherical type, with Garside element Delta equal to
either alternating product of length m.  Every element is uniquely

    Delta^k . x_1 x_2 ... x_r

where each x_i is a proper simple (an alternating positive word of length
1..m-1) and consecutive factors are left-weighted: the last letter of x_i
equals the first letter of x_{i+1}.  So the last letter of x_r and the
lengths of x_1 .. x_r fix every letter, and an element is recorded as k,
that letter (None when r = 0) and the lengths.  Pairwise
left-weightedness characterises the normal form, so multiplying by one
letter needs only a local repair at the right end, with Delta powers
migrating left through tau (the atom swap when m is odd, identity when m is
even).  A whole power t^n is multiplied in one pass: t^n is itself a
left-weighted chain after its Delta power (n atoms t, or for n < 0 the
tau-twisted copies of Delta t^-1), so the only repair is the Delta-fill
cascade where the tail meets the chain, O(|tail| + |n|) steps.

Equality of words is equality of normal forms.  The exponent-sum
homomorphism eps (every generator to 1) reads off normal forms as
eps = k*m + sum of the lengths; each coset g<s> contains exactly one
element with eps = 0, which serves as its canonical representative.

Elements are ``DihedralElement`` named tuples (k, last, lengths), not
dataclasses: development puts every element into sets and dicts, and a
tuple hashes and compares in C where a dataclass goes through its Python
``__hash__`` and ``__eq__``.  The engine builds them with ``tuple.__new__``
in C, not through the named tuple's own ``__new__``, which is a Python
function: a development makes one element per product.

``describe`` spells Delta's power and then the tail's simples.  Many
elements of a ball share a tail and differ only in their Delta power, so
each engine keeps a memo of the tails it has spelled, keyed by last letter
and lengths.  The memo lives and dies with its engine, which each CLI call
makes afresh, and holds only the tails of described elements.

Two word-problem engines share one small interface used by link
development (identity, generators, mult_gen, sort_key, ball_levels,
coset_key, describe): the exact dihedral engine above, and an exact
free-group engine (reduced words) for edgeless subgraphs.

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
from typing import NamedTuple, Sequence

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


class DihedralElement(NamedTuple):
    """Normal form Delta^k times a left-weighted tail of proper simples,
    kept as the tail's last letter (None for an empty tail) and the
    lengths of its simples."""

    k: int
    last: str | None
    lengths: tuple[int, ...]


# builds a DihedralElement in C (see the module docstring)
_new = tuple.__new__

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
    at distance d, each level sorted by the engine's sort key.

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
        level = sorted(found, key=engine.sort_key)
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
        self.identity = DihedralElement(0, None, ())
        self._other = {a: b, b: a}
        # by last letter, then lengths: the spelled tail of each element
        # describe has met
        self._tails: dict = {None: {(): ""}, a: {}, b: {}}

    def mult_power(self, el: DihedralElement, t: str, n: int) -> DihedralElement:
        """Right-multiply by t^n in one pass over the tail.

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
        still standing.  Each step consumes a tail factor, so the cost is
        O(|tail| + |n|).
        """
        other = self._other
        if t not in other:
            raise ValueError(f"unknown generator {t!r}")
        if n == 0:
            return el
        m, odd = self.m, self.m % 2 == 1
        k, last, lengths = el
        if n > 0:
            # the chain's simples have length size, its head starts with hf
            # and its last simple ends with end
            size, hf, end = 1, t, t
        else:
            n = -n
            k -= n
            size, end = m - 1, other[t]
            if odd:
                hf = t if n % 2 else end
                if n % 2 and lengths:
                    last = other[last]
            else:
                hf = end
        hl = size  # the head's length, 0 once the chain is used up
        rest = n - 1  # chain factors after the head
        j = len(lengths)  # length of the standing tail prefix, ending with last
        while j and last != hf:
            length = lengths[j - 1]
            j -= 1
            # the first letter of x, which the prefix before it ends with
            first = last if length % 2 else other[last]
            total = length + hl
            if total < m:
                hl = total
                break
            # x c fills a Delta, which migrates left through the prefix
            k += 1
            last = other[first] if odd else first
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
                hf = other[hf]
        if hl:
            return _new(DihedralElement, (k, end, lengths[:j] + (hl,) + (size,) * rest))
        return _new(DihedralElement, (k, last if j else None, lengths[:j]))

    def mult_gen(self, el: DihedralElement, letter: str, sign: int) -> DihedralElement:
        """Right-multiply by letter^sign: ``mult_power`` for n = +-1, its
        junction repair written out.

        For t, the tail's last simple x either ends with t (or the tail is
        empty), and t is a new simple; or x t is alternating, one longer
        simple, or Delta when x has length m - 1.  That Delta migrates left,
        and the prefix standing before x ends with x's first letter, flipped
        by tau when m is odd: the other generator either way.

        For t^-1 = Delta^-1 y, y = Delta t^-1 of length m - 1 and ending
        with the other generator: when x ends with t, x t^-1 drops that
        letter, leaving the prefix (which ends with t) when x was t alone;
        otherwise y is left-weighted after the tau-twisted tail and is
        appended."""
        other = self._other
        if letter not in other:
            raise ValueError(f"unknown generator {letter!r}")
        k, last, lengths = el
        if sign == 1:
            if not lengths or last == letter:
                return _new(DihedralElement, (k, letter, lengths + (1,)))
            length = lengths[-1] + 1
            if length < self.m:
                return _new(DihedralElement, (k, letter, lengths[:-1] + (length,)))
            head = lengths[:-1]
            return _new(DihedralElement, (k + 1, other[letter] if head else None, head))
        if sign == -1:
            if not lengths or last != letter:
                return _new(DihedralElement, (k - 1, other[letter], lengths + (self.m - 1,)))
            length = lengths[-1] - 1
            if length:
                return _new(DihedralElement, (k, other[letter], lengths[:-1] + (length,)))
            head = lengths[:-1]
            return _new(DihedralElement, (k, letter if head else None, head))
        raise ValueError(f"sign must be +-1, got {sign}")

    # shared with FreeEngine, and assigned rather than inherited so that each
    # class holds its own entry for the benchmark's layer tracer to patch
    ball_levels = _ball_levels

    def sort_key(self, el: DihedralElement):
        """(k, number of simples, first letter, lengths): the order of the
        (first letter, length) pairs, since each later first letter
        follows from the pair before it.  A simple of length l flips the
        letter l - 1 times from its first to its last, and each later
        simple starts with the letter the one before it ends with."""
        k, last, lengths = el
        if (sum(lengths) - len(lengths)) % 2:
            last = self._other[last]
        return k, len(lengths), last, lengths

    def coset_key(self, el: DihedralElement, generator: str) -> tuple:
        """The generator, then the k, last letter and lengths of the unique
        element of el<generator> whose exponent sum is zero.

        Radius independent, so two elements get one key exactly when their
        cosets coincide.
        """
        k, _, lengths = el  # el's exponent sum is k m + sum(lengths)
        return (generator, *self.mult_power(el, generator, -k * self.m - sum(lengths)))

    def describe(self, el: DihedralElement) -> str:
        """Delta's power, then each simple's alternating letters."""
        k, last, lengths = el
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

    def sort_key(self, el: Word):
        return (len(el), el)

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
