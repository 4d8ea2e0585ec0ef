"""Garside normal forms for dihedral presentations, plus word-problem engines.

The group on two generators a, b with the relation prod(a,b;m) = prod(b,a;m)
(2 <= m < infinity) is spherical type, with Garside element Delta equal to
either alternating product of length m.  Every element is uniquely

    Delta^k . x_1 x_2 ... x_r

where each x_i is a proper simple (an alternating positive word of length
1..m-1, recorded as (first letter, length)) and consecutive factors are
left-weighted: the last letter of x_i equals the first letter of x_{i+1}.
Pairwise left-weightedness characterises the normal form, so multiplying by
one letter needs only a local repair at the right end, with Delta powers
migrating left through tau (the atom swap when m is odd, identity when m is
even).  A whole power t^n is multiplied in one pass: t^n is itself a
left-weighted chain after its Delta power (n atoms t, or for n < 0 the
tau-twisted copies of Delta t^-1), so the only repair is the Delta-fill
cascade where the tail meets the chain, O(|tail| + |n|) steps.

Equality of words is equality of normal forms.  The exponent-sum
homomorphism eps (every generator to 1) reads off normal forms as
eps = k*m + sum of tail lengths; each coset g<s> contains exactly one
element with eps = 0, which serves as its canonical representative.

Elements are ``DihedralElement`` named tuples, not dataclasses: development
puts every element into sets and dicts, and a tuple hashes and compares in
C where a dataclass goes through its Python ``__hash__`` and ``__eq__``.

Two word-problem engines share one small interface used by link
development (identity, generators, mult_gen, mult_word, sort_key,
ball_levels, coset_key, describe): the exact dihedral engine above,
and an exact free-group engine (reduced words) for edgeless subgraphs.

``ball_levels`` returns the word-metric ball level by level together with
its Cayley edges as flat element numbers, filled from the products the
enumeration computes anyway.  Every Artin relator has even length, so all
words for one element have lengths of one parity and a generator step
flips it: no edge stays inside a level, and each level's edges down to the
one before are the reverses of edges found while expanding that level.
Developments and the syllable growth table read these edges instead of
multiplying again.
"""
from __future__ import annotations

from itertools import islice
from typing import Iterable, NamedTuple, Sequence

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
    """Normal form Delta^k times a left-weighted tail of proper simples."""

    k: int
    tail: tuple[tuple[str, int], ...]


# the default element cap of a ball, and the largest the CLI accepts
BALL_CAP = 10**6


def _ball_levels(
    engine, radius: int, cap: int = BALL_CAP
) -> tuple[list[list], bool, list[list[int]]]:
    """BFS levels of the word metric ball, through the engine's identity,
    generators and mult_gen, with the ball's Cayley edges.

    Only complete levels are kept: when adding the next level would pass the
    cap, enumeration stops and the truncated flag is set.  The test runs
    while the level is found, so expansion stops with the first element
    whose products pass the cap, and the rest of a level that would be
    dropped is never multiplied out.  levels[d] holds exactly the elements
    at distance d, each level sorted by the engine's sort key.

    Elements are numbered by position in the concatenated levels, and
    neighbours[i] lists the number of el_i g^+1 in slot 2 gi and of
    el_i g^-1 in slot 2 gi + 1, for the generator g at position gi; a slot
    holds -1 when that product lies outside the kept ball.

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
    neighbours: list[list[int]] = [[-1] * slots]
    for _ in range(radius):
        # the number of the last level's first element; the product for each
        # of its slots, None where the slot is already filled; and the
        # elements of the next level found so far
        base = len(neighbours) - len(levels[-1])
        room = cap - len(neighbours)  # new elements the cap still admits
        rows = zip(levels[-1], neighbours[base:])
        left = len(levels[-1])
        products: list = []
        found: set = set()
        while left:
            # an element adds at most `slots` new ones, so a chunk of this
            # many cannot pass the cap; near it the chunks are single elements
            chunk = min(left, max(1, (room - len(found)) // slots))
            left -= chunk
            new = [
                mult_gen(x, g, sign) if row[slot] < 0 else None
                for x, row in islice(rows, chunk)
                for slot, (g, sign) in enumerate(steps)
            ]
            products += new
            found.update(new)
            found.discard(None)
            if len(found) > room:
                return levels, True, neighbours
        if not found:
            return levels, False, neighbours
        level = sorted(found, key=engine.sort_key)
        number = {w: wi for wi, w in enumerate(level, len(neighbours))}
        neighbours.extend([-1] * slots for _ in level)
        for k, w in enumerate(products):
            if w is not None:
                xi, slot = divmod(k, slots)
                xi += base
                wi = number[w]
                neighbours[xi][slot] = wi
                neighbours[wi][slot ^ 1] = xi
        levels.append(level)
    return levels, False, neighbours


def _mult_word(engine, el, word: Iterable[tuple[str, int]]):
    """el times the word, one letter at a time; from the identity this is
    the word's normal form."""
    for letter, sign in word:
        el = engine.mult_gen(el, letter, sign)
    return el


class _SyllableWords(dict):
    """(first letter, length) -> the simple's alternating letters, each
    made the first time it is read: a label m can be far larger than any
    ball, so the table holds only the syllables of described elements."""

    def __init__(self, other: dict[str, str]):
        super().__init__()
        self._other = other

    def __missing__(self, key: tuple[str, int]) -> str:
        first, length = key
        pair = first + self._other[first]
        word = self[key] = pair * (length // 2) + first * (length % 2)
        return word


class DihedralEngine:
    """Exact engine for two generators with one finite label m >= 2."""

    def __init__(self, a: str, b: str, m: int):
        if a == b:
            raise ValueError("generators must be distinct")
        if m < 2:
            raise ValueError("label must be >= 2")
        self.generators = (a, b)
        self.m = m
        self.identity = DihedralElement(0, ())
        self._other = {a: b, b: a}
        # the letters of each proper simple describe has met
        self._words = _SyllableWords(self._other)

    def other(self, t: str) -> str:
        if t not in self._other:
            raise ValueError(f"unknown generator {t!r}")
        return self._other[t]

    def mult_power(self, el: DihedralElement, t: str, n: int) -> DihedralElement:
        """Right-multiply by t^n in one pass over the tail.

        t^n for n > 0 is the left-weighted chain of n atoms t.  For n < 0,
        with y = Delta t^-1 the proper simple of length m-1,

            t^n = Delta^n . tau^(-n-1)(y) ... tau(y) . y,

        again left-weighted (tau(y) ends with the letter y starts with), and
        Delta^n migrates left through the tail as tau^n.  Either way the
        product is a normal tail followed by a normal chain, so the only
        repair is at the junction.  While the last simple x of the tail and
        the head c of the chain are not left-weighted, x c is one
        alternating word: shorter than m it becomes one simple; longer, it
        fills a Delta that migrates left, and the rest of c is
        left-weighted after the new last simple; of length exactly m, the
        Delta leaves the next chain factor to meet the new last simple,
        and the cascade goes on.  Each step consumes a tail factor, so the
        cost is O(|tail| + |n|).
        """
        other = self._other
        if t not in other:
            raise ValueError(f"unknown generator {t!r}")
        if n == 0:
            return el
        m, odd = self.m, self.m % 2 == 1
        k = el.k
        # the standing tail prefix is read through tau when swap is set
        if n > 0:
            swap = False
            chain = [(t, 1)] * n
        else:
            n = -n
            k -= n
            swap = odd and n % 2 == 1
            y = (t if odd else other[t], m - 1)
            if odd:
                chain = ([(other[y[0]], m - 1), y] * ((n + 1) // 2))[-n:]
            else:
                chain = [y] * n
        tail = el.tail
        j = len(tail)  # length of the standing tail prefix
        i = 0  # index in the chain of the current head
        head: tuple[str, int] | None = chain[0]
        while j:
            first, length = tail[j - 1]
            if swap:
                first = other[first]
            hf, hl = head
            if (first if length % 2 else other[first]) == hf:
                break
            j -= 1
            total = length + hl
            if total < m:
                head = (first, total)
                break
            # x c fills a Delta, which migrates left through the tail prefix
            k += 1
            swap ^= odd
            if total > m:
                # the rest of c starts with tau(first letter of x), the
                # letter the new last simple ends with
                head = (other[first] if odd else first, total - m)
                break
            i += 1
            if i == len(chain):
                head = None
                break
            head = chain[i]
        prefix = tail[:j]
        if swap:
            prefix = tuple((other[f], l) for f, l in prefix)
        rest = chain[i + 1 :] if head is None else [head] + chain[i + 1 :]
        return DihedralElement(k, prefix + tuple(rest))

    def mult_gen(self, el: DihedralElement, letter: str, sign: int) -> DihedralElement:
        if sign != 1 and sign != -1:
            raise ValueError(f"sign must be +-1, got {sign}")
        return self.mult_power(el, letter, sign)

    # shared with FreeEngine, and assigned rather than inherited so that each
    # class holds its own entry for the benchmark's layer tracer to patch
    mult_word = _mult_word
    ball_levels = _ball_levels

    def epsilon(self, el: DihedralElement) -> int:
        """Exponent-sum homomorphism (both generators to 1)."""
        return el.k * self.m + sum(l for _, l in el.tail)

    def sort_key(self, el: DihedralElement):
        return (el.k, len(el.tail), el.tail)

    def coset_key(self, el: DihedralElement, generator: str) -> tuple:
        """The generator, then the k and tail of the unique element of
        el<generator> whose exponent sum is zero.

        Radius independent, so two elements get one key exactly when their
        cosets coincide.
        """
        rep = self.mult_power(el, generator, -self.epsilon(el))
        return (generator, rep.k, rep.tail)

    def describe(self, el: DihedralElement) -> str:
        words = ".".join(map(self._words.__getitem__, el.tail))
        if el.k == 0:
            return words or "1"
        return f"D^{el.k}.{words}" if words else f"D^{el.k}"


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

    mult_word = _mult_word
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
    edges = [(u, v, m) for u, v, m in graph.edges if u in inside and v in inside]
    if not edges:
        return FreeEngine(verts)
    if len(verts) == 2:
        return DihedralEngine(*edges[0])
    return None
