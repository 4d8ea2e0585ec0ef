"""Garside arithmetic for two-generator groups, checked against the
central-quotient oracle and frozen ball counts."""
import itertools
import random

import pytest

from relartin.defining_graph import DefiningGraph
from relartin.dihedral_garside import (
    DihedralEngine,
    FreeEngine,
    engine_for_part,
    word_to_str,
)

from instances import random_instance
from oracles import (
    as_pairs,
    atom_coset_rep,
    atom_mult_power,
    atom_normal_form,
    edge_scan_engine_for_part,
    expand_then_drop_ball_levels,
    mult_word,
    pairs_label,
    parse_word,
    quotient_equal,
    quotient_image,
    string_to_word,
    syllable_length,
)


def prod_pair(m):
    w1 = tuple(("ab"[i % 2], 1) for i in range(m))
    w2 = tuple(("ba"[i % 2], 1) for i in range(m))
    return [(g, s) for g, s in w1], [(g, s) for g, s in w2]


def normal_form(ctx, word):
    return mult_word(ctx, ctx.identity, word)


def equals(ctx, w1, w2):
    return normal_form(ctx, w1) == normal_form(ctx, w2)


def ball_size(ctx, radius):
    levels, truncated, _ = ctx.ball_levels(radius)
    assert not truncated
    return sum(len(level) for level in levels)


def random_word(rng, max_len, letters=("a", "b")):
    n = rng.randint(0, max_len)
    return [(rng.choice(letters), rng.choice((1, -1))) for _ in range(n)]


def test_parse_and_print():
    assert parse_word("a b a^-1 B", ("a", "b")) == (
        ("a", 1),
        ("b", 1),
        ("a", -1),
        ("b", -1),
    )
    w = (("a", 1), ("a", 1), ("b", -1))
    assert parse_word(word_to_str(w), ("a", "b")) == w
    with pytest.raises(ValueError):
        parse_word("c", ("a", "b"))


def test_syllable_length():
    assert syllable_length(()) == 0
    assert syllable_length(string_to_word("aaa")) == 1
    assert syllable_length(string_to_word("abab")) == 4
    assert syllable_length(string_to_word("aAb")) == 1
    assert syllable_length(string_to_word("abBA")) == 0
    assert syllable_length(string_to_word("aabbbA")) == 3


def test_oracle_accepts_the_defining_relation():
    for m in range(2, 9):
        w1, w2 = prod_pair(m)
        assert quotient_equal(m, w1, w2)
        assert not quotient_equal(m, w1, w1 + [("a", 1)])


def test_normal_form_basics():
    ctx = DihedralEngine("a", "b", 3)
    w1, w2 = prod_pair(3)
    assert equals(ctx, w1, w2)
    delta = normal_form(ctx, w1)
    assert delta == (1, None, ())
    two = normal_form(ctx, w1 + w1)
    assert two == (2, None, ())
    assert normal_form(ctx, []) == ctx.identity
    # tau flips the letters when m is odd: Delta a = b Delta
    assert equals(ctx, w1 + [("a", 1)], [("b", 1)] + w1)
    ctx4 = DihedralEngine("a", "b", 4)
    w1, _ = prod_pair(4)
    # Delta is central when m is even
    assert equals(ctx4, w1 + [("a", 1)], [("a", 1)] + w1)


def test_equals_matches_oracle_on_random_words():
    rng = random.Random(41)
    for m in (2, 3, 4, 5, 6):
        ctx = DihedralEngine("a", "b", m)
        for _ in range(300):
            w1 = random_word(rng, 8)
            w2 = random_word(rng, 8)
            assert equals(ctx, w1, w2) == quotient_equal(m, w1, w2), (m, w1, w2)


def test_equals_matches_oracle_exhaustively_short():
    # all pairs of words of length <= 3 (callers with longer windows live
    # in the acceptance suite)
    alphabet = [("a", 1), ("a", -1), ("b", 1), ("b", -1)]
    words = [()]
    for n in (1, 2, 3):
        words += list(itertools.product(alphabet, repeat=n))
    for m in (2, 3, 4):
        ctx = DihedralEngine("a", "b", m)
        keys = {}
        for w in words:
            keys.setdefault(normal_form(ctx, w), []).append(w)
        for w in words:
            nf = normal_form(ctx, w)
            for other in keys[nf]:
                assert quotient_equal(m, list(w), list(other))


def test_congruence_property():
    rng = random.Random(5)
    for m in (2, 3, 5):
        ctx = DihedralEngine("a", "b", m)
        for _ in range(200):
            w1 = random_word(rng, 6)
            w2 = random_word(rng, 6)
            assert normal_form(ctx, w1 + w2) == mult_word(ctx, normal_form(ctx, w1), w2)


def test_ball_sizes_frozen():
    ctx2 = DihedralEngine("a", "b", 2)
    assert ball_size(ctx2, 2) == 13
    assert ball_size(ctx2, 16) == 545
    ctx3 = DihedralEngine("a", "b", 3)
    assert ball_size(ctx3, 2) == 17
    levels, truncated, _ = DihedralEngine("a", "b", 4).ball_levels(6)
    assert not truncated
    assert [len(l) for l in levels] == [1, 4, 12, 36, 100, 268, 708]


def test_ball_sizes_against_word_enumeration():
    # independent count: bucket all words of length <= r by their image in
    # the central quotient plus exponent sum
    for m in (2, 3, 4):
        ctx = DihedralEngine("a", "b", m)
        for radius in (1, 2, 3, 4):
            seen = set()
            frontier = [()]
            for _ in range(radius):
                frontier = [
                    w + (g,)
                    for w in frontier
                    for g in (("a", 1), ("a", -1), ("b", 1), ("b", -1))
                ]
                for w in frontier:
                    word = list(w)
                    seen.add(
                        (quotient_image(m, word), sum(s for _, s in word))
                    )
            seen.add((quotient_image(m, []), 0))
            assert len(seen) == ball_size(ctx, radius), (m, radius)


def test_ball_cap():
    ctx = DihedralEngine("a", "b", 3)
    levels, truncated, _ = ctx.ball_levels(10, cap=30)
    assert truncated
    assert len(levels) - 1 < 10
    assert sum(len(l) for l in levels) <= 30


def test_ball_cap_matches_expand_then_drop_at_every_level_boundary():
    # caps one below, at and one above each level boundary: the ball that
    # stops at the cap is the one that multiplies the dropped level out
    engines = [DihedralEngine("a", "b", m) for m in range(2, 8)] + [
        FreeEngine(gens) for gens in (["x"], ["x", "y"], ["x", "y", "z"])
    ]
    seen = set()
    for eng in engines:
        levels, _, _ = eng.ball_levels(5)
        boundary = 0
        for level in levels:
            boundary += len(level)
            for cap in (boundary - 1, boundary, boundary + 1):
                got = eng.ball_levels(5, cap)
                assert got == expand_then_drop_ball_levels(eng, 5, cap), (eng.generators, cap)
                seen.add((cap - boundary, got[1]))
    assert seen == {(-1, True), (0, False), (1, False), (0, True), (1, True)}


def test_ball_stops_multiplying_at_the_cap():
    eng = DihedralEngine("a", "b", 4)
    calls = 0
    mult_gen = eng.mult_gen

    def counted(*args):
        nonlocal calls
        calls += 1
        return mult_gen(*args)

    eng.mult_gen = counted
    levels, truncated, _ = eng.ball_levels(32, 4000)
    assert truncated and len(levels) == 8
    # multiplying out the dropped level 8 in full takes 8,624 calls
    assert calls < 4500


def test_ball_edges_are_the_products_inside_the_ball():
    # every slot holds the number of el g^+-1 when the kept ball has it,
    # and -1 exactly when it does not, for complete and capped balls
    engines = [
        DihedralEngine(*gens, m)
        for m in range(2, 7)
        for gens in (("a", "b"), ("b", "a"))
    ] + [FreeEngine(gens) for gens in (["x"], ["x", "y"], ["x", "y", "z"])]
    truncated_balls = 0
    for eng in engines:
        for radius, cap in ((6, 10**6), (10, 150), (4, 5), (0, 10**6)):
            levels, truncated, edges = eng.ball_levels(radius, cap)
            truncated_balls += truncated
            flat = [el for level in levels for el in level]
            number = {el: i for i, el in enumerate(flat)}
            slots = 2 * len(eng.generators)
            assert len(edges) == slots * len(flat)
            for i, el in enumerate(flat):
                expected = [
                    number.get(eng.mult_gen(el, g, sign), -1)
                    for g in eng.generators
                    for sign in (1, -1)
                ]
                assert edges[i * slots : (i + 1) * slots] == expected, (eng.generators, radius, cap, i)
    assert truncated_balls >= 2 * len(engines) - 1


def test_coset_rep_is_canonical():
    rng = random.Random(13)
    for m in (2, 3, 4, 5):
        ctx = DihedralEngine("a", "b", m)
        for _ in range(100):
            g = normal_form(ctx, random_word(rng, 7))
            for gen in ("a", "b"):
                key = ctx.coset_key(g, gen)
                # the representative's exponent sum, both generators to 1
                k0, _, lengths = key[1:]
                assert k0 * m + sum(lengths) == 0
                k = rng.randint(-3, 3)
                shifted = mult_word(ctx, g, ((gen, 1 if k >= 0 else -1),) * abs(k))
                assert ctx.coset_key(shifted, gen) == key


def test_mult_gen_is_mult_power_by_one_letter():
    # the written-out unit step against the one-pass power, on every
    # element of the balls that developments enumerate
    products = 0
    for m in range(2, 9):
        for gens in (("a", "b"), ("b", "a")):
            eng = DihedralEngine(*gens, m)
            levels, _, _ = eng.ball_levels(8 * m, 4000)
            for el in (el for level in levels for el in level):
                for g in gens:
                    for sign in (1, -1):
                        assert eng.mult_gen(el, g, sign) == eng.mult_power(el, g, sign), (
                            m, gens, el, g, sign,
                        )
                        products += 1
    assert products > 100000
    with pytest.raises(ValueError, match="unknown generator"):
        eng.mult_gen(eng.identity, "c", 1)
    with pytest.raises(ValueError, match="sign must be"):
        eng.mult_gen(eng.identity, "a", 2)


def test_mult_power_matches_letter_by_letter_oracle():
    # one-pass powers, single inverse letters and coset representatives
    # against the per-atom products they replace, m = 2..8
    rng = random.Random(20261018)
    for m in range(2, 9):
        ctx = DihedralEngine("a", "b", m)
        for trial in range(300):
            word = random_word(rng, 24)
            pairs = atom_normal_form(ctx, word)
            g = normal_form(ctx, word)
            assert as_pairs(ctx, g) == pairs, (m, word)
            for t in ("a", "b"):
                got = ctx.mult_gen(g, t, -1)
                assert as_pairs(ctx, got) == atom_mult_power(ctx, pairs, t, -1)
                key = ctx.coset_key(g, t)
                assert key[0] == t
                assert as_pairs(ctx, key[1:]) == atom_coset_rep(ctx, pairs, t)
            t = rng.choice("ab")
            powers = range(-12, 13) if trial < 40 else (rng.randint(-12, 12),)
            for n in powers:
                got = ctx.mult_power(g, t, n)
                assert as_pairs(ctx, got) == atom_mult_power(ctx, pairs, t, n), (m, word, t, n)


def test_swapping_the_generators_flips_the_last_letter():
    # the automorphism a <-> b fixes Delta and each simple's length, so the
    # syllable search reads the image of a normal form as one letter flip
    rng = random.Random(7)
    swap = {"a": "b", "b": "a"}
    for m in range(2, 9):
        ctx = DihedralEngine("a", "b", m)
        for _ in range(200):
            word = random_word(rng, 20)
            el = normal_form(ctx, word)
            image = normal_form(ctx, [(swap[g], s) for g, s in word])
            assert image == (el.k, swap.get(el.last), el.lengths), (m, word)


def test_delta_conjugation_flips_the_last_letter_for_odd_m():
    # Delta x Delta^-1 is tau(x): the swap for odd m, x itself for even m
    rng = random.Random(8)
    swap = {"a": "b", "b": "a"}
    for m in range(2, 9):
        ctx = DihedralEngine("a", "b", m)
        delta, _ = prod_pair(m)
        delta_inverse = [(g, -s) for g, s in reversed(delta)]
        for _ in range(200):
            word = random_word(rng, 20)
            el = normal_form(ctx, word)
            conjugate = normal_form(ctx, delta + word + delta_inverse)
            if m % 2:
                assert conjugate == (el.k, swap.get(el.last), el.lengths), (m, word)
            else:
                assert conjugate == el, (m, word)


def test_ball_order_and_labels_match_the_pair_form():
    # develop numbers a ball's vertices by sort_key and labels them by
    # describe; both must read as the (first letter, length) pairs do
    for m in range(2, 8):
        ctx = DihedralEngine("a", "b", m)
        levels, truncated, _ = ctx.ball_levels(10)
        assert not truncated
        ball = [el for level in levels for el in level]
        pairs = [as_pairs(ctx, el) for el in ball]
        by_pairs = sorted(range(len(ball)), key=lambda i: (pairs[i][0], len(pairs[i][1]), pairs[i][1]))
        assert sorted(ball, key=ctx.sort_key) == [ball[i] for i in by_pairs], m
        assert list(map(ctx.describe, ball)) == [pairs_label(ctx, *p) for p in pairs], m


def _memo_tails(eng) -> set:
    return {(last, lengths) for last, table in eng._tails.items() for lengths in table}


def test_describe_memo_belongs_to_its_engine():
    # an engine that labels a ball of radius 6 and then one of radius 10
    # labels both as a fresh engine does, also when it meets the tails out
    # of ball order; and each engine's memo holds the tails of the
    # elements it described, none from another engine's ball
    eng = DihedralEngine("a", "b", 4)
    for radius in (6, 10):
        levels, _, _ = eng.ball_levels(radius)
        ball = [el for level in levels for el in level]
        labels = list(map(eng.describe, ball))
        assert labels == list(map(DihedralEngine("a", "b", 4).describe, ball)), radius
        assert labels == [pairs_label(eng, *as_pairs(eng, el)) for el in ball], radius
        backwards = DihedralEngine("a", "b", 4)
        assert labels == list(map(backwards.describe, ball[::-1]))[::-1], radius
    balls = {}
    for m in (3, 4):
        eng = DihedralEngine("a", "b", m)
        levels, _, _ = eng.ball_levels(6)
        balls[m] = eng, {(el.last, el.lengths) for level in levels for el in level}
        for level in levels:
            for el in level:
                eng.describe(el)
    for m, (eng, tails) in balls.items():
        assert _memo_tails(eng) == tails, m
    assert any(3 in lengths for _, lengths in balls[4][1])
    assert not any(3 in lengths for _, lengths in _memo_tails(balls[3][0]))


def test_engine_coset_keys():
    eng = DihedralEngine("a", "b", 4)
    g = normal_form(eng, string_to_word("abaB"))
    same = mult_word(eng, g, (("a", 1), ("a", 1)))
    other = mult_word(eng, g, (("b", 1),))
    assert eng.coset_key(g, "a") == eng.coset_key(same, "a")
    assert eng.coset_key(g, "a") != eng.coset_key(other, "a")
    assert eng.describe(eng.identity) == "1"
    assert eng.describe(normal_form(eng, string_to_word("abab"))) == "D^1"
    # Delta's power, then each simple's alternating letters
    for m, word, label in [
        (4, "abaB", "D^-1.aba.aba"),
        (3, "baa", "ba.a"),
        (5, "AbbaB", "D^-2.baba.a.ab.baba"),
        (3, "ABA", "D^-1"),
    ]:
        eng = DihedralEngine("a", "b", m)
        assert eng.describe(normal_form(eng, string_to_word(word))) == label


def test_free_engine():
    eng = FreeEngine(["x"])
    assert equals(eng, string_to_word(""), (("x", 1), ("x", -1)))
    levels, truncated, _ = eng.ball_levels(5)
    assert not truncated
    # rank one free group is the integers
    assert [len(l) for l in levels] == [1, 2, 2, 2, 2, 2]
    eng2 = FreeEngine(["x", "y"])
    levels2, _, _ = eng2.ball_levels(3)
    assert [len(l) for l in levels2] == [1, 4, 12, 36]
    w = normal_form(eng2, (("x", 1), ("y", 1), ("y", 1)))
    assert eng2.coset_key(w, "y") == ("y", (("x", 1),))
    assert eng2.coset_key(w, "x") == ("x", w)


def test_generator_not_in_cyclic_subgroup():
    # a never equals a product of b-letters (checked to length 8)
    target = [("a", 1)]
    for m in (2, 3, 4, 5, 6):
        ctx = DihedralEngine("a", "b", m)
        words = [[]]
        for _ in range(8):
            words = [w + [("b", s)] for w in words for s in (1, -1)]
            for w in words:
                assert not equals(ctx, w, target)
                assert not quotient_equal(m, w, target)


def test_engine_for_part_selection():
    g = DefiningGraph.build(
        ["a", "b", "c", "d", "e"],
        [("a", "b", 4), ("c", "d", 2)],
    )
    assert isinstance(engine_for_part(g, ["e"]), FreeEngine)
    assert isinstance(engine_for_part(g, ["a", "b"]), DihedralEngine)
    assert isinstance(engine_for_part(g, ["c", "d"]), DihedralEngine)  # m = 2
    assert engine_for_part(g, ["a", "b", "e"]) is None
    # two vertices with no edge: free of rank two
    assert isinstance(engine_for_part(g, ["a", "e"]), FreeEngine)


def test_engine_for_part_equals_the_edge_scan():
    rng = random.Random(2512)
    shapes = set()
    for _ in range(300):
        inst = random_instance(rng)
        for part in inst.family.parts:
            got = engine_for_part(inst.graph, part)
            expected = edge_scan_engine_for_part(inst.graph, part)
            assert type(got) is type(expected), (inst.graph.edges, part)
            if expected is not None:
                assert got.generators == expected.generators
                assert getattr(got, "m", None) == getattr(expected, "m", None)
            shapes.add((type(expected).__name__, min(len(part), 3)))
    assert shapes == {
        ("FreeEngine", 1),
        ("FreeEngine", 2),
        ("FreeEngine", 3),
        ("DihedralEngine", 2),
        ("NoneType", 3),
    }
