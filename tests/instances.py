"""Shared instances for the test suite.

The join fixture is two copies of the affine C-tilde-3 square (labels
3, 4, 2 around one triangle and 4 on the opposite diagonal pattern) with
every cross edge labeled 4.  The control instance has two inter-edges
labeled 3 meeting at a vertex, which breaks the label condition in the
exact way the curvature certificate is supposed to detect.
"""
import functools
import pathlib
import random
import subprocess
import sys
import tempfile

from relartin.defining_graph import (
    DefiningGraph,
    Instance,
    SubgraphFamily,
    check_rel_prime,
    parse_graph,
)
from relartin.poset_complex import SubsetPoset

from oracles import s_ell_poset

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"

CTILDE3_EDGES = [
    ("a", "b", 3),
    ("a", "c", 4),
    ("a", "d", 2),
    ("b", "c", 2),
    ("b", "d", 4),
    ("c", "d", 2),
]


def affine_parts_join() -> Instance:
    vertices: list[str] = []
    edges: list[tuple[str, str, int]] = []
    for suffix in ("1", "2"):
        vertices += [x + suffix for x in "abcd"]
        edges += [(u + suffix, v + suffix, m) for u, v, m in CTILDE3_EDGES]
    for x in "abcd":
        for y in "abcd":
            edges.append((x + "1", y + "2", 4))
    graph = DefiningGraph.build(vertices, edges)
    family = SubgraphFamily.build(
        graph, [[x + "1" for x in "abcd"], [x + "2" for x in "abcd"]]
    )
    return Instance(graph, family)


def touching_triple_control() -> Instance:
    graph = DefiningGraph.build(
        ["a", "b", "c"], [("a", "b", 3), ("b", "c", 3), ("c", "a", 2)]
    )
    family = SubgraphFamily.build(graph, [["b"], ["a", "c"]])
    return Instance(graph, family)


def single_interedge(m: int = 4) -> Instance:
    graph = DefiningGraph.build(["a", "b"], [("a", "b", m)])
    family = SubgraphFamily.build(graph, [["a"], ["b"]])
    return Instance(graph, family)


def random_rel_prime_instance(
    rng: random.Random, max_vertices: int = 10, max_label: int = 6
) -> Instance:
    """A random valid instance of the non-isolated label condition.

    Inter-edges get labels >= 4 except for an optional isolated one, which
    may take a small label because isolation exempts it.
    """
    n_parts = rng.randint(2, 3)
    sizes = [rng.randint(1, 3) for _ in range(n_parts)]
    while sum(sizes) > max_vertices:
        sizes[sizes.index(max(sizes))] -= 1
    parts: list[list[str]] = []
    vertices: list[str] = []
    for i, size in enumerate(sizes):
        block = [f"p{i}v{j}" for j in range(size)]
        parts.append(block)
        vertices += block
    edges: list[tuple[str, str, int]] = []
    for block in parts:
        for i, u in enumerate(block):
            for v in block[i + 1 :]:
                if rng.random() < 0.6:
                    edges.append((u, v, rng.randint(2, max_label)))
    crossing = [
        (u, v)
        for i, bu in enumerate(parts)
        for bv in parts[i + 1 :]
        for u in bu
        for v in bv
    ]
    rng.shuffle(crossing)
    used: set[str] = set()
    keep = max(1, int(len(crossing) * 0.4))
    chosen = crossing[:keep]
    for u, v in chosen:
        edges.append((u, v, rng.randint(4, max(4, max_label))))
        used.update((u, v))
    # sometimes one extra isolated inter-edge with a small label
    if rng.random() < 0.5:
        for u, v in crossing[keep:]:
            if u not in used and v not in used:
                edges.append((u, v, rng.randint(2, 3)))
                break
    graph = DefiningGraph.build(vertices, edges)
    inst = Instance(graph, SubgraphFamily.build(graph, parts))
    assert check_rel_prime(inst).ok
    return inst


def random_matching_instance(rng: random.Random) -> Instance:
    """Two to four parts of 2 to 6 vertices, joined by a random matching
    and up to two more inter-edges: most inter-edges are disjoint, and the
    empty link often has fewer uppers than singletons."""
    parts = [[f"p{i}v{j}" for j in range(rng.randint(2, 6))] for i in range(rng.randint(2, 4))]
    part_of = {v: i for i, part in enumerate(parts) for v in part}
    vertices = list(part_of)
    rng.shuffle(vertices)
    free = set(vertices)
    edges: list[tuple[str, str, int]] = []
    for u in vertices:
        others = [v for v in vertices if v in free and part_of[v] != part_of[u]]
        if u in free and others and rng.random() < 0.8:
            v = rng.choice(others)
            free -= {u, v}
            edges.append((u, v, rng.randint(2, 6)))
    pairs = {frozenset(e[:2]) for e in edges}
    for _ in range(rng.randint(0, 2)):
        u, v = rng.sample(vertices, 2)
        if part_of[u] != part_of[v] and frozenset((u, v)) not in pairs:
            pairs.add(frozenset((u, v)))
            edges.append((u, v, 4))
    graph = DefiningGraph.build(vertices, edges)
    return Instance(graph, SubgraphFamily.build(graph, parts))


def random_instance(rng: random.Random, max_vertices: int = 9) -> Instance:
    """Any instance: up to ``max_vertices`` vertices, from no edges to
    complete, labels 2..6 anywhere, and a random family of parts."""
    n = rng.randint(1, max_vertices)
    vertices = [f"v{i}" for i in range(n)]
    density = rng.choice((0.0, 0.2, 0.5, 0.8, 1.0))
    edges = [
        (vertices[i], vertices[j], rng.randint(2, 6))
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < density
    ]
    order = rng.sample(vertices, n)
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
    parts = [order[a:b] for a, b in zip([0] + cuts, cuts + [n])]
    graph = DefiningGraph.build(vertices, edges)
    return Instance(graph, SubgraphFamily.build(graph, parts))


def with_strays(inst) -> list[SubsetPoset]:
    """S^l plus {a1,b1,c1}, which lies inside part 0 of the join, then plus
    {a1,a2,b1}, which crosses parts and so has no image under the
    retraction."""
    s_ell = s_ell_poset(inst)
    tagged = [(t, tag) for t in s_ell.elements for tag in s_ell.tags[t]]
    out = []
    for stray in (("a1", "b1", "c1"), ("a1", "a2", "b1")):
        tagged.append((frozenset(stray), "stray"))
        out.append(SubsetPoset.from_tagged(tagged))
    return out


def right_angled_part(k: int) -> Instance:
    """A complete part on k vertices with every label 2, plus a two-vertex
    part {b0, b1} of label 3 and one label-5 inter-edge a00-b0."""
    part = [f"a{i:02d}" for i in range(k)]
    edges = [(u, v, 2) for i, u in enumerate(part) for v in part[i + 1 :]]
    edges += [("b0", "b1", 3), ("a00", "b0", 5)]
    graph = DefiningGraph.build(part + ["b0", "b1"], edges)
    return Instance(graph, SubgraphFamily.build(graph, [part, ["b0", "b1"]]))


@functools.cache
def ladder_instances(seed: int) -> dict[str, Instance]:
    """The benchmark ladder's instances for ``seed``, as
    ``bench/instances.py`` writes them, by shape name in name order."""
    with tempfile.TemporaryDirectory() as out:
        subprocess.run(
            [sys.executable, str(BENCH / "instances.py"), "--seed", str(seed), "--out", out],
            check=True,
        )
        return {p.stem: parse_graph(p.read_text()) for p in sorted(pathlib.Path(out).glob("*.json"))}


def lemma_instances() -> list[Instance]:
    """The inputs the lemmas are checked on: both fixtures, the seed-7 and
    seed-11 ladders, and 300 seeds each of the two random generators."""
    insts = [affine_parts_join(), touching_triple_control()]
    insts += [*ladder_instances(7).values(), *ladder_instances(11).values()]
    insts += [random_rel_prime_instance(random.Random(seed)) for seed in range(300)]
    insts += [random_instance(random.Random(seed)) for seed in range(300)]
    return insts
