"""Seeded instance generator for the benchmark ladder.

Every instance is a graph of complete parts.  A *base* satisfies REL: all
inter-edge labels are drawn from a set whose minimum is at least 4.  A
*twin* is a base with a planted REL' violation: two label-3 inter-edges that
share a vertex.  The expected verdicts of each instance follow from how it
was built (see ``workloads.py``), never from running the checker.

Label and inter-edge counts are fixed per shape; the seed only decides
which pairs carry which labels.  That keeps the cost of one shape steady
from seed to seed while the inputs themselves change.
"""
from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Shape:
    """One ladder row: ``parts`` complete parts of ``size`` vertices."""

    parts: int
    size: int
    intra_labels: tuple[int, ...]
    inter_labels: tuple[int, ...]
    density: float
    twin: bool = False

    @property
    def name(self) -> str:
        return f"{self.parts}x{self.size}" + ("-twin" if self.twin else "")


def _balanced(rng: random.Random, choices: tuple[int, ...], n: int) -> list[int]:
    """n labels with every choice used as evenly as possible, in random order."""
    labels = [choices[i % len(choices)] for i in range(n)]
    rng.shuffle(labels)
    return labels


def make_instance(shape: Shape, seed: int) -> tuple[dict, set[frozenset]]:
    """Instance document in the CLI's input format, and the planted
    label-3 pairs (empty for a base)."""
    rng = random.Random(f"{shape.name}:{seed}")
    parts = [[f"p{i}v{j}" for j in range(shape.size)] for i in range(shape.parts)]
    intra = [(u, v) for part in parts for k, u in enumerate(part) for v in part[k + 1:]]
    cross = [
        (u, v)
        for i, pu in enumerate(parts)
        for pv in parts[i + 1:]
        for u in pu
        for v in pv
    ]
    chosen = rng.sample(cross, round(shape.density * len(cross)))
    labels = dict(zip(intra, _balanced(rng, shape.intra_labels, len(intra))))
    labels.update(zip(chosen, _balanced(rng, shape.inter_labels, len(chosen))))
    planted: set[frozenset] = set()
    if shape.twin:
        # one vertex of a random part joined by label 3 to one vertex in
        # each of two other random parts
        hub, left, right = rng.sample(range(shape.parts), 3)
        s = f"p{hub}v{rng.randrange(shape.size)}"
        for other in (left, right):
            t = f"p{other}v{rng.randrange(shape.size)}"
            labels[(s, t) if hub < other else (t, s)] = 3
            planted.add(frozenset((s, t)))
    doc = {
        "vertices": [v for part in parts for v in part],
        "edges": [{"u": u, "v": v, "m": m} for (u, v), m in sorted(labels.items())],
        "family": parts,
    }
    return doc, planted


def instance_text(doc: dict) -> str:
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def inter_edges(doc: dict) -> list[tuple[str, str, int]]:
    """Edges whose ends lie in different parts, as (u, v, label)."""
    part_of = {v: i for i, part in enumerate(doc["family"]) for v in part}
    return [(e["u"], e["v"], e["m"]) for e in doc["edges"] if part_of[e["u"]] != part_of[e["v"]]]


def rel_violations(doc: dict) -> tuple[set[frozenset], set[frozenset]]:
    """Inter-edges breaking REL (label below 4) and REL' (label below 4
    while sharing a vertex with another inter-edge)."""
    ies = inter_edges(doc)
    degree: dict[str, int] = {}
    for u, v, _ in ies:
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
    rel = {frozenset((u, v)) for u, v, m in ies if m < 4}
    rel_prime = {frozenset((u, v)) for u, v, m in ies if m < 4 and max(degree[u], degree[v]) > 1}
    return rel, rel_prime


def main(argv: list[str] | None = None) -> int:
    from workloads import DEEP, WIDE

    parser = argparse.ArgumentParser(description="write the seeded ladder instances as JSON")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory to write into")
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for shape, _ in WIDE + DEEP:
        doc, _ = make_instance(shape, args.seed)
        (out / f"{shape.name}.json").write_text(instance_text(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
