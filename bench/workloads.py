"""The three workloads as call lists, each call with the answer its
instance was built to have.

A call is one ``relartin.cli.main(argv)`` invocation.  Its expected exit
code and the checks on its stdout come from how the instance was made:
REL bases pass everything, planted twins fail the label condition and the
link condition with a 12-unit witness, and the two fixtures behave as the
README describes.  No expectation is taken from an earlier run of the
checker.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from instances import Shape, instance_text, inter_edges, make_instance, rel_violations

TWO_PI_UNITS = 16
CONTROL_WITNESS_UNITS = 12

WIDE_INTRA, WIDE_INTER = (2, 3, 4), (4, 5, 6)
DEEP_INTRA, DEEP_INTER = (2, 3, 4), (4,)
DENSITY = 0.3

# (shape, subcommands) per ladder row; ``develop`` develops the first
# inter-edge of the smallest inter label.  Rows left out for run length are
# listed with their cost in README.md.
WIDE = (
    (Shape(20, 2, WIDE_INTRA, WIDE_INTER, DENSITY),
     ("check-rel", "classify", "build", "kpi1", "acyl", "develop")),
    (Shape(40, 2, WIDE_INTRA, WIDE_INTER, DENSITY),
     ("check-rel", "classify", "build")),
    # the 5x2 twin's links call develops the same label-3 link as the 20x2
    # twin's, at the same cost; it is left out for run length
    (Shape(5, 2, WIDE_INTRA, WIDE_INTER, DENSITY, twin=True),
     ("check-rel", "kpi1")),
    (Shape(20, 2, WIDE_INTRA, WIDE_INTER, DENSITY, twin=True),
     ("check-rel", "links", "kpi1")),
)
DEEP = (
    (Shape(4, 4, DEEP_INTRA, DEEP_INTER, DENSITY),
     ("check-rel", "classify", "build", "links", "kpi1", "acyl", "develop")),
    (Shape(3, 6, DEEP_INTRA, DEEP_INTER, DENSITY), ("check-rel", "classify", "build", "kpi1")),
    (Shape(2, 6, DEEP_INTRA, DEEP_INTER, DENSITY), ("check-rel", "classify", "build", "kpi1")),
    (Shape(2, 7, DEEP_INTRA, DEEP_INTER, DENSITY), ("build",)),
)
FIXTURES = ("affine_parts_join.json", "touching_triple_control.json")
SUBCOMMANDS = ("check-rel", "classify", "build", "links", "kpi1", "acyl", "develop")

Check = Callable[[str], "str | None"]


@dataclass(frozen=True)
class Call:
    """One CLI invocation and the verdict it must produce."""

    instance: str
    subcommand: str
    argv: tuple[str, ...]
    exit_code: int
    check: Check

    @property
    def name(self) -> str:
        return f"{self.instance}: {' '.join(a for a in self.argv if '/' not in a)}"


# ---------------------------------------------------------------------------
# output checks; each returns a problem description or None


def _json_check(*conditions: Callable[[dict], "str | None"]) -> Check:
    def check(stdout: str) -> str | None:
        try:
            doc = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return f"stdout is not JSON: {exc}"
        for cond in conditions:
            problem = cond(doc)
            if problem:
                return problem
        return None

    return check


def _prefix_check(prefix: str) -> Check:
    return lambda out: None if out.startswith(prefix) else f"output does not start with {prefix!r}"


def _expect(path: str, want) -> Callable[[dict], "str | None"]:
    """Value at a dotted path of the document must equal ``want``."""

    def cond(doc: dict) -> str | None:
        val = doc
        for key in path.split("."):
            val = val[int(key)] if isinstance(val, list) else val.get(key)
        return None if val == want else f"{path} is {val!r}, expected {want!r}"

    return cond


def fail_witness_problem(doc: dict) -> str | None:
    """Every FAIL entry must carry a witness cycle shorter than 2pi."""
    cert = doc.get("certification") if "entries" not in doc else doc
    for entry in (cert or {}).get("entries", []):
        if entry["status"] != "FAIL":
            continue
        c = entry["certificate"] or {}
        units, cycle = c.get("length_units"), c.get("cycle") or []
        if units is None or units >= TWO_PI_UNITS or len(cycle) != c.get("edge_count") or len(cycle) < 4:
            return f"FAIL without a witness shorter than {TWO_PI_UNITS} units: {entry['descriptor']}"
    return None


def _links_pass(doc: dict) -> str | None:
    bad = [e["descriptor"] for e in doc["entries"] if e["status"] == "FAIL"]
    return f"unexpected FAIL on {bad}" if bad or not doc["ok"] else None


def _links_control_witness(doc: dict) -> str | None:
    """The planted label-3 pair must fail with the 12-unit dihedral cycle."""
    for e in doc["entries"]:
        cert = e["certificate"] or {}
        if (
            e["status"] == "FAIL"
            and e["case"] == "inter-edge"
            and "m=3, non-disjoint" in e["descriptor"]
            and cert.get("length_units") == CONTROL_WITNESS_UNITS
        ):
            return None
    return f"no {CONTROL_WITNESS_UNITS}-unit FAIL on the label-3 inter-edge link"


def _violations(pairs: set[frozenset]) -> Callable[[dict], "str | None"]:
    def cond(doc: dict) -> str | None:
        for key in ("rel", "rel_prime"):
            got = {frozenset((v["u"], v["v"])) for v in doc[key]["violations"]}
            if got != pairs:
                return f"{key} violations {sorted(map(sorted, got))}, planted {sorted(map(sorted, pairs))}"
        return None

    return cond


def _part_kinds(kinds: list[str] | None, n_parts: int) -> Callable[[dict], "str | None"]:
    def cond(doc: dict) -> str | None:
        got = [p["coxeter_kind"] for p in doc["parts"]]
        if len(got) != n_parts:
            return f"{len(got)} parts reported, expected {n_parts}"
        if kinds is not None and got != kinds:
            return f"part kinds {got}, expected {kinds}"
        return None

    return cond


def s_bar_size(doc: dict) -> int:
    """|S_bar|: the empty set, every non-empty subset of every part, and
    every inter-edge (singletons are already part subsets)."""
    return 1 + sum(2 ** len(p) - 1 for p in doc["family"]) + len(inter_edges(doc))


# ---------------------------------------------------------------------------
# call lists


def _call(instance: str, path: Path, sub: str, exit_code: int, check: Check, *extra: str) -> Call:
    argv = (sub, "--input", str(path), *extra)
    return Call(instance, sub, argv, exit_code, check)


def _develop_edge_call(name: str, path: Path, u: str, v: str, m: int, fmt: str) -> Call:
    if fmt == "dot":
        check = _prefix_check('graph "')
    else:
        check = _json_check(
            _expect("case", "inter-edge"),
            _expect("truncation.requested_radius", 8 * m),
            lambda d: None if f"m={m}," in d["descriptor"] else f"descriptor {d['descriptor']!r}",
        )
    return _call(name, path, "develop", 0, check, "--edge", u, v, "--format", fmt)


def ladder_calls(shape: Shape, subs: tuple[str, ...], seed: int, out_dir: Path) -> list[Call]:
    """Write one generated instance and return its calls."""
    doc, planted = make_instance(shape, seed)
    path = out_dir / f"{shape.name}.json"
    path.write_text(instance_text(doc))
    rel, rel_prime = rel_violations(doc)
    if rel != planted or rel_prime != planted:
        raise RuntimeError(f"{shape.name}: REL violations {rel}, REL' {rel_prime}, planted {planted}")
    name = shape.name
    code = 2 if shape.twin else 0
    max_inter = max(m for _, _, m in inter_edges(doc))
    calls = []
    for sub in subs:
        if sub == "check-rel":
            cond = _violations(rel) if shape.twin else _expect("rel_prime.ok", True)
            calls.append(_call(name, path, sub, code, _json_check(_expect("rel.ok", not shape.twin), cond), "--format", "json"))
        elif sub == "classify":
            # a two-vertex part with a label is I2(m), A1xA1, A2 or B2
            kinds = ["finite"] * shape.parts if shape.size == 2 else None
            calls.append(_call(name, path, sub, 0, _json_check(_part_kinds(kinds, shape.parts)), "--format", "json"))
        elif sub == "build":
            conds = [
                _expect("S_bar_size", s_bar_size(doc)),
                _expect("two_dimensional.ok", True),
                _expect("gluing.ok", True),
            ]
            if shape.size == 2:
                # under REL no triple has a finite quotient, so S^f holds the
                # empty set, the vertices and the edges
                conds.append(_expect("S_f_size", 1 + len(doc["vertices"]) + len(doc["edges"])))
            calls.append(_call(name, path, sub, 0, _json_check(*conds), "--format", "json"))
        elif sub == "links":
            cond = _links_control_witness if shape.twin else _links_pass
            calls.append(_call(name, path, sub, code, _json_check(cond, fail_witness_problem), "--format", "json"))
        elif sub == "kpi1":
            conds = [_expect("applicable", not shape.twin), _expect("holds", not shape.twin), fail_witness_problem]
            calls.append(_call(name, path, sub, code, _json_check(*conds), "--format", "json"))
        elif sub == "acyl":
            # under REL the witness triple is never spherical, and the witness
            # edge is an inter-edge of the largest label
            conds = [_expect("status", "acyl-hyperbolic-via-witness"), _expect("witness_edge.2", max_inter)]
            calls.append(_call(name, path, sub, 0, _json_check(*conds), "--format", "json"))
        elif sub == "develop":
            u, v, m = min(inter_edges(doc), key=lambda e: (e[2], e[0], e[1]))
            calls.append(_develop_edge_call(name, path, u, v, m, "json"))
        else:
            raise ValueError(f"unknown subcommand {sub!r}")
    return calls


def fixture_calls(fixture_dir: Path) -> list[Call]:
    """Both shipped fixtures through every subcommand.

    The join passes everything (README).  The control's two label-3
    inter-edges share a vertex, so it fails check-rel, fails links with a
    12-unit witness and is inapplicable for kpi1; its only witness triple
    {a,b,c} has labels 3,3,2, a finite A3 quotient, so acyl reports the
    witness checks as failed.  ``develop`` runs on every part that has an
    exact engine (edgeless or a single labeled edge; the join's 4-vertex
    parts have none) and on the first inter-edge of every (label,
    disjointness) class, in JSON and in dot.
    """
    calls: list[Call] = []
    for fname in FIXTURES:
        path = fixture_dir / fname
        doc = json.loads(path.read_text())
        name = fname.removesuffix(".json")
        control = name.startswith("touching")
        code = 2 if control else 0
        ies = inter_edges(doc)
        kinds = ["finite", "finite"] if control else ["affine", "affine"]
        check_rel = _json_check(
            _violations({frozenset((u, v)) for u, v, _ in ies}) if control else _expect("rel_prime.ok", True)
        )
        build = _json_check(_expect("S_bar_size", s_bar_size(doc)), _expect("two_dimensional.ok", True))
        links = _json_check(_links_control_witness if control else _links_pass, fail_witness_problem)
        kpi1 = _json_check(_expect("applicable", not control), _expect("holds", not control), fail_witness_problem)
        acyl = _json_check(_expect("status", "witness-checks-failed" if control else "acyl-hyperbolic-via-witness"))
        calls += [
            _call(name, path, "check-rel", code, check_rel, "--format", "json"),
            _call(name, path, "classify", 0, _json_check(_part_kinds(kinds, len(doc["family"]))), "--format", "json"),
            _call(name, path, "build", 0, build, "--format", "json"),
            _call(name, path, "build", 0, _prefix_check("digraph"), "--format", "dot"),
            _call(name, path, "links", code, links, "--format", "json"),
            _call(name, path, "kpi1", code, kpi1, "--format", "json"),
            _call(name, path, "acyl", code, acyl, "--format", "json"),
        ]
        for fmt in ("json", "dot"):
            for i, part in enumerate(doc["family"]):
                labeled = [e for e in doc["edges"] if e["u"] in part and e["v"] in part]
                if labeled and not (len(part) == 2 and len(labeled) == 1):
                    continue
                check = _prefix_check('graph "') if fmt == "dot" else _json_check(
                    _expect("case", "part"), _expect("truncation.requested_radius", 16)
                )
                calls.append(_call(name, path, "develop", 0, check, "--part", str(i), "--format", fmt))
            classes: dict[tuple[int, bool], tuple[str, str, int]] = {}
            for u, v, m in sorted(ies):
                disjoint = not any({u, v} & {x, y} for x, y, _ in ies if {x, y} != {u, v})
                classes.setdefault((m, disjoint), (u, v, m))
            calls += [_develop_edge_call(name, path, u, v, m, fmt) for u, v, m in classes.values()]
    return calls


def build_calls(workload: str, seed: int, root: Path, out_dir: Path) -> list[Call]:
    if workload == "fixtures":
        return fixture_calls(root / "fixtures")
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = {"wide": WIDE, "deep": DEEP}[workload]
    return [c for shape, subs in rows for c in ladder_calls(shape, subs, seed, out_dir)]
