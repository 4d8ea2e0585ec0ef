"""Command line entry points: exit codes, output formats, flag validation.

Exit convention: 0 when the checked property holds, 2 when the check ran
and the property fails, 1 for unusable input.
"""
import argparse
import json
import os
import pathlib
import random
import re
import subprocess
import sys
import time
from dataclasses import asdict, is_dataclass

import pytest
from instances import (
    ladder_instances,
    lemma_instances,
    random_rel_prime_instance,
    right_angled_part,
)
from oracles import (
    check_gluing,
    check_two_dimensional,
    instance_to_json,
    listed_complex,
    s_ell_poset,
)
from test_golden import SUBCOMMANDS, invocations

import relartin
from relartin import (
    cli,
    coxeter,
    defining_graph,
    dihedral_garside,
    girth_checker,
    kpi1_checker,
    link_builder,
    poset_complex,
)

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
JOIN = str(FIXTURES / "affine_parts_join.json")
CONTROL = str(FIXTURES / "touching_triple_control.json")


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def patch_everywhere(monkeypatch, owner, attr: str, replacement) -> None:
    """Set ``owner.attr`` to ``replacement``, also where a relartin module
    imported it by name."""
    original = getattr(owner, attr)
    monkeypatch.setattr(owner, attr, replacement)
    for name, mod in list(sys.modules.items()):
        if name.startswith("relartin.") and getattr(mod, attr, None) is original:
            monkeypatch.setattr(mod, attr, replacement)


def forbid(monkeypatch, owner, attr: str) -> None:
    """Make ``owner.attr`` raise when called, also where a relartin module
    imported it by name."""

    def forbidden(*args, **kwargs):
        raise AssertionError(f"{attr} was called")

    patch_everywhere(monkeypatch, owner, attr, forbidden)


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


def test_check_rel_exit_codes(capsys):
    code, doc, _ = run_json(capsys, "check-rel", "--input", JOIN)
    assert code == 0
    assert doc["rel"]["ok"] and doc["rel_prime"]["ok"]

    code, doc, _ = run_json(capsys, "check-rel", "--input", CONTROL)
    assert code == 2
    assert not doc["rel_prime"]["ok"]
    pairs = {(v["u"], v["v"]) for v in doc["rel_prime"]["violations"]}
    assert pairs == {("a", "b"), ("b", "c")}


def test_classify_reports_parts(capsys):
    code, doc, _ = run_json(capsys, "classify", "--input", JOIN)
    assert code == 0
    assert [p["coxeter_kind"] for p in doc["parts"]] == ["affine", "affine"]
    assert doc["graph"]["join_decomposable"] is True


def test_build_outputs(capsys):
    code, doc, _ = run_json(capsys, "build", "--input", JOIN)
    assert code == 0
    assert doc["S_f_size"] == 45
    assert doc["S_bar_size"] == 47
    assert doc["complex_S_bar_chain_count"] == 693
    assert doc["two_dimensional"]["ok"] and doc["gluing"]["ok"]
    assert len(doc["S_ell"]["elements"]) == 27

    code, out, _ = run(capsys, "build", "--input", JOIN, "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")


QUOTED = re.compile(r'"((?:[^"\\]|\\.)*)"')


def _dot_strings(dot: str) -> list[str]:
    """The quoted strings of a DOT document, unescaped, with the label
    separator \\n read as a newline; no quote may be left outside them."""
    out = []
    for line in dot.splitlines():
        assert '"' not in QUOTED.sub("", line), line
        for text in QUOTED.findall(line):
            out.append(re.sub(r"\\(.)", lambda m: "\n" if m[1] == "n" else m[1], text))
    return out


def test_dot_escapes_quotes_and_backslashes(capsys, tmp_path):
    a, b = 'a"x', "b\\y"
    path = tmp_path / "odd.json"
    doc = {"vertices": [a, b], "edges": [{"u": a, "v": b, "m": 4}], "family": [[a], [b]]}
    path.write_text(json.dumps(doc))
    inst = defining_graph.parse_graph(path.read_text())

    code, out, _ = run(capsys, "build", "--input", str(path), "--format", "dot")
    assert code == 0
    s_ell = s_ell_poset(inst)
    assert _dot_strings(out) == [
        poset_complex.subset_label(t) + "\n" + ",".join(sorted(s_ell.tags[t]))
        for t in s_ell.elements
    ]

    argv = ["develop", "--input", str(path), "--edge", a, b, "--radius", "2"]
    code, out, _ = run(capsys, *argv, "--format", "dot")
    assert code == 0
    link = link_builder.develop_link_interedge(inst, inst.inter_edges[0], radius=2)
    assert any('"' in label and "\\" in label for label in link.vertex_labels)
    assert _dot_strings(out) == [
        link.descriptor,
        *link.vertex_labels,
        *(str(w) for _, _, w in link.edges),
    ]


def test_links_pass_and_fail(capsys):
    code, doc, _ = run_json(capsys, "links", "--input", JOIN)
    assert code == 0
    assert doc["ok"] and len(doc["entries"]) == 11

    code, out, _ = run(capsys, "links", "--input", CONTROL)
    assert code == 2
    assert "FAIL" in out and "m=3, non-disjoint" in out


def test_no_flag_shrinks_the_certification(capsys):
    # a capped or shallow ball once let the control pass: links and kpi1
    # have no ball, so no flag, and the control's 12-unit witness stands
    code, doc, _ = run_json(capsys, "links", "--input", CONTROL)
    assert code == 2 and not doc["ok"]
    (bad,) = [e for e in doc["entries"] if e["status"] == "FAIL"]
    cert = bad["certificate"]
    assert (cert["length_units"], cert["edge_count"], len(set(cert["cycle"]))) == (12, 12, 12)
    assert run(capsys, "links", "--input", JOIN)[0] == 0
    assert run(capsys, "kpi1", "--input", JOIN)[0] == 0
    for sub in ("links", "kpi1"):
        for flag in (("--cap", "1"), ("--radius", "2")):
            for fixture in (JOIN, CONTROL):
                code, out, err = run(capsys, sub, "--input", fixture, *flag)
                assert code == 1 and out == ""
                assert f"unrecognized arguments: {' '.join(flag)}" in err


def test_kpi1_verdict_and_byte_stability(capsys):
    code, out1, _ = run(capsys, "kpi1", "--input", JOIN, "--format", "json")
    code2, out2, _ = run(capsys, "kpi1", "--input", JOIN, "--format", "json")
    assert code == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["status"] == "holds, parts affine"

    code, doc, _ = run_json(capsys, "kpi1", "--input", CONTROL)
    assert code == 2
    assert doc["status"] == "inapplicable: inter-edge label condition fails"


def test_acyl_routes(capsys, tmp_path):
    code, doc, _ = run_json(capsys, "acyl", "--input", JOIN)
    assert code == 0
    assert doc["status"] == "acyl-hyperbolic-via-witness"
    assert doc["witness_edge"] == ["a1", "a2", 4]

    free = tmp_path / "free.json"
    free.write_text(
        json.dumps({"vertices": ["a", "b"], "edges": [], "family": [["a"], ["b"]]})
    )
    code, doc, _ = run_json(capsys, "acyl", "--input", str(free))
    assert code == 0
    assert doc["status"] == "acyl-hyperbolic-via-free-product"

    small = tmp_path / "small.json"
    small.write_text(
        json.dumps(
            {
                "vertices": ["a", "b"],
                "edges": [{"u": "a", "v": "b", "m": 4}],
                "family": [["a"], ["b"]],
            }
        )
    )
    code, doc, _ = run_json(capsys, "acyl", "--input", str(small))
    assert code == 2
    assert doc["status"] == "inapplicable"


def test_develop_edge_and_part(capsys):
    code, doc, _ = run_json(
        capsys, "develop", "--input", JOIN, "--edge", "a1", "a2", "--radius", "2"
    )
    assert code == 0
    assert doc["case"] == "inter-edge"
    assert doc["truncation"]["requested_radius"] == 2

    code, doc, _ = run_json(capsys, "develop", "--input", CONTROL, "--part", "0")
    assert code == 0
    assert doc["case"] == "part"

    code, out, _ = run(
        capsys,
        "develop",
        "--input",
        JOIN,
        "--edge",
        "a1",
        "a2",
        "--radius",
        "2",
        "--format",
        "dot",
    )
    assert code == 0 and out.startswith('graph "')


def test_develop_part_builds_that_part_engine_only(capsys, monkeypatch, tmp_path):
    parts = []
    original = dihedral_garside.engine_for_part

    def counted(graph, part):
        parts.append(tuple(part))
        return original(graph, part)

    patch_everywhere(monkeypatch, dihedral_garside, "engine_for_part", counted)
    three = tmp_path / "three.json"
    three.write_text(instance_to_json(random_rel_prime_instance(random.Random(3))))
    for path in (CONTROL, JOIN, str(three)):
        family = json.loads(pathlib.Path(path).read_text())["family"]
        assert len(family) >= 2
        for i, part in enumerate(family):
            parts.clear()
            run(capsys, "develop", "--input", path, "--part", str(i), "--radius", "2")
            assert parts == [tuple(sorted(part))], (path, i)


def test_build_dot_does_not_build_s_bar(capsys, monkeypatch):
    forbid(monkeypatch, poset_complex, "build_S_bar")
    # dot prints the Hasse diagram and lists no chains
    with monkeypatch.context() as dot_only:
        forbid(dot_only, poset_complex, "derived_complex")
        for fixture in (JOIN, CONTROL):
            code, out, _ = run(capsys, "build", "--input", fixture, "--format", "dot")
            assert code == 0 and out.startswith("digraph")
    # nor does any other format: S_bar's two counts are read off closed forms
    for fixture, counts in ((JOIN, (47, 693)), (CONTROL, (7, 25))):
        code, doc, err = run_json(capsys, "build", "--input", fixture)
        assert (code, err) == (0, "")
        assert (doc["S_bar_size"], doc["complex_S_bar_chain_count"]) == counts
        assert run(capsys, "build", "--input", fixture)[0] == 0


def test_build_prints_the_s_ell_lemma_that_the_oracles_compute(capsys):
    # build prints the dimension and the gluing from the S^l lemma; the
    # passes over the listed complex agree on both fixtures, both ladders
    # and random REL' and non-REL' instances
    args = argparse.Namespace(fmt="json")
    insts = lemma_instances()
    for inst in insts:
        assert cli.cmd_build(inst, args) == 0
        doc = json.loads(capsys.readouterr().out)
        cx = listed_complex(s_ell_poset(inst))
        dim = check_two_dimensional(cx)
        assert doc["two_dimensional"] == {"ok": dim.ok, "max_chain_length": dim.max_chain_length}
        assert doc["gluing"] == asdict(check_gluing(cx, inst)), inst.graph.edges
    assert {len(inst.inter_edges) > 0 for inst in insts} == {True, False}
    assert not all(defining_graph.check_rel_prime(inst).ok for inst in insts)
    # kpi1's dimension line reads the same fact, with and without inter-edges
    for inst in (insts[0], next(inst for inst in insts if not inst.inter_edges)):
        dim = check_two_dimensional(listed_complex(s_ell_poset(inst)))
        line = next(e for e in kpi1_checker.kpi1_verdict(inst).evidence if "2-dimensional" in e.check)
        assert line.detail == f"max chain length {dim.max_chain_length}"


@pytest.mark.parametrize(
    "text",
    [
        # 5,001 digits: more than int converts from a string by default
        '{"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "m": 1%s}], '
        '"family": [["a"], ["b"]]}' % ("0" * 5000),
        "[" * 200000 + "]" * 200000,
    ],
    ids=["long-integer", "deep-nesting"],
)
def test_unreadable_json_exits_1_on_every_subcommand(capsys, tmp_path, text):
    path = tmp_path / "unreadable.json"
    path.write_text(text)
    for argv in [(sub,) for sub in SUBCOMMANDS] + [("develop", "--part", "0")]:
        code, out, err = run(capsys, *argv, "--input", str(path))
        assert (code, out) == (1, ""), argv
        assert err.startswith("error: invalid JSON: ") and err.count("\n") == 1, argv


def test_develop_selector_errors(capsys):
    code, _, err = run(capsys, "develop", "--input", JOIN)
    assert code == 1 and "exactly one" in err
    code, _, err = run(
        capsys, "develop", "--input", JOIN, "--part", "0", "--edge", "a1", "a2"
    )
    assert code == 1 and "exactly one" in err
    # an intra-part pair is not an inter-edge
    code, _, err = run(capsys, "develop", "--input", JOIN, "--edge", "a1", "b1")
    assert code == 1 and "not an inter-edge" in err
    # an unknown vertex and a vertex paired with itself are no inter-edge
    # either, and an inter-edge may be named in either order
    for u, v in (("a1", "zz"), ("zz", "a1"), ("a1", "a1")):
        code, out, err = run(capsys, "develop", "--input", JOIN, "--edge", u, v)
        assert (code, out) == (1, "")
        assert err == f"error: {u!r},{v!r} is not an inter-edge of the family\n"
    forward, backward = (
        run(capsys, "develop", "--input", JOIN, "--edge", u, v, "--radius", "2")
        for u, v in (("a1", "a2"), ("a2", "a1"))
    )
    assert forward == backward and forward[0] == 0 and "{a1,a2}" in forward[1]
    code, _, err = run(capsys, "develop", "--input", JOIN, "--part", "9")
    assert code == 1 and "out of range" in err
    # the affine part has no exact engine
    code, _, err = run(capsys, "develop", "--input", JOIN, "--part", "0")
    assert code == 1 and "no exact word-problem engine" in err


def test_input_errors(capsys, tmp_path):
    code, _, err = run(capsys, "kpi1", "--input", str(tmp_path / "missing.json"))
    assert code == 1 and "cannot read" in err

    # a directory, and a file that is not UTF-8
    code, _, err = run(capsys, "kpi1", "--input", str(tmp_path))
    assert code == 1 and err.startswith("error: cannot read")
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"vertices": ["\xe9"], "edges": [], "family": [["\xe9"]]}')
    code, _, err = run(capsys, "kpi1", "--input", str(latin))
    assert code == 1 and err.startswith("error: cannot read")

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "kpi1", "--input", str(bad))
    assert code == 1 and "invalid JSON" in err

    stray = tmp_path / "stray.json"
    stray.write_text(json.dumps({"vertices": [], "edges": [], "family": [], "x": 1}))
    code, _, err = run(capsys, "kpi1", "--input", str(stray))
    assert code == 1 and "unknown keys" in err


@pytest.mark.parametrize(
    "family, message",
    [
        ([["a", "a"], ["b"]], "error: vertex 'a' appears twice in family part 0\n"),
        ([["a"], ["b", "a"]], "error: vertex 'a' appears in family parts 0 and 1\n"),
    ],
)
def test_family_listing_a_vertex_twice(capsys, tmp_path, family, message):
    path = tmp_path / "twice.json"
    path.write_text(json.dumps({"vertices": ["a", "b"], "edges": [], "family": family}))
    code, out, err = run(capsys, "check-rel", "--input", str(path))
    assert (code, out, err) == (1, "", message)


@pytest.mark.parametrize(
    "edges, message",
    [
        # the second edge names the pair of the first, in either order
        ([("a", "b", 4), ("b", "a", 3)], "error: parallel edge ('b', 'a')\n"),
        ([("b", "a", 4), ("a", "b", 4)], "error: parallel edge ('a', 'b')\n"),
        ([("a", "b", 4), ("a", "b", 4)], "error: parallel edge ('a', 'b')\n"),
    ],
)
def test_parallel_edges_exit_1_in_either_order(capsys, tmp_path, edges, message):
    path = tmp_path / "parallel.json"
    doc = {
        "vertices": ["a", "b"],
        "edges": [{"u": u, "v": v, "m": m} for u, v, m in edges],
        "family": [["a"], ["b"]],
    }
    path.write_text(json.dumps(doc))
    assert run(capsys, "check-rel", "--input", str(path)) == (1, "", message)


@pytest.mark.parametrize(
    "entry, message",
    [
        ({"u": "a", "v": "b", "m": 4, "w": 1}, "error: edge 0 has unknown keys ['w']\n"),
        ({"u": "a", "v": "b", "x": 4}, "error: edge 0 has unknown keys ['x']\n"),
        ({"u": "a", "v": "b"}, "error: edge 0 must have keys u, v, m\n"),
        ({}, "error: edge 0 must have keys u, v, m\n"),
    ],
)
def test_edge_entries_with_other_keys_exit_1(capsys, tmp_path, entry, message):
    path = tmp_path / "keys.json"
    path.write_text(json.dumps({"vertices": ["a", "b"], "edges": [entry], "family": [["a", "b"]]}))
    assert run(capsys, "check-rel", "--input", str(path)) == (1, "", message)


def test_family_with_no_parts_exits_1(capsys, tmp_path):
    # with no parts there is nothing to check: every subcommand rejects the
    # input instead of reporting on it
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"vertices": [], "edges": [], "family": []}))
    for argv in [(sub,) for sub in SUBCOMMANDS] + [("develop", "--part", "0")]:
        code, out, err = run(capsys, *argv, "--input", str(path))
        assert (code, out, err) == (1, "", "error: family has no parts\n"), argv


def test_dense_empty_link_is_searched_to_its_floor(capsys, tmp_path, monkeypatch):
    # 80 two-vertex parts, every cross pair an inter-edge of label 4: the
    # finite empty link has 2 * 12640 + 160 = 25440 edges of 2 and 3 units,
    # and 16-unit cycles through a part and two of its inter-edges (shape
    # A), which the entry reads off the instance without building the link
    parts = [[f"p{i}a", f"p{i}b"] for i in range(80)]
    vertices = [v for part in parts for v in part]
    edges = [{"u": a, "v": b, "m": 2} for a, b in parts]
    edges += [
        {"u": u, "v": v, "m": 4}
        for i, u in enumerate(vertices)
        for j, v in enumerate(vertices[i + 1 :], i + 1)
        if i // 2 != j // 2
    ]
    path = tmp_path / "dense.json"
    path.write_text(json.dumps({"vertices": vertices, "edges": edges, "family": parts}))

    # kpi1 certifies the link, and lists no chains of S^l on the way
    forbid(monkeypatch, poset_complex, "derived_complex")
    for sub in ("links", "kpi1"):
        code, doc, err = run_json(capsys, sub, "--input", str(path))
        assert (code, err) == (0, "")
        empty = (doc if sub == "links" else doc["certification"])["entries"][0]
        assert (empty["case"], empty["status"]) == ("empty", "PASS-complete")
        assert empty["certificate"]["length_units"] == 16
        assert empty["stats"]["edges"] == 25440


def test_dense_empty_link_without_a_2pi_cycle_is_read_off(capsys, tmp_path, monkeypatch):
    # 140 two-vertex parts {a_i, b_i} and a label-4 clique on the a_i: the
    # empty link has 19,600 edges and no 16-unit cycle (no part holds two
    # inter-edge vertices, and every inter-edge meets another), so its
    # entry is PASS-lemma, read off without building S^l or the link; and
    # no single link is built either
    parts = [[f"a{i:03d}", f"b{i:03d}"] for i in range(140)]
    vertices = [v for part in parts for v in part]
    edges = [{"u": a, "v": b, "m": 2} for a, b in parts]
    edges += [
        {"u": a, "v": c, "m": 4} for i, (a, _) in enumerate(parts) for c, _ in parts[i + 1 :]
    ]
    path = tmp_path / "clique.json"
    path.write_text(json.dumps({"vertices": vertices, "edges": edges, "family": parts}))
    forbid(monkeypatch, link_builder, "build_link_empty")
    forbid(monkeypatch, link_builder, "build_link_single")
    forbid(monkeypatch, poset_complex, "build_S_ell")
    forbid(monkeypatch, girth_checker, "shortest_embedded_cycle")
    for sub in ("links", "kpi1"):
        start = time.perf_counter()
        code, doc, err = run_json(capsys, sub, "--input", str(path))
        elapsed = time.perf_counter() - start
        assert (code, err) == (0, ""), sub
        empty = (doc if sub == "links" else doc["certification"])["entries"][0]
        assert (empty["case"], empty["status"], empty["certificate"]) == ("empty", "PASS-lemma", None)
        assert (empty["stats"]["vertices"], empty["stats"]["edges"]) == (10010, 19600)
        # a floored search of the built link took 3.6-5.2 s here
        assert elapsed < 2.0, (sub, elapsed)


def _one_big_part(tmp_path, k: int) -> str:
    """One edgeless part of k vertices, plus a vertex b joined to the
    first by one inter-edge."""
    part = [f"a{i:04d}" for i in range(k)]
    doc = {"vertices": part + ["b"], "edges": [{"u": part[0], "v": "b", "m": 4}]}
    path = tmp_path / f"big{k}.json"
    path.write_text(json.dumps({**doc, "family": [part, ["b"]]}))
    return str(path)


def test_a_chain_count_too_long_to_print_exits_with_a_message(capsys, tmp_path):
    # F(1500) has about 4,350 digits, over the default 4,300 that an int
    # may print: refused before the Fubini recurrence, which took 28.7 s
    start = time.perf_counter()
    code, out, err = run(capsys, "build", "--input", _one_big_part(tmp_path, 1500))
    assert time.perf_counter() - start < 5.0
    assert (code, out) == (1, "")
    limit = sys.get_int_max_str_digits()
    assert err == (
        f"error: the S_bar chain count has more than {limit} digits, too many to print "
        "(the largest part has 1500 vertices)\n"
    )
    # under the smallest limit, 640 digits, a part of 291 vertices has a
    # count of exactly 640 digits and prints; one of 292 is refused
    sys.set_int_max_str_digits(640)
    try:
        code, doc, err = run_json(capsys, "build", "--input", _one_big_part(tmp_path, 291))
        assert (code, err) == (0, "")
        assert len(str(doc["complex_S_bar_chain_count"])) == 640
        code, out, err = run(capsys, "build", "--input", _one_big_part(tmp_path, 292))
        assert (code, out) == (1, "")
        assert err.startswith("error: the S_bar chain count has more than 640 digits")
        assert err.count("\n") == 1
    finally:
        sys.set_int_max_str_digits(limit)


RING_PARTS = 5000


def _ring(tmp_path) -> str:
    """5,000 two-vertex parts of label 2, consecutive parts joined by
    disjoint label-4 inter-edges."""
    n = RING_PARTS
    parts = [[f"p{i}a", f"p{i}b"] for i in range(n)]
    edges = [{"u": a, "v": b, "m": 2} for a, b in parts]
    edges += [{"u": parts[i][1], "v": parts[(i + 1) % n][0], "m": 4} for i in range(n)]
    vertices = [v for part in parts for v in part]
    path = tmp_path / "ring.json"
    path.write_text(json.dumps({"vertices": vertices, "edges": edges, "family": parts}))
    return str(path)


def test_ring_with_no_2pi_cycle_passes_by_the_floor_lemma(capsys, tmp_path):
    # the empty link's only cycle runs round the ring, 40,000 units, so no
    # root lies on a 16-unit cycle and the floor lemma settles the entry
    # without a search of the whole ring
    code, doc, err = run_json(capsys, "links", "--input", _ring(tmp_path))
    assert (code, err) == (0, "")
    empty = doc["entries"][0]
    assert (empty["case"], empty["status"], empty["certificate"]) == ("empty", "PASS-lemma", None)
    assert empty["stats"]["edges"] == 4 * RING_PARTS


def test_ring_is_classified_without_listing_the_pairs_of_a_non_clique(
    capsys, monkeypatch, tmp_path
):
    # the whole ring's diagram is one component of 10,000 vertices with
    # infinity labels; classifying it as a clique would read 50 million pairs
    real = coxeter._classify_component

    def clique_only(verts, rows):
        if not all(v in rows[u] for i, u in enumerate(verts) for v in verts[i + 1 :]):
            raise AssertionError(f"a non-clique of {len(verts)} classified as a clique")
        return real(verts, rows)

    monkeypatch.setattr(coxeter, "_classify_component", clique_only)
    code, doc, err = run_json(capsys, "classify", "--input", _ring(tmp_path))
    assert (code, err) == (0, "")
    assert doc["graph"]["notes"] == ["coxeter type: indefinite (indefinite)"]
    assert not doc["graph"]["join_decomposable"]
    assert len(doc["parts"]) == RING_PARTS
    assert {part["report"]["notes"][0] for part in doc["parts"]} == {
        "coxeter type: finite (A1, A1)"
    }


def test_acyl_and_kpi1_list_no_ball_and_no_chains(capsys, monkeypatch):
    # kpi1 reads the maximal chains of S_bar and the dimension of S^l off
    # lemmas, so neither subcommand lists the chains of a complex
    for attr in ("maximal_chains", "derived_complex"):
        forbid(monkeypatch, poset_complex, attr)
    assert run(capsys, "kpi1", "--input", JOIN)[0] == 0
    # acyl's verdict reads the witness triple alone, and links and kpi1
    # certify non-disjoint inter-edge links by the syllable search, so none
    # of them enumerates a ball
    for engine in (dihedral_garside.DihedralEngine, dihedral_garside.FreeEngine):
        forbid(monkeypatch, engine, "ball_levels")
    for fixture, code in ((JOIN, 0), (CONTROL, 2)):
        for sub in ("links", "kpi1", "acyl"):
            assert run(capsys, sub, "--input", fixture)[0] == code, (sub, fixture)


def forbid_general_order(monkeypatch) -> None:
    """Make reading a general subset poset's up-sets or covers raise."""
    for attr in ("above", "upper_covers"):

        def read(self, attr=attr):
            raise AssertionError(f"SubsetPoset.{attr} was read")

        monkeypatch.setattr(poset_complex.SubsetPoset, attr, property(read))


def test_build_reads_s_ell_off_its_lemma(capsys, monkeypatch, tmp_path):
    # build spells S^l's order from the S^l lemma in every format: it
    # compares no subsets and lists no general up-set or cover
    forbid_general_order(monkeypatch)
    forbid(monkeypatch, poset_complex.SubsetPoset, "from_tagged")
    ladder = tmp_path / "4x4.json"
    ladder.write_text(instance_to_json(ladder_instances(7)["4x4"]))
    for path in (JOIN, CONTROL, str(ladder)):
        for fmt in ("json", "text", "dot"):
            code, out, err = run(capsys, "build", "--input", path, "--format", fmt)
            assert (code, err) == (0, ""), (path, fmt)
            assert out


def test_kpi1_and_classify_list_no_subset_family(capsys, monkeypatch, tmp_path):
    # on a REL' instance the family audit, the crossing check, the
    # retraction and the part flags are lemmas or read off adjacency rows,
    # so no run lists spherical subsets, builds S_bar or compares its pairs
    forbid(monkeypatch, coxeter, "enumerate_spherical_subsets")
    forbid(monkeypatch, poset_complex, "build_S_bar")
    forbid_general_order(monkeypatch)
    paths = [JOIN]
    for seed in range(5):
        path = tmp_path / f"rel{seed}.json"
        path.write_text(instance_to_json(random_rel_prime_instance(random.Random(seed))))
        paths.append(str(path))
    for path in paths:
        for sub in ("kpi1", "classify"):
            assert run(capsys, sub, "--input", path)[0] == 0, (sub, path)


def test_a_large_right_angled_part_is_checked_in_time(capsys, tmp_path):
    # a complete part of 16 vertices with every label 2 is spherical; its
    # 2^16 subsets are neither listed nor compared pair by pair
    path = tmp_path / "right_angled.json"
    path.write_text(instance_to_json(right_angled_part(16)))
    for sub in ("kpi1", "classify"):
        start = time.perf_counter()
        code, doc, err = run_json(capsys, sub, "--input", str(path))
        elapsed = time.perf_counter() - start
        assert (code, err) == (0, ""), sub
        assert elapsed < 1.0, (sub, elapsed)
    assert [p["coxeter_kind"] for p in doc["parts"]] == ["finite", "finite"]
    assert doc["parts"][0]["report"]["right_angled"] and doc["parts"][0]["report"]["fc_type"]
    assert not doc["parts"][0]["report"]["two_dimensional"]
    code, doc, _ = run_json(capsys, "kpi1", "--input", str(path))
    assert doc["status"] == "holds, parts spherical"
    # build lists the 2^16 spherical subsets for S_f_size, and reads S_bar's
    # counts off closed forms where it used to build S_bar for minutes
    start = time.perf_counter()
    code, doc, err = run_json(capsys, "build", "--input", str(path))
    elapsed = time.perf_counter() - start
    assert (code, err) == (0, "")
    assert doc["S_bar_size"] == doc["S_f_size"] == 65540
    assert elapsed < 10.0, elapsed


def test_build_stops_at_the_spherical_cap_in_bounded_time_and_memory(tmp_path):
    # 24 commuting vertices have 2^24 spherical subsets: build stops at
    # coxeter.SPHERICAL_CAP with a message naming the count reached; a child
    # interpreter reports its own peak memory
    path = tmp_path / "right_angled.json"
    path.write_text(instance_to_json(right_angled_part(24)))
    script = (
        "import resource, sys\n"
        "from relartin import cli\n"
        "code = cli.main(['build', '--input', sys.argv[1], '--format', 'json'])\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    src = str(pathlib.Path(relartin.__file__).resolve().parent.parent)
    start = time.perf_counter()
    child = subprocess.run(
        [sys.executable, "-c", script, str(path)],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    elapsed = time.perf_counter() - start
    message, peak_kb = child.stderr.splitlines()
    assert child.returncode == 1 and child.stdout == ""
    cap = coxeter.SPHERICAL_CAP
    assert re.fullmatch(
        rf"error: more than {cap} spherical subsets: the walk reached (\d+) at size \d+, too many to list",
        message,
    )
    assert elapsed < 10, elapsed
    assert int(peak_kb) < 1024 * 1024, peak_kb


def test_develop_refuses_a_label_too_large_for_its_cap(capsys, monkeypatch, tmp_path):
    # a label-m ball element spells m - 1 letters per inverse letter, so
    # cap * (m - 1) is bounded by BALL_CAP, and checked before any ball
    for engine in (dihedral_garside.DihedralEngine, dihedral_garside.FreeEngine):
        forbid(monkeypatch, engine, "ball_levels")
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({
        "vertices": ["a", "b", "c"],
        "edges": [{"u": "a", "v": "b", "m": 10**6}, {"u": "a", "v": "c", "m": 10**6}],
        "family": [["a", "b"], ["c"]],
    }))
    for selector in (("--edge", "a", "c"), ("--part", "0")):
        code, out, err = run(capsys, "develop", "--input", str(path), *selector)
        assert (code, out) == (1, "")
        assert err == (
            "error: label 1000000 is too large to develop under cap 4000: "
            "cap * (label - 1) must be at most 1000000\n"
        )
        code, out, err = run(capsys, "develop", "--input", str(path), *selector, "--cap", "2")
        assert code == 1 and "under cap 2" in err
    # at the bound the development runs
    monkeypatch.undo()
    code, out, err = run(capsys, "develop", "--input", str(path), "--edge", "a", "c", "--cap", "1")
    assert (code, err) == (0, "") and "m=1000000" in out


def test_flag_validation(capsys, monkeypatch):
    assert run(capsys, "develop", "--input", JOIN, "--edge", "a1", "a2", "--cap", "0")[0] == 1
    assert run(capsys, "develop", "--input", JOIN, "--part", "0", "--radius", "0")[0] == 1
    argv = ("develop", "--input", JOIN, "--edge", "a1", "a2", "--radius", "-1")
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == "" and err == "error: radius must be >= 1\n"
    # a cap above the default of ball_levels is refused before any ball
    for engine in (dihedral_garside.DihedralEngine, dihedral_garside.FreeEngine):
        forbid(monkeypatch, engine, "ball_levels")
    for selector in (("--edge", "a1", "a2"), ("--part", "1")):
        code, out, err = run(capsys, "develop", "--input", CONTROL, *selector, "--cap", "1000001")
        assert code == 1 and out == "" and err == "error: cap must be <= 1000000\n"
    # one --radius serves both selectors
    for flag in ("--radius-case1", "--radius-case3"):
        code, out, err = run(capsys, "develop", "--input", JOIN, "--edge", "a1", "a2", flag, "2")
        assert code == 1 and out == "" and f"unrecognized arguments: {flag} 2" in err
    code, _, err = run(capsys, "kpi1", "--input", JOIN, "--format", "dot")
    assert code == 1 and "dot output" in err
    assert cli.main(["nonsense"]) == 1
    assert cli.main([]) == 1


def test_development_flags_belong_to_developing_subcommands(capsys):
    code, _, err = run(capsys, "develop", "--input", JOIN, "--cap", "0")
    assert code == 1 and err == "error: cap must be >= 1\n"
    for sub in ("check-rel", "classify", "build", "acyl", "links", "kpi1"):
        for flag in ("--radius", "--cap"):
            code, out, err = run(capsys, sub, "--input", JOIN, flag, "5")
            assert code == 1 and out == ""
            assert f"unrecognized arguments: {flag} 5" in err


def test_per_instance_facts_are_derived_once(capsys, monkeypatch):
    calls = {}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(defining_graph, "inter_edges")
    counted(poset_complex, "disjoint_inter_edges")
    counted(poset_complex, "build_S_ell")
    counted(coxeter, "enumerate_spherical_subsets")
    # every graph made during a run, by its vertices: the input's only,
    # never a copy of a part's subgraph
    graphs = []
    init = defining_graph.DefiningGraph.__init__

    def recorded(self, vertices, edges):
        graphs.append(tuple(sorted(vertices)))
        init(self, vertices, edges)

    monkeypatch.setattr(defining_graph.DefiningGraph, "__init__", recorded)
    for fixture in (JOIN, CONTROL):
        for sub in ("check-rel", "classify", "build", "links", "kpi1"):
            calls.clear()
            graphs.clear()
            run(capsys, sub, "--input", fixture)
            assert all(n == 1 for n in calls.values()), (fixture, sub, calls)
            # classify reads the adjacency rows and derives none of these
            assert bool(calls) == (sub != "classify"), (fixture, sub, calls)
            assert len(graphs) == 1, (fixture, sub, graphs)
            # only build lists the spherical subsets, for S_f_size
            assert calls.get("enumerate_spherical_subsets", 0) == (sub == "build")


def test_text_format_is_default(capsys):
    code, out, _ = run(capsys, "check-rel", "--input", JOIN)
    assert code == 0
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)
    assert "rel_prime" in out


def test_cli_import_is_numpy_free():
    # the child imports relartin from where this process found it
    src = str(pathlib.Path(relartin.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = "import sys, relartin.cli; print('numpy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout == "False\n"


def _plain(doc):
    """doc with each dataclass instance in it copied by ``asdict``, each
    list of groups stored as runs listed, and each list of rows stored as
    columns listed as dicts, also inside the copies."""
    if is_dataclass(doc):
        return _plain(asdict(doc))
    if isinstance(doc, dict):
        return {key: _plain(val) for key, val in doc.items()}
    if isinstance(doc, poset_complex.Runs):
        return [[_plain(doc.items[k]) for k in group] for group in doc.indices()]
    if isinstance(doc, poset_complex.Rows):
        return [dict(zip(doc.columns, row)) for row in zip(*doc.columns.values())]
    if isinstance(doc, (list, tuple)):
        return [_plain(val) for val in doc]
    return doc


def _dumps(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _assert_dumps(text: str, doc) -> None:
    """Fail unless text is ``_dumps(doc)``, naming where they part:
    pytest's own diff of two long documents runs for minutes."""
    expected = _dumps(doc)
    if text != expected:
        at = len(os.path.commonprefix([text, expected]))
        pytest.fail(f"differs from json.dumps at {at}: {text[max(at - 60, 0) : at + 60]!r}")


def test_json_reports_equal_json_dumps(capsys, monkeypatch, tmp_path):
    # every document the golden invocations print, then every subcommand
    # (develop on the first part and the first inter-edge) on random
    # instances, each rendered both ways
    seen = []
    writer = cli._json_text

    def checked(doc):
        text = writer(doc)
        _assert_dumps(text, _plain(doc))
        # the text writer, too, renders a dataclass as its fields
        assert _text(doc) == _text(_plain(doc))
        seen.append(doc)
        return text

    monkeypatch.setattr(cli, "_json_text", checked)
    for name, sub, *rest in invocations():
        if rest[-1] == "json":
            cli.main([sub, "--input", str(FIXTURES / name), *rest])
    assert len(seen) == 18
    for seed in range(10):
        inst = random_rel_prime_instance(random.Random(seed))
        path = tmp_path / f"seed{seed}.json"
        path.write_text(instance_to_json(inst))
        edge = min(e[:2] for e in inst.inter_edges)
        argvs = [[sub] for sub in SUBCOMMANDS]
        argvs += [["develop", "--part", "0"], ["develop", "--edge", *edge]]
        for argv in argvs:
            cli.main([*argv, "--input", str(path), "--format", "json"])
    capsys.readouterr()
    assert len(seen) > 18 + 10 * len(SUBCOMMANDS)
    # S^l documents of hundreds and thousands of chains: the seed-7 ladder's
    # 3x6, 4x4 and 20x2 rows
    shown = len(seen)
    for name in ("3x6", "4x4", "20x2"):
        path = tmp_path / f"{name}.json"
        path.write_text(instance_to_json(ladder_instances(7)[name]))
        cli.main(["build", "--input", str(path), "--format", "json"])
        assert len(seen[-1]["complex_S_ell"]["chains"]) > 200, name
    capsys.readouterr()
    assert len(seen) == shown + 3


def test_build_renders_its_chains_on_the_grouped_path(capsys, monkeypatch, tmp_path):
    # chains and covers render one group per list item, not one recursive
    # writer call per chain: the calls stay below the chain count
    path = tmp_path / "4x4.json"
    path.write_text(instance_to_json(ladder_instances(7)["4x4"]))
    calls = 0
    writer = cli._write_json

    def counted(val, nl, out):
        nonlocal calls
        calls += 1
        writer(val, nl, out)

    monkeypatch.setattr(cli, "_write_json", counted)
    code, doc, err = run_json(capsys, "build", "--input", str(path))
    assert (code, err) == (0, "")
    chains = len(doc["complex_S_ell"]["chains"])
    assert chains == 247 and len(doc["S_ell"]["covers"]) > 50
    assert calls < chains, calls


ROWS = [{"a": 1, "b": "x", "c": None}, {"c": 2.5, "b": "y", "a": True}]


class _Count(int):
    """An int whose repr is not its JSON spelling."""

    def __repr__(self):
        return "count"


SHARED = ["a", "b"]
LONG_GROUPS = [[[f"v{i}", "w"], SHARED] for i in range(300)]
# lists of lists of lists of str, and near misses the grouped path refuses
GROUPED = [
    # one innermost list in many groups, and at two indents of one document
    [[SHARED, SHARED], [SHARED], [["c"], SHARED]],
    {"x": [[SHARED]], "y": {"z": [[SHARED, ["d"]], [SHARED]]}, "w": [SHARED, [SHARED]]},
    [[[]], [[], ["a"]]],
    [[["a"]], []],
    [[]],
    [[["a"], "b"]],
    [[["a"], {"k": "v"}]],
    [[["a"], ("b",)]],
    [[["a", 1]]],
    [[["a", None]]],
    [[["a", ["b"]]]],
    ((("a", "b"), ["c"]), [("d",)]),
    (((),),),
    LONG_GROUPS + [[["x"], 5]],
    LONG_GROUPS + [[["x"], ["y", ["z"]]]],
    {"chains": LONG_GROUPS, "covers": LONG_GROUPS[::-1]},
    [[['q"uote', "back\\slash", "\x00\n\t\x1f\x7f", "\u00e9\u2603\U0001f600\u2028", "%s %%"]]],
    # row columns of str lists, shared and escaped, and of a list and a str
    [{"subset": SHARED, "tags": []}, {"subset": ("c", 'q"'), "tags": SHARED}],
    [{"s": ["\u2603\n", "%d"], "n": 1}, {"s": [], "n": 2}],
    [{"a": ["x"]}, {"a": "x"}],
    [{"a": ["x"]}, {"a": [None]}],
    [{"a": [["x"]]}],
]

NOT_ROWS = [
    [{"a": 1}, {"b": 1}],
    [{"a": 1, "b": 2}, {"a": 1}],
    [{"a": 1}, {"a": [1]}],
    [{"a": {"b": 1}}, {"a": {"b": 2}}],
    [{"a": (1, 2)}],
    [{"a": 1}, [1]],
    [{"a": 1}, 1],
    [{}, {}],
    [[1, 2], [3]],
]
CRAFTED = [
    {},
    [],
    (),
    {"a": {}, "b": [], "c": [[]], "d": [{}], "e": {"f": {"g": []}}},
    [[], {}, [[{}]], [[[]]]],
    {'q"uote': 'back\\slash "x"', "ctl\n\t\x00\x1f": "\x7f\u00e9\u2603\U0001f600\u2028"},
    ["\u00fc", "\r\n", "", "%s %% %d"],
    [True, 1, False, 0, None, 1.0, 0.0],
    {"t": True, "o": 1, "f": False, "z": 0, "n": None},
    [-0.0, 1e300, -1e-300, 1.5, float("nan"), float("inf"), float("-inf"), 2**70, -5],
    (1, (2, "x"), [(), (3,)]),
    {"t": (1, 2), "u": ({"v": (4,)},)},
    [{"k%s": "%d", "\u00e9\n\"": "\x01\u2603", "%": float("nan")}] * 3,
    [{"a": float("inf"), "b": -0.0}, {"a": 2**70, "b": False}],
    # row columns of bools, of ints, of None, and of bools and None
    [
        {"b": True, "i": 2**70, "n": None, "c": None},
        {"b": False, "i": -3, "n": None, "c": False},
        {"b": True, "i": -(2**70), "n": None, "c": True},
    ],
    # a mixed int/bool column and an int/float column
    [{"m": 1, "f": 1}, {"m": True, "f": 2.5}, {"m": 0, "f": float("-inf")}, {"m": False, "f": -0.0}],
    # a string column with %, control characters and non-ASCII
    [{"s": "%s %d %% %(k)s"}, {"s": "\x00\n\t\x1f\x7f\"\\"}, {"s": "\u00e9\u2603\U0001f600\u2028"}],
    # int subclasses are spelled as ints, outside rows and inside them
    [_Count(3), {"n": _Count(-4)}, [{"n": _Count(5)}, {"n": 6}]],
    {"rows": ROWS, "deeper": [{"rows": ROWS}]},
    *NOT_ROWS,
    [NOT_ROWS, [ROWS, ROWS]],
    *GROUPED,
    [GROUPED, {"g": GROUPED}],
    "top",
    "\u2603\n",
    7,
    -0.0,
    None,
    True,
]


@pytest.mark.parametrize("doc", CRAFTED)
def test_json_writer_equals_json_dumps_on_crafted_documents(doc):
    _assert_dumps(cli._json_text(doc), doc)


@pytest.mark.parametrize(
    "doc",
    [
        {1: "a"},
        {None: 1},
        {b"k": 1},
        {"a": {2.5: 1}},
        {"a": 1, 2: 3},
        [{1: 2}, {1: 3}],
        [{(1,): 2}],
    ],
)
def test_json_writer_rejects_non_str_keys(doc):
    with pytest.raises(TypeError):
        cli._json_text(doc)


def test_json_writer_spells_rows_stored_as_columns_or_raises():
    rows = poset_complex.Rows({"u": [1, 2], "v": ["%s", "b"], "w": [True, None]})
    _assert_dumps(cli._json_text({"r": rows}), {"r": _plain(rows)})
    assert cli._json_text(poset_complex.Rows({"u": [], "v": []})) == "[]\n"
    # a column holding a dict has no row spelling
    with pytest.raises(TypeError):
        cli._json_text({"r": poset_complex.Rows({"u": [1, {"v": 2}]})})


def _text(doc) -> str:
    lines: list[str] = []
    cli._text_lines(doc, "", lines)
    return "".join(lines)


def _listed(doc):
    """doc with every tuple replaced by the equal list."""
    if isinstance(doc, dict):
        return {k: _listed(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_listed(v) for v in doc]
    return doc


@pytest.mark.parametrize("doc", CRAFTED)
def test_text_prints_a_tuple_as_the_equal_list(doc):
    assert _text(doc) == _text(_listed(doc))


def test_text_prints_an_empty_tuple_as_brackets():
    doc = {"notes": (), "edge": ("a", "b", 4), "rows": [(), ((),)]}
    assert _text(doc) == (
        "notes: []\nedge:\n  - a\n  - b\n  - 4\nrows:\n  -\n  -\n    -\n"
    )
    assert _text(doc) == _text(_listed(doc))


def test_text_writer_spells_rows_stored_as_columns_or_raises():
    # a column of str lists prints as the list of dicts prints it
    rows = poset_complex.Rows({"a": [["x", "y"], []], "n": [1, None]})
    assert _text(rows) == "-\n  a:\n    - x\n    - y\n  n: 1\n-\n  a: []\n  n: null\n"
    assert _text({"r": rows}) == _text({"r": _plain(rows)})
    for column in ([1, {"v": 2}], [["x"], "x"], [["x", 1]], [[["x"]]]):
        with pytest.raises(TypeError):
            _text({"r": poset_complex.Rows({"u": column})})


def test_rows_have_columns_of_one_length():
    for columns in ({"u": [1, 2, 3], "v": [4]}, {"u": [], "v": [4]}, {}):
        with pytest.raises(ValueError):
            poset_complex.Rows(columns)
    # so both writers print every row of every table
    rows = poset_complex.Rows({"u": [1, 2, 3], "v": ["a", "b", "c"]})
    assert len(rows) == 3 and list(rows) == [(1, "a"), (2, "b"), (3, "c")]
    assert json.loads(cli._json_text(rows)) == _plain(rows) and len(_plain(rows)) == 3
    assert _text(rows) == _text(_plain(rows)) and _text(rows).count("-\n") == 3


def _flat_dicts(val) -> bool:
    """True for a non-empty list of dicts whose values are all scalars or
    lists of str: a table the JSON writer would have to recognise."""
    return (
        isinstance(val, (list, tuple))
        and len(val) > 0
        and all(type(item) is dict for item in val)
        and all(
            type(v) in cli._ROW_VALUE_TYPES
            or isinstance(v, (list, tuple)) and all(type(s) is str for s in v)
            for item in val
            for v in item.values()
        )
    )


def test_every_table_reaches_the_writers_as_rows(capsys, monkeypatch, tmp_path):
    # every subcommand in json on both fixtures and the seed-7 ladder: no
    # list of flat dicts reaches the JSON writer, each table is Rows
    tables = set()
    writer = cli._write_json

    def checked(val, nl, out):
        assert not _flat_dicts(val), f"a table as a list of dicts: {val[:2]!r}"
        if isinstance(val, poset_complex.Rows):
            tables.add(tuple(val.columns))
        writer(val, nl, out)

    monkeypatch.setattr(cli, "_write_json", checked)
    paths = [JOIN, CONTROL]
    for name, inst in ladder_instances(7).items():
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(instance_to_json(inst))
    for path in map(str, paths):
        inst = cli._load(path)
        argvs = [[sub] for sub in SUBCOMMANDS] + [["develop", "--part", "0"]]
        argvs += [["develop", "--edge", *e[:2]] for e in inst.inter_edges[:1]]
        for argv in argvs:
            cli.main([*argv, "--input", path, "--format", "json"])
    capsys.readouterr()
    assert tables == {
        ("u", "v", "m"),
        ("subset", "tags"),
        ("part", "provenance", "class"),
        ("kind", "label", "side", "boundary"),
        ("u", "v", "units"),
    }


def _as_rows(doc):
    """doc with each list of flat dicts of one key order, whose columns
    each hold only scalars or only lists of str, rebuilt as ``Rows``."""
    if isinstance(doc, dict):
        return {key: _as_rows(val) for key, val in doc.items()}
    if not isinstance(doc, (list, tuple)):
        return doc
    if _flat_dicts(doc) and doc[0] and all(list(item) == list(doc[0]) for item in doc):
        columns = {key: [item[key] for item in doc] for key in doc[0]}
        if all(
            all(type(v) in cli._ROW_VALUE_TYPES for v in column)
            or all(isinstance(v, (list, tuple)) for v in column)
            for column in columns.values()
        ):
            return poset_complex.Rows(columns)
    return [_as_rows(val) for val in doc]


def _count_rows(doc) -> int:
    if isinstance(doc, dict):
        return sum(map(_count_rows, doc.values()))
    if isinstance(doc, list):
        return sum(map(_count_rows, doc))
    return int(isinstance(doc, poset_complex.Rows))


def test_crafted_tables_print_the_same_as_rows():
    # each list of flat dicts the writers used to recognise, stored as Rows,
    # prints the JSON and the text its list of dicts prints
    tables = 0
    for doc in CRAFTED:
        rows = _as_rows(doc)
        tables += _count_rows(rows)
        assert cli._json_text(rows) == cli._json_text(doc), doc
        assert _text(rows) == _text(doc), doc
    assert tables == 11
