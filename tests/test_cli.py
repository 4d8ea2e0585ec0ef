"""Command line entry points: exit codes, output formats, flag validation.

Exit convention: 0 when the checked property holds, 2 when the check ran
and the property fails, 1 for unusable input.
"""
import json
import os
import pathlib
import random
import re
import subprocess
import sys

import pytest
from instances import random_rel_prime_instance
from oracles import instance_to_json
from test_golden import SUBCOMMANDS, invocations

import relartin
from relartin import cli, coxeter, defining_graph, dihedral_garside, link_builder, poset_complex

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
JOIN = str(FIXTURES / "affine_parts_join.json")
CONTROL = str(FIXTURES / "touching_triple_control.json")


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def forbid(monkeypatch, owner, attr: str) -> None:
    """Make ``owner.attr`` raise when called, also where a relartin module
    imported it by name."""
    original = getattr(owner, attr)

    def forbidden(*args, **kwargs):
        raise AssertionError(f"{attr} was called")

    monkeypatch.setattr(owner, attr, forbidden)
    for name, mod in list(sys.modules.items()):
        if name.startswith("relartin.") and getattr(mod, attr, None) is original:
            monkeypatch.setattr(mod, attr, forbidden)


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
    s_ell = inst.s_ell
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


def test_family_with_no_parts_exits_1(capsys, tmp_path):
    # with no parts there is nothing to check: every subcommand rejects the
    # input instead of reporting on it
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"vertices": [], "edges": [], "family": []}))
    for argv in [(sub,) for sub in SUBCOMMANDS] + [("develop", "--part", "0")]:
        code, out, err = run(capsys, *argv, "--input", str(path))
        assert (code, out, err) == (1, "", "error: family has no parts\n"), argv


def test_oversized_link_exits_1(capsys, tmp_path, monkeypatch):
    # 80 two-vertex parts, every cross pair an inter-edge of label 4: the
    # finite empty link gets 2 * 12640 + 160 = 25440 edges of 2 and 3 units
    parts = [[f"p{i}a", f"p{i}b"] for i in range(80)]
    vertices = [v for part in parts for v in part]
    edges = [{"u": a, "v": b, "m": 2} for a, b in parts]
    edges += [
        {"u": u, "v": v, "m": 4}
        for i, u in enumerate(vertices)
        for j, v in enumerate(vertices[i + 1 :], i + 1)
        if i // 2 != j // 2
    ]
    path = tmp_path / "oversized.json"
    path.write_text(json.dumps({"vertices": vertices, "edges": edges, "family": parts}))

    # kpi1 rejects the link, and lists no chains of S^l on the way
    forbid(monkeypatch, poset_complex, "derived_complex")
    for sub in ("links", "kpi1"):
        code, out, err = run(capsys, sub, "--input", str(path))
        assert code == 1 and out == ""
        assert err == (
            "error: the empty link has 25440 edges; "
            "the weighted girth search takes at most 20000\n"
        )


def test_acyl_and_kpi1_list_no_ball_and_no_chains(capsys, monkeypatch):
    # kpi1 counts and checks the maximal chains of S_bar by dynamic
    # programming and reads the dimension off the longest chain, so neither
    # subcommand lists the chains of a complex
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
            assert calls and max(calls.values()) == 1, (fixture, sub, calls)
            assert len(graphs) == 1, (fixture, sub, graphs)
            if sub in ("classify", "build"):
                assert calls["enumerate_spherical_subsets"] == 1


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


def _dumps(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_json_reports_equal_json_dumps(capsys, monkeypatch, tmp_path):
    # every document the golden invocations print, then every subcommand
    # (develop on the first part and the first inter-edge) on random
    # instances, each rendered both ways
    seen = []
    writer = cli._json_text

    def checked(doc):
        text = writer(doc)
        assert text == _dumps(doc)
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
        edge = min(sorted(e.pair) for e in inst.inter_edges)
        argvs = [[sub] for sub in SUBCOMMANDS]
        argvs += [["develop", "--part", "0"], ["develop", "--edge", *edge]]
        for argv in argvs:
            cli.main([*argv, "--input", str(path), "--format", "json"])
    capsys.readouterr()
    assert len(seen) > 18 + 10 * len(SUBCOMMANDS)


ROWS = [{"a": 1, "b": "x", "c": None}, {"c": 2.5, "b": "y", "a": True}]
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
    {"rows": ROWS, "deeper": [{"rows": ROWS}]},
    *NOT_ROWS,
    [NOT_ROWS, [ROWS, ROWS]],
    "top",
    "\u2603\n",
    7,
    -0.0,
    None,
    True,
]


@pytest.mark.parametrize("doc", CRAFTED)
def test_json_writer_equals_json_dumps_on_crafted_documents(doc):
    assert cli._json_text(doc) == _dumps(doc)


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
