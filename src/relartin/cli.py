"""Command-line front end.

Subcommands mirror the pipeline stages: check-rel, classify, build, links,
kpi1, acyl, develop.  Exit code 0 means the checked condition holds, 2
means it fails, 1 means the input could not be used; ``build`` and
``develop`` check no condition, so they exit 0 or 1.  Reports are
deterministic for a fixed input and configuration.  The writers render
a dataclass instance as its fields: its keys, and its text order, are its
field names and order.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import fields, is_dataclass
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter

from .acyl_checker import check_acylindricity
from .defining_graph import (
    GraphError,
    Instance,
    check_rel,
    check_rel_prime,
    classify_known,
    parse_graph,
)
from .dihedral_garside import BALL_CAP
from .girth_checker import certify_link_condition
from .kpi1_checker import kpi1_verdict
from .link_builder import Rows, develop_link_interedge, develop_link_part
from .poset_complex import (
    Runs,
    derived_complex,
    s_bar_chain_count,
    s_bar_size,
    s_ell_max_chain_length,
)


def _emit(doc, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(_json_text(doc))
    else:
        _emit_text(doc)


# the C encoder, compact: it spells every scalar that has no cheaper spelling
_encode_value = json.JSONEncoder().encode
_ROW_VALUE_TYPES = frozenset((str, int, float, bool, type(None)))
# JSON's constants; read only for a bool or None, since 1 == True
_JSON_CONSTANTS = {True: "true", False: "false", None: "null"}
_CONSTANT_TYPES = frozenset((bool, type(None)))
_LIST_TYPES = frozenset((list, tuple))


def _json_text(doc) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)`` plus a newline, the
    same string; a dict key that is not a str raises TypeError."""
    out: list[str] = []
    _write_json(doc, "\n", out)
    out.append("\n")
    return "".join(out)


def _write_json(val, nl: str, out: list[str]) -> None:
    """Append val's JSON; nl is a newline and the indent of val's line."""
    if isinstance(val, dict):
        if not val:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(val):
            item = val[key]
            if type(item) in _ROW_VALUE_TYPES:
                out.append(f"{sep}{_quote(key)}: {_json_scalar(item)}")
            else:
                out.append(f"{sep}{_quote(key)}: ")
                _write_json(item, inner, out)
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(val, (list, tuple, Rows)):
        if not val:
            out.append("[]")
        elif not _write_rows(val, nl, out):
            if type(val) is Rows:
                raise TypeError("a column of rows holds a value with no row spelling")
            inner = nl + "  "
            sep = "[" + inner
            for item in val:
                if type(item) in _ROW_VALUE_TYPES:
                    out.append(sep + _json_scalar(item))
                else:
                    out.append(sep)
                    _write_json(item, inner, out)
                sep = "," + inner
            out.append(nl + "]")
    elif isinstance(val, Runs):
        _write_runs(val, nl, out)
    elif is_dataclass(val):
        _write_json(_fields(val), nl, out)
    else:
        out.append(_json_scalar(val))


def _fields(report) -> dict:
    """A dataclass instance's fields by name, in field order."""
    return {f.name: getattr(report, f.name) for f in fields(report)}


def _write_rows(rows, nl: str, out: list[str]) -> bool:
    """Append a list of flat dicts with one key set, or non-empty ``Rows``,
    each row laid out by one ``%`` template; False, appending nothing, for
    any other list or a column holding a value no row spelling covers.

    Each column is spelled by its types: ints by ``%d``, strings by the C
    string encoder, bools and None from a table, lists of str by
    ``_str_list``, any other mix of scalars through ``_json_scalar``.  The
    scalar spellings are lazy maps read as the rows are formatted."""
    if type(rows) is Rows:
        columns = rows.columns
    else:
        first = rows[0]
        if type(first) is not dict or not first or set(map(type, rows)) != {dict}:
            return False
        if set(map(len, rows)) != {len(first)}:
            return False
        try:
            columns = {k: list(map(itemgetter(k), rows)) for k in first}
        except KeyError:
            return False
    keys = sorted(columns)
    item, entry = nl + "  ", nl + "    "
    cells, spelled = [], []
    for column in map(columns.__getitem__, keys):
        kinds = set(map(type, column))
        if kinds == {int}:
            cells.append("%d")
            spelled.append(column)
            continue
        cells.append("%s")
        if kinds == {str}:
            spelled.append(map(_quote, column))
        elif kinds <= _CONSTANT_TYPES:
            spelled.append(map(_JSON_CONSTANTS.__getitem__, column))
        elif kinds <= _ROW_VALUE_TYPES:
            spelled.append(map(_json_scalar, column))
        elif kinds <= _LIST_TYPES and _all_str(column):
            spelled.append([_str_list(strs, entry) for strs in column])
        else:
            return False
    row = "{" + ",".join(
        f"{entry}{_quote(k).replace('%', '%%')}: {cell}" for k, cell in zip(keys, cells)
    ) + item + "}"
    out += ("[" + item, ("," + item).join(map(row.__mod__, zip(*spelled))), nl + "]")
    return True


def _write_runs(groups: Runs, nl: str, out: list[str]) -> None:
    """Append the JSON of a list of groups stored as runs whose items are
    lists of str, such as the S^l chains: each item's text is spelled
    once, and each run of groups is one ``join`` of those texts under the
    run's shared prefix."""
    group, item = nl + "  ", nl + "    "
    texts = [_str_list(strs, item) for strs in groups.items]
    opening, sep, closing = "[" + item, "," + item, group + "]"
    pieces = []
    for prefix, tails in groups.runs:
        if tails:
            head = opening + "".join([texts[k] + sep for k in prefix])
            between = closing + "," + group + head
            pieces.append(head + between.join(map(texts.__getitem__, tails)) + closing)
    out += ("[" + group, ("," + group).join(pieces), nl + "]") if pieces else ("[]",)


def _all_str(lists) -> bool:
    return all(type(s) is str for strs in lists for s in strs)


def _str_list(strs, nl: str) -> str:
    """A list of str's JSON; nl is a newline and the indent of its line."""
    if not strs:
        return "[]"
    inner = nl + "  "
    return "[" + inner + ("," + inner).join(map(_quote, strs)) + nl + "]"


def _json_scalar(val) -> str:
    # strings are most of the scalars outside rows; exact ints and the
    # constants have fixed spellings, and the C encoder spells the rest
    # (NaN, -Infinity, int subclasses) and rejects what JSON cannot hold
    if isinstance(val, str):
        return _quote(val)
    kind = type(val)
    if kind is int:
        return int.__repr__(val)
    if kind in _CONSTANT_TYPES:
        return _JSON_CONSTANTS[val]
    return _encode_value(val)


def _emit_text(doc) -> None:
    lines: list[str] = []
    _text_lines(doc, "", lines)
    sys.stdout.write("".join(lines))


def _text_lines(doc, pad: str, lines: list[str]) -> None:
    if isinstance(doc, dict):
        for key in doc:
            val = doc[key]
            if type(val) in _ROW_VALUE_TYPES or not val:
                lines.append(f"{pad}{key}: {_scalar(val)}\n")
            else:
                lines.append(f"{pad}{key}:\n")
                _text_lines(val, pad + "  ", lines)
    elif isinstance(doc, Runs):
        _text_runs(doc, pad, lines)
    elif isinstance(doc, Rows):
        # one % template per row; "%s" spells an int or a str as _scalar does
        row = pad + "-\n" + "".join(f"{pad}  {key.replace('%', '%%')}: %s\n" for key in doc.columns)
        spelled = [c if set(map(type, c)) <= {int, str} else map(_scalar, c) for c in doc.columns.values()]
        lines.append("".join(map(row.__mod__, zip(*spelled))))
    elif isinstance(doc, (list, tuple)):
        for val in doc:
            if type(val) in _ROW_VALUE_TYPES:
                lines.append(f"{pad}- {_scalar(val)}\n")
            else:
                lines.append(f"{pad}-\n")
                _text_lines(val, pad + "  ", lines)
    elif is_dataclass(doc):
        _text_lines(_fields(doc), pad, lines)
    else:
        lines.append(f"{pad}{_scalar(doc)}\n")


def _text_runs(groups: Runs, pad: str, lines: list[str]) -> None:
    """The text of a list of groups stored as runs whose items are lists
    of str, each item's text spelled once, as ``_write_runs`` does."""
    item, member = pad + "  ", pad + "    "
    texts = [item + "-\n" + "".join([f"{member}- {s}\n" for s in strs]) for strs in groups.items]
    for prefix, tails in groups.runs:
        if tails:
            head = pad + "-\n" + "".join([texts[k] for k in prefix])
            lines.append(head + head.join(map(texts.__getitem__, tails)))


def _scalar(val) -> str:
    if val is None:
        return "null"
    if isinstance(val, bool):
        return "true" if val else "false"
    if isinstance(val, (list, tuple, Runs, Rows, dict)):
        return "{}" if isinstance(val, dict) else "[]"
    return str(val)


def _load(path: str) -> Instance:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise GraphError(f"cannot read {path!r}") from exc
    return parse_graph(text)


def _rel_doc(verdict) -> dict:
    return {
        "ok": verdict.ok,
        "violations": [
            {"u": e.u, "v": e.v, "m": e.label} for e in verdict.violations
        ],
    }


def cmd_check_rel(inst: Instance, args: argparse.Namespace) -> int:
    rel = check_rel(inst)
    relp = check_rel_prime(inst)
    _emit({"rel": _rel_doc(rel), "rel_prime": _rel_doc(relp)}, args.fmt)
    return 0 if relp.ok else 2


def cmd_classify(inst: Instance, args: argparse.Namespace) -> int:
    graph = inst.graph
    parts = []
    for part in inst.family.parts:
        report = classify_known(graph, part)
        kind = "finite" if report.spherical_type else (
            "affine" if report.affine_type else "indefinite"
        )
        parts.append(
            {"vertices": list(part), "report": report, "coxeter_kind": kind}
        )
    whole = classify_known(graph, graph.vertices)
    _emit({"graph": whole, "parts": parts}, args.fmt)
    return 0


def cmd_build(inst: Instance, args: argparse.Namespace) -> int:
    s_ell = inst.s_ell
    if args.fmt == "dot":
        sys.stdout.write(s_ell.to_dot())
        return 0
    # the dimension and the gluing are the S^l lemma of relartin.poset_complex
    doc = {
        "S_ell": s_ell.to_json_dict(),
        "S_f_size": len(inst.spherical),
        "S_bar_size": s_bar_size(inst),
        "complex_S_ell": derived_complex(s_ell).to_json_dict(),
        "complex_S_bar_chain_count": s_bar_chain_count(inst),
        "two_dimensional": {"ok": True, "max_chain_length": s_ell_max_chain_length(inst)},
        "gluing": {"ok": True, "conflicts": []},
    }
    _emit(doc, args.fmt)
    return 0


def cmd_links(inst: Instance, args: argparse.Namespace) -> int:
    report = certify_link_condition(inst)
    _emit(report, args.fmt)
    return 0 if report.ok else 2


def cmd_kpi1(inst: Instance, args: argparse.Namespace) -> int:
    verdict = kpi1_verdict(inst)
    _emit(verdict, args.fmt)
    return 0 if verdict.holds else 2


def cmd_acyl(inst: Instance, args: argparse.Namespace) -> int:
    verdict = check_acylindricity(inst)
    _emit(verdict, args.fmt)
    return 0 if verdict.ok else 2


def cmd_develop(inst: Instance, args: argparse.Namespace) -> int:
    if (args.part is None) == (args.edge is None):
        raise GraphError("develop needs exactly one of --part or --edge")
    if args.part is not None:
        if not 0 <= args.part < len(inst.family.parts):
            raise GraphError(f"part index {args.part} out of range")
        part = inst.family.parts[args.part]
        # only a two-vertex part's engine reads a label
        label = inst.graph.label(*part) if len(part) == 2 else None
        develop, target = develop_link_part, args.part
    else:
        u, v = args.edge
        pair = (u, v) if u < v else (v, u)
        ie = next((e for e in inst.inter_edges_at.get(pair[0], ()) if e[:2] == pair), None)
        if ie is None:
            raise GraphError(f"{u!r},{v!r} is not an inter-edge of the family")
        label = ie.label
        develop, target = develop_link_interedge, ie
    # an element of a label-m ball spells a simple of m - 1 letters for
    # each inverse letter, where label 2 spells one
    if label is not None and args.cap * (label - 1) > BALL_CAP:
        raise GraphError(
            f"label {label} is too large to develop under cap {args.cap}: "
            f"cap * (label - 1) must be at most {BALL_CAP}"
        )
    link = develop(inst, target, radius=args.radius, cap=args.cap)
    if args.fmt == "dot":
        sys.stdout.write(link.to_dot())
    else:
        _emit(link.to_json_dict(), args.fmt)
    return 0


_COMMANDS = {
    "check-rel": cmd_check_rel,
    "classify": cmd_classify,
    "build": cmd_build,
    "links": cmd_links,
    "kpi1": cmd_kpi1,
    "acyl": cmd_acyl,
    "develop": cmd_develop,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", required=True, help="instance JSON file")
    common.add_argument(
        "--format", choices=("json", "text", "dot"), default="text", dest="fmt"
    )
    parser = argparse.ArgumentParser(
        prog="relartin",
        description="checks for graph-of-parts presentations: label conditions, "
        "curvature certificates, asphericity reduction, acylindricity",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    sub.add_parser("check-rel", parents=[common])
    sub.add_parser("classify", parents=[common])
    sub.add_parser("build", parents=[common])
    sub.add_parser("links", parents=[common])
    sub.add_parser("kpi1", parents=[common])
    sub.add_parser("acyl", parents=[common])
    dev = sub.add_parser("develop", parents=[common])
    dev.add_argument(
        "--radius",
        type=int,
        default=None,
        help="development radius (default 16 for a part, 8m for an inter-edge)",
    )
    dev.add_argument(
        "--cap", type=int, default=4000, help=f"ball element cap, at most {BALL_CAP}"
    )
    dev.add_argument("--part", type=int, default=None, help="part index to develop")
    dev.add_argument(
        "--edge", nargs=2, metavar=("U", "V"), default=None, help="inter-edge to develop"
    )
    return parser


_DOT_CAPABLE = {"build", "develop"}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    # only develop has these flags
    if args.subcommand == "develop":
        if args.radius is not None and args.radius < 1:
            sys.stderr.write("error: radius must be >= 1\n")
            return 1
        if args.cap < 1:
            sys.stderr.write("error: cap must be >= 1\n")
            return 1
        if args.cap > BALL_CAP:
            sys.stderr.write(f"error: cap must be <= {BALL_CAP}\n")
            return 1
    if args.fmt == "dot" and args.subcommand not in _DOT_CAPABLE:
        sys.stderr.write("error: dot output is only available for build and develop\n")
        return 1
    try:
        return _COMMANDS[args.subcommand](_load(args.input), args)
    except GraphError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except BrokenPipeError:
        # downstream pager or head closed the stream; not our failure
        try:
            sys.stdout.close()
        except BrokenPipeError:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
