"""Command-line front end.

Subcommands mirror the pipeline stages: check-rel, classify, build, links,
kpi1, acyl, develop.  Exit code 0 means the checked condition holds, 2
means it fails, 1 means the input could not be used.  Reports are
deterministic for a fixed input and configuration.  A report emitted
through ``dataclasses.asdict`` takes its keys, and its text order, from
its dataclass's field names and order.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from json.encoder import encode_basestring_ascii as _quote

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
from .link_builder import develop_link_interedge, develop_link_part
from .poset_complex import (
    assign_metric,
    build_S_bar,
    build_S_f,
    check_gluing,
    check_two_dimensional,
    derived_complex,
)


def _emit(doc, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(_json_text(doc))
    else:
        _emit_text(doc)


# the C encoder, compact with "\n" between items: it encodes a row list's
# values in one pass and every scalar outside rows; every control
# character in a string is escaped, so a raw newline is a separator
_encode_values = json.JSONEncoder(separators=("\n", ":")).encode
_ROW_VALUE_TYPES = frozenset((str, int, float, bool, type(None)))


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
            if isinstance(item, (dict, list, tuple)):
                out.append(f"{sep}{_quote(key)}: ")
                _write_json(item, inner, out)
            else:
                out.append(f"{sep}{_quote(key)}: {_json_scalar(item)}")
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(val, (list, tuple)):
        if not val:
            out.append("[]")
        elif not _write_rows(val, nl, out):
            inner = nl + "  "
            sep = "[" + inner
            for item in val:
                if isinstance(item, (dict, list, tuple)):
                    out.append(sep)
                    _write_json(item, inner, out)
                else:
                    out.append(sep + _json_scalar(item))
                sep = "," + inner
            out.append(nl + "]")
    else:
        out.append(_json_scalar(val))


def _write_rows(rows, nl: str, out: list[str]) -> bool:
    """Append a list of flat dicts with one key set, values encoded in one
    pass and laid out by a template; False, appending nothing, for any
    other list."""
    first = rows[0]
    if type(first) is not dict or not first or set(map(type, rows)) != {dict}:
        return False
    keys = sorted(first)
    if set(map(len, rows)) != {len(keys)}:
        return False
    try:
        values = [row[k] for row in rows for k in keys]
    except KeyError:
        return False
    if not set(map(type, values)) <= _ROW_VALUE_TYPES:
        return False
    item, entry = nl + "  ", nl + "    "
    row = "{" + ",".join(
        f"{entry}{_quote(k).replace('%', '%%')}: %s" for k in keys
    ) + item + "}"
    layout = "[" + item + ("," + item).join([row] * len(rows)) + nl + "]"
    out.append(layout % tuple(_encode_values(values)[1:-1].split("\n")))
    return True


def _json_scalar(val) -> str:
    # strings are most of the scalars outside rows; the C encoder spells
    # the rest (true, NaN, ...) and rejects what JSON cannot hold
    return _quote(val) if isinstance(val, str) else _encode_values(val)


def _emit_text(doc) -> None:
    lines: list[str] = []
    _text_lines(doc, "", lines)
    sys.stdout.write("".join(lines))


def _text_lines(doc, pad: str, lines: list[str]) -> None:
    if isinstance(doc, dict):
        for key in doc:
            val = doc[key]
            if isinstance(val, (dict, list, tuple)) and val:
                lines.append(f"{pad}{key}:\n")
                _text_lines(val, pad + "  ", lines)
            else:
                lines.append(f"{pad}{key}: {_scalar(val)}\n")
    elif isinstance(doc, (list, tuple)):
        for val in doc:
            if isinstance(val, (dict, list, tuple)):
                lines.append(f"{pad}-\n")
                _text_lines(val, pad + "  ", lines)
            else:
                lines.append(f"{pad}- {_scalar(val)}\n")
    else:
        lines.append(f"{pad}{_scalar(doc)}\n")


def _scalar(val) -> str:
    if val is None:
        return "null"
    if isinstance(val, bool):
        return "true" if val else "false"
    if isinstance(val, (list, tuple, dict)):
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
    groups, _ = inst.spherical_groups
    parts = []
    for part, group in zip(inst.family.parts, groups):
        report = classify_known(graph, part, group)
        kind = "finite" if report.spherical_type else (
            "affine" if report.affine_type else "indefinite"
        )
        parts.append(
            {"vertices": list(part), "report": asdict(report), "coxeter_kind": kind}
        )
    whole = classify_known(graph, graph.vertices, inst.spherical)
    _emit({"graph": asdict(whole), "parts": parts}, args.fmt)
    return 0


def cmd_build(inst: Instance, args: argparse.Namespace) -> int:
    s_ell = inst.s_ell
    s_f = build_S_f(inst)
    s_bar = build_S_bar(inst)
    cx_ell = derived_complex(s_ell)
    dim = check_two_dimensional(s_ell)
    gluing = check_gluing(assign_metric(cx_ell, inst))
    if args.fmt == "dot":
        sys.stdout.write(s_ell.to_dot())
        return 0 if dim.ok and gluing.ok else 2
    doc = {
        "S_ell": s_ell.to_json_dict(),
        "S_f_size": len(s_f.elements),
        "S_bar_size": len(s_bar.elements),
        "complex_S_ell": cx_ell.to_json_dict(),
        "complex_S_bar_chain_count": s_bar.chain_count(),
        "two_dimensional": {"ok": dim.ok, "max_chain_length": dim.max_chain_length},
        "gluing": asdict(gluing),
    }
    _emit(doc, args.fmt)
    return 0 if dim.ok and gluing.ok else 2


def cmd_links(inst: Instance, args: argparse.Namespace) -> int:
    report = certify_link_condition(inst)
    _emit(asdict(report), args.fmt)
    return 0 if report.ok else 2


def cmd_kpi1(inst: Instance, args: argparse.Namespace) -> int:
    verdict = kpi1_verdict(inst)
    _emit(verdict.to_json_dict(), args.fmt)
    return 0 if verdict.holds else 2


def cmd_acyl(inst: Instance, args: argparse.Namespace) -> int:
    verdict = check_acylindricity(inst)
    _emit(asdict(verdict), args.fmt)
    return 0 if verdict.ok else 2


def cmd_develop(inst: Instance, args: argparse.Namespace) -> int:
    if (args.part is None) == (args.edge is None):
        raise GraphError("develop needs exactly one of --part or --edge")
    if args.part is not None:
        if not 0 <= args.part < len(inst.family.parts):
            raise GraphError(f"part index {args.part} out of range")
        link = develop_link_part(inst, args.part, radius=args.radius, cap=args.cap)
    else:
        u, v = args.edge
        ie = next(
            (e for e in inst.inter_edges if e.pair == frozenset((u, v))),
            None,
        )
        if ie is None:
            raise GraphError(f"{u!r},{v!r} is not an inter-edge of the family")
        link = develop_link_interedge(inst, ie, radius=args.radius, cap=args.cap)
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
