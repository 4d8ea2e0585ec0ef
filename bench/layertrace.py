"""Layer trace taken from outside the program.

Wrappers are installed over the public functions of each ``relartin``
module (and over a few engine methods) from this file; the program itself
is not changed.  ``from .x import y`` copies the binding, so a function is
patched at every loaded module that holds it by name.  ``Tracer.remove``
puts every original back and checks that no wrapper is left.

Two kinds of wrapper:

* a *span* records name, start, end and parent; self time is the span's
  duration minus the time covered by its child spans;
* a *count* only counts calls, for functions called too often to time
  one by one; their time stays in the enclosing span's self time.

Each closed span is added, in memory, to the totals of its call path; the
tree of totals is written out when the run ends.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

# (module, attribute, span name); a dotted attribute is a method on a class
SPANS: tuple[tuple[str, str, str], ...] = (
    ("cli", "main", "cli"),
    ("defining_graph", "parse_graph", "defining_graph.parse_graph"),
    ("defining_graph", "check_rel", "defining_graph.check_rel"),
    ("defining_graph", "check_rel_prime", "defining_graph.check_rel"),
    ("defining_graph", "classify_known", "defining_graph.classify_known"),
    ("coxeter", "enumerate_spherical_subsets", "coxeter.spherical_subsets"),
    ("poset_complex", "build_S_ell", "poset_complex.build_poset"),
    ("poset_complex", "build_S_f", "poset_complex.build_poset"),
    ("poset_complex", "build_S_bar", "poset_complex.build_poset"),
    ("poset_complex", "derived_complex", "poset_complex.derived_complex"),
    ("poset_complex", "maximal_chains", "poset_complex.maximal_chains"),
    ("poset_complex", "retraction_map", "poset_complex.retraction_map"),
    ("link_builder", "build_link_empty", "link_builder.empty"),
    ("link_builder", "build_link_single", "link_builder.single"),
    ("link_builder", "develop_link_part", "link_builder.develop"),
    ("link_builder", "develop_link_interedge", "link_builder.develop"),
    ("dihedral_garside", "DihedralEngine.ball_levels", "dihedral_garside.ball_levels"),
    ("dihedral_garside", "FreeEngine.ball_levels", "dihedral_garside.ball_levels"),
    ("dihedral_garside", "DihedralEngine.coset_key", "dihedral_garside.coset_rep"),
    ("dihedral_garside", "FreeEngine.coset_key", "dihedral_garside.coset_rep"),
    ("girth_checker", "certify_link_condition", "girth_checker.certify"),
    # renamed per call by the link's case, see _girth_name
    ("girth_checker", "shortest_embedded_cycle", "girth_checker"),
    ("kpi1_checker", "kpi1_verdict", "kpi1_checker.verdict"),
    ("kpi1_checker", "audit_family", "kpi1_checker.audit_family"),
    ("kpi1_checker", "verify_no_large_crossing_spherical", "kpi1_checker.crossing"),
    ("acyl_checker", "check_acylindricity", "acyl_checker.check"),
    ("acyl_checker", "empirical_orbit_growth", "acyl_checker.orbit_growth"),
)

PACKAGE = "relartin"
MODULES = (
    "defining_graph", "coxeter", "poset_complex", "dihedral_garside",
    "link_builder", "girth_checker", "kpi1_checker", "acyl_checker", "cli",
)

COUNTS: tuple[tuple[str, str, str], ...] = (
    ("defining_graph", "inter_edges", "defining_graph.inter_edges"),
    ("coxeter", "classify_type", "coxeter.classify_type"),
    ("poset_complex", "disjoint_inter_edges", "poset_complex.disjoint_inter_edges"),
    ("dihedral_garside", "DihedralGroupCtx.mult_gen", "dihedral_garside.mult_gen"),
)


def _girth_name(link) -> str:
    case = "development" if link.case in ("part", "inter-edge") else link.case
    return f"girth_checker.{case}"


@dataclass
class Stat:
    """Totals for one span name, or for one call path of the tree."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0

    def add(self, duration: float, self_s: float) -> None:
        self.calls += 1
        self.total_s += duration
        self.self_s += self_s


@dataclass
class _Frame:
    name: str
    parent_path: tuple[str, ...]
    child_s: float = 0.0

    @property
    def path(self) -> tuple[str, ...]:
        return self.parent_path + (self.name,)


@dataclass
class Tracer:
    """Spans, counters and the patches that feed them.

    ``tree`` aggregates spans by call path; ``counters`` holds the call
    counts plus the quantities read from return values (chains, developed
    vertices, radii, truncations).
    """

    clock: Callable[[], float] = time.perf_counter
    tree: dict[tuple[str, ...], Stat] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)
    _stack: list[_Frame] = field(default_factory=list)
    _patches: list[tuple[object, str, object]] = field(default_factory=list)

    def reset(self) -> None:
        self.tree.clear()
        self.counters.clear()

    def by_name(self) -> dict[str, Stat]:
        """Span totals by span name, whatever the call path."""
        out: dict[str, Stat] = {}
        for path, stat in self.tree.items():
            total = out.setdefault(path[-1], Stat())
            total.calls += stat.calls
            total.total_s += stat.total_s
            total.self_s += stat.self_s
        return out

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span called ``name`` and return its result."""
        frame = _Frame(name, self._stack[-1].path if self._stack else ())
        self._stack.append(frame)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = self.clock() - start
            self._stack.pop()
            if self._stack:
                self._stack[-1].child_s += duration
            self.tree.setdefault(frame.path, Stat()).add(duration, duration - frame.child_s)

    def _span_wrapper(self, fn: Callable, name: str) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, self._observe, name, fn, args, kwargs)

        return wrapper

    def _count_wrapper(self, fn: Callable, name: str) -> Callable:
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] = counters.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def _observe(self, name: str, fn: Callable, args: tuple, kwargs: dict):
        """Run the wrapped call and read counts off its arguments or result."""
        if name == "girth_checker":
            # split girth time by the case of the link being searched
            self._stack[-1].name = _girth_name(args[0])
            self.count("girth_checker.links")
        result = fn(*args, **kwargs)
        if name == "poset_complex.derived_complex":
            self.count("poset_complex.chains", len(result.chains))
        elif name == "link_builder.develop":
            trunc = result.truncation
            self.count("link_builder.develop.vertices", result.vertex_count)
            self.count("link_builder.develop.requested", trunc.requested_radius)
            self.count("link_builder.develop.achieved", trunc.achieved_radius)
            self.count("link_builder.truncated", int(trunc.truncated))
        return result

    def install(self) -> None:
        """Patch every target at its defining module and at every module
        that imported it by name."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        for table, make in ((SPANS, self._span_wrapper), (COUNTS, self._count_wrapper)):
            for mod_name, attr, name in table:
                home = sys.modules[f"{PACKAGE}.{mod_name}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    self._patch(cls, meth, make(cls.__dict__[meth], name))
                    continue
                original = getattr(home, attr)
                wrapper = make(original, name)
                for mod in modules:
                    if mod.__dict__.get(attr) is original:
                        self._patch(mod, attr, wrapper)

    def _patch(self, owner: object, attr: str, wrapper: Callable) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def remove(self) -> None:
        """Restore every original and check that none of our wrappers is left."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        leftover = active_wrappers()
        if leftover:
            raise RuntimeError(f"trace wrappers still installed: {leftover}")

    def tree_doc(self) -> list[dict]:
        """Span tree aggregated by call path, parents before children."""
        return [
            {"path": list(path), "calls": s.calls, "total_s": s.total_s, "self_s": s.self_s}
            for path, s in sorted(self.tree.items())
        ]


def active_wrappers() -> list[str]:
    """Names of module attributes or class methods that are still wrappers
    defined in this file."""
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            targets = [(attr, value)]
            if isinstance(value, type) and value.__module__ == mod_name:
                targets += [(f"{attr}.{k}", v) for k, v in vars(value).items()]
            for name, obj in targets:
                code = getattr(obj, "__code__", None)
                if code is not None and code.co_filename == __file__:
                    found.append(f"{mod_name}.{name}")
    return found
