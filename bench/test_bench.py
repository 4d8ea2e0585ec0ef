"""Tests of the benchmark's own machinery: ``python3 -m pytest bench -q``."""
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import relartin.cli  # noqa: E402
from relartin import dihedral_garside, girth_checker, link_builder  # noqa: E402

import run  # noqa: E402
from instances import instance_text, make_instance, rel_violations  # noqa: E402
from layertrace import Tracer, active_wrappers  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from workloads import DEEP, WIDE, Call, fixture_calls  # noqa: E402

SHAPES = [shape for shape, _ in WIDE + DEEP]


def test_same_seed_same_instance_bytes():
    for shape in SHAPES:
        first = instance_text(make_instance(shape, 7)[0])
        assert instance_text(make_instance(shape, 7)[0]) == first
        assert instance_text(make_instance(shape, 8)[0]) != first


def test_bases_satisfy_rel_and_twins_violate_rel_prime():
    for seed in range(5):
        for shape in SHAPES:
            doc, planted = make_instance(shape, seed)
            rel, rel_prime = rel_violations(doc)
            if shape.twin:
                assert len(planted) == 2 and rel == rel_prime == planted
                a, b = planted
                assert a & b, "the planted label-3 inter-edges share a vertex"
            else:
                assert not planted and not rel and not rel_prime


def test_rel_violations_on_the_control_shape():
    doc = {
        "vertices": ["a", "b", "c"],
        "edges": [{"u": "a", "v": "b", "m": 3}, {"u": "b", "v": "c", "m": 3}],
        "family": [["b"], ["a", "c"]],
    }
    rel, rel_prime = rel_violations(doc)
    assert rel == rel_prime == {frozenset("ab"), frozenset("bc")}
    doc["edges"].pop()  # an isolated label-3 inter-edge breaks REL only
    assert rel_violations(doc) == ({frozenset("ab")}, set())


def test_self_time_on_a_toy_nested_call():
    ticks = iter([0.0, 2.0, 5.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))

    def inner():
        return "x"

    def outer():
        return tracer.span("inner", inner)

    assert tracer.span("outer", outer) == "x"
    stats = tracer.by_name()
    assert (stats["outer"].total_s, stats["outer"].self_s) == (10.0, 7.0)
    assert (stats["inner"].total_s, stats["inner"].self_s) == (3.0, 3.0)
    assert tracer.tree[("outer", "inner")].calls == 1
    assert sum(s.self_s for s in stats.values()) == stats["outer"].total_s


def test_wrappers_are_removed_after_a_traced_run(capsys):
    originals = (
        relartin.cli.main,
        girth_checker.shortest_embedded_cycle,
        girth_checker.build_link_empty,
        link_builder.develop_link_interedge,
        dihedral_garside.DihedralGroupCtx.__dict__["mult_gen"],
    )
    control = str(BENCH.parent / "fixtures" / "touching_triple_control.json")
    tracer = Tracer()
    tracer.install()
    try:
        assert girth_checker.build_link_empty is not originals[2]
        assert relartin.cli.main(["links", "--input", control]) == 2
    finally:
        tracer.remove()
    capsys.readouterr()
    assert active_wrappers() == []
    assert (
        relartin.cli.main,
        girth_checker.shortest_embedded_cycle,
        girth_checker.build_link_empty,
        link_builder.develop_link_interedge,
        dihedral_garside.DihedralGroupCtx.__dict__["mult_gen"],
    ) == originals
    stats = tracer.by_name()
    assert stats["cli"].calls == 1
    assert stats["girth_checker.development"].calls >= 1
    assert tracer.counters["girth_checker.links"] >= 3
    assert tracer.counters["dihedral_garside.mult_gen"] > 0
    assert abs(sum(s.self_s for s in stats.values()) - stats["cli"].total_s) < 1e-9


def test_gate_counts_a_wrong_verdict_as_failed():
    good = [c for c in fixture_calls(BENCH.parent / "fixtures") if c.subcommand == "check-rel"]
    wrong = Call(good[1].instance, "check-rel", good[1].argv, 0, good[1].check)
    with SpeedProbe() as probe:
        runner = run.Runner(relartin.cli, good + [wrong], probe, max_repeats=1)
        runner.run_pass()
        runner.run_pass()
    assert (runner.attempted, runner.failed) == (6, 2)
    assert runner.problems[2][0].startswith("exit 2, expected 0")
    assert all(len(row["stdout_sha256"]) == 64 for row in runner.report())


def test_reference_seconds_keep_an_extra_memory_cost():
    """A call that adds a large allocation to a fixed piece of work must
    keep its extra cost in reference seconds: the probe's samples taken
    during the heavier call must not be slower than those taken during
    the plain one, or the extra cost would be partly divided away."""

    def base():
        return sum(i * i for i in range(1_000_000))

    def heavier():
        # lists stay tracked by the garbage collector, unlike tuples of ints
        cells = [[i, str(i)] for i in range(400_000)]
        return base() + base() + len(cells)

    factors = []
    with SpeedProbe() as probe:
        for _ in range(9):
            _, raw_b, norm_b = probe.timed(base)
            _, raw_h, norm_h = probe.timed(heavier)
            assert raw_h > 2.5 * raw_b
            # reference seconds per second, heavier call over plain call
            factors.append((norm_h / raw_h) / (norm_b / raw_b))
    assert abs(statistics.median(factors) - 1) < 0.08
