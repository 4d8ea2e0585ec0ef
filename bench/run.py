"""relartin benchmark: time to verdict per subcommand, with an outside layer trace.

    python3 bench/run.py --workload {fixtures,wide,deep} --seed N --seconds S --trace {0,1}

Runs the workload's call list (see ``workloads.py``) through
``relartin.cli.main`` in this process, pass after pass, until ``--seconds``
(counted from the start of the run, set-up included)
would be exceeded (two passes at least), and checks every call against the
answer its instance was built to have.  The last stdout line is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with traced ones, installing the wrappers of
``layertrace.py`` for each traced pass only, and reports the per-layer
metrics.  Per-call stdout digests go to ``.bench_work/results-*.json`` and the span tree to
``.bench_work/trace-*.json``; README.md lists every metric.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(BENCH))

from layertrace import Tracer, active_wrappers  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from workloads import SUBCOMMANDS, Call, build_calls  # noqa: E402

SETUP_SAMPLES = 7
MIN_PASSES = 2
MIN_CALL_S = 0.5
MAX_REPEATS = 5

# per-layer metrics of the traced run: name -> (unit, how to read it off a
# pass snapshot); see README.md for which end-to-end metric each should move
LAYER_METRICS = {
    "defining_graph.inter_edges.calls": ("count", lambda s: s.counter("defining_graph.inter_edges")),
    "defining_graph.classify_known.self_s": ("s", lambda s: s.self_s("defining_graph.classify_known")),
    "coxeter.spherical_subsets.calls": ("count", lambda s: s.calls("coxeter.spherical_subsets")),
    "coxeter.spherical_subsets.self_s": ("s", lambda s: s.self_s("coxeter.spherical_subsets")),
    "coxeter.classify_type.calls": ("count", lambda s: s.counter("coxeter.classify_type")),
    "poset_complex.derived_complex.self_s": ("s", lambda s: s.self_s("poset_complex.derived_complex")),
    "poset_complex.chains": ("count", lambda s: s.counter("poset_complex.chains")),
    "poset_complex.maximal_chains.self_s": ("s", lambda s: s.self_s("poset_complex.maximal_chains")),
    "poset_complex.retraction_map.self_s": ("s", lambda s: s.self_s("poset_complex.retraction_map")),
    "poset_complex.disjoint_inter_edges.calls": ("count", lambda s: s.counter("poset_complex.disjoint_inter_edges")),
    "link_builder.develop.self_s": ("s", lambda s: s.self_s("link_builder.develop")),
    "link_builder.develop.calls": ("count", lambda s: s.calls("link_builder.develop")),
    "link_builder.develop.vertices": ("count", lambda s: s.counter("link_builder.develop.vertices")),
    "link_builder.empty.self_s": ("s", lambda s: s.self_s("link_builder.empty")),
    "link_builder.depth_ratio": ("ratio", lambda s: s.depth_ratio()),
    "link_builder.truncated": ("count", lambda s: s.counter("link_builder.truncated")),
    "dihedral_garside.mult_gen.calls": ("count", lambda s: s.counter("dihedral_garside.mult_gen")),
    "dihedral_garside.ball_levels.self_s": ("s", lambda s: s.self_s("dihedral_garside.ball_levels")),
    "dihedral_garside.coset_rep.self_s": ("s", lambda s: s.self_s("dihedral_garside.coset_rep")),
    "girth_checker.development.self_s": ("s", lambda s: s.self_s("girth_checker.development")),
    "girth_checker.empty.self_s": ("s", lambda s: s.self_s("girth_checker.empty")),
    "girth_checker.single.self_s": ("s", lambda s: s.self_s("girth_checker.single")),
    "girth_checker.links.calls": ("count", lambda s: s.counter("girth_checker.links")),
    "kpi1_checker.audit_family.self_s": ("s", lambda s: s.self_s("kpi1_checker.audit_family")),
    "kpi1_checker.crossing.self_s": ("s", lambda s: s.self_s("kpi1_checker.crossing")),
    "acyl_checker.orbit_growth.self_s": ("s", lambda s: s.self_s("acyl_checker.orbit_growth")),
    "cli.self_s": ("s", lambda s: s.self_s("cli")),
    "cli.stdout_bytes": ("bytes", lambda s: s.stdout_bytes),
    "trace.wall_s": ("s", lambda s: s.wall_s),
    "trace.unattributed_s": ("s", lambda s: s.wall_s - s.self_total),
}


class PassSnapshot:
    """What one traced pass left in the tracer, plus its call times."""

    def __init__(self, tracer: Tracer, done: "Pass"):
        self.stats = {k: (v.calls, v.self_s) for k, v in tracer.by_name().items()}
        self.counters = dict(tracer.counters)
        self.wall_s = sum(done.raw) + done.probe_s
        self.stdout_bytes = done.stdout_bytes
        self.self_total = sum(self_s for _, self_s in self.stats.values())

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0))[0]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0))[1]

    def counter(self, name: str) -> float:
        return self.counters.get(name, 0)

    def depth_ratio(self) -> float:
        requested = self.counter("link_builder.develop.requested")
        return self.counter("link_builder.develop.achieved") / requested if requested else 0.0


def measure_setup(probe: SpeedProbe) -> tuple[float, float]:
    """Median time for a fresh interpreter to import relartin.cli, in
    reference seconds and in seconds."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import relartin.cli"]
    subprocess.run(cmd, env=env, check=True, timeout=60)  # writes the bytecode cache
    raw, norm = [], []
    for _ in range(SETUP_SAMPLES):
        _, elapsed, reference = probe.timed(subprocess.run, cmd, env=env, check=True, timeout=60)
        raw.append(elapsed)
        norm.append(reference)
    return statistics.median(norm), statistics.median(raw)


def run_call(cli, call: Call) -> tuple[int | None, str, str]:
    """One in-process invocation with stdout and stderr captured; a raised
    exception is returned as the stderr text with exit code None."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(call.argv))
    except Exception:  # a raising call is a failed call, not a crashed run
        code = None
        err.write(traceback.format_exc(limit=3))
    return code, out.getvalue(), err.getvalue()


class Runner:
    """Runs passes over a call list and keeps the correctness gate.

    ``raw[i]`` and ``norm[i]`` hold call i's latency in every run of it so
    far, in seconds and in reference seconds.
    """

    def __init__(self, cli, calls: list[Call], probe: SpeedProbe, max_repeats: int = MAX_REPEATS):
        self.cli = cli
        self.calls = calls
        self.probe = probe
        self.max_repeats = max_repeats
        self.digests: list[str | None] = [None] * len(calls)
        self.raw: list[list[float]] = [[] for _ in calls]
        self.norm: list[list[float]] = [[] for _ in calls]
        self.problems: list[list[str]] = [[] for _ in calls]
        self.attempted = 0
        self.failed = 0

    def run_pass(self) -> Pass:
        """One pass over the call list.  A short call is repeated, up to
        ``max_repeats`` times, until it has been timed for MIN_CALL_S, so
        that its median rests on more than one sample per pass."""
        done = Pass()
        for i, call in enumerate(self.calls):
            start = len(self.norm[i])
            while len(self.norm[i]) == start or (
                len(self.norm[i]) - start < self.max_repeats and sum(self.raw[i][start:]) < MIN_CALL_S
            ):
                # start each call from a collected heap, as a fresh CLI
                # process would, so one call's garbage is not charged to the next
                gc.collect()
                stolen = self.probe.stolen_s
                (code, out, err), elapsed, norm = self.probe.timed(run_call, self.cli, call)
                done.probe_s += self.probe.stolen_s - stolen
                self.raw[i].append(elapsed)
                self.norm[i].append(norm)
                self.attempted += 1
                problem = self._gate(i, call, code, out, err)
                if problem:
                    self.failed += 1
                    self.problems[i].append(problem)
            done.raw.append(statistics.median(self.raw[i][start:]))
            done.norm.append(statistics.median(self.norm[i][start:]))
            done.stdout_bytes += len(out.encode())
        return done

    def _gate(self, i: int, call: Call, code: int | None, out: str, err: str) -> str | None:
        digest = hashlib.sha256(out.encode()).hexdigest()
        if self.digests[i] is None:
            self.digests[i] = digest
        elif self.digests[i] != digest:
            return "stdout differs from the first run of the call"
        if code != call.exit_code:
            return f"exit {code}, expected {call.exit_code}: {err.strip()[-500:]}"
        return call.check(out)

    def report(self) -> list[dict]:
        return [
            {
                "call": call.name,
                "expected_exit": call.exit_code,
                "stdout_sha256": self.digests[i],
                "seconds": self.raw[i],
                "reference_seconds": self.norm[i],
                "problems": self.problems[i],
            }
            for i, call in enumerate(self.calls)
        ]


@dataclass
class Pass:
    """Per-call latencies of one pass, raw and in reference seconds."""

    raw: list[float] = field(default_factory=list)
    norm: list[float] = field(default_factory=list)
    stdout_bytes: int = 0
    # time the speed probe took inside the pass's calls; spans include it
    probe_s: float = 0.0


def out_of_time(run_start: float, rounds_start: float, rounds: int, seconds: float) -> bool:
    """Whether one more round, as long as the mean of the ``rounds`` since
    ``rounds_start``, would end more than ``seconds`` after ``run_start``."""
    now = time.perf_counter()
    return now - run_start + (now - rounds_start) / rounds > seconds


def run_passes(runner: Runner, run_start: float, seconds: float) -> None:
    """Passes until the next one would end too late, MIN_PASSES at least."""
    start = time.perf_counter()
    passes = 0
    while True:
        runner.run_pass()
        passes += 1
        if passes >= MIN_PASSES and out_of_time(run_start, start, passes, seconds):
            return


def end_to_end(runner: Runner, setup_s: float) -> dict:
    """Each call's low median latency over its runs, in reference seconds,
    summed over the whole list (wall_s) and per subcommand.  The low median
    (the lower middle value of an even count) keeps one disturbed run out
    of a call that only fits twice in a run."""
    per_call = [statistics.median_low(n) for n in runner.norm]
    metrics = {"setup_s": (setup_s, "s"), "wall_s": (sum(per_call), "s")}
    for sub in SUBCOMMANDS:
        if sub == "check-rel":
            continue  # too small to time alone; counts in wall_s
        times = [t for t, c in zip(per_call, runner.calls) if c.subcommand == sub]
        if not times:
            raise RuntimeError(f"workload runs no {sub} call")
        metrics[f"{sub}_s"] = (sum(times), "s")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    return metrics


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def traced(runner: Runner, run_start: float, seconds: float, tag: str) -> dict:
    """Untraced and traced passes in turn, one pair at least; per-layer
    medians over the traced passes.  Self times are raw seconds; the
    overhead is the median ratio of a traced pass to the untraced pass
    just before it, both in reference seconds."""
    tracer = Tracer()
    snapshots: list[PassSnapshot] = []
    ratios: list[float] = []
    start = time.perf_counter()
    while True:
        untraced = sum(runner.run_pass().norm)
        tracer.install()
        try:
            done = runner.run_pass()
        finally:
            tracer.remove()
        snapshots.append(PassSnapshot(tracer, done))
        ratios.append(sum(done.norm) / untraced)
        tree = tracer.tree_doc()
        tracer.reset()
        if out_of_time(run_start, start, len(ratios), seconds):
            break
    if active_wrappers():
        raise RuntimeError("trace wrappers left installed")
    (WORK / f"trace-{tag}.json").write_text(json.dumps(tree, indent=1))
    metrics = {
        name: (statistics.median(read(s) for s in snapshots), unit)
        for name, (unit, read) in LAYER_METRICS.items()
    }
    metrics["trace.overhead_ratio"] = (statistics.median(ratios), "ratio")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("fixtures", "wide", "deep"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    run_start = time.perf_counter()

    if not (SRC / "relartin" / "cli.py").is_file() or not (ROOT / "fixtures").is_dir():
        sys.stderr.write(f"error: {ROOT} holds no relartin source tree to benchmark\n")
        return 2
    sys.path.insert(0, str(SRC))
    from relartin import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        sys.stderr.write(f"error: imported relartin from {cli.__file__}, not from {SRC}\n")
        return 2

    WORK.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    calls = build_calls(args.workload, args.seed, ROOT, WORK / "instances" / f"{args.workload}-seed{args.seed}")
    # one CPU for this process and the interpreters it starts, so that the
    # speed probe samples the CPU the timed work runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    extra = {"rss_before_calls_mb": peak_rss_mb()}
    with SpeedProbe() as probe:
        # a traced pass runs each call once, so its spans add up to the pass
        runner = Runner(cli, calls, probe, max_repeats=1 if args.trace else MAX_REPEATS)
        if args.trace:
            metrics = traced(runner, run_start, args.seconds, tag)
        else:
            setup_s, extra["setup_raw_s"] = measure_setup(probe)
            run_passes(runner, run_start, args.seconds)
            metrics = end_to_end(runner, setup_s)
    extra["run_s"] = time.perf_counter() - run_start

    report = {"calls": runner.report(), "reference_samples": probe.samples, **extra}
    (WORK / f"results-{tag}.json").write_text(json.dumps(report, indent=1))
    for row in report["calls"]:
        if row["problems"]:
            sys.stderr.write(f"FAILED {row['call']}: {row['problems'][0]}\n")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
