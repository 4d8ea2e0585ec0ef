"""The benchmark's layer trace still resolves every function it wraps."""
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
JOIN = str(ROOT / "fixtures" / "affine_parts_join.json")


def test_layer_trace_installs_and_removes(monkeypatch):
    # bench/layertrace.py wraps functions by (module, attribute) name, so a
    # rename in src/ fails here instead of in a traced benchmark run
    monkeypatch.syspath_prepend(str(BENCH))
    import layertrace

    tracer = layertrace.Tracer()
    try:
        tracer.install()
        assert tracer._patches
    finally:
        tracer.remove()
    assert layertrace.active_wrappers() == []


def test_traced_build_reads_the_poset_layer(monkeypatch, capsys):
    # build lists the S^l chains on its json path, so the benchmark's
    # per-layer view of it reads the derived_complex span and the chain count
    monkeypatch.syspath_prepend(str(BENCH))
    import layertrace
    from relartin import cli

    tracer = layertrace.Tracer()
    tracer.install()
    try:
        assert cli.main(["build", "--input", JOIN, "--format", "json"]) == 0
    finally:
        tracer.remove()
    assert layertrace.active_wrappers() == []
    assert capsys.readouterr().err == ""
    span = tracer.by_name()["poset_complex.derived_complex"]
    assert span.calls == 1 and span.self_s > 0
    # 27 elements, 66 covers and 40 triangles of the join's S^l
    assert tracer.counters["poset_complex.chains"] == 133
