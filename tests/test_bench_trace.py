"""The benchmark's layer trace still resolves every function it wraps."""
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


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
