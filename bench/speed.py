"""Machine-speed probe: times measured at one fixed CPU speed.

The CPU speed of a small shared machine drifts: the same call can take
half again as long for seconds or minutes at a time, and each CPU drifts
on its own.  Run medians then spread more than any useful regression bound.
So the benchmark times a fixed reference workload on the same CPU, close
in time to every call, and reports

    reference seconds = measured seconds * REFERENCE_NOMINAL_S / reference time

that is, the time the call would take on a machine where the reference
takes REFERENCE_NOMINAL_S.

``SpeedProbe`` takes its samples from a SIGALRM handler every
``INTERVAL_S`` while calls run, so a long call is normalised by the speed
seen during it rather than before it; the handler's own time is taken out
of the call's time.

The reference also reads a large list with a wide stride, so that it slows
down when memory is contended as well as when the CPU is, as relartin's
big chain and ball sets do; without those reads, the run-to-run spread of
``wide`` and ``deep`` roughly doubles.  The price is that relartin's own
memory traffic could slow the reference during a call and so hide part of
a memory-bound change.  Measured, it does not at the level of the noise:
with 0.4M to 1.5M objects allocated and scanned inside a call, reference
seconds per second stay within 5 % of a plain call's.
``test_reference_seconds_keep_an_extra_memory_cost`` holds this to 8 %.
"""
from __future__ import annotations

import gc
import signal
import statistics
import time

INTERVAL_S = 0.02
REFERENCE_ROUNDS = 1500
# the reference workload's time on an undisturbed 2.0 GHz Xeon vCPU
REFERENCE_NOMINAL_S = 0.0008
# about 8 MB of int objects, read with a large stride so that the reference
# also waits on memory
_POOL = list(range(1000, 201000))
_STRIDE = 104729
# samples taken just before a call that still count as "around" it
LEAD_SAMPLES = 4


def reference_loop() -> float:
    """Seconds taken by a fixed piece of tuple, frozenset and dict work plus
    scattered reads from a large list, the kind of work relartin does, with
    the garbage collector held off."""
    gc_was_on = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    table: dict = {}
    total = 0
    n = len(_POOL)
    for i in range(REFERENCE_ROUNDS):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + len(frozenset(key))
        if i % 3 == 0:
            table.pop(key, None)
        total += _POOL[i * _STRIDE % n]
    elapsed = time.perf_counter() - start
    if gc_was_on:
        gc.enable()
    return elapsed


class SpeedProbe:
    """Reference samples taken on a timer while the probe is active.

    ``samples`` holds the reference times; ``stolen_s`` is the total time
    spent inside the handler, to be subtracted from timed calls.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.stolen_s = 0.0
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        self.samples.append(reference_loop())
        self.stolen_s += time.perf_counter() - start

    def __enter__(self) -> "SpeedProbe":
        for _ in range(LEAD_SAMPLES):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def timed(self, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)``; return its result, its time in seconds without
        the handler's share, and that time in reference seconds."""
        first, stolen = len(self.samples), self.stolen_s
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        elapsed = time.perf_counter() - start - (self.stolen_s - stolen)
        window = self.samples[max(0, first - LEAD_SAMPLES):]
        return result, elapsed, elapsed * REFERENCE_NOMINAL_S / statistics.median(window)
