"""Host-speed probe that puts measured times on a fixed reference speed.

The machines this benchmark runs on share their cores with other tenants.
Their speed drifts by a third or more for tens of seconds to minutes at a
time, and the drift slows all pure-Python code alike: two different engine
workloads measured back to back kept their time ratio within about 6%
while each of them swung by about 25%.  So every worker measures a fixed
pure-Python loop (Fractions, tuple-keyed dicts, bit operations -- the
engine's own mix) right after its set-up, after every job and, from a
``SIGALRM`` timer, every ``INTERVAL_S`` during a job, all on the one CPU
it is pinned to.  Each time is scaled by ``REFERENCE_S / probe``: seconds
at the speed where the loop takes ``REFERENCE_S``.  The raw wall times are
reported next to the scaled ones.

The probe runs with the cyclic garbage collector off, so the engine's heap
does not change its cost, and the time spent in probes during a job is
taken out of that job's time.
"""

from __future__ import annotations

import gc
import os
import signal
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.010   # about the probe time on a 2.1 GHz Xeon vCPU, Python 3.11
REPS = 3              # loop runs per probe between jobs (median taken)
INTERVAL_S = 0.5      # one loop run every INTERVAL_S during a job


def pin_to_one_cpu():
    """Keep this process (probe and jobs alike) on a single CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _loop():
    table = {}
    acc = Fraction(0)
    for i in range(1, 2200):
        key = (i & 7, i % 13)
        table[key] = table.get(key, 0) ^ (i * i)
        acc += Fraction(i % 7 - 3, i % 5 + 1)
    return acc, table


def probe(reps: int = REPS) -> float:
    """Median seconds of ``reps`` runs of the fixed loop."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(reps):
            start = time.perf_counter()
            _loop()
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


class Monitor:
    """Probes once every ``INTERVAL_S`` while the ``with`` block runs.

    ``samples`` holds the probe times and ``paused`` the wall time the
    probes took, which the caller subtracts from the block's time.
    """

    def __init__(self):
        self.samples = []
        self.paused = 0.0

    def _tick(self, _signum, _frame):
        start = time.perf_counter()
        self.samples.append(probe(reps=1))
        self.paused += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def scale(seconds: float, probe_s: float) -> float:
    """``seconds`` measured at probe time ``probe_s``, in reference seconds."""
    return seconds * REFERENCE_S / probe_s
