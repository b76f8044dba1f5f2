"""Calibration of measured times against a fixed reference work.

The machine's speed drifts by more than the benchmark's bounds, so every
time is reported in seconds *at reference speed*: measured seconds times
``REF_S`` over the mean time of a fixed reference work timed while they
ran, or within ``REF_WINDOW`` seconds of it.  A :class:`Reference` runs one pass of that work every ``REF_EVERY``
seconds from an interval timer; the signal handler runs between two
bytecodes of whatever the process is doing, on the same CPU, so the passes
sample the speed the operations see.  The time of the passes that ran
inside an operation is taken off its measured time.

A CLI child runs through ``paced_cli.py``, which keeps its own
:class:`Reference` and dumps its passes for the parent to merge; the
parent's timer is paused meanwhile, so that its passes do not share the
CPU with the child.
"""

import bisect
import gc
import json
import signal
import statistics
from contextlib import contextmanager
from time import perf_counter

#: Seconds one pass of the reference work takes at reference speed, the
#: typical speed of the 2-vCPU machine of the README's reference figures.
REF_S = 0.005
#: Seconds between two reference passes.
REF_EVERY = 0.05
#: The passes that calibrate a measurement start at most this many seconds
#: before or after it (more, if none does).
REF_WINDOW = 0.25


def _reference_work():
    """Fixed interpreter work of the program's kind: integer arithmetic,
    dict updates and a sort."""
    table = {}
    for i in range(20000):
        key = (i * 7919) % 4099
        table[key] = table.get(key, 0) + i
    return max(sorted(table.values()))


def reference_pass():
    """Seconds one pass of the reference work takes now, with the collector
    off so that the program's heap does not weigh on it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = perf_counter()
        _reference_work()
        return perf_counter() - started
    finally:
        if enabled:
            gc.enable()


class Reference:
    """Reference passes run by an interval timer, kept as ``(start, seconds)``
    in order of start (``perf_counter`` is one clock for every process)."""

    def __init__(self):
        self.passes = []
        self.running = False

    def _on_alarm(self, signum, frame):
        started = perf_counter()
        self.passes.append((started, reference_pass()))

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY, REF_EVERY)
        self.running = True
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.running = False

    @contextmanager
    def paused(self):
        """No passes in this process meanwhile (while a child runs)."""
        if self.running:
            signal.setitimer(signal.ITIMER_REAL, 0)
        try:
            yield
        finally:
            if self.running:
                signal.setitimer(signal.ITIMER_REAL, REF_EVERY, REF_EVERY)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as out:
            json.dump(self.passes, out)

    def merge(self, path):
        """Adopt the passes a child dumped."""
        with open(path, encoding="utf-8") as f:
            for start, seconds in json.load(f):
                bisect.insort(self.passes, (start, seconds))

    def within(self, started, ended):
        """Seconds of the passes that started in ``[started, ended)``."""
        total = 0.0
        for start, seconds in reversed(self.passes):
            if start < started:
                break
            if start < ended:
                total += seconds
        return total

    def scale(self, started, ended):
        """The factor that turns seconds measured in ``[started, ended)`` into
        seconds at reference speed: REF_S over the mean pass that started
        within REF_WINDOW of that interval.  The window doubles until it
        holds a pass."""
        if not self.passes:  # the timer never fired
            self._on_alarm(None, None)
        margin = REF_WINDOW
        while True:
            low = bisect.bisect_left(self.passes, (started - margin,))
            high = bisect.bisect_left(self.passes, (ended + margin,))
            if high > low:
                return REF_S / statistics.fmean(t for _, t in self.passes[low:high])
            margin *= 2
