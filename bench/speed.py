"""Machine-speed probe: a fixed reference kernel timed from an interval
timer while the commands run, and command times rescaled to one speed.

The benchmark runs on a few cores of a shared host whose speed is not
constant.  A fixed pure-Python loop, timed once a second for five minutes
on a 2-vCPU VM, switched between about 2.7 ms and 5.2 ms in phases of a
second to a minute, with no steal time and with CPU time equal to wall
time.  A run of 20 s lands in any mixture of the two, so raw wall times of
the same work spread by 25% and more from run to run.

The probe runs the kernel every ``PERIOD_S`` seconds from ``SIGALRM``, in
the benchmark's own thread, between two bytecodes of whatever runs then.
Each reading tells how fast the machine is at that moment, on the same
CPU and in the middle of a command as well as between commands.
``SpeedProbe.scaled`` turns an interval of wall time into the time it
would have taken at the speed where the kernel takes ``REFERENCE_S``: each
stretch between two readings is scaled by the mean of those readings, and
the probe's own time is left out.  The kernel is unrelated to the program,
so a change to the program does not move the scale.
"""

from __future__ import annotations

import signal
from bisect import bisect_left
from time import perf_counter

import numpy as np

PERIOD_S = 0.02
# The kernel's time in the faster of the two phases on the machine above;
# scaled times are seconds at that speed.
REFERENCE_S = 6e-4

_ARRAY = np.random.default_rng(0).random((16, 1024))


def kernel():
    """Fixed work of the kinds the workloads do: interpreted Python
    (strings, a dict, float arithmetic), many small tuples built and
    formatted as the CSV writers do, and whole-array numpy passes."""
    table, acc = {}, 0.0
    for i in range(300):
        key = f"{i}:{i * 0.5:.3f}"
        table[key] = len(key)
        acc += (i % 7) * 0.25
    rows = [(i, i * 0.37, i % 3 == 0) for i in range(300)]
    text = "\n".join(",".join((str(a), repr(b), "1" if c else "0")) for a, b, c in rows)
    m = _ARRAY * 1.5 + 0.25
    return acc + len(text) + float((m.argmax(axis=0) + (m > 1.0).sum(axis=0)).sum())


class SpeedProbe:
    """Readings ``(start, seconds)`` of the kernel, taken while started."""

    def __init__(self):
        self.starts, self.times = [], []
        self._busy = False
        self._previous = None

    def _sample(self, signum, frame):
        if self._busy:  # a signal that arrives during a reading is dropped
            return
        self._busy = True
        start = perf_counter()
        kernel()
        self.times.append(perf_counter() - start)
        self.starts.append(start)
        self._busy = False

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        if self._previous is not None:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def scaled(self, start, end):
        """Seconds that the wall interval ``[start, end]`` would have taken
        at the reference speed, without the readings taken inside it."""
        starts, times = self.starts, self.times
        if not times:
            raise RuntimeError("the speed probe took no readings")
        i, j = bisect_left(starts, start), bisect_left(starts, end)
        before = times[max(i - 1, 0)]
        total, cur = 0.0, start
        for k in range(i, j):
            total += (starts[k] - cur) * 2.0 / (before + times[k])
            before, cur = times[k], starts[k] + times[k]
        after = times[j] if j < len(times) else before
        total += max(end - cur, 0.0) * 2.0 / (before + after)
        return total * REFERENCE_S
