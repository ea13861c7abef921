"""Host-speed probe interleaved with the measured work.

The machines this benchmark runs on share their cores with other tenants,
and the speed a process gets drifts by a third or more within seconds,
while its CPU time keeps pace with wall time.  No statistic over whole
samples removes that, so every search sample runs with this probe: a
CPU-time interval timer interrupts each working process every PERIOD_S of
CPU time and times a fixed piece of pure-Python work.  The speed the host
gave the sample is the mean over its probes of REF_US / probe time, taken
on the same cores over exactly the sample's CPU time.  Work done is speed
integrated over time, so

    rate at reference speed = measured rate / mean speed
    time at reference speed = measured time * mean speed

that is, the probe times enter through their harmonic mean.  Forked search
workers restart the timer after the fork and write into their own slot of
a shared mapping, so a workers=2 sample is normalized by the probes of the
processes that did its work.  The probe costs about 1% of CPU time, the
same share on every commit.
"""

import mmap
import os
import signal
import time

PERIOD_S = 0.025
REF_US = 250.0
SLOTS = 16

_DATA = [tuple(range(i, i + 5)) for i in range(30)]


def _snippet():
    """Tuples, sets, generator expressions and calls, as in the library."""
    out = set()
    for a in _DATA:
        for b in _DATA[:8]:
            out.add(tuple(x + y for x, y in zip(a, b)))
    return len(out)


class Probe:
    def __init__(self):
        # an anonymous shared mapping: forked workers write where we read
        self._sums = memoryview(mmap.mmap(-1, 16 * SLOTS)).cast("d")
        self._slot = 0
        self._next = 1
        os.register_at_fork(before=self._before_fork, after_in_child=self._after_fork)
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def _sample(self, *_):
        t = time.perf_counter_ns()
        _snippet()
        dt = time.perf_counter_ns() - t
        i = 2 * self._slot
        self._sums[i] += REF_US * 1e3 / dt
        self._sums[i + 1] += 1

    def _before_fork(self):
        self._next += 1

    def _after_fork(self):
        self._slot = (self._next - 1) % SLOTS
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self):
        """Stop probing; return (mean speed relative to REF_US, probe count)."""
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        if not any(self._sums[1::2]):
            self._sample()  # a sample too short for the timer to fire
        count = int(sum(self._sums[1::2]))
        return sum(self._sums[0::2]) / count, count
