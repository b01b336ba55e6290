"""Host speed, sampled during the measured phase, to take host slow periods
out of the timings.

On a shared virtual machine the same pure-Python work runs up to 1.5x slower,
in bursts of under a second and in drifts over minutes, with no steal time
reported and with process CPU time slowed alike, so no statistic inside one
run removes it.  Fixed pure-Python loops (the probe) slow with it: an
arithmetic loop, then a loop that fills and scans a small dict with tuple
keys, as the engines do.  Over five seeds the sum of the two followed the
engines' slow periods more closely than either loop alone.  `HostSpeed` runs
the probe from a SIGALRM handler every PERIOD_S in the measuring process, so
it samples the host's speed during a long call, not only around it.  A timed
interval is then reported as

    normalised(a, b) = (b - a - probe time inside) * REF_S / local probe time

where the local probe time is the median of the probes started within PAD_S
of the interval.  That is the interval's length on a host where the probe
takes REF_S.  The probe runs in the same thread, between the program's
bytecodes, and is the benchmark's own code: the program cannot make it
faster or slower except through the host.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

REF_S = 0.005  # probe time that normalised timings are expressed at
PERIOD_S = 0.1  # one probe per period: about 5% of the phase
PAD_S = 0.5


def probe() -> float:
    """Time of the fixed pure-Python loops, in seconds: about 5 ms on a
    2-vCPU Xeon virtual machine.  The cyclic collector is off meanwhile, so
    the probe's tuples do not start a collection of the program's heap."""
    collecting = gc.isenabled()
    gc.disable()
    started = time.perf_counter()
    acc = 0
    for i in range(30_000):
        acc = (acc + i * i) % 1_000_003
    counts: dict[tuple[int, int, int], int] = {}
    for i in range(6_000):
        key = (i & 255, (i * 7) & 127, i % 5)
        counts[key] = counts.get(key, 0) + i
    for key, value in counts.items():
        acc ^= hash(key) + value
    elapsed = time.perf_counter() - started
    if collecting:
        gc.enable()
    return elapsed


def probe_median(repeats: int) -> float:
    return statistics.median(probe() for _ in range(repeats))


class HostSpeed:
    """Probes the host every PERIOD_S while active (a context manager);
    afterwards `net` and `normalised` turn intervals taken with
    `time.perf_counter()` during that time into timings."""

    def __init__(self):
        self.starts: list[float] = []
        self.probe_s: list[float] = []
        self._saved = None

    def _tick(self, signum, frame):
        started = time.perf_counter()
        self.probe_s.append(probe())
        self.starts.append(started)

    def __enter__(self):
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)
        if not self.probe_s:  # a phase shorter than one period
            self._tick(None, None)

    def net(self, a: float, b: float) -> float:
        """Length of [a, b] without the probes that ran inside it."""
        i, j = bisect.bisect_left(self.starts, a), bisect.bisect_left(self.starts, b)
        return b - a - sum(self.probe_s[i:j])

    def normalised(self, a: float, b: float) -> float:
        i = bisect.bisect_left(self.starts, a - PAD_S)
        j = bisect.bisect_left(self.starts, b + PAD_S)
        local = self.probe_s[i:j] or self.probe_s
        return self.net(a, b) * REF_S / statistics.median(local)
