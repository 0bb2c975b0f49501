"""Host-speed meter that puts the benchmark's timings on one scale.

The benchmark runs on shared hosts whose speed drifts by a third or more
within a minute, and swings by a fifth from one second to the next, as
neighbours come and go; a run that happens to fall in a slow stretch
then reads a third slower with no change in the program.  So every
timing is taken together with a probe: a fixed piece of pure-Python
work, which imports nothing from the analyzer.  The probe runs just
before and just after each timed region and, for regions longer than
``INTERVAL``, every ``INTERVAL`` seconds inside it, from a ``SIGALRM``
handler.  Each probe gives the host's *slowness*, its time as a multiple
of its time on the reference host.  A timing is reported in reference
seconds::

    reference_s = (wall_s - time spent in probes) / mean(slowness samples)

that is, the time the region would have taken on the reference host.  A
change to the analyzer moves the timed region and not the probe, so it
shows in full; a change in host speed moves both and cancels.  The probe
is not fully independent of the analyzer: run inside a region it reads
about a tenth slower than between regions, by an amount that differs a
few percent from program to program, so a change that alters the
analyzer's cache footprint can move the scale by that much.  Wall times
are reported beside the scaled ones.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from itertools import repeat

#: The probe parts' median times on the 2-vCPU x86_64 Xeon (KVM) host,
#: Python 3.11.7, where the baseline in ``BENCH_1.json`` was recorded.
MIXED_REFERENCE_S = 0.0012
TIGHT_REFERENCE_S = 0.00043

REPEATS = 5  # probes between regions; their median is kept
INTERVAL = 0.05  # seconds between probes inside a region


class _Node:
    __slots__ = ("key", "payload")

    def __init__(self, key, payload):
        self.key = key
        self.payload = payload


def _mixed() -> float:
    """Integer arithmetic plus object, tuple and dict churn, the
    analyzer's kind of work."""
    start = time.perf_counter()
    total = 0
    for i in range(10_000):
        total += i * i % 7
    table = {}
    for i in range(1000):
        node = _Node(i, (i, str(i)))
        table[(i, node.payload)] = [node, node.key]
    return time.perf_counter() - start


def _tight() -> float:
    """Interpreter dispatch alone: no allocation, so the analyzer's heap
    does not change its cost."""
    start = time.perf_counter()
    x = 0
    for _ in repeat(None, 20_000):
        x = (x + 3) & 127
    return time.perf_counter() - start


def slowness() -> float:
    """The probe's time now as a multiple of its time on the reference
    host, with the collector off so the analyzer's heap does not add a
    collection to the probe's work."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return (_mixed() / MIXED_REFERENCE_S + _tight() / TIGHT_REFERENCE_S) / 2
    finally:
        if enabled:
            gc.enable()


def probe() -> float:
    """Slowness between timed regions: the median of a few probes, so
    one interrupt does not skew it."""
    return statistics.median(slowness() for _ in range(REPEATS))


def scale(*samples: float) -> float:
    """Factor from wall seconds to reference seconds, given the slowness
    samples taken around and inside the timed region."""
    return 1 / statistics.fmean(samples)


class Meter:
    """Times one region and samples the host's slowness inside it.

    ``seconds`` is the region's wall time less the time the probes
    inside it took; ``samples`` holds their slowness readings.  With
    ``sample=False`` no probe runs inside the region.
    """

    def __init__(self, sample: bool = True):
        self.sample = sample
        self.samples: list[float] = []
        self.seconds = 0.0
        self._in_probes = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(slowness())
        self._in_probes += time.perf_counter() - start

    def __enter__(self) -> "Meter":
        self._start = time.perf_counter()
        if self.sample:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self.seconds = time.perf_counter() - self._start - self._in_probes

    def reference_seconds(self, before: float, after: float) -> float:
        """The region's time in reference seconds, given the slowness
        probed just before and just after it."""
        return self.seconds * scale(before, *self.samples, after)
