"""Timing in reference seconds, steady under a machine whose speed drifts.

On a shared VM the replay's wall time swings by up to 2x within a
minute as other tenants come and go, while process CPU time stays equal
to wall time: the noise is the machine's speed, not scheduling.  Longer
runs and medians do not remove it, because the slow stretches last
longer than a run, and one calibration per process cannot follow it.

So every timed step is accompanied by samples of a fixed calibration
loop: one just before, one just after, and one every ``SAMPLE_EVERY_S``
during the step, taken from a ``SIGALRM`` handler.  The samples' mean
slowdown against the reference is the machine's slowdown during the
step, and the step's wall time divided by it is the time the step would
take at reference speed.  Time spent in the handler is taken out of the
step's clock (``ReferenceClock.now``).

The loop is fixed pure Python shaped like a replay's inner work (a
dict-based LRU kept at 20k entries and a timestamp heap); it shares no
code with the program under test, so a change to the program cannot
move it.
"""

from __future__ import annotations

import signal
import statistics
import time
from heapq import heappop, heappush
from typing import Callable, List, Optional, Tuple, TypeVar

T = TypeVar("T")

#: Wall seconds of one calibration sample at a typical speed of the
#: 2-vCPU Xeon VM (CPython 3.11) the ledger was tuned on; reported
#: times are in these reference seconds.
REFERENCE_S = 0.013
SAMPLE_ITERATIONS = 5_000
SAMPLE_EVERY_S = 0.1


class _Calibration:
    """The calibration loop, resumable: its LRU stays full between
    samples, so each sample does the same steady-state work."""

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, int]] = []
        self._cache = {}
        self._seq = self._now = 0
        self._state = 12345
        self.sample(40_000)  # fill the LRU

    def sample(self, iterations: int = SAMPLE_ITERATIONS) -> float:
        """Wall seconds of ``iterations`` steps of the loop."""
        start = time.perf_counter()
        heap, cache = self._heap, self._cache
        seq, now, state = self._seq, self._now, self._state
        for index in range(iterations):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            key = state % 30_000
            if cache.pop(key, None) is None and len(cache) >= 20_000:
                del cache[next(iter(cache))]
            cache[key] = index
            seq += 1
            heappush(heap, (now + (state & 1023), seq, key))
            if len(heap) > 64:
                now = heappop(heap)[0]
        self._seq, self._now, self._state = seq, now, state
        return time.perf_counter() - start


class ReferenceClock:
    """Runs timed steps among calibration samples.

    Owns the process's ``SIGALRM`` handler from creation on.
    """

    def __init__(self) -> None:
        self._calibration = _Calibration()
        self._before = self._calibration.sample()
        self._sampling_s = 0.0
        #: the running step's samples; None between steps
        self._samples: Optional[List[float]] = None
        self.slowdowns: List[float] = []
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, _signum, _frame) -> None:
        if self._samples is None:
            return  # an alarm already pending when the step ended
        start = time.perf_counter()
        self._samples.append(self._calibration.sample())
        self._sampling_s += time.perf_counter() - start
        # One-shot timer, re-armed only here: samples never nest.
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S)

    def now(self) -> float:
        """``time.perf_counter()`` less the time spent sampling."""
        return time.perf_counter() - self._sampling_s

    def run(self, step: Callable[[], T], sample: bool = True) -> Tuple[T, float]:
        """Run ``step``; return its result and the machine's slowdown
        against reference while it ran (divide its times by it).

        Steps time themselves with :meth:`now`.  ``sample=False`` takes
        no samples during the step (for a profiled step, whose profile
        must hold only the program), just the two around it.
        """
        samples = [self._before]
        if sample:
            self._samples = samples
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S)
        try:
            out = step()
        finally:
            self._samples = None
            signal.setitimer(signal.ITIMER_REAL, 0)
        self._before = self._calibration.sample()
        samples.append(self._before)
        slowdown = statistics.mean(samples) / REFERENCE_S
        self.slowdowns.append(slowdown)
        return out, slowdown
