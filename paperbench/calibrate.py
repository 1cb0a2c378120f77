"""Host-speed calibration: a fixed loop timed while the workload runs.

On a shared host the same process runs faster or slower by a fifth from
one second to the next (other tenants on the same cores), in CPU time as
much as in wall time.  A fixed pure-Python loop slows with it.  While an
iteration is timed, a ``Sampler`` runs that loop from a timer signal
every ``PERIOD_S`` seconds, so the probes are spread over the iteration
they describe.  The benchmark subtracts the time spent in the probes and
scales what is left to a host on which one probe takes ``REFERENCE_S``::

    normalised = (wall - probing) * REFERENCE_S / mean(probe times)

The raw seconds are kept next to the normalised ones in every result
record.  The probe uses only the standard library.
"""

from __future__ import annotations

import signal
import time
from typing import List, Tuple

#: Seconds one probe takes on the reference host (about the median on
#: the 2-core Xeon VM the benchmark was tuned on).  Only a scale:
#: changing it scales every normalised time by the same factor.
REFERENCE_S = 0.00225

#: Loop length of one probe, and seconds between probes.
LOOP = 25_000
PERIOD_S = 0.05


def _loop(n: int) -> int:
    acc = 0
    for i in range(n):
        acc += i * i & 7
    return acc


class Sampler:
    """Times one probe on every ``SIGALRM`` of an interval timer.

    The handler runs in the main thread between two bytecodes of
    whatever code is running, so the probes interleave with the
    workload.  ``times`` holds every probe's duration and ``paused`` the
    seconds spent in the handler, which the caller takes off its timings.
    """

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.times: List[float] = []
        self.paused = 0.0
        self.running = False

    def _handler(self, signum, frame) -> None:
        if not self.running:  # a signal raised just before stop()
            return
        start = time.perf_counter()
        _loop(LOOP)
        end = time.perf_counter()
        self.times.append(end - start)
        self.paused += time.perf_counter() - start

    def start(self) -> "Sampler":
        self.running = True
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def stop(self) -> None:
        """Stop the timer (idempotent).  The handler stays installed and
        ignores a signal that was already on its way."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self.running = False

    def mark(self) -> Tuple[int, float]:
        return len(self.times), self.paused

    def since(self, mark: Tuple[int, float]) -> Tuple[List[float], float]:
        """Probe times and paused seconds since ``mark``."""
        count, paused = mark
        return self.times[count:], self.paused - paused


def scale(seconds: float, probe_s: float) -> float:
    """``seconds`` as they would read on the reference host."""
    return seconds * REFERENCE_S / probe_s
