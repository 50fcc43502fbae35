"""The machine's speed, sampled while the benchmark runs.

The benchmark shares its host with other work, and the host's speed
drifts by tens of percent from one second to the next and by up to a
factor of two between minutes. A span of work timed alone therefore
says as much about the neighbours as about the program. So an interval
timer interrupts the benchmark every INTERVAL_S seconds of wall time to
run a fixed reference job, about a millisecond of the benchmark's own
oracle at work, and records how long the job took. A span is then
reported at the reference speed, the speed at which the reference job
takes REFERENCE_S: its time, with the sampler's own time left out, times
the machine's mean relative speed (REFERENCE_S over a sampled reference
time) over the samples taken during the span and WINDOW samples either
side of it. A sample taken while the process was descheduled reads as a
speed near 0, as it was.
"""

from __future__ import annotations

import random
import signal
import time
from typing import NamedTuple

import oracle

INTERVAL_S = 0.02
REFERENCE_S = 0.001
WINDOW = 5

_rng = random.Random(0)
REFERENCE_SEQUENTS = tuple(
    oracle.random_sequent(_rng, oracle.MONO, oracle.FO_ATOMS, True) for _ in range(18))


def reference_job():
    """Classical countermodel searches over fixed quantified sequents. The
    oracle allocates and recurses much as the program's evaluators do, so
    the job slows down with the machine much as the program does; a job of
    pure arithmetic and small dicts over-corrected by about 10% when the
    machine ran fast."""
    for seq in REFERENCE_SEQUENTS:
        oracle.first_classical_countermodel(seq, oracle.MONO, 2)


class Mark(NamedTuple):
    clock: float  # perf_counter
    paused: float  # seconds spent in the sampler so far
    samples: int  # reference samples taken so far

    @property
    def busy(self) -> float:
        return self.clock - self.paused


class Speedometer:
    """A context in which the reference job is sampled; mark() notes a
    point in time, and scaled(start, end) gives the seconds between two
    marks at the reference speed, once the context has closed."""

    def __init__(self):
        self.samples: list = []
        self.paused = 0.0
        self._sampling = False

    def _sample(self, signum, frame):
        if self._sampling:
            return
        self._sampling = True
        clock = time.perf_counter
        t0 = clock()
        reference_job()
        t1 = clock()
        self.samples.append(t1 - t0)
        self.paused += clock() - t0
        self._sampling = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> Mark:
        return Mark(time.perf_counter(), self.paused, len(self.samples))

    def scaled(self, start: Mark, end: Mark) -> float:
        near = self.samples[max(0, start.samples - WINDOW):end.samples + WINDOW]
        return (end.busy - start.busy) * sum(REFERENCE_S / t for t in near) / len(near)
