"""Host speed probe: express measured times at a fixed reference speed.

The benchmark runs on a few cores of a shared host whose speed is not its
own: a pure-Python loop timed back to back runs either at about full speed
or at about half of it, switching within milliseconds, and the share of
slow time drifts over minutes, so a batch's wall time moves by up to 1.6x.
CPU time tracks wall time, so the drift is the processor's own throughput.
A time measured in a slow minute would read as a regression of the program.

To keep the program's speed apart from the host's, a `Probe` times a fixed
pure-Python loop next to the work.  The loop uses no srlab code, so a
change to srlab cannot move it.  Its duration over the reference duration
is the host's slowness at that moment.  Probes run

- between samples (`tick`), for workloads of many short samples, where the
  slowness must be read within milliseconds of the sample, and
- on a wall-clock period (SIGALRM), for long samples.

`Probe.scaled(a, b)` is the work done in [a, b]: the wall time outside the
probes, each stretch between two probes divided by the slowness those
probes show.  The result is seconds at the reference speed.  The raw wall
times are reported next to it.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

# Probe loop time per iteration at the reference speed: about the loop's
# back-to-back minimum on a 2-vCPU x86-64 VM under Python 3.11.  It only
# fixes the unit; any constant gives equally steady figures.
REFERENCE_PER_ITER_S = 0.5e-6
# Periodic probes: a 2.5 ms loop every 200 ms (about 1% of the run); the
# slowness of a stretch is the median of the two probes around it and
# one more on each side.
PERIODIC_ITERS = 5000
PERIOD_S = 0.2
PERIODIC_HALF_WINDOW = 1
# Probes between samples: a 0.15 ms loop, and each stretch takes the
# mean of the two probes that bracket it.
TICK_ITERS = 300


def probe_loop(iters: int) -> int:
    """A fixed mix of the work pure-Python code does: small-int arithmetic,
    tuples, dict lookups and updates, list appends and short sorts."""
    table: dict[tuple[int, int], int] = {}
    acc = 0
    for i in range(iters):
        key = (i % 17, (i * 7) % 11)
        table[key] = table.get(key, 0) + i
        row = [(i * 3) % 5, i % 7, (i * 5) % 3]
        row.sort()
        acc += row[0] - row[-1] + len(table)
    return acc


def probe_once(iters: int) -> tuple[float, float, float]:
    """(start, end, slowness) of one probe; the collector stays out of it."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    probe_loop(iters)
    t1 = time.perf_counter()
    if enabled:
        gc.enable()
    return t0, t1, (t1 - t0) / (iters * REFERENCE_PER_ITER_S)


def slowness(count: int) -> float:
    """The host's current slowness from `count` back-to-back probes."""
    return statistics.median(probe_once(PERIODIC_ITERS)[2] for _ in range(count))


class Probe:
    """Probes taken while a workload runs in the main thread."""

    def __init__(self, periodic: bool) -> None:
        self.periodic = periodic
        self.iters = PERIODIC_ITERS if periodic else TICK_ITERS
        self.half_window = PERIODIC_HALF_WINDOW if periodic else 0
        self.marks: list[tuple[float, float, float]] = []

    def tick(self) -> None:
        self.marks.append(probe_once(self.iters))

    def _on_alarm(self, signum, frame) -> None:
        self.tick()

    def start(self) -> None:
        self.tick()
        if self.periodic:
            signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        if self.periodic:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.tick()
        self._prepare()

    def _prepare(self) -> None:
        marks, h = self.marks, self.half_window
        slow = [s for _, _, s in marks]
        self.local = [statistics.median(slow[max(0, k - h): k + h + 1]) for k in range(len(slow))]
        # Work stretches: before the first probe, between probes, after the
        # last one; each with the slowness of the probes around it.
        self.edges = [(float("-inf"), marks[0][0], self.local[0])]
        for k in range(len(marks) - 1):
            factor = (self.local[k] + self.local[k + 1]) / 2
            self.edges.append((marks[k][1], marks[k + 1][0], factor))
        self.edges.append((marks[-1][1], float("inf"), self.local[-1]))
        self.starts = [lo for lo, _, _ in self.edges]

    def mean_slowness(self) -> float:
        return statistics.fmean(self.local)

    def scaled(self, a: float, b: float) -> float:
        """Seconds at the reference speed of the work done in [a, b]."""
        total = 0.0
        k = max(0, bisect.bisect_right(self.starts, a) - 1)
        while k < len(self.edges):
            lo, hi, factor = self.edges[k]
            if lo >= b:
                break
            overlap = min(hi, b) - max(lo, a)
            if overlap > 0:
                total += overlap / factor
            k += 1
        return total
