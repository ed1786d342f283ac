"""The host's speed, sampled inside a timed process.

The benchmark runs on shared machines whose speed changes under it: the
same fixed work takes up to twice as long for seconds to minutes at a
time, on either core, for pure Python and numpy code alike. Raw times of
one workload then spread across runs by far more than any change to the
program would move them.

So every timed process samples its own speed. A SIGALRM handler runs one
fixed unit of work (`Probe.unit`: string and dictionary work over a few
thousand words, and row gathers from a 4 MB table) every PERIOD_S
seconds, and once more just before and just after each task. A task's
time is then scaled to a host of reference speed, one on which `Probe.unit`
takes REF_UNIT_S:

    scaled = (raw - time spent in the probe) * REF_UNIT_S * mean(1 / d)

where d are the unit's durations sampled over the task. Since the samples
are spread evenly over the task's wall time, REF_UNIT_S * mean(1 / d) is
the task's mean speed relative to the reference host. The probe costs
about 3-5% of the task's time, and that time is taken out before scaling.
"""

from __future__ import annotations

import signal
import statistics
import sys
from time import perf_counter

import numpy as np

PERIOD_S = 0.05
# Duration of `Probe.unit`, run amid the program's work, on the reference host.
# A round figure: scaled times are only compared with scaled times.
REF_UNIT_S = 0.001

class Probe:
    """Samples the duration of one fixed unit of work in this process, on
    a timer and on demand, and keeps the time it spent doing so."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.table = rng.standard_normal((16384, 64), dtype=np.float32)
        self.rows = rng.integers(0, len(self.table), 4000)
        self.words = [f"w{i}x{i * 7 % 13}" for i in range(3000)]
        # resident bytes the probe adds to the process (4.2 MB), for the
        # peak-memory figure to leave out
        self.footprint = (self.table.nbytes + self.rows.nbytes
                          + sys.getsizeof(self.words)
                          + sum(map(sys.getsizeof, self.words)))
        self.durations: list[float] = []
        self.spent = 0.0
        self._busy = False

    def unit(self) -> None:
        """One fixed unit of work like the program's: string rewriting and
        dictionary counting over a few thousand distinct words, as in text
        normalization and vocabulary lookup, and row gathers from a 4 MB
        table, as in embedding lookup."""
        counts: dict[str, int] = {}
        for word in self.words:
            token = word.upper().lower().replace("x", "y")
            counts[token] = counts.get(token, 0) + len(token)
        total = 0.0
        for k in range(0, len(self.rows), 200):
            total += float(self.table[self.rows[k:k + 200]].sum())

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def sample(self) -> None:
        self._tick()

    def _tick(self, *_):
        if self._busy:          # a timer tick inside an on-demand sample
            return
        self._busy = True
        t0 = perf_counter()
        self.unit()
        self.durations.append(perf_counter() - t0)
        self.spent += perf_counter() - t0
        self._busy = False


class Window:
    """The probe's samples and cost over one task, edge samples included."""

    def __init__(self, probe: Probe):
        self.probe = probe
        probe.sample()
        self.first = len(probe.durations) - 1
        self.spent0 = probe.spent

    def close(self) -> tuple[float, float]:
        """(probe time spent inside the window, speed relative to the
        reference host); call right after the task, outside its timing."""
        spent = self.probe.spent - self.spent0
        self.probe.sample()
        durations = self.probe.durations[self.first:]
        return spent, REF_UNIT_S * statistics.fmean(1.0 / d
                                                     for d in durations)
