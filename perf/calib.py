"""Speed calibration: report wall-clock at the reference box's quiet speed.

The box the benchmark runs on is a small VM on a shared host.  It drifts
between a quiet state and states up to 2x slower that last from seconds to
many minutes -- longer than a run, so nothing inside a run (best round,
median of rounds) can average them away, and ten runs an hour apart can
differ by more than any regression bound.  The slow states slow *all*
code by about the same factor, so a fixed kernel timed beside the work
tells how slow the box is right now:

- the kernel is ~0.35 ms of interpreter work (method call, dict and int
  ops; no container is allocated, so it never triggers the collector) plus
  ~0.3 ms of small numpy matmuls -- the two kinds of work the stack does;
- the serve shim times it once every :data:`EVERY_S` of wall clock, between
  two requests; kernel time is taken out of the gap and of the serving wall;
- a round's *speed factor* is the geometric mean of the two parts' mean
  time over their reference time (1.0 = quiet reference box, 1.4 = the box
  is 1.4x slower), and every wall-clock metric of the round is divided by
  it: what the round would have taken at reference speed.

Measured on a noisy hour, 57 rounds per workload: the per-round spread of
``serve_qps`` on identical inputs falls from 16-21 % raw to 7-9 %
calibrated, and both parts are needed (either alone leaves 8-11 %).  A
change to the program cannot move the kernel, so a real speed-up or
regression passes through unchanged.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

__all__ = ["EVERY_S", "REF_NP_S", "REF_PY_S", "Calibrator"]

EVERY_S = 0.05  # wall seconds between two kernel timings inside a serving call
#: kernel times on the reference box in its quiet state (1st percentile of
#: 7,000 timings): the unit every calibrated metric is expressed in
REF_PY_S = 0.345e-3
REF_NP_S = 0.285e-3


class _Cell:
    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value

    def get(self) -> int:
        return self.value


_CELL = _Cell(3)
_TABLE = {0: 1, 1: 2, 2: 3, 3: 4}
_RNG = np.random.default_rng(7)
_WEIGHTS = _RNG.normal(size=(64, 64))
_BATCH = _RNG.normal(size=(100, 64))


def _py_kernel(n: int = 4000) -> int:
    cell, table, acc = _CELL, _TABLE, 0
    for i in range(n):
        acc += cell.get() + table[i & 3]
        acc ^= i
    return acc


def _np_kernel(n: int = 8):
    y = _BATCH
    for _ in range(n):
        y = np.maximum(y @ _WEIGHTS, 0.0)
        y = y / (1.0 + np.abs(y).max())
    return y


class Calibrator:
    """Kernel timings taken beside one piece of measured work."""

    def __init__(self) -> None:
        self.every_s = EVERY_S
        self.py_s = 0.0
        self.np_s = 0.0
        self.samples = 0
        self.due = 0.0  # perf_counter time the next timing is due

    def sample(self) -> float:
        """Time the kernel once; returns the clock reading after it."""
        t0 = perf_counter()
        _py_kernel()
        t1 = perf_counter()
        _np_kernel()
        t2 = perf_counter()
        self.py_s += t1 - t0
        self.np_s += t2 - t1
        self.samples += 1
        self.due = t2 + self.every_s
        return t2

    @property
    def spent_s(self) -> float:
        """Wall seconds the timings themselves took."""
        return self.py_s + self.np_s

    def speed(self) -> float:
        """How many times slower than the quiet reference box (>= ~1)."""
        n = self.samples
        return math.sqrt((self.py_s / n / REF_PY_S) * (self.np_s / n / REF_NP_S))
