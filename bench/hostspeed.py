"""Speed of the host, from a fixed reference computation timed during a run.

The benchmark shares a few cores of a host with other tenants.  Their load
changes the speed of every computation by tens of percent, for minutes at a
time, and no statistic over one run removes a change that outlasts the run.
So the worker times a fixed unit of reference work between operations, at
most every ``EVERY_S`` seconds, and scales each operation's time by the ratio
of the unit's time on the reference machine to its time around that
operation.  The scaled time is the operation's time at the reference speed
of the host.  The reference is benchmark code and does not change with the
program, so a change to the program moves the scaled times just as it moves
the raw ones.

The unit mixes the two kinds of work the workloads do: a Python loop over
tiny numpy products, like a flow iteration, and a dense LU solve, like the
Hodge solves.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np
import scipy.linalg

#: time of one reference unit on the reference machine (2-vCPU Xeon, one
#: BLAS thread, shared host under its usual load)
UNIT_S = 0.005
#: least time between two reference samples in the timed phase
EVERY_S = 0.2


class HostSpeed:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = rng.standard_normal((8, 3, 3))
        self._dense = rng.standard_normal((250, 250)) + 250.0 * np.eye(250)
        self._rhs = rng.standard_normal(250)
        #: (index of the next operation, seconds of one unit), in run order
        self.samples = []
        self._last = -np.inf

    def _unit(self):
        a = self._small
        acc = 0.0
        for _ in range(2000):
            acc += float((a @ a)[0, 0, 0])
        for _ in range(2):
            scipy.linalg.lu_solve(scipy.linalg.lu_factor(self._dense), self._rhs)
        return acc

    def sample(self, next_op, units=1):
        """Time ``units`` reference units; record the median unit time."""
        times = []
        for _ in range(units):
            t0 = time.perf_counter()
            self._unit()
            times.append(time.perf_counter() - t0)
        self._last = time.perf_counter()
        self.samples.append((next_op, statistics.median(times)))

    def maybe_sample(self, next_op):
        if time.perf_counter() - self._last >= EVERY_S:
            self.sample(next_op)

    def scale(self, op_index):
        """UNIT_S over the mean unit time of the samples just before and
        just after operation ``op_index``."""
        keys = [k for k, _ in self.samples]
        after = bisect.bisect_right(keys, op_index)
        near = [self.samples[j][1] for j in (after - 1, after)
                if 0 <= j < len(self.samples)]
        return UNIT_S / statistics.fmean(near)

    def bracket_scale(self, j):
        """UNIT_S over the mean unit time of samples ``j`` and ``j + 1``,
        which bracket a step run between them."""
        return UNIT_S / statistics.fmean([self.samples[j][1], self.samples[j + 1][1]])

    def run_scale(self):
        """UNIT_S over the median unit time of all the samples of the run."""
        return UNIT_S / statistics.median(s for _, s in self.samples)
