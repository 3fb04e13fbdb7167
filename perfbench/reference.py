"""Host speed, measured with a fixed reference loop between jobs.

This benchmark runs on shared hosts whose other tenants slow a
single-threaded Python process by up to half within a minute, in CPU time
as much as in wall time (so CPU time does not help).  The library is
interpreter-bound, like `Reference.work` below, so both slow down
together: a span timed between two samples of the reference loop is
reported as it would read at the reference speed, that is, scaled by
``REF_S`` over the mean cost of the two samples.

The loop mixes the kinds of work the library does: small numpy
operations on 2-vectors (the mesh layer), calls of small Python
functions over math and generator expressions (the tangent scan), and
reads and writes of objects scattered over several megabytes.  The last
part makes the loop feel contention for the caches as the library does:
alternating five fixed jobs with the loop for 200 s, the standard
deviation of log(job time), over medians of 8-job blocks, was 0.08-0.11
unscaled, 0.04-0.06 scaled by the loop without that part and 0.03-0.05
with it.  The loop never calls the library, so a change to the library
cannot move it.
"""
from __future__ import annotations

import math
import random
import resource
import time

import numpy as np

# typical seconds of one Reference.work() on the host the benchmark was
# written on (a 2-vCPU "Intel(R) Xeon(R) Processor" VM, Python 3.11.7,
# numpy 2.4.6); every time metric is reported at this speed
REF_S = 0.014

SAMPLE_EVERY_S = 0.5  # host speed changes over seconds, not within one

_ROT = np.array([[0.8, -0.6], [0.6, 0.8]])


def _gap(a, b, period):
    d = math.fmod(b - a, period)
    if d < 0.0:
        d += period
    return min(d, period - d)


class _Term:
    __slots__ = ("r", "a")

    def __init__(self, r, a):
        self.r, self.a = r, a

    def value(self, x):
        return self.r * math.cos(min(_gap(self.a, x, 6.0), math.pi))


class _Node:
    __slots__ = ("x", "y", "v")

    def __init__(self, x, y):
        self.x, self.y, self.v = x, y, 0.0


class Reference:
    """The reference loop and the scattered objects it visits."""

    def __init__(self):
        rng = random.Random(1)
        self.nodes = [_Node(rng.random(), rng.random()) for _ in range(60000)]
        self.visit = rng.sample(range(len(self.nodes)), 6000)
        self.vecs = [np.array([rng.random(), rng.random()]) for _ in range(500)]

    def work(self):
        v = np.array([0.3, 0.4])
        acc = 0.0
        for i in range(600):
            v = _ROT @ v
            acc += math.atan2(v[1], v[0]) + float(np.linalg.norm(v)) + math.sqrt(i + 1.0)
        terms = [_Term(0.5 + 0.01 * k, 0.3 * k) for k in range(4)]
        for _ in range(30):
            acc += max(sum(t.value(0.05 * j) for t in terms) for j in range(40))
        for k in self.visit:
            node = self.nodes[k]
            acc += math.hypot(node.x, node.y)
            node.v = acc
        for w in self.vecs:
            acc += float(np.linalg.norm(_ROT @ w))
        return acc


def _rss_mb():
    """Resident memory now, in MB (0 where /proc is not available)."""
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
    except (OSError, ValueError, IndexError):
        return 0.0
    return pages * resource.getpagesize() / 2.0 ** 20


class HostSpeed:
    """Samples of the reference loop's cost, and spans scaled by them.

    `footprint_mb` is the resident memory the reference loop's objects
    take, for the benchmark to leave out of the program's peak.
    """

    def __init__(self):
        before = _rss_mb()
        self.reference = Reference()
        self.footprint_mb = _rss_mb() - before
        self.at = []
        self.cost = []

    def sample(self):
        """Time the reference loop (best of two); returns the sample's index."""
        best = math.inf
        for _ in range(2):
            t0 = time.perf_counter()
            self.reference.work()
            best = min(best, time.perf_counter() - t0)
        self.cost.append(best)
        self.at.append(time.perf_counter())
        return len(self.cost) - 1

    def mark(self):
        """Index of the sample before the next span, sampling if one is due."""
        if not self.at or time.perf_counter() - self.at[-1] >= SAMPLE_EVERY_S:
            return self.sample()
        return len(self.cost) - 1

    def scaled(self, k, seconds):
        """A span that began after sample k, at the reference speed.

        The sample after the span is k + 1: take one with `sample()`
        before scaling the run's last spans.
        """
        return seconds * REF_S / (0.5 * (self.cost[k] + self.cost[k + 1]))
