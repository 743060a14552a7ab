"""Scaling of measured times to a reference machine speed.

On a shared machine the speed of a core can flip between two states
several times a second: on the 2-vCPU Xeon this benchmark was built on, a
fixed kernel took 1.9 ms or 3.6 ms, and the time of one deploylab call
moved with it.  A `Probe` therefore times a fixed kernel just before and
just after a call, and every PERIOD_S during it (from a SIGALRM handler,
whose own time is taken out of the call's time).  The call's time is then
scaled by REF_S over the mean kernel time: a short call by the state it
ran in, a long call by the average over its whole run.  The kernel is the
benchmark's own code, so a change to deploylab moves scaled and raw times
alike.
"""

import signal
import statistics
import time

import numpy as np

REF_S = 0.002     # about the kernel's fast-state time on that Xeon; the unit
EDGE_SAMPLES = 3  # kernel timings on each side of a timed call
PERIOD_S = 0.05   # kernel timings during a call, one per period
_M = np.random.default_rng(0).random((10, 10))
_TABLE = {(i, i % 7): i * i for i in range(64)}


def kernel():
    """Fixed work in the mix deploylab spends its time on: small numpy
    matvecs and Python tuple and dict operations.  It keeps no Python
    container alive, so it does not move the garbage collector's counts
    in the code it interrupts."""
    x = np.ones(10) / 10
    acc = 0
    for k in range(300):
        p = _M @ x
        w = x * np.exp(0.1 * (p - p.max()))
        x = w / w.sum()
        acc += _TABLE[(k & 63, (k & 63) % 7)]
    return acc


def _timed_kernel():
    t0 = time.perf_counter()
    kernel()
    return t0, time.perf_counter()


def edge_samples():
    """EDGE_SAMPLES kernel times, back to back."""
    out = []
    for _ in range(EDGE_SAMPLES):
        t0, t1 = _timed_kernel()
        out.append(t1 - t0)
    return out


class Probe:
    """Context manager that times a call and samples the machine's speed.

    After the block: `raw_s` is the call's time without the samples taken
    during it, `samples` the kernel times, `factor` the scale to the
    reference speed.  `on_sample(start, end)` is told about each sample
    taken during the call.
    """

    def __init__(self, on_sample=None):
        self.on_sample = on_sample
        self.samples = []
        self._paused = 0.0

    def _edge(self):
        self.samples += edge_samples()

    def _tick(self, signum, frame):
        t0, t1 = _timed_kernel()
        self.samples.append(t1 - t0)
        self._paused += t1 - t0
        if self.on_sample is not None:
            self.on_sample(t0, t1)

    def __enter__(self):
        self._edge()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        # Disarm before reading the clock: a tick that lands in between
        # is then both inside [t0, t1] and counted in _paused.
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.t1 = time.perf_counter()
        signal.signal(signal.SIGALRM, self._previous)
        self._edge()
        self.raw_s = self.t1 - self.t0 - self._paused
        self.factor = REF_S / statistics.mean(self.samples)
        return False
