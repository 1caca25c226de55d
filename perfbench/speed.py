"""Host speed, sampled while the benchmark runs, and times scaled by it.

The benchmark's VM shares its host.  Its CPU switches between a fast and a
slow speed, about 1.8x apart, every few seconds, and the share of slow time
drifts over minutes.  Process CPU time follows wall time, so the process is
run slower, not descheduled.  Raw times of identical work spread 20-55%
(interquartile range over median) from one run to the next.

A `Sampler` runs fixed kernels from a SIGALRM handler every `INTERVAL`
seconds, each twice in a row, and records the second, warm run's time.  A
task's time is scaled to the reference speed: its wall time, less the
handler's own time, times the speed factor of the task's window (see
`factor`).  `REFERENCE_S` holds fixed kernel times, set from the fast phase
of the VM the benchmark was written on, so there a scaled time is close to
the wall time the task takes while the host runs at full speed.  Raw times
are recorded beside the scaled ones.
"""

from __future__ import annotations

import contextlib
import gc
import math
import signal
import statistics
import time
from array import array

INTERVAL = 0.05

#: each kernel's warm time in the fast phase of a 2-vCPU Xeon VM (2.1 GHz,
#: Python 3.11, numpy 2.4), from the low percentiles of its samples
REFERENCE_S = {"python": 3.2e-5, "numpy": 5.2e-5, "linalg": 1.12e-4}


def python_kernel():
    acc = 0.0
    table = {}
    for i in range(300):
        acc += math.sqrt(i + acc * 1e-9)
        table[i & 7] = acc
    return acc


def numpy_kernel():
    import numpy as np

    m = np.eye(3) * 1.0001
    w = np.ones(3)
    acc = 0.0
    for _ in range(40):
        w = m @ w
        acc += float(np.exp(w[0] * 1e-3))
    return acc


def linalg_kernel():
    import numpy as np

    a = np.arange(49.0).reshape(7, 7) % 5.0 + np.eye(7)
    v = np.ones(7)
    acc = 0.0
    for i in range(6):
        q, _ = np.linalg.qr(a + i * 1e-3)
        v = q @ v
        acc += float(np.linalg.norm(v)) + math.exp(-i)
    return acc


KERNELS = {"python": python_kernel, "numpy": numpy_kernel, "linalg": linalg_kernel}


def factor(means):
    """Speed factor from kernels' mean times {name: seconds}.

    The geometric mean of reference time over mean time: 1 at the reference
    speed, below 1 when the host runs slower."""
    return math.exp(statistics.fmean(math.log(REFERENCE_S[name] / t)
                                     for name, t in means.items()))


class Sampler:
    """Kernel times taken every `INTERVAL` seconds while started.

    A task's speed factor is the geometric mean, over the kernels, of the
    reference time over the kernel's mean time in the task's window.  The
    kernels slow down differently under different kinds of contention; the
    small-array and 7x7 linear-algebra pair, like the program's own calls,
    followed the program most closely.  The set-up probe samples the
    standard-library kernel only, because importing numpy is part of what it
    times."""

    def __init__(self, kernels=("numpy", "linalg")):
        if kernels != ("python",):
            import numpy  # noqa: F401  (loaded here, never inside the handler)
        self.kernels = {name: KERNELS[name] for name in kernels}
        self.times = {name: array("d") for name in kernels}
        self.own = 0.0  # seconds spent in the handler, kernels included
        self.running = False

    def _handler(self, signum, frame):
        # no collection of the program's garbage inside a kernel's timing
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        for name, kernel in self.kernels.items():
            kernel()
            t1 = time.perf_counter()
            kernel()
            self.times[name].append(time.perf_counter() - t1)
        self.own += time.perf_counter() - t0
        if collecting:
            gc.enable()

    def start(self):
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        self.running = True

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.running = False

    @contextlib.contextmanager
    def paused(self):
        """No sampling inside the block, e.g. while a set-up probe runs."""
        was_running = self.running
        if was_running:
            self.stop()
        try:
            yield
        finally:
            if was_running:
                self.start()

    def mark(self):
        return len(next(iter(self.times.values()))), self.own

    def scaled(self, mark, seconds):
        """(net seconds, scaled seconds) of a window that began at `mark`.

        The window's samples include the last one before it began, so that a
        window shorter than `INTERVAL` still has one."""
        n0, own0 = mark
        net = seconds - (self.own - own0)
        means = {}
        for name, times in self.times.items():
            window = times[max(n0 - 1, 0):]
            if not window:
                raise RuntimeError("no host-speed sample was taken")
            means[name] = statistics.fmean(window)
        return net, net * factor(means)

    def means(self):
        return {name: statistics.fmean(t) for name, t in self.times.items()}
