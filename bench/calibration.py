"""Machine-speed calibration: times reported at a fixed reference speed.

The shared host this benchmark was written on runs the same code up to
~1.8x slower for periods from a fraction of a second to tens of seconds,
whatever CPU the process is on and whether wall or CPU time is counted. A
run cannot outlast such periods, so raw times differ between runs by more
than any useful bound.

While the end-to-end run measures, a ``SpeedSampler`` times a small fixed
kernel of its own (small-object Python arithmetic and small numpy calls, the
instruction mix of an odcbf decision) from a SIGALRM handler every
``PERIOD_S``, in the benchmark's one thread. The handler runs the kernel
twice and times the second run, so that a sample measures the machine's
speed rather than how cold the caches were left by the code it interrupted.
Decision loops also take a sample every ``TICK_EVERY_NS`` themselves, because
the host's speed can change several times a second. Each measured interval
is then

- cut by the handler time that fell inside it (an operation), or dropped if
  a sample fell inside it (a single decision), and
- scaled by ``REF_KERNEL_S / mean(kernel times sampled near it)``: within
  ``PAD_NS`` of an operation, and the nearest sample on either side of a
  decision.

A change to odcbf moves the interval's time and not the kernel's, so it
shows in full; a change in machine speed moves both, and cancels. The kernel
uses nothing from odcbf. Raw times are kept next to the scaled ones in every
run record.
"""

from __future__ import annotations

import signal
from time import perf_counter_ns

import numpy as np

# Kernel time in the fast state of a 2-vCPU Intel Xeon host, python 3.11.7,
# numpy 2.4.6. Scaled times read as times on that machine in that state;
# only ratios between runs matter.
REF_KERNEL_S = 3.1e-4
PERIOD_S = 0.1
# Samples this close to an operation count for its speed, with those inside it.
PAD_NS = 150_000_000
# Decision loops sample the speed this often: a decision's nearest samples are
# then a few milliseconds away.
TICK_EVERY_NS = 5_000_000
WARMUP = 200


class _Dual:
    __slots__ = ("v", "d")

    def __init__(self, v, d):
        self.v = v
        self.d = d

    def __add__(self, o):
        if isinstance(o, _Dual):
            return _Dual(self.v + o.v, self.d + o.d)
        return _Dual(self.v + o, self.d)

    def __mul__(self, o):
        if isinstance(o, _Dual):
            return _Dual(self.v * o.v, self.d * o.v + o.d * self.v)
        return _Dual(self.v * o, self.d * o)


_A = np.arange(9.0).reshape(3, 3) / 30.0


def kernel():
    """A fixed amount of work; its result is deterministic."""
    v = np.ones(3)
    x = _Dual(0.5, np.ones(2))
    for _ in range(40):
        v = _A @ v + 0.001
        y = x * x + x * float(v[0]) + 1.0
        w = np.maximum(np.array([y.v, float(np.dot(v, v))]), 0.0)
        x = _Dual(0.5 + 1e-3 * float(w[0]), y.d * 1e-3)
    return x.v


class SpeedSampler:
    """Times ``kernel()`` every ``PERIOD_S`` while active (a context manager).

    A sample is the start and duration of the timed kernel run and the
    handler's whole time, in ``perf_counter_ns`` nanoseconds. Samples are
    taken in the signal handler, between two bytecodes of whatever the
    thread is running, so no extra thread or process is started. ``tick()``
    takes one sample on demand, e.g. to close the interval just measured.
    """

    def __init__(self):
        for _ in range(WARMUP):
            kernel()
        self.starts = []
        self.durations = []
        self.busy = []
        self._old = None

    def tick(self, *_signal_args):
        entered = perf_counter_ns()
        kernel()  # warm the caches the kernel uses
        t0 = perf_counter_ns()
        kernel()
        t1 = perf_counter_ns()
        self.starts.append(t0)
        self.durations.append(t1 - t0)
        self.busy.append(t1 - entered)

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    @staticmethod
    def _cumsum(values):
        return np.concatenate(([0], np.cumsum(values, dtype=np.int64)))

    def inside(self, t0, t1):
        """Samples within each [t0, t1] and the handler time they took (ns)."""
        starts, cum = np.asarray(self.starts, dtype=np.int64), self._cumsum(self.busy)
        lo = np.searchsorted(starts, np.asarray(t0, dtype=np.int64), "left")
        hi = np.searchsorted(starts, np.asarray(t1, dtype=np.int64), "right")
        return hi - lo, cum[hi] - cum[lo]

    def factors(self, t0, t1, pad_ns=PAD_NS):
        """Reference-speed factor of each interval [t0, t1] (ns).

        It is ``REF_KERNEL_S`` over the mean kernel time of the samples
        within ``pad_ns`` of the interval, and at least of the nearest sample
        on each side of it.
        """
        starts, cum = np.asarray(self.starts, dtype=np.int64), self._cumsum(self.durations)
        if not len(starts):
            raise ValueError("no speed samples taken")
        t0 = np.asarray(t0, dtype=np.int64)
        t1 = np.asarray(t1, dtype=np.int64)
        lo = np.minimum(
            np.searchsorted(starts, t0 - pad_ns, "left"),
            np.maximum(np.searchsorted(starts, t0, "left") - 1, 0),
        )
        hi = np.maximum(
            np.searchsorted(starts, t1 + pad_ns, "right"),
            np.minimum(np.searchsorted(starts, t1, "right") + 1, len(starts)),
        )
        mean_s = (cum[hi] - cum[lo]) / (hi - lo) / 1e9
        return REF_KERNEL_S / mean_s

    def median_kernel_s(self):
        return float(np.median(self.durations)) / 1e9 if self.durations else float("nan")
