"""Host-speed calibration for the end-to-end timings.

The machine the benchmark runs on is a slice of a shared host whose speed
swings by up to 2x in phases that last from about a second to minutes
(README.md, "Why speed-normalized times").  A slow phase that outlasts a
run moves any estimator taken from that run's raw times.

So while the untraced run measures, a wall-clock interval timer interrupts
it every ``INTERVAL_S`` and times one call of a fixed calibration kernel:
the benchmark's own numpy and Python code, which never touches
``netresil``.  The kernel runs on the same thread and the same vCPU as the
operation it interrupts, so it is slowed by the same host phase.  An
operation's time is its wall time less the kernel calls inside it, scaled by
``REF_KERNEL_S`` over the mean kernel time during (and just around) the
operation.  A call that the scheduler held up for many times its length
counts as ``CLIP`` median calls, so that one hold-up does not outweigh the
calls around it.  The result is the time the operation would take on a host
where the kernel takes ``REF_KERNEL_S``: a faster program lowers it, and a
host phase moves the operation and the kernel alike and cancels.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

# The kernel's median time on the 2-vCPU "Intel(R) Xeon(R) Processor" host
# the bounds were set on.  It only sets the scale of the reported times; any
# constant would do, as long as it never changes.
REF_KERNEL_S = 2.4e-3
ROUNDS = 5              # kernel rounds per call
INTERVAL_S = 0.1        # wall time between kernel calls: about 2.5% of the run
PAD_S = 0.5             # kernel calls this close to an interval also describe it
MIN_NEAR = 5            # ... or, if fewer, this many nearest calls
CLIP = 2.5              # one call counts at most this many times the run's median call


class HostSpeed:
    """Kernel calls ``(start, seconds)`` taken on a timer while sampling."""

    def __init__(self):
        rng = np.random.default_rng(20151028)
        # One piece of each kind of work the workloads do: a small real
        # eigenvalue problem (spectral abscissa), a complex LU solve with a
        # few right-hand sides (frequency response), a Python loop of small
        # mat-vec steps (RK4 stepping) and float formatting (CSV export).
        self.a20 = rng.standard_normal((20, 20))
        self.c60 = rng.standard_normal((60, 60)) + 1j * rng.standard_normal((60, 60))
        self.b60 = rng.standard_normal((60, 3))
        self.s30 = rng.standard_normal((30, 30)) / 30.0
        self.x30 = rng.standard_normal(30)
        self.calls: list[tuple[float, float]] = []
        self._starts: list[float] = []
        self._cap = 0.0
        self.kernel()                               # the first call pays lazy set-up

    def kernel(self) -> float:
        acc = 0.0
        for _ in range(ROUNDS):
            acc += float(np.linalg.eigvals(self.a20).real.max())
            acc += float(np.abs(np.linalg.solve(self.c60, self.b60)).sum())
            x = self.x30
            for _ in range(40):
                x = x + 1e-3 * (self.s30 @ x)
            acc += len(",".join(f"{v:.9g}" for v in x))
            d = {i: i * acc for i in range(100)}
            acc += sum(d.values()) * 1e-12
        return acc

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.kernel()
        self.calls.append((t0, time.perf_counter() - t0))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def normalize(self, t0: float, t1: float) -> float:
        """The interval ``[t0, t1]`` less the kernel calls inside it, in
        reference seconds."""
        if len(self._starts) != len(self.calls):
            self._starts = [s for s, _ in self.calls]
            self._cap = CLIP * float(np.median([d for _, d in self.calls]))
        starts = self._starts
        inside = self.calls[bisect.bisect_left(starts, t0):bisect.bisect_left(starts, t1)]
        lo, hi = bisect.bisect_left(starts, t0 - PAD_S), bisect.bisect_left(starts, t1 + PAD_S)
        if hi - lo < MIN_NEAR:              # a short interval far from the timer's calls
            mid = bisect.bisect_left(starts, 0.5 * (t0 + t1))
            lo = max(0, min(mid - MIN_NEAR // 2, len(starts) - MIN_NEAR))
            hi = lo + MIN_NEAR
        near = self.calls[lo:hi]
        if not near:
            raise RuntimeError("no calibration kernel call was made")
        net = (t1 - t0) - sum(d for _, d in inside)
        return net * REF_KERNEL_S / float(np.mean([min(d, self._cap) for _, d in near]))
