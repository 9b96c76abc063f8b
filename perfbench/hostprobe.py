"""Host-speed probe: puts the gated timings on a fixed scale.

On a shared two-core VM the same work takes up to 1.7x longer in some
stretches than in others, for a tenth of a second up to minutes, because
other tenants share the cores. Raw wall times of identical benchmark
runs spread by about 20%, more than a useful regression bound.

While a ``HostProbe`` is active, a SIGALRM timer runs a reference kernel
every ``INTERVAL_S`` seconds and records how long it took. The kernels
are frozen copies of the seed code's hot paths, written out in plain
numpy: ``sgd_step`` is one hinge SGD step of the tap-tuned model (batch
16, K=4, P=10, m=9) and ``predict_step`` one single-gesture prediction
(normalize, per-patch loop, cosine features, simplex attention). They
live here, not in the package, so a change to the program never changes
the yardstick. A timed region's normalized time is its wall time minus
the probe's own time, multiplied by the kernel's nominal duration over
its durations seen during the region: the time the work would take on a
host where the kernel runs at its nominal speed. Code that becomes
faster or slower moves the normalized time by the same share as the raw
time; a kernel that resembles the measured work tracks the host best,
so each workload names its own.
"""

import signal
import time

import numpy as np

INTERVAL_S = 0.05

_g = np.random.default_rng(0)
_Q = _g.standard_normal((16, 10, 9))
_A = 0.1 * _g.standard_normal((4, 10, 9))
_LABELS = _g.integers(0, 4, 16)
_J = np.arange(1, 11)
_N = np.arange(16)
_ROWS = np.arange(64)
_X = _g.standard_normal((4, 10))
_MEAN = _g.standard_normal(4)
_STD = 1.0 + _g.random(4)
_W = _g.standard_normal((4, 9))
_B = 2.0 * np.pi * _g.random(9)


def sgd_step():
    """Two hinge SGD steps on fixed arrays."""
    for _ in range(2):
        s = np.einsum("npm,kpm->nkp", _Q, _A) / 3.0
        S = s.reshape(64, 10)
        U = np.sort(S, axis=1)[:, ::-1]
        css = np.cumsum(U, axis=1) - 1.0
        rho = np.count_nonzero(U - css / _J > 0, axis=1)
        theta = css[_ROWS, rho - 1] / rho
        alpha = np.maximum(S - theta[:, None], 0.0).reshape(16, 4, 10)
        f = 3.0 * np.einsum("nkp,nkp->nk", alpha, s)
        Y = np.zeros((16, 4))
        Y[_N, _LABELS] = 1.0
        rival = np.where(Y > 0, -np.inf, f).argmax(axis=1)
        coeff = np.zeros((16, 4))
        coeff[_N, rival] = 1.0
        coeff[_N, _LABELS] -= 1.0
        grad = np.einsum("nk,nkp,npm->kpm", coeff, alpha, _Q) / 16
    return grad


def predict_step():
    """Three single-gesture predictions on a fixed 4x10 gesture."""
    for _ in range(3):
        X = np.atleast_2d(np.asarray(_X, dtype=float))
        if not np.all(np.isfinite(X)):
            raise ValueError("non-finite gesture")
        Xn = (X - _MEAN[:, None]) / _STD[:, None]
        P = np.empty((10, 4))
        for p in range(10):
            P[p] = Xn[:, p:p + 1].T.ravel()
        Q = np.sqrt(2.0 / 9) * np.cos(P @ _W + _B)
        s = np.einsum("pm,kpm->kp", Q, _A) / 3.0
        U = np.sort(s, axis=1)[:, ::-1]
        css = np.cumsum(U, axis=1) - 1.0
        rho = np.count_nonzero(U - css / _J > 0, axis=1)
        theta = css[np.arange(4), rho - 1] / rho
        alpha = np.maximum(s - theta[:, None], 0.0)
        f = 3.0 * np.einsum("kp,kp->k", alpha, s)
    return int(np.argmax(f))


# nominal durations: about the median on the 2-core Xeon VM the benchmark
# was defined on; only units, any fixed values would do
NOMINAL_US = {sgd_step: 250.0, predict_step: 200.0}


class HostProbe:
    """Context manager sampling a reference kernel on a timer.

    ``samples`` holds each probe's duration in nanoseconds; ``mark()``
    returns the current sample count, so a region can later be
    normalized with the samples taken inside it.
    """

    def __init__(self, kernel):
        self.kernel = kernel
        self.nominal_ns = NOMINAL_US[kernel] * 1e3
        self.samples = []
        self._previous = None

    def __enter__(self):
        for _ in range(20):
            self.kernel()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _tick(self, signum, frame):
        t0 = time.perf_counter_ns()
        self.kernel()
        self.samples.append(time.perf_counter_ns() - t0)

    def mark(self):
        return len(self.samples)

    def speed(self, since=0):
        """Mean of nominal / measured kernel duration over the samples
        after ``since`` (1.0 = nominal; lower = slower host); the latest
        sample's value when there is none."""
        s = np.asarray(self.samples[since:], dtype=float)
        if s.size == 0:
            s = np.asarray(self.samples[-1:], dtype=float)
        return float(np.mean(self.nominal_ns / s)) if s.size else 1.0

    def spent(self, since):
        """Nanoseconds the probe itself took after ``since``."""
        return sum(self.samples[since:])

    def normalize(self, wall_ns, since):
        """Normalized seconds of a region that began at ``mark() == since``."""
        return (wall_ns - self.spent(since)) * self.speed(since) / 1e9

    def speed_around(self, marks):
        """Per short region (given by its ``mark()`` at the start, with no
        sample inside it), the mean speed of the samples just before and
        just after it."""
        sp = self.nominal_ns / np.asarray(self.samples, dtype=float)
        marks = np.asarray(marks)
        before = sp[np.maximum(marks - 1, 0)]
        after = sp[np.minimum(marks, sp.size - 1)]
        return (before + after) / 2.0
