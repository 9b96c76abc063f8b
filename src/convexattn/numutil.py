"""Numeric substrate: reproducible seeded random streams and thin SVD."""

import numpy as np


class RngStream:
    """Counter-based random stream with an explicit 64-bit seed.

    The same (seed, stream) pair produces the same sequence on every
    platform. A stream is single-owner: parallel or independent work
    should call :meth:`derive` to split off a fresh stream rather than
    share one.
    """

    def __init__(self, seed, stream=0):
        seed = int(seed)
        stream = int(stream)
        if not 0 <= seed < 2**64:
            raise ValueError("seed must fit in 64 bits")
        self.seed = seed
        self.stream = stream
        key = np.array([seed, stream % 2**64], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def derive(self, offset):
        """Independent stream keyed by (seed, offset)."""
        return RngStream(self.seed, offset)

    def gauss(self, n, mean=0.0, stddev=1.0):
        if stddev <= 0:
            raise ValueError(f"stddev must be > 0, got {stddev}")
        return self._gen.normal(mean, stddev, size=int(n))

    def uniform(self, n, lo=0.0, hi=1.0):
        if lo >= hi:
            raise ValueError(f"need lo < hi, got [{lo}, {hi})")
        return self._gen.uniform(lo, hi, size=int(n))

    def integers(self, n, hi):
        """n draws from {0, ..., hi-1}, uniform with replacement."""
        return self._gen.integers(0, hi, size=int(n))

    def shuffled(self, x):
        """Return a shuffled copy of a 1-d array."""
        x = np.asarray(x).copy()
        self._gen.shuffle(x)
        return x


def check_finite(a, name="input"):
    a = np.asarray(a, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


def svd_thin(M):
    """Thin SVD of a dense matrix.

    Returns (U, sigma, V) with M = U @ diag(sigma) @ V.T, sigma sorted
    descending and U, V having orthonormal columns.
    """
    M = np.atleast_2d(check_finite(M, "matrix"))
    U, sigma, Vt = np.linalg.svd(M, full_matrices=False)
    return U, sigma, Vt.T
