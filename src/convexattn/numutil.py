"""Numeric substrate: seeded random streams, thin SVD and shared input checks."""

import numbers
import sys

import numpy as np


class RngStream:
    """Counter-based random stream with an explicit 64-bit seed.

    The same (seed, stream) pair produces the same sequence on every
    platform. A stream is single-owner: parallel or independent work
    should call :meth:`derive` to split off a fresh stream rather than
    share one.
    """

    def __init__(self, seed, stream=0):
        self.seed = int(seed)
        self.stream = int(stream)
        key = _key(self.seed, self.stream)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def derive(self, offset):
        """Independent stream keyed by (seed, offset): it does not depend
        on this stream's own ``stream``."""
        return RngStream(self.seed, offset)

    def derive_each(self, offsets):
        """Yield ``derive(o)`` for each offset in turn, all through one
        Philox: before each, it is reset to the state a new Philox starts
        in (counter 0, empty buffers) with the key of ``derive(o)``, so
        each draws exactly what ``derive(o)`` draws. The same object is
        yielded every time, so a stream is live only until the next one
        is yielded."""
        g = RngStream(self.seed)
        bits = g._gen.bit_generator
        start = bits.state
        for o in offsets:
            g.stream = int(o)
            start["state"]["key"] = _key(self.seed, g.stream)
            bits.state = start
            yield g

    def gauss(self, n, mean=0.0, stddev=1.0):
        # NaN fails both comparisons
        if not (0 < stddev <= sys.float_info.max and abs(mean) <= sys.float_info.max):
            raise ValueError(f"need a finite mean and a finite stddev > 0, got {mean}, {stddev}")
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


def _key(seed, stream):
    """The Philox key of stream ``stream`` of ``seed``; both must fit in
    64 bits."""
    check_key("seed", seed)
    check_key("stream", stream)
    return np.array([seed, stream], dtype=np.uint64)


def check_key(name, value):
    """Refuse an integer value that is not a Philox key word, in
    0..2**64-1, naming it (``seed must fit in 64 bits, got -7``)."""
    if not 0 <= value < 2**64:
        raise ValueError(f"{name} must fit in 64 bits, got {value}")


_FLOAT = np.dtype(float)


def as_array(a, name="input"):
    """np.asarray(a), but a masked array, whose mask asarray drops, is refused.
    Only code that has imported numpy.ma can hold one, so this does not import
    it (about 1 MB)."""
    ma = sys.modules.get("numpy.ma")
    if ma is not None and isinstance(a, ma.MaskedArray):
        raise ValueError(f"{name} must not be a masked array")
    return np.asarray(a)


def as_floats(a, name="input"):
    """a as a float64 array (as_array, which a plain ndarray skips): float64
    kept, integer or real float cast, any other dtype (bool, complex, text,
    object) refused, naming name."""
    if type(a) is not np.ndarray:
        a = as_array(a, name)
    if a.dtype is not _FLOAT:
        if a.dtype.kind not in "iuf":
            raise ValueError(f"{name} must hold real numbers, got dtype {a.dtype}")
        a = a.astype(float)
    return a


def check_finite(a, name="input"):
    a = as_floats(a, name)
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


def check_labels(labels, n_classes, n=None):
    """labels as a 1-d int64 array of values in 0..n_classes-1, of length
    n when n is given. A label that is not a real number is refused
    (as_floats); a float one is judged integral, then in range, before
    the cast, so a NaN, infinite or huge label is named, not wrapped."""
    labels = as_array(labels, "labels")
    if labels.dtype.kind not in "iu":
        real = as_floats(labels, "labels")
        bad = ~np.isfinite(real) | (np.floor(real) != real)
        if bad.any():
            raise ValueError(f"labels must be integers, got {labels[bad][0]}")
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-d, got shape {labels.shape}")
    if n is not None and labels.size != n:
        raise ValueError(
            f"labels length must match score rows, got {labels.size} for {n} gestures"
        )
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        bad = labels[(labels < 0) | (labels >= n_classes)][0]
        raise ValueError(f"labels must be in 0..{n_classes - 1}, got {bad}")
    return labels.astype(np.int64, copy=False)


def check_numbers(values, kind, least=None, above=None):
    """Check each value of the {name: value} dict values, in order: it
    is an instance of kind and not a bool (``m must be an integer, got
    2.5``); unless kind is numbers.Integral, it is within the float range
    (``gamma must be finite, got nan``); it is >= least and > above where
    given (``m must be >= 1, got 0``, ``eta must be > 0, got -0.01``)."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, kind):
            what = "an integer" if kind is numbers.Integral else "a number"
            raise ValueError(f"{name} must be {what}, got {value!r}")
        # compared as a Python number: float max cast to float32 is inf
        plain = value.item() if isinstance(value, np.generic) else value
        if kind is not numbers.Integral and not abs(plain) <= sys.float_info.max:
            raise ValueError(f"{name} must be finite, got {value!r}")
        if least is not None and not value >= least:
            raise ValueError(f"{name} must be >= {least}, got {value!r}")
        if above is not None and not value > above:
            raise ValueError(f"{name} must be > {above}, got {value!r}")


def check_matrix(A):
    """A finite matrix as a 2-d float array; a 1-d array is one row."""
    A = np.atleast_2d(check_finite(A, "matrix"))
    if A.ndim > 2:
        raise ValueError(f"matrix must be 1-d or 2-d, got shape {A.shape}")
    return A


def nuclear_sum(sigma):
    """The sum of a matrix's singular values sigma, refused if it overflows."""
    with np.errstate(over="ignore"):
        total = sigma.sum()
    if not total < np.inf:
        raise ValueError("matrix is too large: its singular values overflow")
    return total


def svd_thin(M):
    """Thin SVD of a matrix (check_matrix) whose nuclear_sum is finite.

    Returns (U, sigma, V) with M = U @ diag(sigma) @ V.T, sigma sorted
    descending and U, V having orthonormal columns.
    """
    U, sigma, Vt = np.linalg.svd(check_matrix(M), full_matrices=False)
    nuclear_sum(sigma)
    return U, sigma, Vt.T
