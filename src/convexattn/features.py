"""Z-score normalization, temporal patches and the random Fourier feature map.

A gesture matrix (channels x frames) is split into equal non-overlapping
temporal patches; each patch vector is lifted with a fixed random cosine
feature map whose inner products approximate an RBF kernel.
"""

import math
import numbers
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .numutil import RngStream, as_floats, check_finite, check_numbers


@dataclass(frozen=True)
class PatchSpec:
    """Input geometry: channels x frames split into equal patches."""

    channels: int
    frames: int
    patches: int

    def __post_init__(self):
        check_numbers(dict(channels=self.channels, frames=self.frames, patches=self.patches),
                      numbers.Integral, least=1)
        if self.frames % self.patches != 0:
            raise ValueError(
                f"patches ({self.patches}) must divide frames ({self.frames})"
            )

    def check(self, shape, what):
        """Refuse a gesture shape other than (channels, frames), naming what holds it."""
        if shape != (self.channels, self.frames):
            raise ValueError(f"{what} shape {shape} does not match spec "
                             f"({self.channels}, {self.frames})")

    @property
    def frames_per_patch(self):
        return self.frames // self.patches

    @property
    def patch_dim(self):
        return self.channels * self.frames_per_patch


@dataclass(frozen=True)
class RffMap:
    """Fixed random feature map: sampled once, never trained.

    W has shape patch_dim x m with entries N(0, 2*gamma); b has length m
    with entries Uniform[0, 2pi).
    """

    W: np.ndarray
    b: np.ndarray
    gamma: float

    @property
    def patch_dim(self):
        return self.W.shape[0]

    @property
    def m(self):
        return self.W.shape[1]


def zscore_fit(X):
    """Per-channel mean/stddev over all gestures and frames of a stacked
    (n, C, T) training array.

    A channel whose stddev is at most 1e-8 of its largest magnitude is
    constant at any scale (a channel of zeros too): its stddev is clamped
    to 1, with a warning naming it, so normalization never divides by ~0.
    The moments are taken in units of 2**e, e the np.frexp exponent of
    the channel's largest magnitude. np.ldexp scales exactly, so no
    square under- or overflows at any finite scale and no bit of an
    ordinary-scale result moves; non-finite data is refused, naming the
    channel. The sums run over one C-contiguous (n, T, C) arrangement, a
    view of load_csv's arrays, so the input's memory layout never moves
    a bit of the result.
    """
    X = as_floats(X, "dataset")
    if X.ndim != 3 or X.shape[0] < 2:
        raise ValueError(f"dataset must be an (n, C, T) array with n >= 2, got shape {X.shape}")
    X = np.ascontiguousarray(X.transpose(0, 2, 1))
    top, e = np.frexp(np.abs(X).max(axis=(0, 1)))
    X = np.ldexp(X, -e)
    with np.errstate(invalid="ignore"):
        mean, std = X.mean(axis=(0, 1)), X.std(axis=(0, 1))
    bad = np.flatnonzero(~np.isfinite(mean) | ~np.isfinite(std))
    if bad.size:
        raise ValueError(f"channel {bad[0]}: z-score statistics are not finite")
    flat = std <= 1e-8 * top
    mean, std = np.ldexp(mean, e), np.ldexp(std, e)
    if flat.any():
        warnings.warn(f"constant channels {np.flatnonzero(flat).tolist()}: stddev clamped to 1")
        std = np.where(flat, 1.0, std)
    return mean, std


def patchify(X, spec):
    """Split X (channels x frames) into spec.patches patch vectors.

    Returns (patches, patch_dim) rows, channel-major within a frame and
    frames in temporal order; a view of X when each patch is one frame.
    """
    X = check_finite(X, "gesture")
    spec.check(X.shape, "gesture")
    fpp, P = spec.frames_per_patch, spec.patches
    return X.reshape(spec.channels, P, fpp).transpose(1, 2, 0).reshape(P, spec.patch_dim)


def rff_init(spec, m, gamma, rng):
    """Sample a fixed RFF map: W ~ N(0, 2*gamma), b ~ Uniform[0, 2pi)."""
    check_numbers(dict(m=m), numbers.Integral, least=1)
    check_numbers(dict(gamma=gamma), numbers.Real, above=0)
    if not isinstance(rng, RngStream):
        raise TypeError("rng must be an RngStream")
    scale = math.sqrt(2.0 * float(gamma))
    if scale == math.inf:
        raise ValueError(f"gamma must be at most {sys.float_info.max / 2}, got {gamma!r}")
    d = spec.patch_dim
    W = rng.gauss(d * m, 0.0, scale).reshape(d, m)
    b = rng.uniform(m, 0.0, 2.0 * np.pi)
    return RffMap(W=W, b=b, gamma=float(gamma))


@np.errstate(over="ignore", invalid="ignore")  # a phase that is not finite gives a NaN
def rff_transform(patches, rmap):
    """Apply the cosine feature map row-wise.

    Returns Q of shape (patches, m) with rows sqrt(2/m)*cos(x W + b);
    every entry is bounded by sqrt(2/m) in magnitude. Patches that are
    not finite, or whose phases overflow, are refused.
    """
    patches = np.atleast_2d(as_floats(patches, "patches"))
    if patches.ndim != 2 or patches.shape[1] != rmap.patch_dim:
        raise ValueError(f"patches shape {patches.shape} does not match map "
                         f"patch_dim {rmap.patch_dim}")
    out = patches @ rmap.W
    out += rmap.b
    np.cos(out, out=out)
    if math.isnan(out.sum()):
        raise ValueError("patches must be finite, and small enough that x W + b does not overflow")
    out *= math.sqrt(2.0 / rmap.m)
    return out


@np.errstate(over="raise")  # as a decorator it costs predict less than a with block
def _normalized(X, mean, std):
    """(X - mean) / std per channel; FloatingPointError where it overflows."""
    return (X - mean[:, None]) / std[:, None]


def lift(X, stats, spec, rff):
    """Normalize a stack of raw gestures, patchify each, RFF-map all rows.

    X has shape (n, channels, frames) and stats is the (mean, std) pair
    of per-channel normalization statistics; returns Q of shape
    (n, patches, m), all n * patches rows mapped by one rff_transform.
    """
    X = as_floats(X, "gesture")
    spec.check(X.shape[1:], "gesture")
    try:
        Z = _normalized(X, *stats)
    except FloatingPointError:
        # X - mean can overflow where the z-score does not: retry in units
        # of 2**e per channel, e the np.frexp exponent of the larger of
        # max|X| and |mean|, as zscore_fit takes its moments
        mean, std = stats
        e = np.frexp(np.maximum(np.abs(X).max(axis=(0, 2)), np.abs(mean)))[1]
        try:
            with np.errstate(divide="raise", invalid="raise"):  # std in units of 2**e is 0
                Z = _normalized(np.ldexp(X, -e[:, None]), np.ldexp(mean, -e), np.ldexp(std, -e))
        except FloatingPointError:
            raise ValueError("gesture is too large: normalizing it overflows") from None
    rows = np.empty((len(X), spec.patches, spec.patch_dim))
    for i, x in enumerate(Z):
        rows[i] = patchify(x, spec)
    return rff_transform(rows.reshape(-1, spec.patch_dim), rff).reshape(*rows.shape[:2], rff.m)
