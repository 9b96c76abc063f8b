"""Convex projection operators.

Euclidean projection onto the probability simplex (sort-and-threshold),
projection of a matrix onto a nuclear-norm ball (the same threshold on
its singular values), and a reference softmax kept only for
non-convexity demonstrations.
"""

import functools
import numbers

import numpy as np

from .numutil import check_finite, check_numbers, svd_thin


@functools.cache
def _ranks(p):
    """1.0 .. p as a read-only float array, shared by every call."""
    j = np.arange(1.0, p + 1)
    j.flags.writeable = False
    return j


def _threshold_rows(S, radius):
    """Sort-and-threshold kernel (Duchi et al., ICML 2008), row-wise.

    Sort each row descending into u, form t_j = (cumsum_j - r)/j,
    threshold at theta = t_rho with rho = 1 + #{j >= 2 : u_j > t_j},
    clip at zero. Worked on the negated rows v = -u, which sort
    ascending in place and give w = (cumsum(v) + r)/j = -t exactly
    (IEEE rounding is symmetric in sign), so the test is v_j < w_j and
    S - theta is S + w_rho; the clip maps a zero of either sign to +0.
    """
    n, p = S.shape
    V = np.negative(S)
    V.sort(axis=1)
    w = V.cumsum(axis=1)
    w += radius
    w /= _ranks(p)
    rho_1 = (V[:, 1:] < w[:, 1:]).sum(axis=1)  # rho - 1: j = 1 holds exactly
    rho_1 += np.arange(0, n * p, p)  # flat index of w_rho
    np.add(S, w.ravel()[rho_1][:, None], out=V)
    return np.maximum(V, 0.0, out=V)


def simplex_project(s):
    """Euclidean projection of a vector onto the probability simplex."""
    s = check_finite(s, "scores")
    if s.ndim != 1 or s.size == 0:
        raise ValueError("expected a nonempty 1-d vector")
    return _threshold_rows(s[None], 1.0)[0]


def simplex_project_rows(S):
    """Row-wise simplex projection of a 2-d array (vectorized)."""
    S = check_finite(S, "scores")
    if S.ndim != 2 or S.shape[1] == 0:
        raise ValueError("expected a 2-d array with nonzero row length")
    return _threshold_rows(S, 1.0)


def squared_distance_to_simplex(s):
    """Squared Euclidean distance from s to the probability simplex.

    Half of this quantity is differentiable with gradient s - proj(s).
    """
    s = np.asarray(s, dtype=float)
    d = s - simplex_project(s)
    return float(d @ d)


def _matrix(A):
    """A finite matrix as a float array; a 1-d array is one row."""
    A = np.atleast_2d(check_finite(A, "matrix"))
    if A.ndim > 2:
        raise ValueError(f"matrix must be 1-d or 2-d, got shape {A.shape}")
    return A


def nuclear_norm(A):
    """Sum of singular values."""
    return float(np.linalg.svd(_matrix(A), compute_uv=False).sum())


def nuclear_ball_project(A, radius):
    """Project a matrix onto the nuclear-norm ball of the given radius.

    SVD, reconstruct with the singular values projected onto the L1
    ball: past the radius, nonnegative values project by the simplex
    threshold at that radius. A matrix already inside the ball
    (including the zero matrix) is returned unchanged.
    """
    A = _matrix(A)
    check_numbers(dict(radius=radius), numbers.Real, above=0)
    U, sigma, V = svd_thin(A)
    if sigma.sum() <= radius:
        return A.copy()
    return (U * _threshold_rows(sigma[None], radius)[0]) @ V.T


def softmax_ref(s):
    """Reference softmax (max-subtracted for stability).

    Exists only for non-convexity demonstrations; never used in
    training or inference.
    """
    s = check_finite(s, "scores")
    e = np.exp(s - s.max())
    return e / e.sum()
