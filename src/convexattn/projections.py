"""Convex projection operators.

Euclidean projection onto the probability simplex (sort-and-threshold),
projection of a matrix onto a nuclear-norm ball (the same threshold on
its singular values), and a reference softmax kept only for
non-convexity demonstrations.
"""

import functools
import numbers

import numpy as np

from .numutil import as_floats, check_finite, check_matrix, check_numbers, nuclear_sum, svd_thin


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


def _vector(s):
    """s as a nonempty 1-d float array, named scores."""
    s = as_floats(s, "scores")
    if s.ndim != 1 or s.size == 0:
        raise ValueError(f"scores must be a nonempty 1-d vector, got shape {s.shape}")
    return s


def simplex_project(s):
    """Euclidean projection of a vector onto the probability simplex."""
    return simplex_project_rows(_vector(s)[None])[0]


def simplex_project_rows(S):
    """Row-wise simplex projection of a 2-d array (vectorized); a row whose
    projection would not sum to 1 within 1e-12 is refused. Rounding moves a
    sum by at most about eps * m * (p + 2)**2 / 4 for |entries| <= m in rows
    of length p, so the sums are checked only past m = 2**13 / (p + 2)**2."""
    S = as_floats(S, "scores")
    if S.ndim != 2 or S.shape[1] == 0:
        raise ValueError(f"scores must be 2-d with nonzero row length, got shape {S.shape}")
    if np.abs(S).max(initial=0.0) <= 2**13 / (S.shape[1] + 2) ** 2:  # NaN fails too
        return _threshold_rows(S, 1.0)
    check_finite(S, "scores")
    with np.errstate(over="ignore"):
        A = _threshold_rows(S, 1.0)
        off = np.abs(A.sum(axis=1) - 1.0) > 1e-12
    if off.any():
        raise ValueError(f"scores row {off.argmax()} is too large to project onto the simplex")
    return A


def squared_distance_to_simplex(s):
    """Squared Euclidean distance from s to the probability simplex.

    Half of this quantity is differentiable with gradient s - proj(s).
    """
    s = as_floats(s, "scores")
    d = s - simplex_project(s)
    with np.errstate(over="ignore"):
        dist = float(d @ d)
    if dist == np.inf:
        raise ValueError("scores are too large: their squared distance to the simplex overflows")
    return dist


def nuclear_norm(A):
    """Sum of singular values (numutil.nuclear_sum)."""
    return float(nuclear_sum(np.linalg.svd(check_matrix(A), compute_uv=False)))


def nuclear_ball_project(A, radius):
    """Project a matrix onto the nuclear-norm ball of the given radius.

    SVD, reconstruct with the singular values projected onto the L1
    ball: past the radius, nonnegative values project by the simplex
    threshold at that radius. A matrix already inside the ball
    (including the zero matrix) is returned unchanged; one whose
    projected singular values do not sum to the radius within 1e-12
    (rounding lost it) is refused.
    """
    A = check_matrix(A)
    check_numbers(dict(radius=radius), numbers.Real, above=0)
    U, sigma, V = svd_thin(A)
    if sigma.sum() <= radius:
        return A.copy()
    sigma = _threshold_rows(sigma[None], radius)[0]
    if not abs(sigma.sum() - radius) <= 1e-12 * radius:
        raise ValueError("matrix is too large to project: rounding loses the radius")
    return (U * sigma) @ V.T


def softmax_ref(s):
    """Reference softmax (max-subtracted for stability).

    Exists only for non-convexity demonstrations; never used in
    training or inference.
    """
    s = _vector(check_finite(s, "scores"))
    with np.errstate(over="ignore"):  # below -max, s - max is -inf: weight 0
        e = np.exp(s - s.max())
    return e / e.sum()
