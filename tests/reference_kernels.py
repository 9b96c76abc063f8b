"""The hot kernels written the plain way, kept as bitwise references,
and the oracles the tests check the package against.

The threshold counts rho with count_nonzero, as the kernel was first
written; the scorer and the gradients are einsums with the scaling
written out. Tests compare the package with these as uint64 views, so
a kernel change that moves one bit of a model fails on any machine.
"""

import numpy as np

from convexattn.features import rff_init, zscore_fit
from convexattn.model import ModelBundle
from convexattn.numutil import RngStream


def lift(X, stats, spec, rmap):
    """features.lift as a per-gesture loop: each gesture normalized,
    patch-reshaped and cosine-mapped on its own, written out."""
    mean, std = stats
    fpp, P = spec.frames_per_patch, spec.patches
    Q = np.empty((len(X), P, rmap.m))
    for i, x in enumerate(X):
        xn = (x - mean[:, None]) / std[:, None]
        rows = xn.reshape(spec.channels, P, fpp).transpose(1, 2, 0).reshape(P, spec.patch_dim)
        Q[i] = np.sqrt(2.0 / rmap.m) * np.cos(rows @ rmap.W + rmap.b)
    return Q


def threshold_rows(S, radius):
    """Sort-and-threshold, row-wise, with rho counted by count_nonzero."""
    n, p = S.shape
    U = np.sort(S, axis=1)[:, ::-1]
    css = np.cumsum(U, axis=1) - radius
    j = np.arange(1, p + 1)
    rho = np.count_nonzero(U - css / j > 0, axis=1)
    theta = css[np.arange(n), rho - 1] / rho
    return np.maximum(S - theta[:, None], 0.0)


def simplex_qp_oracle(s):
    """Active-set oracle: try every top-j support of the sorted vector,
    keep KKT-feasible candidates, return the closest one."""
    s = np.asarray(s, dtype=float)
    order = np.argsort(s)[::-1]
    best, best_d = None, np.inf
    for j in range(1, s.size + 1):
        sup = order[:j]
        theta = (s[sup].sum() - 1.0) / j
        alpha = np.zeros_like(s)
        alpha[sup] = s[sup] - theta
        if np.any(alpha[sup] < -1e-12):
            continue
        if np.any(s[order[j:]] - theta > 1e-12):
            continue
        d = np.sum((alpha - s) ** 2)
        if d < best_d:
            best, best_d = alpha, d
    return best


def fixed_alpha_scores(Q, A, alpha):
    """Class scores (n, K) with attention frozen at alpha: linear in A,
    so finite differences of a loss through it check a gradient."""
    s = np.einsum("npm,kpm->nkp", Q, A)
    return np.einsum("nkp,nkp->nk", alpha, s)


def scores(Q, A):
    """(f, alpha, s) of Q (n, P, m): s = einsum / sqrt(m), alpha its
    thresholded rows, f = sqrt(m) * einsum(alpha, s)."""
    root_m = np.sqrt(Q.shape[2])
    s = np.einsum("npm,kpm->nkp", Q, A) / root_m
    alpha = threshold_rows(s.reshape(-1, Q.shape[1]), 1.0).reshape(s.shape)
    f = root_m * np.einsum("nkp,nkp->nk", alpha, s)
    return f, alpha, s


def _margins(f, labels):
    n, K = f.shape
    true = np.eye(K)[labels] > 0
    rival = np.where(true, -np.inf, f).argmax(axis=1)
    return true, rival, 1.0 - f[true] + f[np.arange(n), rival]


def hinge_loss(f, labels):
    return float(np.maximum(0.0, _margins(f, labels)[2]).mean())


def hinge_subgradient(Q, labels, alpha, f):
    """-alpha Q on the true class and +alpha Q on the best rival of each
    sample with a positive margin, averaged over the batch."""
    true, rival, margin = _margins(f, labels)
    coeff = 0.0 - true
    coeff[np.arange(len(f)), rival] = 1.0
    coeff[~(margin > 0)] = 0.0
    return np.einsum("nkp,npm->kpm", coeff[:, :, None] * alpha, Q) / len(Q)


def squared_loss(f, Y):
    r = f - Y
    return float(np.einsum("nk,nk->", r, r) / f.shape[0])


def squared_gradient(Q, Y, alpha, f):
    r = 2.0 * (f - Y)
    return np.einsum("nkp,npm->kpm", r[:, :, None] * alpha, Q) / Q.shape[0]


def nuclear_ball_project(M, radius):
    U, sigma, Vt = np.linalg.svd(M, full_matrices=False)
    if sigma.sum() <= radius:
        return M.copy()
    return (U * threshold_rows(sigma[None], radius)[0]) @ Vt


def train(X, y, config):
    """trainer.train as one plain loop over the reference kernels:
    (bundle, per-epoch losses, accuracies and nuclear norms)."""
    K, spec, m = config.n_classes, config.spec, config.m
    root = RngStream(config.seed)
    rff = rff_init(spec, m, config.gamma, root.derive(1))
    A = root.derive(2).gauss(K * spec.patches * m, 0.0, 0.01).reshape(K, spec.patches, m)
    batch_rng = root.derive(3)
    stats = zscore_fit(X)
    Q = lift(X, stats, spec, rff)
    Y = np.eye(K)[y]
    hinge = config.loss_kind == "hinge"
    losses, accuracies, norms = [], [], []
    for _ in range(config.epochs):
        for _ in range(config.batches_per_epoch):
            idx = batch_rng.integers(config.batch_size, len(y))
            f, alpha, _ = scores(Q[idx], A)
            if hinge:
                g = hinge_subgradient(Q[idx], y[idx], alpha, f)
            else:
                g = squared_gradient(Q[idx], Y[idx], alpha, f)
            A -= config.eta * g
        A = nuclear_ball_project(A.reshape(-1, m), config.nuclear_radius).reshape(A.shape)
        f, _, _ = scores(Q, A)
        losses.append(hinge_loss(f, y) if hinge else squared_loss(f, Y))
        accuracies.append(float((f.argmax(axis=1) == y).mean()))
        norms.append(float(np.linalg.svd(A.reshape(-1, m), compute_uv=False).sum()))
    bundle = ModelBundle(rff=rff, weights=A, spec=spec, norm_mean=stats[0],
                         norm_std=stats[1], loss_kind=config.loss_kind)
    return bundle, losses, accuracies, norms
