"""Convex losses over class scores and their (sub)gradients.

Both gradients treat the attention weights as fixed (stop-gradient):
attention is recomputed per mini-batch, then the loss is differentiated
through the scores only. Both end in one contraction, _contract, which
adds the per-sample terms in sample order, as einsum's
``nkp,npm->kpm`` does, so its bits are einsum's.
"""

import numpy as np

from .model import LOSS_KINDS, _score
from .numutil import as_floats, check_finite, check_labels


def one_hot(labels, n_classes, n=None):
    """One-hot rows of labels checked by check_labels (n labels if given)."""
    labels = check_labels(labels, n_classes, n)
    Y = np.zeros((labels.size, n_classes))
    Y[np.arange(labels.size), labels] = 1.0
    return Y


def _margins(f, labels):
    """(one-hot labels Y, best rival per sample with ties to the lowest
    index, row index, margin 1 - f_true + f_rival) of scores f (n, K)."""
    n, K = f.shape
    Y = one_hot(labels, K, n)
    true = Y > 0
    rival = np.where(true, -np.inf, f).argmax(axis=1)
    idx = np.arange(n)
    return Y, rival, idx, 1.0 - f[true] + f[idx, rival]


def hinge_loss(f, labels):
    """Mean multi-class hinge: max(0, 1 - f_true + best rival score)."""
    f = np.atleast_2d(check_finite(f, "scores"))
    if f.ndim != 2 or f.shape[1] < 2:
        raise ValueError(f"scores must be 2-d with at least 2 classes, got shape {f.shape}")
    with np.errstate(over="ignore"):
        return _finite(np.maximum(0.0, _margins(f, labels)[3]).mean())


def _finite(loss):
    """A loss as a float; one that overflows is refused, naming the scores."""
    if not loss < np.inf:
        raise ValueError("scores are too large: the loss overflows")
    return float(loss)


def _fixed_attention(Q, A, alpha, f):
    """(Q, alpha, f) as float arrays checked against Q and A; f, when
    omitted, is model._score's scores at the fixed attention alpha."""
    Q = as_floats(Q, "features")
    alpha = as_floats(alpha, "alpha")
    if alpha.shape != Q.shape[:1] + A.shape[:2]:
        raise ValueError(f"alpha shape {alpha.shape} != {Q.shape[:1] + A.shape[:2]}")
    f = _score(Q, A, alpha)[0] if f is None else as_floats(f, "scores")
    if f.shape != alpha.shape[:2]:
        raise ValueError(f"scores shape {f.shape} != {alpha.shape[:2]}")
    return Q, alpha, f


def _contract(coeff, alpha, Q):
    """sum_i coeff[i, k] alpha[i, k, p] Q[i, p, :] / n as a (K, P, m)
    array. The products form over the flattened P*m axis, so each
    elementwise call runs K*P*m long instead of m, and the reduction
    over the leading axis adds the samples in order: the bits equal
    einsum("nkp,npm->kpm", coeff[:, :, None] * alpha, Q) / n."""
    n, K, P = alpha.shape
    m = Q.shape[2]
    W = np.repeat(coeff[:, :, None] * alpha, m, axis=2)
    W *= Q.reshape(n, 1, P * m)
    G = W.sum(axis=0)
    G /= n
    return G.reshape(K, P, m)


def hinge_subgradient(Q, labels, A, alpha, f=None):
    """Subgradient of the hinge loss w.r.t. the weight tensor.

    Q: (n, P, m) features; alpha (n, K, P) and f (n, K) as returned by
    model.batch_class_scores (f is recomputed when omitted). Per violating
    sample the rival block gains alpha*Q_p and the true-class block loses
    it; samples with margin <= 0 contribute the zero subgradient.
    """
    Q, alpha, f = _fixed_attention(Q, A, alpha, f)
    Y, rival, idx, margin = _margins(f, labels)
    coeff = 0.0 - Y  # +0.0 off the label, as a zero-filled start gives
    coeff[idx, rival] = 1.0
    coeff[~(margin > 0)] = 0.0  # margin <= 0: the zero subgradient
    return _contract(coeff, alpha, Q)


def squared_loss(f, Y):
    """Mean squared error against one-hot targets."""
    f = np.atleast_2d(check_finite(f, "scores"))
    Y = np.atleast_2d(check_finite(Y, "targets"))
    if f.shape != Y.shape:
        raise ValueError(f"scores shape {f.shape} does not match targets {Y.shape}")
    with np.errstate(over="ignore"):
        r = f - Y
        return _finite(np.einsum("nk,nk->", r, r) / f.shape[0])


def squared_gradient(Q, Y, A, alpha, f=None):
    """Gradient of the squared loss w.r.t. the weight tensor.

    Block (k, p) receives 2 (f_k - Y_k) alpha[k, p] Q_p per sample,
    averaged over the batch; f is as in hinge_subgradient.
    """
    Q, alpha, f = _fixed_attention(Q, A, alpha, f)
    Y = np.atleast_2d(as_floats(Y, "targets"))
    if Y.shape != f.shape:
        raise ValueError(f"target shape {Y.shape} != scores {f.shape}")
    return _contract(2.0 * (f - Y), alpha, Q)


def loss_functions(kind):
    """(loss, gradient, target) of a kind in LOSS_KINDS; target(labels, K)
    is the labels for hinge and their one-hot rows for squared. Looked up
    per call, so a wrapper rebound over a module function is returned."""
    if kind == "hinge":
        return hinge_loss, hinge_subgradient, lambda labels, n_classes: labels
    if kind == "squared":
        return squared_loss, squared_gradient, one_hot
    raise ValueError(f"unknown loss kind {kind!r}; valid: {list(LOSS_KINDS)}")
