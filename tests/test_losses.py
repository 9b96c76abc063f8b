import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from convexattn.losses import (
    LOSS_KINDS,
    hinge_loss,
    hinge_subgradient,
    loss_functions,
    one_hot,
    squared_gradient,
    squared_loss,
)
from convexattn.model import _score, batch_class_scores

import reference_kernels
from reference_kernels import fixed_alpha_scores


def test_hinge_hand_cases():
    assert hinge_loss(np.array([[2.0, 0.5]]), [0]) == pytest.approx(0.0)
    assert hinge_loss(np.array([[0.2, 0.5]]), [0]) == pytest.approx(1.3)
    assert hinge_loss(np.zeros((3, 4)), [0, 1, 2]) == pytest.approx(1.0)


def test_hinge_nonnegative():
    rng = np.random.default_rng(0)
    for _ in range(100):
        f = rng.normal(size=(6, 4)) * 3
        y = rng.integers(0, 4, 6)
        assert hinge_loss(f, y) >= 0.0


def test_hinge_convex_in_scores():
    rng = np.random.default_rng(1)
    for _ in range(200):
        f1, f2 = rng.normal(size=(2, 5, 4)) * 2
        y = rng.integers(0, 4, 5)
        t = rng.uniform()
        lhs = hinge_loss(t * f1 + (1 - t) * f2, y)
        rhs = t * hinge_loss(f1, y) + (1 - t) * hinge_loss(f2, y)
        assert lhs <= rhs + 1e-12


def test_hinge_subgradient_zero_when_no_violation():
    rng = np.random.default_rng(2)
    Q = rng.normal(size=(3, 4, 2))
    A = rng.normal(size=(2, 4, 2))
    _, alpha, _ = batch_class_scores(Q, A)
    # force huge margins for class 0
    big = A * 0
    big[0] = 100.0 * Q.mean(axis=0)
    y = np.zeros(3, dtype=int)
    g = hinge_subgradient(Q, y, alpha, fixed_alpha_scores(Q, big, alpha))
    assert np.allclose(g, 0.0)


def test_hinge_subgradient_single_violator_blocks():
    # one-hot attention concentrates the update in two (class, patch) blocks
    P, m, K = 3, 2, 3
    Q = np.random.default_rng(3).normal(size=(1, P, m))
    A = np.zeros((K, P, m))
    alpha = np.zeros((1, K, P))
    alpha[0, :, 1] = 1.0
    y = np.array([0])
    g = hinge_subgradient(Q, y, alpha, fixed_alpha_scores(Q, A, alpha))
    nonzero_blocks = {
        (k, p) for k in range(K) for p in range(P) if np.any(g[k, p] != 0)
    }
    assert nonzero_blocks == {(0, 1), (1, 1)}  # true class and lowest rival


def test_squared_hand_cases():
    Y = one_hot([1], 4)
    assert squared_loss(Y, Y) == pytest.approx(0.0)
    assert squared_loss(np.zeros((1, 4)), Y) == pytest.approx(1.0)


def test_squared_matches_naive_sum():
    rng = np.random.default_rng(5)
    f = rng.normal(size=(7, 4))
    Y = one_hot(rng.integers(0, 4, 7), 4)
    naive = sum(np.sum((Y[i] - f[i]) ** 2) for i in range(7)) / 7
    assert squared_loss(f, Y) == pytest.approx(naive, abs=1e-12)


def test_squared_gradient_zero_at_minimum():
    rng = np.random.default_rng(6)
    n, P, m, K = 2, 3, 2, 2
    Q = rng.normal(size=(n, P, m))
    A = rng.normal(size=(K, P, m))
    f, alpha, _ = batch_class_scores(Q, A)
    Y = fixed_alpha_scores(Q, A, alpha)  # targets equal to predictions
    g = squared_gradient(Q, Y, alpha, f)
    assert np.allclose(g, 0.0, atol=1e-12)


def test_squared_gradient_uniform_attention_closed_form():
    # with uniform attention, block (k, p) gets 2 (f_k - Y_k) Qbar... the
    # closed form reduces to (2/P) (f_k - Y_k) Q_p per block
    rng = np.random.default_rng(7)
    P, m, K = 4, 3, 2
    Q = rng.normal(size=(1, P, m))
    A = rng.normal(size=(K, P, m))
    alpha = np.full((1, K, P), 1.0 / P)
    Y = one_hot([1], K)
    f = fixed_alpha_scores(Q, A, alpha)
    g = squared_gradient(Q, Y, alpha, f)
    for k in range(K):
        for p in range(P):
            expect = 2.0 * (f[0, k] - Y[0, k]) * Q[0, p] / P
            assert np.allclose(g[k, p], expect, atol=1e-12)


def test_squared_finite_difference():
    rng = np.random.default_rng(8)
    h = 1e-6
    for _ in range(50):
        n, P, m, K = 3, 4, 2, 3
        Q = rng.normal(size=(n, P, m))
        A = rng.normal(size=(K, P, m))
        y = rng.integers(0, K, n)
        Y = one_hot(y, K)
        _, alpha, _ = batch_class_scores(Q, A)
        g = squared_gradient(Q, Y, alpha, fixed_alpha_scores(Q, A, alpha))
        D = rng.normal(size=A.shape)
        fd = (
            squared_loss(fixed_alpha_scores(Q, A + h * D, alpha), Y)
            - squared_loss(fixed_alpha_scores(Q, A - h * D, alpha), Y)
        ) / (2 * h)
        assert abs(fd - float((g * D).sum())) <= 1e-6


def test_squared_convex_along_lines():
    # second differences of the fixed-attention loss along random lines
    rng = np.random.default_rng(9)
    for _ in range(100):
        n, P, m, K = 3, 3, 2, 2
        Q = rng.normal(size=(n, P, m))
        A = rng.normal(size=(K, P, m))
        y = rng.integers(0, K, n)
        Y = one_hot(y, K)
        _, alpha, _ = batch_class_scores(Q, A)
        D = rng.normal(size=A.shape)
        t = rng.uniform(0.1, 1.0)
        l0 = squared_loss(fixed_alpha_scores(Q, A - t * D, alpha), Y)
        l1 = squared_loss(fixed_alpha_scores(Q, A, alpha), Y)
        l2 = squared_loss(fixed_alpha_scores(Q, A + t * D, alpha), Y)
        assert l0 + l2 - 2 * l1 >= -1e-9


@pytest.mark.parametrize("P,m", [(10, 9), (30, 3)])
def test_gradients_reuse_forward_scores(P, m):
    # train passes the forward pass's f to the gradients: it is, bit for
    # bit, the fixed-attention score at the forward pass's own alpha
    rng = np.random.default_rng(P)
    n, K = 16, 4
    Q = np.sqrt(2.0 / m) * np.cos(rng.normal(size=(n, P, m)))
    A = rng.normal(scale=0.3, size=(K, P, m))
    f, alpha, _ = batch_class_scores(Q, A)
    fixed = _score(Q, A, alpha)[0]
    assert np.array_equal(f.view(np.uint64), fixed.view(np.uint64))


def test_shape_mismatch_rejected():
    Q = np.zeros((2, 3, 2))
    with pytest.raises(ValueError, match="alpha shape"):
        hinge_subgradient(Q, [0, 1], np.zeros((2, 2, 4)), np.zeros((2, 2)))
    with pytest.raises(ValueError, match="target shape"):
        squared_gradient(Q, np.zeros((3, 2)), np.zeros((2, 2, 3)), np.zeros((2, 2)))
    for bad_rank in (Q[0], Q[..., None]):
        with pytest.raises(ValueError, match="alpha shape"):
            hinge_subgradient(bad_rank, [0, 1], np.zeros((2, 2, 3)), np.zeros((2, 2)))
    # a 6-row batch with the forward pass's scores: too few or too many
    # labels, and scores of the wrong shape, are named, not broadcast
    n, K = 6, 2
    Q, alpha, f = np.zeros((n, 3, 2)), np.zeros((n, K, 3)), np.zeros((n, K))
    for labels in ([0], [0] * 7):
        with pytest.raises(ValueError, match="labels length must match score rows"):
            hinge_subgradient(Q, labels, alpha, f)
    for grad, target in ((hinge_subgradient, [0] * n), (squared_gradient, np.zeros((n, K)))):
        for bad in (np.zeros((n, K + 1)), np.zeros((n - 1, K)), np.zeros(n)):
            with pytest.raises(ValueError, match="scores shape"):
                grad(Q, target, alpha, bad)


def test_loss_functions_table():
    labels = np.array([0, 2, 1])
    f = np.array([[2.0, 0.0, 0.0], [0.5, 0.0, 1.0], [0.0, 0.0, 0.3]])
    for kind in LOSS_KINDS:
        loss, _, target = loss_functions(kind)
        Y = target(labels, 3)
        direct = hinge_loss(f, labels) if kind == "hinge" else squared_loss(f, one_hot(labels, 3))
        assert loss(f, Y) == direct
    assert loss_functions("hinge")[1] is hinge_subgradient
    assert loss_functions("squared")[1] is squared_gradient
    with pytest.raises(ValueError, match="unknown loss kind 'Hinge'"):
        loss_functions("Hinge")


def test_one_hot_edge_labels():
    assert one_hot(np.array([], dtype=int), 4).shape == (0, 4)
    # labels are an integer array: an empty list reads as float64, and a
    # float label is refused whatever its value (more refusals: test_boundary)
    for labels in ([], [1.0, 3.0]):
        with pytest.raises(ValueError, match=r"^labels must be integers, got dtype float64$"):
            one_hot(labels, 4)


@st.composite
def gradient_cases(draw):
    """(Q, labels, alpha, f) for n 1-40, K 2-5, P 1-30 and m 1-9,
    with entries of Q and alpha set to 0.0 or -0.0 and scores f on a
    grid of ties, zero margins and both zeros, or continuous."""
    n, K, P, m = (draw(st.integers(lo, hi)) for lo, hi in ((1, 40), (2, 5), (1, 30), (1, 9)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zeros = draw(st.sampled_from([0.0, 0.3, 0.8]))

    def with_zeros(a):
        hit = rng.random(a.shape) < zeros
        a[hit] = np.where(rng.random(a.shape) < 0.5, 0.0, -0.0)[hit]
        return a

    Q = with_zeros(np.sqrt(2.0 / m) * np.cos(rng.normal(size=(n, P, m))))
    alpha = with_zeros(rng.dirichlet(np.ones(P), size=(n, K)))
    if draw(st.booleans()):
        f = rng.choice([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0], size=(n, K))
    else:
        f = rng.normal(size=(n, K))
    return Q, rng.integers(0, K, n), alpha, f


GRADIENT_PROPERTY = settings(max_examples=300, deadline=None,
                             suppress_health_check=[HealthCheck.too_slow])


@GRADIENT_PROPERTY
@given(case=gradient_cases())
def test_hinge_subgradient_matches_einsum_bitwise(case):
    Q, labels, alpha, f = case
    got = hinge_subgradient(Q, labels, alpha, f)
    want = reference_kernels.hinge_subgradient(Q, labels, alpha, f)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@GRADIENT_PROPERTY
@given(case=gradient_cases())
def test_squared_gradient_matches_einsum_bitwise(case):
    Q, labels, alpha, f = case
    # one-hot targets give coefficients 2 (f - Y) of -0.0 where f is
    # -0.0 off the label, and 0.0 where f equals its target
    Y = one_hot(labels, f.shape[1])
    got = squared_gradient(Q, Y, alpha, f)
    want = reference_kernels.squared_gradient(Q, Y, alpha, f)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
