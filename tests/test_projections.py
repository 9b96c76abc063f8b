import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from convexattn.projections import (
    _threshold_rows,
    nuclear_ball_project,
    nuclear_norm,
    simplex_project,
    simplex_project_rows,
    softmax_ref,
    squared_distance_to_simplex,
)
from reference_kernels import simplex_qp_oracle
from reference_kernels import threshold_rows as _threshold_rows_count_nonzero


def test_already_on_simplex():
    s = np.array([0.25, 0.25, 0.25, 0.25])
    assert np.allclose(simplex_project(s), s)


def test_hand_checked_cases():
    assert np.allclose(simplex_project(np.array([2.0, 0.0])), [1.0, 0.0])
    assert np.allclose(simplex_project(np.array([1.0, 0.5])), [0.75, 0.25])


def test_oracle_equivalence():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        p = rng.integers(2, 31)
        s = rng.uniform(-5, 5, size=p)
        assert np.max(np.abs(simplex_project(s) - simplex_qp_oracle(s))) <= 1e-9


@pytest.mark.parametrize("width", [3, 10, 30])
@pytest.mark.parametrize("radius", [1.0, 5.158])
def test_threshold_rows_matches_reference(width, radius):
    rng = np.random.default_rng(width)
    S = np.concatenate([
        rng.uniform(-5, 5, size=(200, width)),
        rng.integers(-2, 3, size=(200, width)) * 0.5,  # ties and duplicates
        np.repeat(rng.normal(size=(20, 1)), width, axis=1),  # constant rows
    ])
    assert np.array_equal(_threshold_rows(S, radius), _threshold_rows_count_nonzero(S, radius))


# -- properties

PROPERTY = settings(max_examples=200, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

bounded = st.floats(-100.0, 100.0)


@st.composite
def score_rows(draw):
    """(S, radius): rows of width 1-40, each continuous, drawn from a
    half-step grid (ties, duplicates and both zeros) or one repeated
    value."""
    width = draw(st.integers(1, 40))
    grid = st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0])
    rows = []
    for kind in draw(st.lists(st.sampled_from(["continuous", "grid", "constant"]),
                              min_size=1, max_size=6)):
        if kind == "constant":
            rows.append([draw(bounded)] * width)
        else:
            values = bounded if kind == "continuous" else grid
            rows.append(draw(st.lists(values, min_size=width, max_size=width)))
    return np.array(rows), draw(st.floats(0.0, 10.0, exclude_min=True))


@PROPERTY
@given(case=score_rows())
def test_threshold_rows_property(case):
    S, radius = case
    top = S.max(axis=1)
    # a radius below half an ulp of a row's maximum leaves the reference
    # no j with a positive margin, and it divides by rho = 0
    assume(np.all(top - radius < top))
    got = _threshold_rows(S, radius)
    assert np.array_equal(got.view(np.uint64),
                          _threshold_rows_count_nonzero(S, radius).view(np.uint64))


@PROPERTY
@given(s=st.integers(1, 40).flatmap(lambda w: st.lists(bounded, min_size=w, max_size=w)),
       c=bounded)
def test_simplex_project_property(s, c):
    s = np.array(s)
    a = simplex_project(s)
    assert np.max(np.abs(a - simplex_qp_oracle(s))) <= 1e-9
    assert np.max(np.abs(simplex_project(a) - a)) <= 1e-12  # idempotent
    assert np.max(np.abs(simplex_project(s + c) - a)) <= 1e-9  # shift-invariant


def test_threshold_rows_radius_below_ulp():
    # j = 1 counts even when the radius vanishes against the row maximum:
    # the threshold rounds to that maximum, as in the oracle, instead of
    # a division by rho = 0 (simplex_project refuses such a row: its
    # projection sums to 0, not 1)
    for s in ([1e17, -1e17], [1e17, 0.0]):
        s = np.array(s)
        assert np.array_equal(_threshold_rows(s[None], 1.0)[0], simplex_qp_oracle(s))


def test_rows_matches_single():
    rng = np.random.default_rng(1)
    S = rng.uniform(-5, 5, size=(50, 7))
    R = simplex_project_rows(S)
    for i in range(50):
        assert np.allclose(R[i], simplex_project(S[i]), atol=1e-12)


def test_output_is_on_simplex():
    rng = np.random.default_rng(2)
    for _ in range(200):
        a = simplex_project(rng.uniform(-10, 10, size=rng.integers(1, 20)))
        assert np.all(a >= -1e-12)
        assert abs(a.sum() - 1.0) <= 1e-9


def test_idempotence():
    rng = np.random.default_rng(3)
    for _ in range(100):
        a = simplex_project(rng.uniform(-5, 5, size=10))
        assert np.max(np.abs(simplex_project(a) - a)) <= 1e-12


def test_firm_nonexpansiveness():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        v, w = rng.uniform(-5, 5, size=(2, 8))
        pv, pw = simplex_project(v), simplex_project(w)
        d = pv - pw
        assert d @ d <= d @ (v - w) + 1e-12
        assert np.linalg.norm(d) <= np.linalg.norm(v - w) + 1e-12


def test_squared_distance_zero_on_simplex():
    assert squared_distance_to_simplex(np.array([0.3, 0.7])) == pytest.approx(0.0, abs=1e-15)
    assert squared_distance_to_simplex(np.array([2.0, 0.0])) == pytest.approx(1.0)


def test_squared_distance_gradient_finite_difference():
    # gradient of half the squared distance is v - proj(v)
    rng = np.random.default_rng(5)
    h = 1e-5
    worst = 0.0
    for _ in range(100):
        v = rng.uniform(-3, 3, size=6)
        g = v - simplex_project(v)
        for i in range(6):
            e = np.zeros(6)
            e[i] = h
            fd = (
                squared_distance_to_simplex(v + e) - squared_distance_to_simplex(v - e)
            ) / (4 * h)
            worst = max(worst, abs(fd - g[i]))
    assert worst <= 1e-6


def test_squared_distance_convexity():
    rng = np.random.default_rng(6)
    for _ in range(1000):
        v1, v2 = rng.uniform(-4, 4, size=(2, 5))
        t = rng.uniform()
        lhs = squared_distance_to_simplex(t * v1 + (1 - t) * v2)
        rhs = t * squared_distance_to_simplex(v1) + (1 - t) * squared_distance_to_simplex(v2)
        assert lhs <= rhs + 1e-9


def test_nuclear_project_diagonal_inside_unchanged():
    out = nuclear_ball_project(np.diag([1.0, 0.5]), 2.0)
    assert np.array_equal(out, np.diag([1.0, 0.5]))


def test_l1_ball_threshold_cases():
    # past the radius, the singular values take the L1-ball threshold
    out = nuclear_ball_project(np.diag([3.0, 1.0]), 2.0)
    assert np.allclose(np.diag(out), [2.0, 0.0])
    out = nuclear_ball_project(np.eye(3), 1.5)
    assert np.allclose(np.diag(out), [0.5, 0.5, 0.5])


def test_nuclear_project_diagonal():
    out = nuclear_ball_project(np.diag([3.0, 1.0]), 2.0)
    assert np.allclose(out, np.diag([2.0, 0.0]), atol=1e-12)


@pytest.mark.parametrize("radius", [0.0, -1.0])
def test_nuclear_project_rejects_nonpositive_radius(radius):
    with pytest.raises(ValueError, match="radius must be > 0"):
        nuclear_ball_project(np.eye(2), radius)


def test_nuclear_project_interior_unchanged():
    rng = np.random.default_rng(7)
    A = rng.normal(size=(6, 4)) * 0.1
    r = nuclear_norm(A) + 1.0
    assert np.linalg.norm(nuclear_ball_project(A, r) - A) <= 1e-9


def test_nuclear_one_row():
    # a one-row matrix is (1, c); a 1-d or 3-d array is refused (test_boundary)
    assert nuclear_norm(np.array([[3.0, 4.0]])) == 5.0
    out = nuclear_ball_project(np.array([[3.0, 4.0]]), 1.0)
    assert out.shape == (1, 2) and np.allclose(out, [[0.6, 0.8]], atol=1e-12)


def test_nuclear_project_zero_matrix():
    Z = np.zeros((3, 2))
    assert np.array_equal(nuclear_ball_project(Z, 1.0), Z)


def test_nuclear_project_radius_bound():
    rng = np.random.default_rng(8)
    A = rng.normal(size=(40, 9)) * 2
    out = nuclear_ball_project(A, 5.158)
    assert nuclear_norm(out) <= 5.158 + 1e-9


def test_nuclear_project_is_nearest_feasible():
    # no random feasible candidate may be strictly closer
    rng = np.random.default_rng(9)
    for _ in range(5):
        A = rng.normal(size=(5, 3))
        R = 0.5 * nuclear_norm(A)
        P = nuclear_ball_project(A, R)
        dp = np.linalg.norm(A - P)
        for _ in range(2000):
            C = rng.normal(size=(5, 3))
            C *= rng.uniform() * R / nuclear_norm(C)
            assert np.linalg.norm(A - C) >= dp - 1e-9


def test_softmax_values():
    out = softmax_ref(np.array([1.0, 0.0]))
    assert np.allclose(out, [0.731, 0.269], atol=1e-3)
    assert np.allclose(softmax_ref(np.array([0.0, 0.0])), [0.5, 0.5])
    assert np.allclose(softmax_ref(np.array([7.0, 7.0, 7.0])), np.ones(3) / 3)


def test_softmax_jensen_violation():
    # midpoint output exceeds the interpolated output in its first
    # component, so softmax cannot be convex
    z, zp = np.array([0.0, 0.0]), np.array([2.0, 0.0])
    mid = softmax_ref(0.5 * z + 0.5 * zp)
    interp = 0.5 * softmax_ref(z) + 0.5 * softmax_ref(zp)
    assert mid[0] == pytest.approx(0.731, abs=1e-3)
    assert interp[0] == pytest.approx(0.691, abs=1e-3)
    assert mid[0] > interp[0]
