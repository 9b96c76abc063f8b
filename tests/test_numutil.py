import math
import numbers
import re

import numpy as np
import pytest

from convexattn.numutil import RngStream, as_floats, check_numbers, svd_thin

from test_boundary import COUNTS, NOT_REAL, NOT_REAL_ROWS, ROWS, refuses


def test_svd_identity():
    U, s, V = svd_thin(np.eye(2))
    assert np.allclose(s, [1.0, 1.0])


def test_svd_diagonal():
    U, s, V = svd_thin(np.diag([3.0, 1.0]))
    assert np.allclose(s, [3.0, 1.0])


def test_svd_reconstruction_and_gram_oracle():
    rng = np.random.default_rng(42)
    M = rng.normal(size=(40, 9))
    U, s, V = svd_thin(M)
    R = (U * s) @ V.T
    assert np.linalg.norm(R - M) <= 1e-9 * max(1.0, np.linalg.norm(M))
    # independent oracle: singular values from eigenvalues of M^T M
    ev = np.sort(np.linalg.eigvalsh(M.T @ M))[::-1]
    assert np.allclose(s, np.sqrt(np.maximum(ev, 0.0)), atol=1e-8)


def test_svd_properties_random_sizes():
    rng = np.random.default_rng(0)
    for _ in range(20):
        r, c = rng.integers(1, 129, size=2)
        M = rng.normal(size=(r, c))
        U, s, V = svd_thin(M)
        assert np.all(np.diff(s) <= 1e-12)
        assert np.all(s >= 0)
        assert np.linalg.norm((U * s) @ V.T - M) <= 1e-9 * max(1.0, np.linalg.norm(M))
        k = min(r, c)
        assert np.allclose(U.T @ U, np.eye(k), atol=1e-9)
        assert np.allclose(V.T @ V, np.eye(k), atol=1e-9)
        # nuclear norm consistent with the Gram-eigenvalue oracle
        ev = np.maximum(np.linalg.eigvalsh(M.T @ M if c <= r else M @ M.T), 0.0)
        assert abs(s.sum() - np.sqrt(ev).sum()) <= 1e-8 * max(1.0, s.sum())


def test_gauss_clt_bound():
    x = RngStream(1).gauss(10000, 0.0, 1.0)
    assert -0.05 <= x.mean() <= 0.05
    assert x.shape == (10000,)


def test_gauss_single_value():
    x = RngStream(9).gauss(1, 3.0, 0.5)
    assert x.shape == (1,) and np.isfinite(x[0])


def test_gauss_rejects_bad_stddev():
    # and a NaN or infinite mean: normal() would return NaNs or infinities
    for mean, stddev in ((0.0, 0.0), (0.0, -1.0), (0.0, math.nan), (0.0, math.inf),
                         (math.nan, 1.0), (-math.inf, 1.0)):
        message = f"need a finite mean and a finite stddev > 0, got {mean}, {stddev}"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            RngStream(0).gauss(10, mean, stddev)


def test_uniform_range_and_mean():
    x = RngStream(3).uniform(1000, 0.0, 2 * np.pi)
    assert np.all((x >= 0) & (x < 2 * np.pi))
    y = RngStream(4).uniform(100000, 0.0, 1.0)
    assert 0.49 <= y.mean() <= 0.51


def test_uniform_rejects_bad_range():
    with pytest.raises(ValueError):
        RngStream(0).uniform(5, 1.0, 1.0)


def test_rng_reproducible():
    a = RngStream(42)
    b = RngStream(42)
    assert np.array_equal(a.gauss(100), b.gauss(100))
    assert np.array_equal(a.uniform(100), b.uniform(100))


def test_derived_streams_differ():
    root = RngStream(7)
    assert not np.array_equal(root.derive(1).gauss(10), root.derive(2).gauss(10))
    # deriving is itself reproducible
    assert np.array_equal(RngStream(7).derive(1).gauss(10), RngStream(7).derive(1).gauss(10))
    # and keyed by (seed, offset) alone: the parent's stream plays no part
    assert np.array_equal(RngStream(7, 11).derive(1).gauss(10), RngStream(7).derive(1).gauss(10))


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_derive_each_draws_what_derive_draws(seed):
    # repeated and unsorted offsets, and a different number of draws per
    # stream: an odd count of small integers leaves half a 64-bit word
    # buffered, which must not reach the next stream
    offsets = [2**63, 0, 1, 2**64 - 1, 0, 2**63, 1]

    def draws(g, j):
        return [g.uniform(j + 1, -2.0, 3.0), g.integers(2 * j + 1, 7),
                g.gauss(j + 3, 1.0, 0.5), g.shuffled(np.arange(j + 2)),
                g.integers(j + 1, 2**40)]

    seen = []
    for j, g in enumerate(RngStream(seed).derive_each(offsets)):
        seen.append(g.stream)
        ref = draws(RngStream(seed).derive(offsets[j]), j)
        for got, want in zip(draws(g, j), ref):
            assert got.dtype == want.dtype
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert seen == offsets


@pytest.mark.parametrize("stream", [-1, 2**64])
def test_streams_outside_64_bits_rejected(stream):
    # -1 would wrap to stream 2**64 - 1 and 2**64 to stream 0
    with pytest.raises(ValueError, match="stream must fit in 64 bits"):
        RngStream(5).derive(stream)
    with pytest.raises(ValueError, match="stream must fit in 64 bits"):
        RngStream(5, stream)
    with pytest.raises(ValueError, match="stream must fit in 64 bits"):
        list(RngStream(5).derive_each([3, stream]))


def test_check_numbers_order_and_messages():
    # type, then the float range, then the bound; numpy's numbers pass
    check_numbers(dict(m=np.int64(3), big=10**400), numbers.Integral, least=1)
    check_numbers(dict(gamma=np.float32(0.5), eta=1), numbers.Real, above=0)
    for values, kind, bounds, message in [
        (dict(m=2.5), numbers.Integral, dict(least=1), "m must be an integer, got 2.5"),
        (dict(m=True), numbers.Integral, dict(least=1), "m must be an integer, got True"),
        (dict(eta="1"), numbers.Real, dict(above=0), "eta must be a number, got '1'"),
        (dict(eta=math.nan), numbers.Real, dict(above=0), "eta must be finite, got nan"),
        (dict(eta=np.float32(math.inf)), numbers.Real, {},
         "eta must be finite, got np.float32(inf)"),
        (dict(eta=-math.inf), numbers.Real, dict(least=0), "eta must be finite, got -inf"),
        (dict(eta=10**309), numbers.Real, {}, f"eta must be finite, got {10**309}"),
        (dict(m=1, n=0), numbers.Integral, dict(least=1), "n must be >= 1, got 0"),
        (dict(eta=0.0), numbers.Real, dict(above=0), "eta must be > 0, got 0.0"),
        (dict(rate=-1), (int, float), dict(above=0), "rate must be > 0, got -1"),
    ]:
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            check_numbers(values, kind, **bounds)


def test_as_floats_keeps_float64_and_casts_real_numbers():
    x = np.zeros((4, 10))
    assert as_floats(x) is x  # never copied, so no bit moves
    for a in ([1, 2], np.arange(3, dtype=np.uint8), np.float32([0.5, -2.0])):
        got = as_floats(a)
        assert got.dtype == np.float64 and np.array_equal(got, np.asarray(a))


# The boundary table's count and dtype examples: test_boundary.COUNTS,
# and each row of NOT_REAL_ROWS made complex, text, object or bool.
@pytest.mark.parametrize("call,message", COUNTS.values(), ids=COUNTS)
def test_public_functions_refuse_bad_counts_and_scales(call, message):
    refuses(call, message)


@pytest.mark.parametrize("kind", list(NOT_REAL))
@pytest.mark.parametrize("name", NOT_REAL_ROWS)
def test_public_functions_refuse_arrays_that_are_not_real(name, kind):
    # each used to run on the real part (after a ComplexWarning), on the
    # parsed text, or on bools read as 0/1
    row = ROWS[name]
    bad = NOT_REAL[kind](row.valid)
    refuses(lambda: row.call(bad), f"{row.names[0]} must hold real numbers, got dtype {bad.dtype}")
