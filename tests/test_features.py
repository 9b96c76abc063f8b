import warnings

import numpy as np
import pytest

from convexattn.dataio import SynthConfig, load_csv, save_csv, synth_generate
from convexattn.features import (
    PatchSpec,
    RffMap,
    lift,
    patchify,
    rff_init,
    rff_transform,
    zscore_fit,
)
from convexattn.model import ModelBundle, predict, scores
from convexattn.numutil import RngStream
from convexattn.trainer import TrainConfig, train

import reference_kernels


def test_patchspec_validation():
    with pytest.raises(ValueError):
        PatchSpec(channels=4, frames=10, patches=3)  # 3 does not divide 10
    # a field below 1 is named with its value
    for name in ("channels", "frames", "patches"):
        for bad in (0, -1):
            fields = {"channels": 4, "frames": 10, "patches": 10, name: bad}
            with pytest.raises(ValueError, match=f"^{name} must be >= 1, got {bad}$"):
                PatchSpec(**fields)
    spec = PatchSpec(channels=4, frames=10, patches=10)
    assert spec.patch_dim == 4


def test_zscore_fit_apply_round_trip():
    rng = np.random.default_rng(1)
    X = rng.normal(3.0, 2.0, size=(20, 4, 10))
    mean, std = zscore_fit(X)
    Z = (X - mean[:, None]) / std[:, None]
    assert np.allclose(Z.mean(axis=(0, 2)), 0.0, atol=1e-12)
    assert np.allclose(Z.std(axis=(0, 2)), 1.0, atol=1e-12)


def test_zscore_fit_bits_do_not_depend_on_layout(tmp_path):
    # the same values as a C-contiguous stack, load_csv's transposed
    # view, Fortran order and a non-contiguous slice: one set of bits
    ds = synth_generate(SynthConfig(kind="tap", samples_per_class=100, seed=0))
    save_csv(ds, tmp_path / "taps.csv")
    loaded = load_csv(tmp_path / "taps.csv").samples
    every_other = np.empty((2 * len(loaded),) + loaded.shape[1:])
    every_other[::2] = loaded
    layouts = [np.ascontiguousarray(loaded), loaded, np.asfortranarray(loaded),
               every_other[::2]]
    assert not loaded.flags.c_contiguous and not every_other[::2].flags.c_contiguous
    mean, std = zscore_fit(layouts[0])
    for X in layouts[1:]:
        m, s = zscore_fit(X)
        assert np.array_equal(m.view(np.uint64), mean.view(np.uint64))
        assert np.array_equal(s.view(np.uint64), std.view(np.uint64))


def test_zscore_constant_channel_clamped():
    X = np.ones((4, 2, 5))
    X[3, 1] = np.arange(5.0)
    with pytest.warns(UserWarning):
        mean, std = zscore_fit(X)
    assert std[0] == 1.0


def test_zscore_fit_needs_two_samples():
    with pytest.raises(ValueError):
        zscore_fit(np.ones((1, 2, 5)))
    with pytest.raises(ValueError):
        zscore_fit(np.ones((2, 5)))


SCALES = [1e-15, 1e-12, 1.0, 1e12]


@pytest.mark.parametrize("s", [1e-300, 1e-200, 1e-100, *SCALES, 1e100, 1e200, 1e300])
def test_zscore_fit_is_scale_free(s):
    # picofarads or raw counts: the statistics scale with the data, no
    # channel is called constant for being small, and no square of the
    # data under- or overflows near the ends of the float range
    X = np.random.default_rng(2).normal(3.0, 2.0, size=(20, 4, 10))
    mean, std = zscore_fit(X)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m, sd = zscore_fit(s * X)
    assert np.allclose(m, s * mean, rtol=1e-12, atol=0)
    assert np.allclose(sd, s * std, rtol=1e-12, atol=0)


@pytest.mark.parametrize("s", SCALES)
def test_zscore_constant_channel_clamped_at_every_scale(s):
    # channel 0 constant, channel 1 varying, channel 2 all zeros
    X = np.zeros((4, 3, 5))
    X[:, 0] = s
    X[3, 1] = s * np.arange(5.0)
    with pytest.warns(UserWarning, match=r"^constant channels \[0, 2\]: stddev clamped to 1$"):
        mean, std = zscore_fit(X)
    assert std[0] == std[2] == 1.0
    assert np.isclose(std[1], X[:, 1].std(), rtol=1e-12, atol=0)
    assert mean[0] == s


@pytest.mark.parametrize("scale,values", [
    (1e200, lambda X: X),  # squares in the data's units would overflow
    (1e308, lambda X: np.where(X > np.median(X), 1.0, -1.0)),  # so would sums
], ids=["huge", "near-max"])
def test_zscore_fit_is_finite_near_the_float_range(scale, values):
    X = values(synth_generate(SynthConfig(kind="tap", samples_per_class=5, seed=0)).samples)
    mean, std = zscore_fit(X)
    m, sd = zscore_fit(scale * X)
    assert np.allclose(m, scale * mean, rtol=1e-12, atol=0)
    assert np.allclose(sd, scale * std, rtol=1e-12, atol=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_zscore_fit_refuses_non_finite_statistics(bad):
    X = synth_generate(SynthConfig(kind="tap", samples_per_class=5, seed=0)).samples
    X[3, 2, 4] = bad
    with pytest.raises(ValueError, match=r"^channel 2: z-score statistics are not finite$"):
        zscore_fit(X)


def test_patchify_tap_shape():
    spec = PatchSpec(channels=4, frames=10, patches=10)
    X = np.arange(40.0).reshape(4, 10)
    patches = patchify(X, spec)
    assert patches.shape == (10, 4)


def test_patchify_small_example():
    spec = PatchSpec(channels=1, frames=4, patches=2)
    patches = patchify(np.array([[1.0, 2.0, 3.0, 4.0]]), spec)
    assert np.array_equal(patches, [[1.0, 2.0], [3.0, 4.0]])


def _patchify_loop(X, spec):
    # reference: patch p holds frames p*fpp..(p+1)*fpp-1, channel-major
    # within a frame
    fpp = spec.frames_per_patch
    out = np.empty((spec.patches, spec.patch_dim))
    for p in range(spec.patches):
        out[p] = X[:, p * fpp:(p + 1) * fpp].T.ravel()
    return out


@pytest.mark.parametrize("C,T,P", [(4, 10, 10), (4, 30, 30), (4, 30, 10), (1, 12, 4)])
def test_patchify_matches_loop(C, T, P):
    spec = PatchSpec(channels=C, frames=T, patches=P)
    X = np.random.default_rng(T + P).normal(size=(C, T))
    assert np.array_equal(patchify(X, spec), _patchify_loop(X, spec))


def test_patchify_round_trip():
    # the loop reference on random geometries; the inverse
    # reshape/transpose recovers X exactly
    rng = np.random.default_rng(0)
    for _ in range(100):
        C = int(rng.integers(1, 6))
        P = int(rng.integers(1, 8))
        fpp = int(rng.integers(1, 5))
        spec = PatchSpec(channels=C, frames=P * fpp, patches=P)
        X = rng.normal(size=(C, P * fpp))
        patches = patchify(X, spec)
        assert np.array_equal(patches, _patchify_loop(X, spec))
        back = patches.reshape(P, fpp, C).transpose(2, 0, 1).reshape(C, P * fpp)
        assert np.array_equal(back, X)


def test_patchify_rejects_mismatch():
    spec = PatchSpec(channels=4, frames=10, patches=10)
    message = r"^gesture shape \(4, 12\) does not match spec \(4, 10\)$"
    with pytest.raises(ValueError, match=message):
        patchify(np.zeros((4, 12)), spec)


@pytest.mark.parametrize("entry,what", [
    ("train", "dataset"), ("scores", "gesture"), ("predict", "gesture"), ("patchify", "gesture"),
])
def test_shape_rule_names_what_it_was_given(entry, what):
    # PatchSpec.check is the one shape rule behind every entry point
    spec = PatchSpec(channels=4, frames=10, patches=10)
    cfg = TrainConfig(nuclear_radius=1.0, m=3, gamma=1.0, eta=0.01, epochs=1, batch_size=1,
                      batches_per_epoch=1, frames=10, patches=10, n_classes=2)
    bundle = ModelBundle(rff=rff_init(spec, 3, 1.0, RngStream(0)), weights=np.zeros((2, 10, 3)),
                         spec=spec, norm_mean=np.zeros(4), norm_std=np.ones(4), loss_kind="hinge")
    X = np.ones((2, 3, 10))
    call = {
        "train": lambda: train((X, np.array([0, 1])), cfg),
        "scores": lambda: scores(X, bundle),
        "predict": lambda: predict(X[0], bundle),
        "patchify": lambda: patchify(X[0], spec),
    }[entry]
    message = rf"^{what} shape \(3, 10\) does not match spec \(4, 10\)$"
    with pytest.raises(ValueError, match=message):
        call()


def test_rff_init_shapes_and_determinism():
    spec = PatchSpec(channels=4, frames=10, patches=10)
    a = rff_init(spec, 3, 1.0, RngStream(5))
    b = rff_init(spec, 3, 1.0, RngStream(5))
    assert a.W.shape == (4, 3) and a.b.shape == (3,)
    assert np.array_equal(a.W, b.W) and np.array_equal(a.b, b.b)


def test_rff_init_variance():
    spec = PatchSpec(channels=4, frames=8, patches=2)
    m = 2048
    rmap = rff_init(spec, m, 1.0, RngStream(11))
    assert 1.9 <= rmap.W.var() <= 2.1
    assert np.all((rmap.b >= 0) & (rmap.b < 2 * np.pi))


def test_rff_init_rejects():
    spec = PatchSpec(channels=2, frames=4, patches=2)
    with pytest.raises(ValueError):
        rff_init(spec, 0, 1.0, RngStream(0))
    with pytest.raises(ValueError):
        rff_init(spec, 4, 0.0, RngStream(0))
    with pytest.raises(TypeError, match="^rng must be an RngStream$"):
        rff_init(spec, 4, 1.0, np.random.default_rng(0))


def test_transform_zero_input_zero_phase():
    m = 5
    rmap = RffMap(W=np.ones((3, m)), b=np.zeros(m), gamma=1.0)
    row = rff_transform(np.zeros((1, 3)), rmap)[0]
    assert np.allclose(row, np.sqrt(2.0 / m))


def test_transform_bounded():
    spec = PatchSpec(channels=4, frames=10, patches=10)
    rmap = rff_init(spec, 7, 0.5, RngStream(3))
    rng = np.random.default_rng(1)
    Q = rff_transform(rng.normal(size=(10, 4)), rmap)
    assert np.all(np.abs(Q) <= np.sqrt(2.0 / 7) + 1e-15)


def test_transform_deterministic():
    spec = PatchSpec(channels=2, frames=6, patches=3)
    rmap = rff_init(spec, 4, 1.0, RngStream(8))
    x = np.random.default_rng(2).normal(size=(3, 4))
    assert np.array_equal(rff_transform(x, rmap), rff_transform(x, rmap))


def test_kernel_approximation():
    # inner products approximate exp(-gamma ||x - y||^2)
    gamma, m = 0.5, 2048
    spec = PatchSpec(channels=1, frames=4, patches=1)
    rmap = rff_init(spec, m, gamma, RngStream(17))
    rng = np.random.default_rng(3)
    errs = []
    for _ in range(100):
        x, y = rng.normal(size=(2, 4)) * 0.5
        phi = rff_transform(np.stack([x, y]), rmap)
        approx = phi[0] @ phi[1]
        exact = np.exp(-gamma * np.sum((x - y) ** 2))
        errs.append(abs(approx - exact))
    assert np.mean(errs) <= 0.05


def test_self_inner_product_near_one():
    spec = PatchSpec(channels=1, frames=4, patches=1)
    rmap = rff_init(spec, 4096, 1.0, RngStream(23))
    x = np.random.default_rng(4).normal(size=(1, 4))
    q = rff_transform(x, rmap)[0]
    assert 0.95 <= q @ q <= 1.05


def test_kernel_error_decreases_with_m():
    gamma = 1.0
    spec = PatchSpec(channels=1, frames=3, patches=1)
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(30, 3)) * 0.5

    def mean_err(m, seed):
        rmap = rff_init(spec, m, gamma, RngStream(seed))
        phi = rff_transform(pts, rmap)
        G = phi @ phi.T
        D = np.exp(-gamma * np.sum((pts[:, None] - pts[None]) ** 2, axis=2))
        return np.abs(G - D).mean()

    small = np.mean([mean_err(64, s) for s in range(20)])
    large = np.mean([mean_err(4096, s) for s in range(20)])
    assert large < small


def test_lift_matches_per_gesture_pipeline():
    spec = PatchSpec(channels=4, frames=10, patches=5)
    rmap = rff_init(spec, 6, 0.7, RngStream(4))
    rng = np.random.default_rng(6)
    X = rng.normal(size=(7, 4, 10))
    mean, std = rng.normal(size=4), rng.uniform(0.5, 2.0, size=4)
    Q = lift(X, (mean, std), spec, rmap)
    assert Q.shape == (7, 5, 6)
    for i in range(7):
        Xn = (X[i] - mean[:, None]) / std[:, None]
        assert np.array_equal(Q[i], rff_transform(patchify(Xn, spec), rmap))


def test_lift_rejects_channel_mismatch():
    # checked before normalization, which would broadcast one channel
    # against the per-channel stats
    spec = PatchSpec(channels=4, frames=10, patches=10)
    rmap = rff_init(spec, 3, 1.0, RngStream(0))
    stats = (np.zeros(4), np.ones(4))
    for shape, seen in (((3, 1, 10), r"\(1, 10\)"), ((3, 10), r"\(10,\)"),
                        ((3, 4, 12), r"\(4, 12\)")):
        message = rf"^gesture shape {seen} does not match spec \(4, 10\)$"
        with pytest.raises(ValueError, match=message):
            lift(np.ones(shape), stats, spec, rmap)


@pytest.mark.parametrize("n", [1, 7, 400])
@pytest.mark.parametrize("T,P", [(10, 10), (30, 30), (30, 10)])
@pytest.mark.parametrize("m", [3, 9])
def test_lift_matches_per_gesture_loop(n, T, P, m):
    # one stacked rff_transform gives the per-gesture loop's bits
    spec = PatchSpec(channels=4, frames=T, patches=P)
    rmap = rff_init(spec, m, 0.789, RngStream(T + P + m))
    rng = np.random.default_rng(n)
    X = rng.normal(size=(n, 4, T)) * 300.0 + 2048.0
    stats = (rng.normal(size=4) + 2048.0, rng.uniform(100.0, 400.0, size=4))
    assert np.array_equal(lift(X, stats, spec, rmap), reference_kernels.lift(X, stats, spec, rmap))
