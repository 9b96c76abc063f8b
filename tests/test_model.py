import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from convexattn.dataio import SynthConfig, synth_generate
from convexattn.features import PatchSpec, RffMap, lift, rff_init
from convexattn.losses import LOSS_KINDS
from convexattn.model import (
    ModelBundle,
    ModelFormatError,
    batch_class_scores,
    class_scores,
    deserialize,
    load_model,
    param_count,
    predict,
    serialize,
)
from convexattn.numutil import RngStream
from convexattn.projections import simplex_project
from convexattn.trainer import preset_config, train

import reference_kernels


def make_bundle(K=4, C=4, T=10, P=10, m=3, seed=0, loss_kind="hinge"):
    spec = PatchSpec(channels=C, frames=T, patches=P)
    root = RngStream(seed)
    rff = rff_init(spec, m, 1.0, root.derive(1))
    A = root.derive(2).gauss(K * P * m, 0.0, 0.2).reshape(K, P, m)
    return ModelBundle(
        rff=rff,
        weights=A,
        spec=spec,
        norm_mean=np.zeros(C),
        norm_std=np.ones(C),
        loss_kind=loss_kind,
    )


def raw_scores(Q, A):
    """Score rows s (K, P) of one feature matrix Q (P, m)."""
    return batch_class_scores(Q[None], A)[2][0]


def attention(Q, A):
    """Attention rows alpha (K, P) of one feature matrix Q (P, m)."""
    return batch_class_scores(Q[None], A)[1][0]


def test_scores_zero_weights():
    Q = np.random.default_rng(0).normal(size=(5, 3))
    assert np.array_equal(raw_scores(Q, np.zeros((2, 5, 3))), np.zeros((2, 5)))


def test_scores_self_inner_product():
    rng = np.random.default_rng(1)
    Q = rng.normal(size=(4, 3))
    A = np.broadcast_to(Q, (2, 4, 3)).copy()
    s = raw_scores(Q, A)
    expect = np.sum(Q * Q, axis=1) / np.sqrt(3)
    assert np.allclose(s, np.stack([expect, expect]))


def test_scores_triple_loop_oracle():
    rng = np.random.default_rng(2)
    Q = rng.normal(size=(2, 3))
    A = rng.normal(size=(2, 2, 3))
    s = raw_scores(Q, A)
    for k in range(2):
        for p in range(2):
            ref = sum(Q[p, j] * A[k, p, j] for j in range(3)) / np.sqrt(3)
            assert abs(s[k, p] - ref) <= 1e-12


def test_attention_weights_uniform_row():
    # m = 1 and unit features: the score row is the weight row itself
    alpha = attention(np.ones((5, 1)), np.full((1, 5, 1), 3.7))
    assert np.allclose(alpha, np.full((1, 5), 0.2))


def test_attention_weights_match_projection():
    alpha = attention(np.ones((2, 1)), np.array([[[2.0], [0.0]]]))
    assert np.allclose(alpha, [[1.0, 0.0]])


def test_attention_shift_invariance():
    rng = np.random.default_rng(3)
    for _ in range(50):
        s = rng.uniform(-3, 3, size=8)
        c = rng.uniform(-5, 5)
        assert np.max(np.abs(simplex_project(s + c) - simplex_project(s))) <= 1e-12


def test_class_scores_zero_weights():
    Q = np.random.default_rng(6).normal(size=(5, 3))
    assert np.allclose(class_scores(Q, np.zeros((4, 5, 3))), np.zeros(4))


def test_class_scores_identity():
    # f_k equals sqrt(m) <alpha_k, s_k>
    rng = np.random.default_rng(7)
    Q = rng.normal(size=(2, 3))
    A = rng.normal(size=(2, 2, 3))
    s, alpha = raw_scores(Q, A), attention(Q, A)
    f = class_scores(Q, A)
    assert np.max(np.abs(f - np.sqrt(3) * np.sum(alpha * s, axis=1))) <= 1e-12


def test_batch_class_scores_matches_single():
    rng = np.random.default_rng(8)
    Q = rng.normal(size=(9, 5, 3))
    A = rng.normal(size=(4, 5, 3))
    f, alpha, s = batch_class_scores(Q, A)
    for i in range(9):
        assert np.array_equal(f[i], class_scores(Q[i], A))


def test_predict_tie_breaks_low():
    bundle = make_bundle()
    zero = replace(bundle, weights=np.zeros_like(bundle.weights))
    label, f = predict(np.zeros((4, 10)), zero)
    assert label == 0
    assert np.allclose(f, 0.0)


def test_predict_constructed_dominance():
    bundle = make_bundle()
    X = np.random.default_rng(9).normal(size=(4, 10))
    from convexattn.model import features_for

    Q = features_for(X, bundle)
    A = np.zeros((4, 10, 3))
    A[2] = Q  # class 2 aligns perfectly on every patch
    label, _ = predict(X, replace(bundle, weights=A))
    assert label == 2


def test_predict_rejects_bad_dims():
    with pytest.raises(ValueError):
        predict(np.zeros((4, 12)), make_bundle())


def test_predict_rejects_channel_broadcast():
    # a 1-channel or 1-d gesture would broadcast against the 4 per-channel
    # norm stats; it must be rejected, not classified
    bundle = make_bundle()
    for X, seen in ((np.ones((1, 10)), r"\(1, 10\)"), (np.ones(10), r"\(10,\)")):
        message = rf"^gesture shape {seen} does not match spec \(4, 10\)$"
        with pytest.raises(ValueError, match=message):
            predict(X, bundle)


@pytest.mark.parametrize("fault,message", [
    (lambda b: dict(weights=b.weights[:, :9]), "weights shape inconsistent with spec/rff"),
    (lambda b: dict(rff=replace(b.rff, W=b.rff.W[:3])), "rff patch_dim inconsistent with spec"),
    (lambda b: dict(rff=replace(b.rff, b=b.rff.b[:1])), "rff b must have length m"),
    (lambda b: dict(norm_mean=np.zeros(3)), "norm stats must be per channel"),
    (lambda b: dict(norm_std=np.array([2.0])), "norm stats must be per channel"),
], ids=["weights", "W", "b", "norm_mean", "norm_std"])
def test_bundle_refuses_a_misshapen_array(fault, message):
    # each would score by broadcasting, or serialize to bytes deserialize refuses
    bundle = make_bundle()
    with pytest.raises(ValueError, match=f"^{message}$"):
        replace(bundle, **fault(bundle))


def _with_value(bundle, field, value):
    """replace() arguments that put value at flat index 1 of a payload array."""
    in_rff = field in ("W", "b")
    bad = getattr(bundle.rff if in_rff else bundle, field).copy()
    bad.flat[1] = value
    return dict(rff=replace(bundle.rff, **{field: bad})) if in_rff else {field: bad}


@pytest.mark.parametrize("fault,message", [
    (lambda b: dict(weights=b.weights[0]), r"weights must be a 3-d array, got shape \(10, 3\)"),
    (lambda b: dict(rff=replace(b.rff, W=b.rff.W[0])), r"W must be a 2-d array, got shape \(3,\)"),
    (lambda b: dict(norm_std=[1.0] * 4), "norm_std must be a 1-d array, got list"),
    (lambda b: _with_value(b, "norm_std", 0.0), "norm_std must be > 0"),
    (lambda b: _with_value(b, "norm_std", -1.0), "norm_std must be > 0"),
    (lambda b: dict(rff=replace(b.rff, gamma=np.nan)), "gamma must be finite, got nan"),
    (lambda b: dict(rff=replace(b.rff, gamma=np.inf)), "gamma must be finite, got inf"),
    (lambda b: dict(rff=replace(b.rff, gamma=0.0)), r"gamma must be > 0, got 0.0"),
    (lambda b: dict(norm_mean=b.norm_mean + 1j),
     "norm_mean must hold real numbers, got dtype complex128"),
    (lambda b: dict(norm_mean=b.norm_mean.astype(str)),
     "norm_mean must hold real numbers, got dtype <U32"),
    (lambda b: dict(norm_mean=b.norm_mean.astype(object)),
     "norm_mean must hold real numbers, got dtype object"),
], ids=["2d-weights", "1d-W", "list-norm_std", "zero-norm_std", "negative-norm_std",
        "nan-gamma", "inf-gamma", "zero-gamma", "complex-norm_mean", "text-norm_mean",
        "object-norm_mean"])
def test_bundle_refuses_what_its_loader_refuses(fault, message):
    # the bundle owns the loader's rank and value rules: none of these
    # reaches serialize, or predict to blame the gesture
    bundle = make_bundle()
    with pytest.raises(ValueError, match=f"^{message}$"):
        replace(bundle, **fault(bundle))


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("field", ["weights", "W", "b", "norm_mean"])
def test_bundle_refuses_a_nonfinite_value(field, value):
    bundle = make_bundle()
    with pytest.raises(ValueError, match=f"^{field} contains non-finite entries$"):
        replace(bundle, **_with_value(bundle, field, value))


def test_param_counts():
    assert param_count(make_bundle(K=4, P=10, m=3)) == (120, 4 * 3 + 3)
    assert param_count(make_bundle(K=4, T=30, P=30, m=3))[0] == 360
    # 6 features per frame: fixed part 6*3 + 3 = 21, total 141
    b = make_bundle(K=4, C=6, T=10, P=10, m=3)
    trainable, fixed = param_count(b)
    assert (trainable, fixed) == (120, 21)
    assert trainable + fixed == 141


def test_serialize_round_trip_64():
    bundle = make_bundle(seed=13, loss_kind="squared")
    again = deserialize(serialize(bundle))
    assert np.array_equal(again.weights, bundle.weights)
    assert np.array_equal(again.rff.W, bundle.rff.W)
    assert again.loss_kind == "squared"
    X = np.random.default_rng(10).normal(size=(4, 10))
    l1, f1 = predict(X, bundle)
    l2, f2 = predict(X, again)
    assert l1 == l2 and np.array_equal(f1, f2)


def test_n_classes_is_the_weights_first_axis():
    bundle = deserialize(serialize(make_bundle(K=5)))
    assert bundle.n_classes == bundle.weights.shape[0] == 5
    three = replace(bundle, weights=bundle.weights[:3])
    assert three.n_classes == three.weights.shape[0] == 3
    # the header's K is the weights' first axis too
    assert deserialize(serialize(three)).n_classes == 3


def test_serialize_32_label_parity():
    bundle = make_bundle(seed=14)
    again = deserialize(serialize(bundle, precision=32))
    rng = np.random.default_rng(11)
    flips = sum(
        predict(X, bundle)[0] != predict(X, again)[0]
        for X in rng.normal(size=(400, 4, 10))
    )
    assert flips == 0


def test_export_size_budget():
    # tuned tap sizing stays under the 7 KiB storage budget
    tap = make_bundle(K=4, C=4, T=10, P=10, m=9)
    swipe = make_bundle(K=4, C=4, T=30, P=30, m=3)
    assert len(serialize(tap, precision=32)) <= 7168
    assert len(serialize(swipe, precision=32)) <= 7168


def test_deserialize_diagnostics():
    data = serialize(make_bundle())
    with pytest.raises(ModelFormatError, match="magic"):
        deserialize(b"XXXX" + data[4:])
    with pytest.raises(ModelFormatError, match="version"):
        deserialize(data[:4] + b"\x63\x00" + data[6:])
    with pytest.raises(ModelFormatError, match="truncated"):
        deserialize(data[:-8])
    with pytest.raises(ModelFormatError, match="truncated"):
        deserialize(data[:10])
    bad_dim = bytearray(data)
    bad_dim[8:12] = (2**31 - 1).to_bytes(4, "little")  # K field
    with pytest.raises(ModelFormatError, match="overflow"):
        deserialize(bytes(bad_dim))
    bad_patches = bytearray(data)
    bad_patches[20:24] = (3).to_bytes(4, "little")  # P field; 3 does not divide T=10
    with pytest.raises(ModelFormatError, match="must divide"):
        deserialize(bytes(bad_patches))
    for gamma in (np.nan, 0.0, np.inf):
        bad_gamma = bytearray(data)
        bad_gamma[28:36] = struct.pack("<d", gamma)  # gamma field
        with pytest.raises(ModelFormatError, match="gamma"):
            deserialize(bytes(bad_gamma))


def test_load_model_names_its_path(tmp_path):
    junk = tmp_path / "junk.model"
    junk.write_bytes(b"not a model at all")
    with pytest.raises(ModelFormatError) as e:
        load_model(junk)
    assert str(e.value) == f"{junk}: truncated payload: header incomplete"


def test_score_scaling_identity():
    # s(cA) = c * s(A); attention itself need not be scale-invariant
    rng = np.random.default_rng(12)
    Q = rng.normal(size=(5, 3))
    A = rng.normal(size=(2, 5, 3))
    for c in (0.5, 2.0, 7.3):
        assert np.allclose(raw_scores(Q, c * A), c * raw_scores(Q, A))


def _overwrite(data, index, value):
    """64-bit model bytes with payload value number `index` (counted
    from 0, after the 36-byte header) set to value."""
    out = bytearray(data)
    out[36 + 8 * index:44 + 8 * index] = struct.pack("<d", value)
    return bytes(out)


def test_deserialize_rejects_nonfinite_payload():
    # a bundle cannot hold these values, so they are written into the bytes:
    # weights[1] follows 4 + 4 norm stats, 3 of b and 4 x 3 of W
    data = serialize(make_bundle())
    for index, value in ((4 + 4 + 3 + 12 + 1, np.nan), (1, np.inf)):
        with pytest.raises(ModelFormatError, match="non-finite"):
            deserialize(_overwrite(data, index, value))


def test_deserialize_rejects_nonpositive_norm_std():
    data = serialize(make_bundle())
    for value in (0.0, -1.0):
        with pytest.raises(ModelFormatError, match="norm_std"):
            deserialize(_overwrite(data, 4 + 2, value))  # norm_std[2]


def test_serialize_32_refuses_what_would_not_load():
    # past float32's range a value casts to inf, and a tiny norm_std to
    # 0: deserialize refuses both, so a 32-bit serialize names the field;
    # 64 bits store the same bundle as it is
    bundle = make_bundle()
    for field, value in (("norm_mean", 2.5e39), ("norm_std", 2.5e39), ("norm_std", 1e-50),
                         ("weights", -1e39)):
        bad = getattr(bundle, field).copy()
        bad.flat[1] = value
        with pytest.raises(ValueError, match=f"^{field} does not fit in a 32-bit model"):
            serialize(replace(bundle, **{field: bad}), 32)
        again = deserialize(serialize(replace(bundle, **{field: bad}), 64))
        assert getattr(again, field).flat[1] == value
    # float32's largest value still fits
    top = bundle.norm_mean.copy()
    top[0] = np.finfo(np.float32).max
    assert deserialize(serialize(replace(bundle, norm_mean=top), 32)).norm_mean[0] == top[0]


def _reference_predict_scores(X, bundle):
    # reference: predict's scores as computed before lift stacked its
    # patch rows -- the per-gesture lift, then the einsum scorer with rho
    # counted by count_nonzero
    stats = (bundle.norm_mean, bundle.norm_std)
    Q = reference_kernels.lift(X[None], stats, bundle.spec, bundle.rff)
    return reference_kernels.scores(Q, bundle.weights)[0][0]


@pytest.mark.parametrize("kind,preset", [("tap", "tap-tuned"), ("swipe", "swipe-tuned")])
def test_predict_matches_reference_path(kind, preset):
    ds = synth_generate(SynthConfig(kind=kind, samples_per_class=20, seed=0))
    bundle, _ = train(ds, replace(preset_config(preset), epochs=2))
    X, _ = synth_generate(SynthConfig(kind=kind, samples_per_class=13, seed=1)).stacked()
    X = X[:50]
    scores = []
    for x in X:
        label, f = predict(x, bundle)
        ref = _reference_predict_scores(x, bundle)
        assert np.array_equal(f, ref)
        assert label == int(np.argmax(ref))
        scores.append(f)
    # and predict is the batch path's bits, one gesture at a time
    Q = lift(X, (bundle.norm_mean, bundle.norm_std), bundle.spec, bundle.rff)
    assert np.array_equal(np.stack(scores), batch_class_scores(Q, bundle.weights)[0])


PROPERTY = settings(max_examples=200, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def bundles(draw, finite=finite, positive=positive):
    """Bundles of any small geometry with any finite payload values,
    -0.0 and subnormals included; norm_std and gamma are drawn from
    positive and the rest from finite."""
    K, C, P, fpp, m = (draw(st.integers(lo, hi)) for lo, hi in
                       ((2, 5), (1, 4), (1, 4), (1, 3), (1, 4)))
    spec = PatchSpec(channels=C, frames=P * fpp, patches=P)
    rff = RffMap(W=draw(arrays(float, (spec.patch_dim, m), elements=finite)),
                 b=draw(arrays(float, m, elements=finite)), gamma=draw(positive))
    return ModelBundle(
        rff=rff,
        weights=draw(arrays(float, (K, P, m), elements=finite)),
        spec=spec,
        norm_mean=draw(arrays(float, C, elements=finite)),
        norm_std=draw(arrays(float, C, elements=positive)),
        loss_kind=draw(st.sampled_from(LOSS_KINDS)),
    )


@PROPERTY
@given(bundle=bundles())
def test_serialize_round_trip_property(bundle):
    data = serialize(bundle, 64)
    assert serialize(deserialize(data), 64) == data


@PROPERTY
@given(bundle=bundles(st.floats(allow_nan=False, allow_infinity=False, width=32),
                      st.floats(min_value=0.0, exclude_min=True, allow_infinity=False, width=32)),
       field=st.sampled_from([None, "norm_mean", "norm_std", "weights"]), value=positive)
def test_serialize_32_refuses_exactly_what_would_not_load(bundle, field, value):
    # a bundle of float32 values, one of them maybe replaced by any
    # double > 0 (< 0 in weights)
    if field:
        bad = getattr(bundle, field).copy()
        bad.flat[0] = -value if field == "weights" else value
        bundle = replace(bundle, **{field: bad})
    with np.errstate(over="ignore"):
        std32 = bundle.norm_std.astype(np.float32)
        rest32 = np.concatenate([bundle.norm_mean, bundle.rff.b, bundle.rff.W.ravel(),
                                 bundle.weights.ravel()]).astype(np.float32)
    if np.isfinite(rest32).all() and np.isfinite(std32).all() and (std32 > 0).all():
        deserialize(serialize(bundle, 32))
    else:
        with pytest.raises(ValueError, match=f"^{field} does not fit in a 32-bit model"):
            serialize(bundle, 32)


TAP_BYTES = serialize(make_bundle(m=9), 64)


def test_every_truncation_is_a_format_error():
    for n in range(len(TAP_BYTES)):
        with pytest.raises(ModelFormatError):
            deserialize(TAP_BYTES[:n])


@PROPERTY
@given(pos=st.integers(0, len(TAP_BYTES) - 1), flip=st.integers(1, 255))
def test_flipped_model_byte_property(pos, flip):
    # a tap model with one byte changed loads as finite arrays or fails
    # with ModelFormatError, never with another exception
    data = bytearray(TAP_BYTES)
    data[pos] ^= flip
    try:
        bundle = deserialize(bytes(data))
    except ModelFormatError:
        return
    for a in (bundle.rff.W, bundle.rff.b, bundle.weights, bundle.norm_mean, bundle.norm_std):
        assert np.isfinite(a).all()
    assert np.isfinite(bundle.rff.gamma)


@st.composite
def score_cases(draw):
    """(Q, A) for n 1-40, K 2-5, P 1-30 and m 1-9, some entries 0.0
    or -0.0."""
    n, K, P, m = (draw(st.integers(lo, hi)) for lo, hi in ((1, 40), (2, 5), (1, 30), (1, 9)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Q = np.sqrt(2.0 / m) * np.cos(rng.normal(size=(n, P, m)))
    A = rng.normal(scale=draw(st.sampled_from([0.01, 0.3, 3.0])), size=(K, P, m))
    for a in (Q, A):
        hit = rng.random(a.shape) < draw(st.sampled_from([0.0, 0.3]))
        a[hit] = np.where(rng.random(a.shape) < 0.5, 0.0, -0.0)[hit]
    return Q, A


@PROPERTY
@given(case=score_cases())
def test_batch_class_scores_matches_einsum_bitwise(case):
    # the scorer scales in place; its bits are einsum / sqrt(m) and
    # sqrt(m) * einsum with the count_nonzero threshold between them
    Q, A = case
    for got, want in zip(batch_class_scores(Q, A), reference_kernels.scores(Q, A)):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
