"""The public boundary as one table: one row per entry point that takes an
array, with the call, a valid input, the names its refusals use and the
postcondition a returned value meets.

One strategy turns a row's valid input into odd variants: other dtypes,
a masked array, 0-d, empty and wrong-rank arrays, a list, None, and
entries replaced by NaN, +-inf, +-1e308, +-1e154, +-1e16, subnormals or
2**62. With warnings raised as errors, every draw must raise a ValueError
whose message starts with a name of the input, or return a value that
meets the postcondition. EXAMPLES are fixed calls, each with the whole
message it is refused with.
"""

import math
import re
import warnings
from collections import namedtuple
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from convexattn.features import PatchSpec, patchify, rff_init, rff_transform, zscore_fit
from convexattn.losses import hinge_loss, one_hot, squared_loss
from convexattn.model import (
    ModelBundle,
    batch_class_scores,
    class_scores,
    deserialize,
    predict,
    scores,
    serialize,
)
from convexattn.numutil import RngStream, check_labels, svd_thin
from convexattn.projections import (
    nuclear_ball_project,
    nuclear_norm,
    simplex_project,
    simplex_project_rows,
    softmax_ref,
    squared_distance_to_simplex,
)
from convexattn.trainer import TrainConfig, evaluate, kfold_evaluate, macro_f1, train
from convexattn.verify import convexity_check, nonexpansiveness_sweep

SPEC = PatchSpec(4, 10, 10)
RMAP = rff_init(SPEC, 3, 1.0, RngStream(0))
WEIGHTS = RngStream(1).gauss(120, 0.0, 0.5).reshape(4, 10, 3)
BUNDLE = ModelBundle(rff=RMAP, weights=WEIGHTS, spec=SPEC, norm_mean=np.zeros(4),
                     norm_std=np.ones(4), loss_kind="hinge")
GESTURES = RngStream(2).gauss(160).reshape(4, 4, 10)
LABELS = np.arange(4)
TINY = TrainConfig(nuclear_radius=1.0, m=3, gamma=1.0, eta=0.01, epochs=1, batch_size=1,
                   batches_per_epoch=1, frames=10, patches=10)
FEATURES = rff_transform(patchify(GESTURES[0], SPEC), RMAP)  # (P, m)
SCORES = np.array([[0.5, 0.2, -0.1], [1.5, -2.0, 0.0]])


def finite(a, shape):
    assert a.dtype == np.float64 and a.shape == shape and np.isfinite(a).all()
    return a


def on_simplex(A, shape):
    finite(A, shape)
    assert (A >= 0).all() and (np.abs(A.sum(axis=-1) - 1.0) <= 1e-12).all()


def loss(x):
    assert type(x) is float and 0.0 <= x < math.inf


def fraction(out, a):
    loss(out)
    assert out <= 1.0


def rows(a):
    return len(np.atleast_2d(np.asarray(a)))


def trained(out, a):
    bundle, report = out
    A = finite(bundle.weights, (4, 10, 3))
    assert nuclear_norm(A.reshape(40, 3)) <= TINY.nuclear_radius * (1 + 1e-12)
    finite(np.array(report.epoch_loss + report.epoch_nuclear_norm), (2,))


def evaluated(out, a):
    acc, f1, confusion = out
    assert 0.0 <= acc <= 1.0 and 0.0 <= f1 <= 1.0
    assert confusion.shape == (4, 4) and confusion.sum() == len(a)


def predicted(out, a):
    label, f = out
    assert type(label) is int and label == finite(f, (4,)).argmax()


def normalized(out, a):
    mean, std = out
    finite(mean, (4,))
    assert (finite(std, (4,)) > 0).all()


def lifted(out, a):
    assert (np.abs(finite(out, (rows(a), 3))) <= math.sqrt(2 / 3)).all()


def attended(out, a):
    f, alpha, s = out
    n = len(a)
    finite(f, (n, 4)), finite(s, (n, 4, 10)), on_simplex(alpha, (n, 4, 10))


def projected(out, a):
    assert nuclear_norm(finite(out, np.atleast_2d(a).shape)) <= 1.0 + 1e-12


def factored(out, a):
    U, sigma, V = out
    (r, c), k = np.atleast_2d(a).shape, min(np.atleast_2d(a).shape)
    finite(U, (r, k)), finite(V, (c, k))
    assert (np.diff(finite(sigma, (k,))) <= 0).all() and (sigma >= 0).all()


def encoded(out, a):
    labels = np.asarray(a)
    assert out.shape == (len(labels), 4) and (out.sum(axis=1) == 1).all()
    assert (out.argmax(axis=1) == labels).all() and set(np.unique(out)) <= {0.0, 1.0}


def labelled(out, a):
    assert out.dtype == np.int64 and out.ndim == 1 and np.array_equal(out, np.asarray(a))
    assert ((out >= 0) & (out < 4)).all()


Row = namedtuple("Row", "call valid names post")
ROWS = {
    "train": Row(lambda a: train((a, LABELS), TINY), GESTURES, ("dataset", "channel"), trained),
    "evaluate": Row(lambda a: evaluate(BUNDLE, a, LABELS), GESTURES,
                    ("dataset", "gesture", "patches"), evaluated),
    "scores": Row(lambda a: scores(a, BUNDLE), GESTURES, ("gesture", "patches"),
                  lambda out, a: finite(out, (len(a), 4))),
    "predict": Row(lambda a: predict(a, BUNDLE), GESTURES[0], ("gesture", "patches"), predicted),
    "zscore_fit": Row(zscore_fit, GESTURES, ("dataset", "channel"), normalized),
    "patchify": Row(lambda a: patchify(a, SPEC), GESTURES[0], ("gesture",),
                    lambda out, a: finite(out, (10, 4))),
    "rff_transform": Row(lambda a: rff_transform(a, RMAP), patchify(GESTURES[0], SPEC),
                         ("patches",), lifted),
    "batch_class_scores": Row(lambda a: batch_class_scores(a, WEIGHTS), FEATURES[None],
                              ("features", "scores"), attended),
    "class_scores": Row(lambda a: class_scores(a, WEIGHTS), FEATURES, ("features", "scores"),
                        lambda out, a: finite(out, (4,))),
    "simplex_project": Row(simplex_project, SCORES[0], ("scores",),
                           lambda out, a: on_simplex(out, (3,))),
    "simplex_project_rows": Row(simplex_project_rows, SCORES, ("scores",),
                                lambda out, a: on_simplex(out, np.shape(a))),
    "squared_distance_to_simplex": Row(squared_distance_to_simplex, SCORES[0], ("scores",),
                                       lambda out, a: loss(out)),
    "softmax_ref": Row(softmax_ref, SCORES[0], ("scores",), lambda out, a: on_simplex(out, (3,))),
    "nuclear_ball_project": Row(lambda a: nuclear_ball_project(a, 1.0), 2.0 * SCORES.T,
                                ("matrix",), projected),
    "nuclear_norm": Row(nuclear_norm, SCORES, ("matrix",), lambda out, a: loss(out)),
    "svd_thin": Row(svd_thin, SCORES, ("matrix",), factored),
    "hinge_loss": Row(lambda a: hinge_loss(a, [0, 1]), SCORES, ("scores", "labels"),
                      lambda out, a: loss(out)),
    "squared_loss": Row(lambda a: squared_loss(a, np.eye(3)[:2]), SCORES, ("scores",),
                        lambda out, a: loss(out)),
    "one_hot": Row(lambda a: one_hot(a, 4), np.array([0, 3, 1]), ("labels",), encoded),
    "check_labels": Row(lambda a: check_labels(a, 4), np.array([0, 3, 1]), ("labels",), labelled),
    "macro_f1": Row(macro_f1, np.array([[3, 1], [0, 2]]), ("confusion",), fraction),
}

# 1e16 outgrows a radius of 1 in rounding; 1e154 squared overflows
SPECIAL = (math.nan, math.inf, -math.inf, 1e308, -1e308, 1e154, -1e154, 1e16, -1e16, 5e-324,
           -2.5e-308, 2.0**62)
NOT_REAL = {"complex": lambda a: a + 1j, "text": lambda a: a.astype(str),
            "object": lambda a: a.astype(object), "bool": lambda a: a > 0}


@st.composite
def variants(draw, valid):
    """An odd variant of the array valid."""
    kind = draw(st.sampled_from(["dtype", "not real", "masked", "0-d", "empty", "rank",
                                 "list", "None", "values", "integers"]))
    if kind == "dtype":
        return np.clip(valid, 0, 255).astype(draw(st.sampled_from([np.float16, np.uint8])))
    if kind == "not real":
        return NOT_REAL[draw(st.sampled_from(sorted(NOT_REAL)))](valid)
    if kind == "masked":
        mask = draw(st.lists(st.booleans(), min_size=valid.size, max_size=valid.size))
        return np.ma.array(valid, mask=np.reshape(mask, valid.shape))
    if kind == "0-d":
        return valid.reshape(-1)[0].copy()
    if kind == "empty":
        return valid[:0]
    if kind == "rank":
        return valid[None] if draw(st.booleans()) else valid[0]
    if kind == "list":
        return valid.tolist()
    if kind == "None":
        return None
    out = valid.astype(np.int64 if kind == "integers" else float)
    picks = st.sampled_from([2**62, -2**62] if kind == "integers" else SPECIAL)
    for i in draw(st.lists(st.integers(0, valid.size - 1), min_size=1, unique=True)):
        out.flat[i] = draw(picks)
    return out


def strictly(call, *args):
    """call(*args) with warnings raised as errors, but for the documented
    clamp of a constant channel."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.filterwarnings("ignore", "constant channels")
        return call(*args)


def check(row, a):
    """Run a row on a: refused naming the input, or a value that meets the postcondition."""
    try:
        out = strictly(row.call, a)
    except ValueError as e:
        assert str(e).startswith(row.names), e
    else:
        row.post(out, a)


@pytest.mark.parametrize("name", ROWS)
@given(data=st.data())
def test_row(name, data):
    row = ROWS[name]
    check(row, data.draw(variants(row.valid), label="input"))


def refuses(call, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        strictly(call)


HUGE = np.where(np.arange(10) == 0, 1e308, GESTURES)  # finite, too large to normalize
NARROW = replace(BUNDLE, norm_std=np.full(4, 0.5))
TOO_LARGE = "scores row {} is too large to project onto the simplex"
NOT_COUNTS = "confusion must be a square matrix of integer counts >= 0, got dtype {}, shape {}"
OVERFLOWS = "gesture is too large: normalizing it overflows"
EXAMPLES = {
    "labels-nan": (lambda: check_labels([0.0, math.nan], 2), "labels must be integers, got nan"),
    "labels-inf": (lambda: check_labels([math.inf, 0.0], 2), "labels must be integers, got inf"),
    "labels-huge": (lambda: check_labels([0.0, 1e30], 2), "labels must be in 0..1, got 1e+30"),
    "labels-fraction": (lambda: one_hot([1.7], 4), "labels must be integers, got 1.7"),
    "labels-fraction-array": (lambda: one_hot(np.array([0.0, 2.5]), 4),
                              "labels must be integers, got 2.5"),
    # a label column would index a 2-hot block per row
    "labels-column": (lambda: one_hot(np.array([[1], [2]]), 4),
                      "labels must be 1-d, got shape (2, 1)"),
    "labels-past-k": (lambda: one_hot([0, 4], 4), "labels must be in 0..3, got 4"),
    "labels-negative": (lambda: one_hot(np.array([-1, 2]), 4), "labels must be in 0..3, got -1"),
    "one-hot-huge": (lambda: one_hot([0.0, 1e30], 2), "labels must be in 0..1, got 1e+30"),
    "hinge-labels-nan": (lambda: hinge_loss(np.zeros((2, 2)), [0.0, math.nan]),
                         "labels must be integers, got nan"),
    "hinge-labels-fraction": (lambda: hinge_loss(np.zeros((1, 4)), [1.7]),
                              "labels must be integers, got 1.7"),
    "train-labels-huge": (lambda: train((GESTURES, [0.0, 1.0, 2.0, 1e30]), TINY),
                          "labels must be in 0..3, got 1e+30"),
    "evaluate-labels-nan": (lambda: evaluate(BUNDLE, GESTURES, [0.0, 1.0, 2.0, math.nan]),
                            "labels must be integers, got nan"),
    "simplex-overflow": (lambda: simplex_project([1e308, 1e308]), TOO_LARGE.format(0)),
    # the radius is below half an ulp of the row maximum: the row sums to 0
    "simplex-radius-lost": (lambda: simplex_project([1e17, 0.0]), TOO_LARGE.format(0)),
    "simplex-rows-overflow": (lambda: simplex_project_rows([[0.0, 1.0], [1e308, 1e308]]),
                              TOO_LARGE.format(1)),
    "distance-overflow": (lambda: squared_distance_to_simplex([1e308, 1e308]), TOO_LARGE.format(0)),
    "distance-too-far": (lambda: squared_distance_to_simplex([-1e308, 0.0]),
                         "scores are too large: their squared distance to the simplex overflows"),
    "simplex-empty": (lambda: simplex_project(np.array([])),
                      "scores must be a nonempty 1-d vector, got shape (0,)"),
    "simplex-infinite": (lambda: simplex_project(np.array([1.0, math.inf])),
                         "scores contains non-finite entries"),
    "simplex-masked": (lambda: simplex_project(np.ma.array([1.0, 2.0], mask=[0, 1])),
                       "scores must not be a masked array"),
    "nuclear-overflow": (lambda: nuclear_ball_project(np.full((2, 2), 1e308), 1.0),
                         "matrix is too large: its singular values overflow"),
    # the threshold at 10 rounds to the singular value 1e17: the norm would be 16
    "nuclear-radius-lost": (lambda: nuclear_ball_project(np.diag([1e17, 0.0]), 10.0),
                            "matrix is too large to project: rounding loses the radius"),
    "nuclear-norm-overflow": (lambda: nuclear_norm(np.diag([1e308, 1e308])),
                              "matrix is too large: its singular values overflow"),
    "svd-nan": (lambda: svd_thin([[1.0, math.nan]]), "matrix contains non-finite entries"),
    "f1-negative": (lambda: macro_f1([[-1, 0], [0, 2]]), NOT_COUNTS.format("int64", (2, 2))),
    "f1-fraction": (lambda: macro_f1([[0.5, 0], [0, 2]]), NOT_COUNTS.format("float64", (2, 2))),
    "f1-not-square": (lambda: macro_f1(np.ones((2, 3), dtype=int)),
                      NOT_COUNTS.format("int64", (2, 3))),
    "f1-float-zeros": (lambda: macro_f1(np.zeros((2, 2))), NOT_COUNTS.format("float64", (2, 2))),
    "f1-huge-floats": (lambda: macro_f1(np.diag([1e308, 1e308])),
                       NOT_COUNTS.format("float64", (2, 2))),
    "f1-empty": (lambda: macro_f1(np.zeros((2, 2), dtype=int)), "confusion matrix is empty"),
    "hinge-nan": (lambda: hinge_loss([[math.nan, 0.0]], [1]), "scores contains non-finite entries"),
    "hinge-one-class": (lambda: hinge_loss(np.ones((2, 1)), [0, 0]),
                        "scores must be 2-d with at least 2 classes, got shape (2, 1)"),
    "hinge-overflow": (lambda: hinge_loss([[-1e308, 1e308], [-1e308, 1e308]], [0, 0]),
                       "scores are too large: the loss overflows"),
    "squared-nan": (lambda: squared_loss([[math.nan, 0.0]], [[1.0, 0.0]]),
                    "scores contains non-finite entries"),
    "squared-shape": (lambda: squared_loss(np.zeros((2, 3)), np.zeros((2, 4))),
                      "scores shape (2, 3) does not match targets (2, 4)"),
    "squared-overflow": (lambda: squared_loss([[1e308, 0.0]], [[0.0, 1.0]]),
                         "scores are too large: the loss overflows"),
    "predict-too-large": (lambda: predict(HUGE[0], NARROW), OVERFLOWS),
    "scores-too-large": (lambda: scores(HUGE, NARROW), OVERFLOWS),
    "evaluate-too-large": (lambda: evaluate(NARROW, HUGE, LABELS), OVERFLOWS),
    # a stddev so small beside 1e308 that it is 0 in lift's retry units
    "predict-too-large-tiny-std": (
        lambda: predict(HUGE[0], replace(BUNDLE, norm_std=np.full(4, 1e-17))), OVERFLOWS),
    "rff-phase-overflow": (
        lambda: rff_transform(np.full((2, 4), 1e308), RMAP),
        "patches must be finite, and small enough that x W + b does not overflow"),
    "rff-wrong-dim": (lambda: rff_transform(np.zeros((2, 5)), RMAP),
                      "patches shape (2, 5) does not match map patch_dim 4"),
    "serialize-16-bit": (lambda: serialize(BUNDLE, 16), "precision must be 32 or 64, got 16"),
    # the header's loss-kind byte, at offset 7, one past the last kind
    "deserialize-loss-kind-2": (
        lambda: deserialize(serialize(BUNDLE)[:7] + b"\x02" + serialize(BUNDLE)[8:]),
        "bad loss kind 2"),
}


@pytest.mark.parametrize("call,message", EXAMPLES.values(), ids=EXAMPLES)
def test_example(call, message):
    refuses(call, message)


# Counts and scales are checked before any data is touched, so no
# dataset, config or model is needed. test_numutil runs these, and each
# row of NOT_REAL_ROWS with each NOT_REAL dtype, as
# test_public_functions_refuse_bad_counts_and_scales and
# test_public_functions_refuse_arrays_that_are_not_real.
COUNTS = {
    "folds-float": (lambda: kfold_evaluate(None, None, folds=2.0),
                    "folds must be an integer, got 2.0"),
    "folds-bool": (lambda: kfold_evaluate(None, None, folds=True),
                   "folds must be an integer, got True"),
    "jobs-float": (lambda: kfold_evaluate(None, None, jobs=1.5),
                   "jobs must be an integer, got 1.5"),
    "jobs-bool": (lambda: kfold_evaluate(None, None, jobs=True),
                  "jobs must be an integer, got True"),
    "trials-float": (lambda: convexity_check(None, None, None, trials=2.5),
                     "trials must be an integer, got 2.5"),
    "noise-infinite": (lambda: convexity_check(None, None, None, noise_stddev=math.inf),
                       "noise_stddev must be finite, got inf"),
    "pairs-float": (lambda: nonexpansiveness_sweep(pairs=2.5), "pairs must be an integer, got 2.5"),
    "dim-zero": (lambda: nonexpansiveness_sweep(dim=0), "dim must be >= 1, got 0"),
    "gamma-nan": (lambda: rff_init(SPEC, 3, math.nan, RngStream(0)),
                  "gamma must be finite, got nan"),
    "gamma-infinite": (lambda: rff_init(SPEC, 3, math.inf, RngStream(0)),
                       "gamma must be finite, got inf"),
    "m-float": (lambda: rff_init(SPEC, 2.5, 1.0, RngStream(0)), "m must be an integer, got 2.5"),
    # sqrt(2 * gamma), the weight scale, overflows past half the float range
    "gamma-overflow": (lambda: rff_init(SPEC, 3, 1e308, RngStream(0)),
                       f"gamma must be at most {2**1023 * (1 - 2**-53)}, got 1e+308"),
    "train-gamma-overflow": (lambda: train((GESTURES, LABELS), replace(TINY, gamma=1e308)),
                             f"gamma must be at most {2**1023 * (1 - 2**-53)}, got 1e+308"),
    "radius-nan": (lambda: nuclear_ball_project(np.eye(2), math.nan),
                   "radius must be finite, got nan"),
    "norm-3d": (lambda: nuclear_norm(np.ones((2, 3, 4))),
                "matrix must be 1-d or 2-d, got shape (2, 3, 4)"),
    "project-3d": (lambda: nuclear_ball_project(np.ones((2, 3, 4)), 1.0),
                   "matrix must be 1-d or 2-d, got shape (2, 3, 4)"),
}
NOT_REAL_ROWS = ("train", "evaluate", "scores", "predict", "zscore_fit", "rff_transform",
                 "batch_class_scores", "simplex_project", "nuclear_ball_project", "hinge_loss",
                 "squared_loss")
