from dataclasses import replace

import numpy as np
import pytest

from convexattn.dataio import SynthConfig, synth_generate
from convexattn.features import PatchSpec, lift
from convexattn.numutil import RngStream
from convexattn.trainer import TrainConfig, train
from convexattn.verify import (
    convexity_check,
    nonexpansiveness_sweep,
    pipeline_loss,
    softmax_counterexample,
)


def _train_tap(loss_kind):
    ds = synth_generate(SynthConfig(kind="tap", samples_per_class=10, seed=0))
    cfg = TrainConfig(
        nuclear_radius=5.158, m=9, gamma=0.789, eta=0.0297, epochs=60,
        batch_size=16, batches_per_epoch=32, seed=0, loss_kind=loss_kind,
        spec=PatchSpec(4, 10, 10),
    )
    bundle, _ = train(ds, cfg)
    X, y = ds.stacked()
    return bundle, X, y


@pytest.fixture(scope="module")
def trained():
    return _train_tap("squared")


def test_pipeline_loss_matches_direct(trained):
    bundle, X, y = trained
    Q = lift(X, (bundle.norm_mean, bundle.norm_std), bundle.spec, bundle.rff)
    # zero weights: hinge loss is exactly 1 (all margins violated equally)
    assert pipeline_loss(np.zeros_like(bundle.weights), Q, y, "hinge") == pytest.approx(1.0)


def test_convexity_check_passes_both_losses():
    # each loss is checked around the minimizer trained under that loss;
    # around a mismatched minimizer the recomputed-attention objective
    # can show ~1e-3 midpoint violations
    for kind in ("hinge", "squared"):
        bundle, X, y = _train_tap(kind)
        rep = convexity_check(bundle, X, y, trials=50, rng=RngStream(1),
                              loss_kind=kind)
        assert rep.passed
        assert rep.satisfied == rep.trials == 50
        assert rep.max_violation <= 1e-6
        assert rep.loss_kind == kind


def test_convexity_check_deterministic(trained):
    bundle, X, y = trained
    a = convexity_check(bundle, X, y, trials=10, rng=RngStream(7))
    b = convexity_check(bundle, X, y, trials=10, rng=RngStream(7))
    assert a.mean_violation == b.mean_violation
    assert a.max_violation == b.max_violation


def test_convexity_check_reports_violation_spread(trained):
    bundle, X, y = trained
    rep = convexity_check(bundle, X, y, trials=9, rng=RngStream(3))
    assert rep.min_violation <= rep.median_violation <= rep.max_violation
    assert rep.min_violation <= rep.mean_violation <= rep.max_violation
    # more than one distinct violation, so the spread is not a single value
    assert rep.min_violation < rep.max_violation
    one = convexity_check(bundle, X, y, trials=1, rng=RngStream(3))
    assert one.min_violation == one.median_violation == one.max_violation == one.mean_violation


@pytest.mark.parametrize("noise", [0.0, -1.0])
def test_convexity_check_rejects_nonpositive_noise(trained, noise):
    # zero noise would compare the trained weights with themselves
    bundle, X, y = trained
    with pytest.raises(ValueError, match=rf"noise_stddev must be > 0, got {noise}"):
        convexity_check(bundle, X, y, trials=3, noise_stddev=noise)


def test_convexity_check_rejects(trained):
    bundle, X, y = trained
    with pytest.raises(ValueError):
        convexity_check(bundle, X, y, trials=0)
    with pytest.raises(ValueError, match="untrained"):
        convexity_check(replace(bundle, weights=np.zeros_like(bundle.weights)), X, y)
    with pytest.raises(ValueError, match="nonempty"):
        convexity_check(bundle, X[:0], y[:0])


def test_convexity_check_rejects_bad_labels(trained):
    # a 2.7 label was read as class 2
    bundle, X, _ = trained
    with pytest.raises(ValueError, match=r"labels must be integers, got 2\.7$"):
        convexity_check(bundle, X[:3], [0, 2.7, 1], trials=2)
    with pytest.raises(ValueError, match=r"labels must be in 0\.\.3, got 4$"):
        convexity_check(bundle, X[:3], [0, 4, 1], trials=2)
    with pytest.raises(ValueError, match="does not match spec"):
        convexity_check(bundle, X[:3, :1], [0, 1, 2], trials=2)


def test_nonexpansiveness_sweep_passes():
    rep = nonexpansiveness_sweep(pairs=1000, dim=10, rng=RngStream(0))
    assert rep.passed
    assert rep.max_ratio <= 1.0 + 1e-9
    assert rep.firm_ok
    assert rep.pairs == 1000


def test_nonexpansiveness_various_dims():
    for dim in (2, 5, 30):
        assert nonexpansiveness_sweep(pairs=200, dim=dim, rng=RngStream(dim)).passed


def test_nonexpansiveness_rejects():
    with pytest.raises(ValueError):
        nonexpansiveness_sweep(pairs=0)


def test_softmax_counterexample_values():
    rep = softmax_counterexample()
    assert rep.passed
    assert rep.midpoint_first == pytest.approx(0.731, abs=1e-3)
    assert rep.interpolated_first == pytest.approx(0.691, abs=1e-3)
    assert rep.jensen_violated
    assert rep.distance_convex_ok
