from dataclasses import replace

import numpy as np
import pytest

from convexattn import verify
from convexattn.dataio import SynthConfig, synth_generate
from convexattn.features import lift
from convexattn.numutil import RngStream
from convexattn.projections import simplex_project
from convexattn.trainer import TrainConfig, train
from convexattn.verify import (
    NonexpansivenessReport,
    convexity_check,
    nonexpansiveness_sweep,
    softmax_counterexample,
)
from reference_kernels import fixed_alpha_scores, scores


@pytest.fixture(scope="module")
def trained():
    """A squared-loss tap bundle and its data; replace(bundle, loss_kind=...)
    checks the other loss at the same weights."""
    ds = synth_generate(SynthConfig(kind="tap", samples_per_class=10, seed=0))
    cfg = TrainConfig(
        nuclear_radius=5.158, m=9, gamma=0.789, eta=0.0297, epochs=60,
        batch_size=16, batches_per_epoch=32, seed=0, loss_kind="squared",
        frames=10, patches=10,
    )
    bundle, _ = train(ds, cfg)
    return bundle, ds.samples, ds.labels


def test_convexity_check_passes_both_losses(trained):
    # attention is frozen at the trained weights, so the loss is convex in
    # the weights whichever loss it is and however far the noise reaches
    bundle, X, y = trained
    for kind in ("hinge", "squared"):
        for noise in (0.1, 1.0, 10.0):
            rep = convexity_check(replace(bundle, loss_kind=kind), X, y, trials=100,
                                  noise_stddev=noise, rng=RngStream(1))
            assert (rep.loss_kind, rep.noise_stddev) == (kind, noise)
            assert rep.satisfied == rep.trials == 100, (kind, noise, rep.max_violation)
            assert rep.passed and rep.max_violation <= 1e-6


@pytest.mark.parametrize("noise", [0.1, 1.0, 10.0])
@pytest.mark.parametrize("seed", range(5))
def test_squared_midpoint_gap_is_the_closed_form(trained, seed, noise):
    # the squared loss of scores linear in A has midpoint gap
    # -sum ||f_alpha(A1 - A2)||^2 / (4n), alpha frozen at the trained weights
    bundle, X, y = trained
    rep = convexity_check(bundle, X, y, trials=1, noise_stddev=noise, rng=RngStream(seed))
    A0 = bundle.weights
    Q = lift(X, (bundle.norm_mean, bundle.norm_std), bundle.spec, bundle.rff)
    draw = RngStream(seed).derive(1000).gauss(2 * A0.size, 0.0, noise)
    D = (draw[: A0.size] - draw[A0.size:]).reshape(A0.shape)
    f = fixed_alpha_scores(Q, D, scores(Q, A0)[1])
    assert rep.mean_violation == pytest.approx(-np.sum(f**2) / (4 * len(X)), rel=1e-12)


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
    with pytest.raises(ValueError, match=r"labels must be integers, got dtype float64$"):
        convexity_check(bundle, X[:3], [0, 2.7, 1], trials=2)
    with pytest.raises(ValueError, match=r"labels must be in 0\.\.3, got 4$"):
        convexity_check(bundle, X[:3], [0, 4, 1], trials=2)
    message = r"^dataset shape \(1, 10\) does not match spec \(4, 10\)$"
    with pytest.raises(ValueError, match=message):
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


def _loop_sweep(pairs, dim, rng):
    """The sweep as a per-pair loop: one draw and two projections per
    pair, a running max ratio, a skip counter and a firm flag."""
    max_ratio, skipped, firm_ok = 0.0, 0, True
    for _ in range(pairs):
        vw = rng.uniform(2 * dim, -5.0, 5.0)
        v, w = vw[:dim], vw[dim:]
        dvw = np.linalg.norm(v - w)
        diff = simplex_project(v) - simplex_project(w)
        if np.linalg.norm(diff) ** 2 > float(diff @ (v - w)) + 1e-12:
            firm_ok = False
        if dvw < 1e-12:
            skipped += 1
            continue
        max_ratio = max(max_ratio, np.linalg.norm(diff) / dvw)
    return NonexpansivenessReport(pairs, skipped, float(max_ratio), firm_ok)


def _assert_same_sweep(got, want):
    assert (got.pairs, got.skipped, got.firm_ok) == (want.pairs, want.skipped, want.firm_ok)
    assert abs(got.max_ratio - want.max_ratio) <= 2 * np.spacing(want.max_ratio)


@pytest.mark.parametrize("pairs,dim,seed", [
    (1, 1, 0), (50, 1, 3), (1, 10, 7), (300, 2, 1), (1000, 10, 0),
    (200, 5, 11), (250, 30, 30), (40, 30, 2**64 - 1),
])
def test_nonexpansiveness_sweep_matches_per_pair_loop(pairs, dim, seed):
    _assert_same_sweep(nonexpansiveness_sweep(pairs, dim, RngStream(seed)),
                       _loop_sweep(pairs, dim, RngStream(seed)))


class _TwinRng:
    """Uniform draws in which every even-numbered pair has v == w and
    every pair numbered 1 mod 4 has w = v + 1e-9, whether the pairs are
    drawn one at a time or all at once."""

    def __init__(self, dim):
        self.dim, self.drawn, self.rng = dim, 0, RngStream(5)

    def uniform(self, n, lo, hi):
        vw = self.rng.uniform(n, lo, hi).reshape(-1, 2, self.dim)
        i = self.drawn + np.arange(len(vw))
        vw[i % 2 == 0, 1] = vw[i % 2 == 0, 0]
        vw[i % 4 == 1, 1] = vw[i % 4 == 1, 0] + 1e-9
        self.drawn += len(vw)
        return vw.ravel()


@pytest.mark.parametrize("pairs,dim", [(1, 1), (7, 1), (9, 10), (30, 30)])
def test_nonexpansiveness_sweep_skips_coincident_pairs(pairs, dim):
    rep = nonexpansiveness_sweep(pairs, dim, _TwinRng(dim))
    assert rep.skipped == (pairs + 1) // 2
    assert rep.passed
    _assert_same_sweep(rep, _loop_sweep(pairs, dim, _TwinRng(dim)))
    if pairs == 1:
        assert rep.max_ratio == 0.0


def test_nonexpansiveness_sweep_flags_an_expansive_map(monkeypatch):
    # pair i's two rows are scaled by 2 for even i and by 1/2 for odd i:
    # the even pairs break the firm inequality and give ratio 2
    def scale(S):
        return S * np.where(np.arange(len(S)) // 2 % 2 == 0, 2.0, 0.5)[:, None]

    monkeypatch.setattr(verify, "simplex_project_rows", scale)
    rep = nonexpansiveness_sweep(pairs=5, dim=3, rng=RngStream(0))
    assert not rep.firm_ok
    assert rep.max_ratio == pytest.approx(2.0, rel=1e-12)
    assert not rep.passed


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
