"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as
they print. The heavier criteria (4, 7, 8) train real models and take a
few minutes combined. A result two criteria need is computed once, by a
module fixture that also returns the seconds it took; a timed criterion
adds those seconds to its own.
"""

import time

import numpy as np
import pytest

from convexattn.dataio import SynthConfig, save_csv, synth_generate
from convexattn.features import PatchSpec, rff_init
from convexattn.losses import (
    hinge_loss,
    hinge_subgradient,
    one_hot,
    squared_gradient,
    squared_loss,
)
from convexattn.model import (
    ModelBundle,
    batch_class_scores,
    param_count,
    predict,
    serialize,
)
from convexattn.numutil import RngStream
from convexattn.projections import nuclear_ball_project, simplex_project
from convexattn.trainer import PRESETS, kfold_evaluate, preset_config, train
from convexattn.verify import convexity_check, softmax_counterexample

from reference_kernels import fixed_alpha_scores, simplex_qp_oracle


def report(n, ok, detail):
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(f"\n{line}")
    assert ok, line


@pytest.fixture(scope="module")
def tap_dataset():
    return synth_generate(SynthConfig(kind="tap", samples_per_class=100, seed=0))


@pytest.fixture(scope="module")
def swipe_dataset():
    return synth_generate(SynthConfig(kind="swipe", samples_per_class=100, seed=0))


def timed(fn, *args, **kwargs):
    """(fn's result, the seconds it took)."""
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


@pytest.fixture(scope="module")
def tap_cv_seed0(tap_dataset):
    """Tap-tuned 10-fold CV at seed 0: criterion 7's tap run and
    criterion 8's first seed, on two worker processes."""
    return timed(kfold_evaluate, tap_dataset, preset_config("tap-tuned", seed=0), folds=10,
                 jobs=2)


@pytest.fixture(scope="module")
def tap_tuned_fit(tap_dataset):
    """Tap-tuned hinge (bundle, report) at seed 0: criterion 4 checks the
    bundle's convexity, criterion 10 reads the report, criterion 11
    times the bundle."""
    return timed(train, tap_dataset, preset_config("tap-tuned", seed=0))


def test_criterion_1_simplex_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        s = rng.uniform(-5, 5, size=rng.integers(2, 31))
        worst = max(worst, np.max(np.abs(simplex_project(s) - simplex_qp_oracle(s))))
    dt = time.perf_counter() - t0
    report(1, worst <= 1e-9 and dt < 5.0,
           f"1000 vectors, max |proj - oracle| = {worst:.2e}, {dt:.2f}s")


def test_criterion_2_firm_nonexpansiveness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    firm_ok = lip_ok = True
    for _ in range(1000):
        v, w = rng.uniform(-5, 5, size=(2, 10))
        d = simplex_project(v) - simplex_project(w)
        firm_ok &= d @ d <= d @ (v - w) + 1e-12
        lip_ok &= np.linalg.norm(d) <= np.linalg.norm(v - w) + 1e-12
    dt = time.perf_counter() - t0
    report(2, firm_ok and lip_ok and dt < 5.0,
           f"1000 pairs, firm={firm_ok}, lipschitz={lip_ok}, {dt:.2f}s")


def test_criterion_3_softmax_counterexample():
    ce = softmax_counterexample()
    mid_ok = abs(ce.midpoint_first - 0.731) <= 1e-3
    interp_ok = abs(ce.interpolated_first - 0.691) <= 1e-3
    ok = mid_ok and interp_ok and ce.jensen_violated and ce.distance_convex_ok
    report(3, ok,
           f"midpoint {ce.midpoint_first:.4f} vs interpolated "
           f"{ce.interpolated_first:.4f}, jensen_violated={ce.jensen_violated}, "
           f"distance stays convex={ce.distance_convex_ok}")


def test_criterion_4_convexity_protocol(tap_dataset, tap_tuned_fit):
    # each model's own loss, with attention frozen at its weights; the
    # hinge model is the tap_tuned_fit fixture's
    (hinge, _), fit_s = tap_tuned_fit
    t0 = time.perf_counter()
    squared, _ = train(tap_dataset, preset_config("tap-tuned", seed=0, loss_kind="squared"))
    X, y = tap_dataset.stacked()
    details = []
    ok = True
    for kind, bundle in (("hinge", hinge), ("squared", squared)):
        rep = convexity_check(bundle, X, y, trials=100, noise_stddev=0.1,
                              rng=RngStream(0))
        ok &= rep.satisfied == 100
        details.append(f"{kind} {rep.satisfied}/100 "
                       f"(mean violation {rep.mean_violation:+.2e})")
    dt = time.perf_counter() - t0 + fit_s
    ok &= dt < 60.0
    report(4, ok, "; ".join(details) + f", {dt:.1f}s")


def test_criterion_5_parameter_counts():
    def bundle_for(C, P, T, m):
        spec = PatchSpec(channels=C, frames=T, patches=P)
        rff = rff_init(spec, m, 1.0, RngStream(0))
        return ModelBundle(rff=rff, weights=np.zeros((4, P, m)), spec=spec,
                           norm_mean=np.zeros(C),
                           norm_std=np.ones(C), loss_kind="hinge")

    tap = param_count(bundle_for(4, 10, 10, 3))[0]
    swipe = param_count(bundle_for(4, 30, 30, 3))[0]
    six = param_count(bundle_for(6, 10, 10, 3))
    total6 = six[0] + six[1]
    ok = tap == 120 and swipe == 360 and total6 == 141
    report(5, ok, f"tap trainable={tap}, swipe trainable={swipe}, "
                  f"patch_dim-6 total={total6}")


def test_criterion_6_storage_budget():
    def bundle_for(P, T, m):
        spec = PatchSpec(channels=4, frames=T, patches=P)
        rff = rff_init(spec, m, 1.0, RngStream(0))
        return ModelBundle(rff=rff, weights=np.zeros((4, P, m)), spec=spec,
                           norm_mean=np.zeros(4),
                           norm_std=np.ones(4), loss_kind="hinge")

    tap = len(serialize(bundle_for(10, 10, 9), precision=32))
    swipe = len(serialize(bundle_for(30, 30, 3), precision=32))
    ok = tap <= 7168 and swipe <= 7168
    report(6, ok, f"32-bit export: tap {tap} bytes, swipe {swipe} bytes "
                  f"(budget 7168)")


def test_criterion_7_recognition_10fold(tap_cv_seed0, swipe_dataset):
    tap, tap_s = tap_cv_seed0
    swipe, swipe_s = timed(
        kfold_evaluate,
        swipe_dataset,
        preset_config("swipe-tuned", seed=0, loss_kind="squared"),
        folds=10,
        jobs=2,
    )
    dt = tap_s + swipe_s
    ok = (tap.mean_accuracy >= 0.99 and tap.std_accuracy <= 0.02
          and swipe.mean_accuracy >= 0.99 and swipe.std_accuracy <= 0.02
          and dt < 600.0)
    report(7, ok,
           f"tap {tap.mean_accuracy:.4f}±{tap.std_accuracy:.4f}, "
           f"swipe {swipe.mean_accuracy:.4f}±{swipe.std_accuracy:.4f}, "
           f"{dt:.0f}s")


def test_criterion_8_seed_stability(tap_dataset, tap_cv_seed0):
    means = [tap_cv_seed0[0].mean_accuracy]
    for seed in range(1, 5):
        # two worker processes; each fold has its own seed, so the folds'
        # results do not depend on the process that trains them
        res = kfold_evaluate(tap_dataset,
                             preset_config("tap-tuned", seed=seed), folds=10, jobs=2)
        means.append(res.mean_accuracy)
    spread = max(means) - min(means)
    report(8, spread <= 0.01,
           f"5-seed 10-fold means {[f'{m:.4f}' for m in means]}, "
           f"spread {spread:.4f}")


def test_criterion_9_gradient_checks():
    rng = np.random.default_rng(2)
    h = 1e-6
    worst_h = worst_s = 0.0
    checked = 0
    while checked < 50:
        n, P, m, K = 4, 3, 2, 3
        Q = rng.normal(size=(n, P, m))
        A = rng.normal(size=(K, P, m))
        y = rng.integers(0, K, n)
        _, alpha, _ = batch_class_scores(Q, A)
        f = fixed_alpha_scores(Q, A, alpha)
        rival = np.where(one_hot(y, K) > 0, -np.inf, f).max(axis=1)
        margins = 1.0 - f[np.arange(n), y] + rival
        if np.any(np.abs(margins) <= 1e-3):
            continue  # hinge kink exclusion
        D = rng.normal(size=A.shape)
        g = hinge_subgradient(Q, y, alpha, f)
        fd = (hinge_loss(fixed_alpha_scores(Q, A + h * D, alpha), y)
              - hinge_loss(fixed_alpha_scores(Q, A - h * D, alpha), y)) / (2 * h)
        worst_h = max(worst_h, abs(fd - float((g * D).sum())))
        Y = one_hot(y, K)
        g = squared_gradient(Q, Y, alpha, f)
        fd = (squared_loss(fixed_alpha_scores(Q, A + h * D, alpha), Y)
              - squared_loss(fixed_alpha_scores(Q, A - h * D, alpha), Y)) / (2 * h)
        worst_s = max(worst_s, abs(fd - float((g * D).sum())))
        checked += 1
    ok = worst_h <= 1e-5 and worst_s <= 1e-6
    report(9, ok, f"50 instances, max |fd - <g,d>|: hinge {worst_h:.2e} "
                  f"(tol 1e-5), squared {worst_s:.2e} (tol 1e-6)")


def test_criterion_10_nuclear_feasibility(tap_dataset, swipe_dataset, tap_tuned_fit):
    ok = True
    details = []
    for name in sorted(PRESETS):
        ds = tap_dataset if PRESETS[name]["frames"] == 10 else swipe_dataset
        cfg = preset_config(name, seed=0)
        if name == "tap-tuned":
            (_, rep), _ = tap_tuned_fit
        else:
            _, rep = train(ds, cfg)
        worst = max(rep.epoch_nuclear_norm)
        ok &= worst <= cfg.nuclear_radius + 1e-9
        details.append(f"{name} max‖A‖*={worst:.4f}/R={cfg.nuclear_radius}")
    diag = nuclear_ball_project(np.diag([3.0, 1.0]), 2.0)
    diag_ok = np.array_equal(diag, np.diag([2.0, 0.0]))
    ok &= diag_ok
    report(10, ok, "; ".join(details) + f"; diagonal oracle exact={diag_ok}")


def test_criterion_11_latency(tap_tuned_fit, tap_dataset):
    (tap_bundle, _), _ = tap_tuned_fit
    X0 = tap_dataset.samples[0]
    for _ in range(10):
        predict(X0, tap_bundle)
    times = np.empty(100)
    for i in range(100):
        s = tap_dataset.samples[i % 400]
        t0 = time.perf_counter_ns()
        predict(s, tap_bundle)
        times[i] = time.perf_counter_ns() - t0
    mean_us, std_us = times.mean() / 1000, times.std() / 1000
    report(11, mean_us < 1000.0,
           f"single-sample inference {mean_us:.1f} µs mean, "
           f"{std_us:.1f} µs std over 100 runs")


def test_criterion_12_determinism(tmp_path):
    from convexattn.model import save_model

    ds_cfg = SynthConfig(kind="tap", samples_per_class=10, seed=42)
    csvs, models = [], []
    cfg = preset_config("tap", seed=42)
    for tag in ("a", "b"):
        ds = synth_generate(ds_cfg)
        p = tmp_path / f"{tag}.csv"
        save_csv(ds, p)
        csvs.append(p.read_bytes())
        bundle, _ = train(ds, cfg)
        mp = tmp_path / f"{tag}.model"
        save_model(bundle, mp)
        models.append(mp.read_bytes())
    ok = csvs[0] == csvs[1] and models[0] == models[1]
    report(12, ok, f"synth byte-identical={csvs[0] == csvs[1]}, "
                   f"train byte-identical={models[0] == models[1]}")
