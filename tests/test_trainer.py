import concurrent.futures
import pickle
import re
import warnings
from dataclasses import FrozenInstanceError, asdict, fields, replace

import numpy as np
import pytest

from convexattn import trainer
from convexattn.dataio import SynthConfig, load_csv, save_csv, synth_generate
from convexattn.features import PatchSpec
from convexattn.model import serialize
from convexattn.projections import nuclear_norm
from convexattn.trainer import (
    PRESETS,
    TrainConfig,
    TrainReport,
    _class_ranks,
    config_from,
    evaluate,
    kfold_evaluate,
    macro_f1,
    preset_config,
    split_evaluate,
    train,
)
from convexattn.numutil import RngStream

import reference_kernels


def tiny_config(loss_kind="hinge", seed=0, epochs=60, channels=4, frames=10,
                patches=10):
    return TrainConfig(
        nuclear_radius=5.158,
        m=9,
        gamma=0.789,
        eta=0.0297,
        epochs=epochs,
        batch_size=16,
        batches_per_epoch=32,
        loss_kind=loss_kind,
        seed=seed,
        channels=channels,
        frames=frames,
        patches=patches,
    )


def tap_dataset(n_per_class=20, seed=0, noise=0.05):
    cfg = SynthConfig(kind="tap", samples_per_class=n_per_class,
                      noise_stddev=noise, seed=seed)
    return synth_generate(cfg)


def test_preset_names_and_values():
    assert set(PRESETS) == {"tap", "swipe", "tap-tuned", "swipe-tuned"}
    cfg = preset_config("tap-tuned")
    assert cfg.nuclear_radius == pytest.approx(5.158)
    assert cfg.m == 9 and cfg.epochs == 200 and cfg.batch_size == 16
    cfg = preset_config("swipe-tuned")
    assert cfg.gamma == pytest.approx(0.135)
    assert cfg.spec.patches == 30 and cfg.spec.frames == 30
    with pytest.raises(ValueError):
        preset_config("pinch")


@pytest.mark.parametrize("name", sorted(PRESETS))
@pytest.mark.parametrize("loss_kind,seed", [("hinge", 0), ("squared", 3)])
def test_config_from_matches_preset(name, loss_kind, seed):
    values = dict(PRESETS[name], channels=4, loss_kind=loss_kind, seed=seed)
    assert config_from(values) == preset_config(name, 4, loss_kind, seed)


def test_config_fields_are_the_flat_schema():
    # presets, --config files and the printed config line share one key set
    names = [f.name for f in fields(TrainConfig)]
    for values in PRESETS.values():
        assert set(values) <= set(names)
    assert len(names) == 13 and "spec" not in names
    cfg = preset_config("swipe-tuned", 6)
    assert cfg.spec == PatchSpec(channels=6, frames=30, patches=30)
    assert config_from(asdict(cfg)) == cfg
    with pytest.raises(FrozenInstanceError):
        cfg.spec = PatchSpec(4, 30, 30)
    back = pickle.loads(pickle.dumps(cfg))  # kfold_evaluate's worker processes
    assert back == cfg and back.spec == cfg.spec
    assert replace(cfg, patches=10).spec == PatchSpec(6, 30, 10)


def test_config_from_rejects_unknown_and_missing_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        config_from(dict(PRESETS["tap"], learning_rate=0.1))
    values = dict(PRESETS["tap"])
    del values["frames"]
    with pytest.raises(ValueError, match="frames"):
        config_from(values)
    with pytest.raises(ValueError, match="m"):
        config_from(dict(PRESETS["tap"], m="nine"))


def test_config_rejects_unknown_loss_kind():
    with pytest.raises(ValueError, match="unknown loss kind"):
        replace(preset_config("tap"), loss_kind="l2")
    with pytest.raises(ValueError, match="unknown loss kind"):
        config_from(dict(PRESETS["tap"], loss_kind="Hinge"))


def test_config_validation():
    with pytest.raises(ValueError):
        tiny_config(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(nuclear_radius=-1, m=3, gamma=1.0, eta=0.01, epochs=1,
                    batch_size=1, batches_per_epoch=1, frames=10, patches=10)
    # each bad field is named with its value
    good = dict(nuclear_radius=5.158, m=9, gamma=0.789, eta=0.0297, epochs=1,
                batch_size=16, batches_per_epoch=1, frames=10, patches=10)
    TrainConfig(**good)
    for name, value, message in [
        ("nuclear_radius", -1, "nuclear_radius must be > 0, got -1"),
        ("nuclear_radius", 0.0, "nuclear_radius must be > 0, got 0.0"),
        ("gamma", 0.0, "gamma must be > 0, got 0.0"),
        ("gamma", float("nan"), "gamma must be finite, got nan"),
        ("gamma", float("inf"), "gamma must be finite, got inf"),
        ("gamma", float("-inf"), "gamma must be finite, got -inf"),
        ("eta", float("inf"), "eta must be finite, got inf"),
        ("nuclear_radius", float("inf"), "nuclear_radius must be finite, got inf"),
        ("eta", 10**309, f"eta must be finite, got {10**309}"),  # beyond any float
        ("eta", -0.01, "eta must be > 0, got -0.01"),
        ("m", 0, "m must be >= 1, got 0"),
        ("epochs", 0, "epochs must be >= 1, got 0"),
        ("batch_size", -3, "batch_size must be >= 1, got -3"),
        ("batches_per_epoch", 0, "batches_per_epoch must be >= 1, got 0"),
        ("n_classes", 1, "n_classes must be >= 2, got 1"),
        ("patches", 0, "patches must be >= 1, got 0"),
        ("frames", 7, "patches (10) must divide frames (7)"),
        ("channels", 0, "channels must be >= 1, got 0"),
        ("loss_kind", "Hinge", "unknown loss kind 'Hinge'"),
        ("m", 2.5, "m must be an integer, got 2.5"),
        ("m", float("inf"), "m must be an integer, got inf"),
        ("epochs", 1.0, "epochs must be an integer, got 1.0"),
        ("epochs", True, "epochs must be an integer, got True"),
        ("batch_size", "16", "batch_size must be an integer, got '16'"),
        ("batches_per_epoch", 1.5, "batches_per_epoch must be an integer, got 1.5"),
        ("n_classes", 4.0, "n_classes must be an integer, got 4.0"),
        ("seed", 1.5, "seed must be an integer, got 1.5"),
        ("seed", False, "seed must be an integer, got False"),
        ("seed", -1, "seed must fit in 64 bits, got -1"),
        ("seed", 2**64, f"seed must fit in 64 bits, got {2**64}"),
        ("nuclear_radius", True, "nuclear_radius must be a number, got True"),
        ("gamma", True, "gamma must be a number, got True"),
        ("eta", "0.01", "eta must be a number, got '0.01'"),
    ]:
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            TrainConfig(**dict(good, **{name: value}))
    # the patch geometry is integers too
    for name, value in [("channels", 4.0), ("frames", 10.5), ("patches", 2.5),
                        ("patches", True)]:
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
            PatchSpec(**{"channels": 4, "frames": 10, "patches": 10, name: value})
    # any numbers.Integral passes, numpy's included
    assert TrainConfig(**dict(good, m=np.int64(9), seed=np.uint8(3),
                              channels=np.int32(4), patches=np.int64(10))).m == 9


def test_train_learns_separable_taps():
    ds = tap_dataset(20)
    bundle, report = train(ds, tiny_config())
    assert report.epoch_accuracy[-1] >= 0.95
    assert report.epoch_loss[-1] < report.epoch_loss[0]


def test_train_learns_picofarad_scale_taps():
    # taps in farads: every channel's stddev is far below 1e-8, and none
    # is constant, so none may be clamped
    ds = synth_generate(SynthConfig(kind="tap", samples_per_class=100, seed=0))
    cfg = replace(preset_config("tap-tuned"), epochs=20)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, report = train((1e-12 * ds.samples, ds.labels), cfg)
    assert report.epoch_accuracy[-1] == 1.0


def test_train_squared_loss_also_learns():
    ds = tap_dataset(20)
    bundle, report = train(ds, tiny_config(loss_kind="squared"))
    assert report.epoch_accuracy[-1] >= 0.9


def test_weights_feasible_every_epoch():
    ds = tap_dataset(10)
    cfg = tiny_config(epochs=15)
    _, report = train(ds, cfg)
    for nn in report.epoch_nuclear_norm:
        assert nn <= cfg.nuclear_radius + 1e-9


def test_final_bundle_feasible():
    ds = tap_dataset(10)
    cfg = tiny_config(epochs=10)
    bundle, report = train(ds, cfg)
    K, P, m = bundle.weights.shape
    assert nuclear_norm(bundle.weights.reshape(K * P, m)) <= cfg.nuclear_radius + 1e-9
    assert report.final_nuclear_norm == report.epoch_nuclear_norm[-1]


def test_train_report_summaries_come_from_its_series():
    rep = TrainReport(epoch_accuracy=[0.5, 1.0, 0.9, 1.0], epoch_nuclear_norm=[3.0, 5.1, 4.2])
    assert rep.epochs_to_convergence == 2
    assert rep.final_nuclear_norm == 4.2
    assert TrainReport(epoch_accuracy=[0.25, 0.5, 0.99]).epochs_to_convergence == -1
    assert TrainReport().epochs_to_convergence == -1
    assert TrainReport().final_nuclear_norm == 0.0
    with pytest.raises(AttributeError):
        rep.epochs_to_convergence = 1
    with pytest.raises(AttributeError):
        rep.final_nuclear_norm = 0.0
    # a series that changes later is what the summaries report
    rep.epoch_nuclear_norm.append(5.0)
    assert rep.final_nuclear_norm == 5.0


def test_train_bitwise_deterministic():
    ds = tap_dataset(10)
    b1, r1 = train(ds, tiny_config(epochs=5))
    b2, r2 = train(ds, tiny_config(epochs=5))
    assert np.array_equal(b1.weights, b2.weights)
    assert r1.epoch_loss == r2.epoch_loss
    b3, _ = train(ds, tiny_config(epochs=5, seed=1))
    assert not np.array_equal(b1.weights, b3.weights)


@pytest.mark.parametrize("kind,preset,loss_kind", [
    ("tap", "tap-tuned", "hinge"), ("swipe", "swipe-tuned", "squared"),
])
def test_train_matches_reference_step(kind, preset, loss_kind):
    # train against one plain loop over the einsum scorer and gradients
    # and the count_nonzero threshold: the same model bytes and per-epoch
    # report, so a kernel change that moves a bit fails here
    ds = synth_generate(SynthConfig(kind=kind, samples_per_class=20, seed=0))
    cfg = replace(preset_config(preset, loss_kind=loss_kind), epochs=2)
    bundle, report = train(ds, cfg)
    ref, losses, accuracies, norms = reference_kernels.train(*ds.stacked(), cfg)
    assert serialize(bundle, 64) == serialize(ref, 64)
    assert np.array_equal(np.array(report.epoch_loss).view(np.uint64),
                          np.array(losses).view(np.uint64))
    assert report.epoch_accuracy == accuracies
    assert np.array_equal(np.array(report.epoch_nuclear_norm).view(np.uint64),
                          np.array(norms).view(np.uint64))


@pytest.mark.parametrize("kind,preset,loss_kind", [
    ("tap", "tap-tuned", "hinge"), ("swipe", "swipe-tuned", "squared"),
])
def test_train_same_model_from_synth_and_csv_round_trip(tmp_path, kind, preset, loss_kind):
    # the same values train the same model bytes whoever built the array:
    # synth_generate's C-contiguous stack or load_csv's transposed view
    ds = synth_generate(SynthConfig(kind=kind, samples_per_class=100, seed=0))
    save_csv(ds, tmp_path / "g.csv")
    cfg = replace(preset_config(preset, loss_kind=loss_kind), epochs=2)
    direct, _ = train(ds, cfg)
    loaded, _ = train(load_csv(tmp_path / "g.csv"), cfg)
    assert serialize(direct, 64) == serialize(loaded, 64)


def test_train_accepts_xy_pair():
    ds = tap_dataset(10)
    X, y = ds.stacked()
    b1, _ = train((X, y), tiny_config(epochs=3))
    b2, _ = train(ds, tiny_config(epochs=3))
    assert np.array_equal(b1.weights, b2.weights)


def test_train_rejects_bad_shapes_and_labels():
    cfg = tiny_config()
    X = np.zeros((8, 4, 12))
    with pytest.raises(ValueError):
        train((X, np.zeros(8, dtype=int)), cfg)
    X = np.zeros((8, 4, 10))
    with pytest.raises(ValueError, match="class"):
        train((X, np.zeros(8, dtype=int)), cfg)  # only class 0 present


def test_train_rejects_bad_label_vectors():
    # 20 gestures: too few labels indexed past y, too many trained a
    # whole epoch before a broadcast error, and 0.5 trained as class 0
    X, y = tap_dataset(5).stacked()
    cfg = tiny_config(epochs=1)
    for labels, message in (
        (y[:17], r"labels length must match score rows, got 17 for 20 gestures"),
        (np.r_[y, 0, 1, 2], r"labels length must match score rows, got 23 for 20 gestures"),
        (np.where(np.arange(20) == 3, 0.5, y), r"labels must be integers, got 0\.5"),
    ):
        with pytest.raises(ValueError, match=message):
            train((X, labels), cfg)


def test_every_class_rule_reaches_cv_and_split():
    # a missing class is a training fault; each fold or split trains
    # before any gradient step
    X, y = tap_dataset(5).stacked()
    keep = y < 3
    for run in (lambda d, c: kfold_evaluate(d, c, folds=2), split_evaluate, train):
        with pytest.raises(ValueError, match=r"every class in 0\.\.3 must appear; got \[0 1 2\]"):
            run((X[keep], y[keep]), tiny_config())


@pytest.fixture(scope="module")
def small_bundle():
    ds = tap_dataset(5)
    return train(ds, tiny_config(epochs=2))[0], *ds.stacked()


@pytest.mark.parametrize("labels,message", [
    ([0, 1, 4], r"labels must be in 0\.\.3, got 4$"),
    ([0, 1, -1], r"labels must be in 0\.\.3, got -1$"),
    ([0, 1.5, 2], r"labels must be integers, got 1\.5$"),
    ([[0], [1], [2]], r"labels must be 1-d, got shape \(3, 1\)$"),
    ([0], r"labels length must match score rows, got 1 for 3 gestures$"),
    ([True, False, True], r"labels must hold real numbers, got dtype bool$"),
    (["1", "0", "2"], r"labels must hold real numbers, got dtype <U1$"),
    ([0, 1 + 0j, 2], r"labels must hold real numbers, got dtype complex128$"),
])
def test_evaluate_rejects_bad_labels(small_bundle, labels, message):
    # each of these was counted into the confusion matrix, truncated,
    # broadcast, or failed inside numpy
    bundle, X, _ = small_bundle
    with pytest.raises(ValueError, match=message):
        evaluate(bundle, X[:3], labels)


def test_evaluate_rejects_bad_gesture_stacks(small_bundle):
    bundle, X, y = small_bundle
    bad = X[:3].copy()
    bad[1, 2, 4] = np.nan
    with pytest.raises(ValueError, match="dataset contains non-finite entries"):
        evaluate(bundle, bad, y[:3])
    with pytest.raises(ValueError, match=r"dataset must be a nonempty \(n, C, T\) array"):
        evaluate(bundle, X[:0], y[:0])


def test_evaluate_confusion_sums():
    ds = tap_dataset(10)
    bundle, _ = train(ds, tiny_config())
    X, y = ds.stacked()
    acc, f1, confusion = evaluate(bundle, X, y)
    assert confusion.sum() == y.size
    assert acc == pytest.approx(np.diag(confusion).sum() / y.size)
    assert 0.0 <= f1 <= 1.0


def test_macro_f1_hand_cases():
    assert macro_f1(np.array([[5, 0], [0, 5]])) == pytest.approx(1.0)
    assert macro_f1(np.array([[1, 1], [1, 1]])) == pytest.approx(0.5)
    # one class never predicted: f1 = (2*2/(2+4) + 0)/2 = 1/3
    assert macro_f1(np.array([[2, 0], [2, 0]])) == pytest.approx(
        0.5 * (4.0 / 6.0)
    )
    # summed in float: int64 sums of 2**62 counts would wrap to 0
    assert macro_f1(np.diag([2**62, 2**62])) == 1.0


def test_stratified_folds_balanced():
    y = np.repeat(np.arange(4), 20)
    rank, _ = _class_ranks(y, 10, RngStream(0))
    assign = rank % 10
    for fold in range(10):
        counts = np.bincount(y[assign == fold], minlength=4)
        assert np.array_equal(counts, [2, 2, 2, 2])


def test_stratified_folds_rejects_small_class():
    y = np.array([0, 0, 1])
    with pytest.raises(ValueError):
        _class_ranks(y, 2, RngStream(0))


def test_kfold_perfect_on_easy_data():
    ds = tap_dataset(8, noise=0.02)
    res = kfold_evaluate(ds, tiny_config(epochs=80), folds=2)
    assert res.mean_accuracy == pytest.approx(1.0)
    assert res.std_accuracy == pytest.approx(0.0)
    assert len(res.fold_accuracy) == 2


def test_kfold_parallel_matches_serial():
    ds = tap_dataset(8, noise=0.02)
    cfg = tiny_config(epochs=10)
    serial = kfold_evaluate(ds, cfg, folds=2, jobs=1)
    parallel = kfold_evaluate(ds, cfg, folds=2, jobs=2)
    assert serial.fold_accuracy == parallel.fold_accuracy
    assert serial.fold_f1 == parallel.fold_f1


def test_kfold_starts_at_most_one_worker_per_fold(monkeypatch):
    # a pool that records its size and maps in this process, so no
    # worker starts: jobs=64 over 2 folds asks for 2 workers
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, work):
            return map(fn, work)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    ds, cfg = tap_dataset(8, noise=0.02), tiny_config(epochs=2)
    assert kfold_evaluate(ds, cfg, folds=2, jobs=64) == kfold_evaluate(ds, cfg, folds=2, jobs=1)
    assert sizes == [2]


@pytest.mark.parametrize("seed", [2**64 - 2, np.uint64(2**64 - 2)])
def test_kfold_refuses_a_fold_seed_before_training_any_fold(monkeypatch, seed):
    # fold f trains at seed + f: the third fold's seed 2**64 is refused
    # before the first fold trains, not after two, and a numpy seed does
    # not wrap to 0
    trained = []
    monkeypatch.setattr(trainer, "train", lambda *a: trained.append(a[1].seed) or train(*a))
    with pytest.raises(ValueError, match=f"^seed must fit in 64 bits, got {2**64}$"):
        kfold_evaluate(tap_dataset(4), tiny_config(seed=seed, epochs=1), folds=3)
    assert trained == []


def test_kfold_rejects_bad_folds():
    ds = tap_dataset(4)
    with pytest.raises(ValueError):
        kfold_evaluate(ds, tiny_config(), folds=1)


def _old_stratified_folds(y, folds, rng):
    """The fold assignment as first written, one helper of its own."""
    assign = np.empty(y.size, dtype=int)
    for k in np.unique(y):
        idx = np.nonzero(y == k)[0]
        if idx.size < folds:
            raise ValueError(f"class {k} has {idx.size} samples, need >= {folds}")
        idx = rng.shuffled(idx)
        assign[idx] = np.arange(idx.size) % folds
    return assign


def _old_stratified_split(y, fractions, rng):
    """The train/val/test split as first written, one helper of its own."""
    parts = ([], [], [])
    for k in np.unique(y):
        idx = rng.shuffled(np.nonzero(y == k)[0])
        nc = idx.size
        if nc < 5:
            raise ValueError(f"class {k} has {nc} samples, need >= 5")
        n_tr = int(round(fractions[0] * nc))
        n_val = int(round(fractions[1] * nc))
        parts[0].extend(idx[:n_tr])
        parts[1].extend(idx[n_tr:n_tr + n_val])
        parts[2].extend(idx[n_tr + n_val:])
    return tuple(np.sort(np.array(p, dtype=int)) for p in parts)


def _partitions(monkeypatch, y, seed, folds=None):
    """kfold_evaluate's fold per sample (with folds) or split_evaluate's
    (train, val, test) index arrays, read off the rows that their
    train and evaluate calls receive, both stubbed out. Gesture i of
    the dataset holds the value i."""
    K = int(y.max()) + 1
    X = np.broadcast_to(np.arange(y.size, dtype=float)[:, None, None], (y.size, 1, 2))
    cfg = TrainConfig(nuclear_radius=1.0, m=1, gamma=1.0, eta=1.0, epochs=1, batch_size=1,
                      batches_per_epoch=1, seed=seed, n_classes=K, channels=1,
                      frames=2, patches=1)
    seen = []

    def fake_train(dataset, config):
        seen.append(dataset[0][:, 0, 0].astype(int))
        return None, None

    def fake_evaluate(bundle, X, y):
        seen.append(X[:, 0, 0].astype(int))
        return 1.0, 1.0, None

    monkeypatch.setattr(trainer, "train", fake_train)
    monkeypatch.setattr(trainer, "evaluate", fake_evaluate)
    if folds is None:
        split_evaluate((X, y), cfg)
        return tuple(seen)
    kfold_evaluate((X, y), cfg, folds=folds)
    assign = np.full(y.size, -1)
    for fold, held_out in enumerate(seen[1::2]):  # train, evaluate per fold
        assign[held_out] = fold
    return assign


@pytest.mark.parametrize("K", [2, 3, 4, 5])
def test_stratification_matches_separate_helpers(monkeypatch, K):
    # kfold_evaluate and split_evaluate share one per-class shuffle and
    # still cut the same folds and split sets as two helpers did
    rng = np.random.default_rng(K)
    for seed in (0, 1, 7, 2**63 + 5):
        for folds in range(2, 11):
            for need in (folds, 5):
                sizes = rng.integers(need, 3 * need + 6, size=K)
                sizes[rng.integers(K)] = need  # one class of exactly need
                y = rng.permutation(np.repeat(np.arange(K), sizes))
                if need == folds:
                    want = _old_stratified_folds(y, folds, RngStream(seed).derive(100))
                    got = _partitions(monkeypatch, y, seed, folds)
                    assert np.array_equal(got, want)
                if need == 5:
                    want = _old_stratified_split(y, (0.6, 0.2, 0.2), RngStream(seed).derive(200))
                    got = _partitions(monkeypatch, y, seed)
                    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    # a class below need: the same message from both
    y = np.repeat(np.arange(K), [6] + [4] * (K - 1))
    with pytest.raises(ValueError) as old:
        _old_stratified_folds(y, 5, RngStream(0))
    with pytest.raises(ValueError, match="^" + re.escape(str(old.value)) + "$"):
        _partitions(monkeypatch, y, 0, folds=5)
    with pytest.raises(ValueError) as old:
        _old_stratified_split(y, (0.6, 0.2, 0.2), RngStream(0))
    with pytest.raises(ValueError, match="^" + re.escape(str(old.value)) + "$"):
        _partitions(monkeypatch, y, 0)


def test_stratified_split_sizes(monkeypatch):
    y = np.repeat(np.arange(4), 100)
    tr, va, te = _partitions(monkeypatch, y, 0)
    assert (tr.size, va.size, te.size) == (240, 80, 80)
    # disjoint and exhaustive
    all_idx = np.sort(np.concatenate([tr, va, te]))
    assert np.array_equal(all_idx, np.arange(400))
    for part in (tr, va, te):
        counts = np.bincount(y[part], minlength=4)
        assert counts.min() == counts.max()


def test_split_evaluate_easy_data():
    ds = tap_dataset(25, noise=0.02)
    out = split_evaluate(ds, tiny_config(epochs=80))
    assert out["sizes"] == (60, 20, 20)
    assert out["val_accuracy"] >= 0.95 and 0.0 <= out["val_macro_f1"] <= 1.0
    assert out["test_accuracy"] >= 0.95
    assert out["confusion"].sum() == 20


def test_split_evaluate_copes_with_drift():
    # the classifier reads raw frames: a per-frame sensor drift needs no
    # filter stage in front of train-set z-scoring
    ds = synth_generate(SynthConfig(kind="tap", samples_per_class=25, drift_rate=0.05, seed=3))
    out = split_evaluate(ds, replace(preset_config("tap-tuned"), epochs=30))
    assert out["test_accuracy"] >= 0.99


def test_evaluate_rejects_channel_mismatch():
    # one channel would otherwise broadcast against the 4 norm stats
    ds = tap_dataset(10)
    bundle, _ = train(ds, tiny_config(epochs=2))
    X, y = ds.stacked()
    message = r"^dataset shape \(1, 10\) does not match spec \(4, 10\)$"
    with pytest.raises(ValueError, match=message):
        evaluate(bundle, X[:, :1, :], y)
