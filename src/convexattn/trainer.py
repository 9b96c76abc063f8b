"""Projected mini-batch gradient training and evaluation drivers.

One epoch = B uniformly-resampled mini-batches of plain gradient steps,
then a single projection of the weight tensor onto the nuclear-norm
ball. Evaluation offers stratified k-fold CV and a stratified 60-20-20
split.
"""

import numbers
import time
from dataclasses import dataclass, field, fields, replace
from functools import cached_property

import numpy as np

from . import dataio
from .features import PatchSpec, lift, rff_init, zscore_fit
from .losses import loss_functions
from .model import ModelBundle, batch_class_scores, scores
from .numutil import RngStream, as_array, check_finite, check_key, check_labels, check_numbers
from .projections import nuclear_ball_project, nuclear_norm


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters and patch geometry, flat: the fields are the keys
    of a preset or a --config file. spec, the PatchSpec of channels,
    frames and patches, is built (and so checked) on construction."""

    nuclear_radius: float
    m: int
    gamma: float
    eta: float
    epochs: int
    batch_size: int
    batches_per_epoch: int
    frames: int
    patches: int
    loss_kind: str = "hinge"
    seed: int = 0
    n_classes: int = 4
    channels: int = 4

    def __post_init__(self):
        self.spec  # built here, so PatchSpec checks the geometry first
        loss_functions(self.loss_kind)  # rejects an unknown kind
        check_numbers(dict(nuclear_radius=self.nuclear_radius, gamma=self.gamma, eta=self.eta),
                      numbers.Real, above=0)
        check_numbers(dict(m=self.m, epochs=self.epochs, batch_size=self.batch_size,
                           batches_per_epoch=self.batches_per_epoch), numbers.Integral, least=1)
        check_numbers(dict(n_classes=self.n_classes), numbers.Integral, least=2)
        check_numbers(dict(seed=self.seed), numbers.Integral)
        check_key("seed", self.seed)

    @cached_property
    def spec(self):
        return PatchSpec(channels=self.channels, frames=self.frames, patches=self.patches)


def config_from(values):
    """Build a TrainConfig from a flat dict of its fields (a preset or a
    --config file); an unknown or missing key is a ValueError."""
    unknown = set(values) - {f.name for f in fields(TrainConfig)}
    if unknown:
        raise ValueError(f"unknown config keys {sorted(unknown)}")
    try:
        return TrainConfig(**values)
    except TypeError as e:
        raise ValueError(f"missing or bad config key: {e}") from None


# Hyperparameter presets. The plain tap/swipe entries are the default
# configuration; the -tuned entries are the search-optimized ones.
PRESETS = {
    "tap": dict(
        nuclear_radius=10.0, m=3, gamma=1.0, eta=0.01, epochs=100,
        batch_size=32, batches_per_epoch=128, patches=10, frames=10,
    ),
    "swipe": dict(
        nuclear_radius=10.0, m=3, gamma=1.0, eta=0.01, epochs=100,
        batch_size=32, batches_per_epoch=128, patches=30, frames=30,
    ),
    "tap-tuned": dict(
        nuclear_radius=5.158, m=9, gamma=0.789, eta=0.0297, epochs=200,
        batch_size=16, batches_per_epoch=128, patches=10, frames=10,
    ),
    "swipe-tuned": dict(
        nuclear_radius=10.770, m=3, gamma=0.135, eta=0.0703, epochs=300,
        batch_size=16, batches_per_epoch=128, patches=30, frames=30,
    ),
}


def preset_config(name, channels=4, loss_kind="hinge", seed=0):
    """Expand a named preset into a TrainConfig for the given channel
    count (frames and patch layout come from the preset)."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; valid: {sorted(PRESETS)}")
    return config_from(dict(PRESETS[name], channels=channels, loss_kind=loss_kind, seed=seed))


@dataclass
class TrainReport:
    epoch_loss: list = field(default_factory=list)
    epoch_accuracy: list = field(default_factory=list)
    epoch_nuclear_norm: list = field(default_factory=list)
    wall_time_s: float = 0.0

    @property
    def epochs_to_convergence(self):
        """First epoch (from 1) at 100% train accuracy, or -1."""
        return next((e for e, a in enumerate(self.epoch_accuracy, 1) if a == 1.0), -1)

    @property
    def final_nuclear_norm(self):
        return self.epoch_nuclear_norm[-1] if self.epoch_nuclear_norm else 0.0


def check_dataset(dataset, config):
    """(X, y) of a dataio.Dataset or an (X, y) pair: X a nonempty,
    finite (n, C, T) stack matching config.spec and y n labels in
    0..config.n_classes-1 (numutil.check_labels). config is a
    TrainConfig or a ModelBundle; both carry spec and n_classes."""
    X, y = (dataset.samples, dataset.labels) if isinstance(dataset, dataio.Dataset) else dataset
    X = check_finite(X, "dataset")
    if X.ndim != 3 or X.shape[0] == 0:
        raise ValueError("dataset must be a nonempty (n, C, T) array")
    config.spec.check(X.shape[1:], "dataset")
    return X, check_labels(y, config.n_classes, len(X))


def train(dataset, config):
    """Run the full projected-gradient training loop.

    Accepts a dataio.Dataset or an (X, y) pair. Deterministic given the
    config seed; the returned bundle carries train-set normalization
    stats so inference consumes raw gestures.
    """
    X, y = check_dataset(dataset, config)
    n = X.shape[0]
    K = config.n_classes
    present = np.unique(y)
    if present.size != K:
        raise ValueError(f"every class in 0..{K - 1} must appear; got {present}")
    spec = config.spec

    t_start = time.perf_counter()
    root = RngStream(config.seed)
    rff = rff_init(spec, config.m, config.gamma, root.derive(1))
    A = root.derive(2).gauss(K * spec.patches * config.m, 0.0, 0.01).reshape(
        K, spec.patches, config.m
    )
    batch_rng = root.derive(3)

    mean, std = zscore_fit(X)
    Q = lift(X, (mean, std), spec, rff)

    loss_fn, grad_fn, target = loss_functions(config.loss_kind)
    Y = target(y, K)
    report = TrainReport()
    flat = lambda a: a.reshape(K * spec.patches, config.m)

    for _ in range(config.epochs):
        for _ in range(config.batches_per_epoch):
            idx = batch_rng.integers(config.batch_size, n)
            Qb = Q[idx]
            f, alpha, _ = batch_class_scores(Qb, A)
            A -= config.eta * grad_fn(Qb, Y[idx], A, alpha, f)
        A = nuclear_ball_project(flat(A), config.nuclear_radius).reshape(A.shape)

        f, _, _ = batch_class_scores(Q, A)
        report.epoch_loss.append(loss_fn(f, Y))
        report.epoch_accuracy.append(float((f.argmax(axis=1) == y).mean()))
        report.epoch_nuclear_norm.append(nuclear_norm(flat(A)))

    report.wall_time_s = time.perf_counter() - t_start
    bundle = ModelBundle(rff=rff, weights=A, spec=spec, norm_mean=mean, norm_std=std,
                         loss_kind=config.loss_kind)
    return bundle, report


def evaluate(bundle, X, y):
    """(accuracy, macro-F1, confusion) of a bundle on raw gestures."""
    X, y = check_dataset((X, y), bundle)
    pred = scores(X, bundle).argmax(axis=1)
    K = bundle.n_classes
    confusion = np.zeros((K, K), dtype=int)
    np.add.at(confusion, (y, pred), 1)
    acc = float((pred == y).mean())
    return acc, macro_f1(confusion), confusion


def macro_f1(confusion):
    """Unweighted mean of per-class F1 (0 when precision+recall = 0) of a
    square matrix of integer counts >= 0, summed in float so none wraps."""
    counts = as_array(confusion, "confusion")
    square = counts.ndim == 2 and counts.shape[0] == counts.shape[1]
    if counts.dtype.kind not in "iu" or not square or (counts < 0).any():
        raise ValueError("confusion must be a square matrix of integer counts >= 0, "
                         f"got dtype {counts.dtype}, shape {counts.shape}")
    confusion = counts.astype(float)
    if confusion.sum() == 0:
        raise ValueError("confusion matrix is empty")
    tp = np.diag(confusion)
    denom = confusion.sum(axis=0) + confusion.sum(axis=1)
    f1 = np.divide(2.0 * tp, denom, out=np.zeros(tp.size), where=denom > 0)
    return float(f1.mean())


def _class_ranks(y, need, rng):
    """(rank, size) per sample: its place in one rng shuffle of its
    class, classes in label order, and the size of that class. A class
    smaller than need is refused."""
    rank = np.empty(y.size, dtype=int)
    size = np.empty(y.size, dtype=int)
    for k in np.unique(y):
        idx = np.nonzero(y == k)[0]
        if idx.size < need:
            raise ValueError(f"class {k} has {idx.size} samples, need >= {need}")
        rank[rng.shuffled(idx)] = np.arange(idx.size)
        size[idx] = idx.size
    return rank, size


@dataclass
class CvResult:
    fold_accuracy: list
    fold_f1: list

    @property
    def mean_accuracy(self):
        return float(np.mean(self.fold_accuracy))

    @property
    def std_accuracy(self):
        return float(np.std(self.fold_accuracy))

    @property
    def mean_f1(self):
        return float(np.mean(self.fold_f1))

    @property
    def std_f1(self):
        return float(np.std(self.fold_f1))


def _run_fold(args):
    X, y, assign, fold, config = args
    tr = assign != fold
    bundle, _ = train((X[tr], y[tr]), config)
    acc, f1, _ = evaluate(bundle, X[~tr], y[~tr])
    return acc, f1


def kfold_evaluate(dataset, config, folds=10, jobs=1):
    """Stratified k-fold CV; each fold trains from scratch with a
    fold-offset seed, and every fold's config is built (so its seed
    checked) before any fold trains. Std is the population standard
    deviation.

    jobs > 1 trains folds in worker processes; the pool's map yields
    their results in fold order, so the report is identical either way.
    """
    check_numbers(dict(folds=folds), numbers.Integral, least=2)
    check_numbers(dict(jobs=jobs), numbers.Integral, least=1)
    X, y = check_dataset(dataset, config)
    rank, _ = _class_ranks(y, folds, RngStream(config.seed, 100))
    assign = rank % folds
    # int(): a numpy seed would wrap past 2**64 - 1 instead of being refused
    work = [(X, y, assign, fold, replace(config, seed=int(config.seed) + fold))
            for fold in range(folds)]
    if jobs == 1:
        results = [_run_fold(w) for w in work]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_fold, work))
    return CvResult(
        fold_accuracy=[acc for acc, _ in results],
        fold_f1=[f1 for _, f1 in results],
    )


def split_evaluate(dataset, config):
    """Stratified 60-20-20 split; trains on the train portion only and
    reports validation and held-out test accuracy and macro-F1."""
    X, y = check_dataset(dataset, config)
    rank, size = _class_ranks(y, 5, RngStream(config.seed, 200))
    end_tr = np.round(0.6 * size)
    end_va = end_tr + np.round(0.2 * size)
    part = (rank >= end_tr).astype(int) + (rank >= end_va)  # 0 train, 1 val, 2 test
    tr, va, te = (np.flatnonzero(part == i) for i in range(3))
    bundle, report = train((X[tr], y[tr]), config)
    val_acc, val_f1, _ = evaluate(bundle, X[va], y[va])
    acc, f1, confusion = evaluate(bundle, X[te], y[te])
    return {
        "bundle": bundle,
        "report": report,
        "val_accuracy": val_acc,
        "val_macro_f1": val_f1,
        "test_accuracy": acc,
        "test_macro_f1": f1,
        "confusion": confusion,
        "sizes": (tr.size, va.size, te.size),
    }
