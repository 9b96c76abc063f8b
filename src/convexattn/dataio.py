"""Gesture dataset ingestion, preprocessing, and synthetic generation.

The preprocessing pipeline runs in a fixed order: segmentation, drift
removal, (denoising slot, a no-op on synthetic data), moving-average
smoothing, then z-score normalization with train-set statistics.
"""

import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .numutil import RngStream, check_finite

CLASS_NAMES = ("north", "south", "east", "west")

# unit-square electrode corners, in channel order
ELECTRODE_CORNERS = np.array(
    [
        [0.0, 1.0],  # ch0 north-west
        [1.0, 1.0],  # ch1 north-east
        [0.0, 0.0],  # ch2 south-west
        [1.0, 0.0],  # ch3 south-east
    ]
)

# mid-edge anchor per class, same order as CLASS_NAMES
CLASS_ANCHORS = np.array(
    [
        [0.5, 1.0],
        [0.5, 0.0],
        [1.0, 0.5],
        [0.0, 0.5],
    ]
)

SWIPE_DIRECTIONS = np.array(
    [
        [0.0, 1.0],  # north: south edge -> north edge
        [0.0, -1.0],
        [1.0, 0.0],
        [-1.0, 0.0],
    ]
)


@dataclass
class GestureSample:
    """One segmented gesture: channels x frames matrix plus its label."""

    X: np.ndarray
    label: int
    meta: str = ""


@dataclass
class Dataset:
    samples: list
    class_names: tuple = CLASS_NAMES
    sample_rate: float = 250.0
    meta: dict = field(default_factory=dict)

    @property
    def channels(self):
        return self.samples[0].X.shape[0]

    @property
    def frames(self):
        return self.samples[0].X.shape[1]

    def stacked(self):
        """(X, y) with X of shape (n, C, T) and integer labels y."""
        X = np.stack([s.X for s in self.samples])
        y = np.array([s.label for s in self.samples], dtype=int)
        return X, y


@dataclass
class RawStream:
    """Continuous multi-channel capacitance recording."""

    sample_rate: float
    samples: np.ndarray  # (C, N)

    def __post_init__(self):
        self.samples = np.atleast_2d(check_finite(self.samples, "stream"))
        if self.sample_rate <= 0 or self.samples.shape[1] < 1:
            raise ValueError("need sample_rate > 0 and at least one frame")


@dataclass
class SynthConfig:
    kind: str  # "tap" or "swipe"
    samples_per_class: int = 100
    noise_stddev: float = 0.05
    amplitude: float = 1.0
    drift_rate: float = 0.0
    seed: int = 0
    frames: int = 0  # 0 -> kind default (10 tap, 30 swipe)
    quantize_12bit: bool = False

    def __post_init__(self):
        if self.kind not in ("tap", "swipe"):
            raise ValueError(f"unknown gesture kind {self.kind!r}")
        if self.samples_per_class < 1 or self.noise_stddev < 0:
            raise ValueError("bad SynthConfig")
        if self.frames == 0:
            self.frames = 10 if self.kind == "tap" else 30


def _trailing_mean(X, window):
    """Mean of the last `window` frames up to each frame along the last
    axis (fewer frames at the start)."""
    zero = np.zeros(X.shape[:-1] + (1,))
    csum = np.cumsum(np.concatenate([zero, X], axis=-1), axis=-1)
    hi = np.arange(1, X.shape[-1] + 1)
    lo = np.maximum(0, hi - window)
    return (csum[..., hi] - csum[..., lo]) / (hi - lo)


def _rolling_var(x, window):
    """Trailing rolling variance along the last axis (prefix at the edges)."""
    mean = _trailing_mean(x, window)
    return np.maximum(_trailing_mean(x * x, window) - mean * mean, 0.0)


def segment(stream, window_ms=200.0):
    """Variance-threshold gesture segmentation.

    Onset where the channel-averaged rolling variance exceeds 2.5x the
    baseline (variance of the first window); offset once it stays
    within 1.5x baseline for at least 100 ms; spans get a 5-frame
    post-offset buffer and never overlap.
    """
    window = max(1, int(round(window_ms / 1000.0 * stream.sample_rate)))
    hold = max(1, int(round(0.100 * stream.sample_rate)))
    X = stream.samples
    if X.shape[1] < window:
        raise ValueError("stream shorter than the baseline window")
    var = _rolling_var(X, window).mean(axis=0)
    baseline = float(np.mean([np.var(ch[:window]) for ch in X]))
    onset_thr = 2.5 * baseline
    offset_thr = 1.5 * baseline

    spans = []
    n = X.shape[1]
    t = window
    while t < n:
        if var[t] > onset_thr:
            start = t
            quiet = 0
            while t < n and quiet < hold:
                quiet = quiet + 1 if var[t] <= offset_thr else 0
                t += 1
            end = min(n, t + 5)
            spans.append((start, end))
            t = end
        else:
            t += 1
    return spans


def remove_drift(X, window_ms=200.0, sample_rate=250.0):
    """Subtract a trailing rolling mean per channel (baseline drift)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    window = max(1, int(round(window_ms / 1000.0 * sample_rate)))
    return X - _trailing_mean(X, window)


def smooth(X):
    """Centered 3-frame moving average; edges average what exists."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    T = X.shape[1]
    if T == 1:
        return X.copy()
    out = np.empty_like(X)
    out[:, 0] = X[:, :2].mean(axis=1)
    out[:, -1] = X[:, -2:].mean(axis=1)
    if T > 2:
        out[:, 1:-1] = (X[:, :-2] + X[:, 1:-1] + X[:, 2:]) / 3.0
    return out


def zscore_fit(X):
    """Per-channel mean/stddev over all gestures and frames of a stacked
    (n, C, T) training array.

    Near-constant channels get their stddev clamped to 1 with a warning
    so normalization never divides by ~0.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 3 or X.shape[0] < 2:
        raise ValueError("zscore_fit needs an (n, C, T) array with n >= 2")
    mean = X.mean(axis=(0, 2))
    std = X.std(axis=(0, 2))
    if np.any(std < 1e-8):
        warnings.warn("constant channel: stddev clamped to 1")
        std = np.where(std < 1e-8, 1.0, std)
    return mean, std


def zscore_apply(X, stats):
    mean, std = stats
    return (np.asarray(X, dtype=float) - mean[:, None]) / std[:, None]


def _tap_gesture(config, anchor, rng):
    T = config.frames
    t = np.arange(T)
    t0 = (T - 1) / 2.0 + rng.uniform(1, -0.05 * T, 0.05 * T)[0]
    width = T / 3.0
    env = np.exp(-0.5 * ((t - t0) / width) ** 2)
    d2 = ((ELECTRODE_CORNERS - anchor) ** 2).sum(axis=1)
    amp = config.amplitude * np.exp(-d2 / 0.5)
    return amp[:, None] * env[None, :]


def _swipe_gesture(config, direction, rng):
    # the contact point eases in and out (smoothstep), overshooting the
    # surface edge on both ends: the finger lingers near the endpoints,
    # which is where opposing swipe classes differ most
    T = config.frames
    center = np.array([0.5, 0.5])
    jitter = rng.uniform(2, -0.02, 0.02)
    start = center - 0.75 * direction + jitter[0]
    end = center + 0.75 * direction + jitter[1]
    u = np.arange(T) / (T - 1)
    frac = 3.0 * u ** 2 - 2.0 * u ** 3
    path = start[None, :] + frac[:, None] * (end - start)[None, :]
    d2 = ((path[None, :, :] - ELECTRODE_CORNERS[:, None, :]) ** 2).sum(axis=2)
    return config.amplitude * np.exp(-d2 / 0.5)


def synth_generate(config):
    """Balanced synthetic gesture dataset, deterministic per seed.

    Taps are a shared Gaussian-in-time pulse with per-channel amplitude
    set by anchor-to-electrode distance; swipes translate the contact
    point across the surface so channel peaks occur in direction order.
    """
    rng = RngStream(config.seed)
    samples = []
    C = ELECTRODE_CORNERS.shape[0]
    T = config.frames
    for k, name in enumerate(CLASS_NAMES):
        for i in range(config.samples_per_class):
            g = rng.derive(1 + k * config.samples_per_class + i)
            if config.kind == "tap":
                X = _tap_gesture(config, CLASS_ANCHORS[k], g)
            else:
                X = _swipe_gesture(config, SWIPE_DIRECTIONS[k], g)
            if config.drift_rate:
                X = X + config.drift_rate * np.arange(T)[None, :]
            if config.noise_stddev:
                X = X + g.gauss(C * T, 0.0, config.noise_stddev).reshape(C, T)
            if config.quantize_12bit:
                lim = 2.0 * config.amplitude
                X = np.round(np.clip(X, -lim, lim) / lim * 2047) * lim / 2047
            samples.append(GestureSample(X=X, label=k, meta=f"{name}-{i}"))
    return Dataset(
        samples=samples,
        meta={"kind": config.kind, "seed": config.seed, "synthetic": True},
    )


def preprocess(dataset, window_ms=200.0):
    """Drift removal + smoothing on every sample (z-score happens at
    train time with train-set stats). Refuses to run twice."""
    if dataset.meta.get("preprocessed"):
        raise ValueError("dataset is already preprocessed")
    out = [
        GestureSample(
            X=smooth(remove_drift(s.X, window_ms, dataset.sample_rate)),
            label=s.label,
            meta=s.meta,
        )
        for s in dataset.samples
    ]
    meta = dict(dataset.meta, preprocessed=True)
    return Dataset(out, dataset.class_names, dataset.sample_rate, meta)


def save_csv(dataset, path):
    """Write gesture_id,class,frame,ch0..chN rows plus a JSON sidecar."""
    path = Path(path)
    C = dataset.channels
    cols = ",".join(f"ch{c}" for c in range(C))
    lines = [f"gesture_id,class,frame,{cols}"]
    for gid, s in enumerate(dataset.samples):
        name = dataset.class_names[s.label]
        for t in range(s.X.shape[1]):
            vals = ",".join(f"{v:.17g}" for v in s.X[:, t])
            lines.append(f"{gid},{name},{t},{vals}")
    path.write_text("\n".join(lines) + "\n")
    sidecar = {
        "sample_rate": dataset.sample_rate,
        "channels": C,
        "frames": dataset.frames,
        "class_names": list(dataset.class_names),
        "meta": dataset.meta,
    }
    _sidecar_path(path).write_text(json.dumps(sidecar, indent=2) + "\n")


def _sidecar_path(path):
    return Path(path).with_suffix(Path(path).suffix + ".meta.json")


def load_csv(path):
    """Read a gesture CSV; validates columns, frame contiguity, labels."""
    path = Path(path)
    lines = path.read_text().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty file")
    header = lines[0].split(",")
    if header[:3] != ["gesture_id", "class", "frame"]:
        raise ValueError(f"{path}:1: missing columns, got {lines[0]!r}")
    chan_cols = header[3:]
    C = len(chan_cols)
    if chan_cols != [f"ch{c}" for c in range(C)] or C == 0:
        raise ValueError(f"{path}:1: malformed channel columns")

    sidecar = _sidecar_path(path)
    if sidecar.exists():
        meta = json.loads(sidecar.read_text())
        class_names = tuple(meta["class_names"])
        sample_rate = meta["sample_rate"]
        extra = meta.get("meta", {})
    else:
        class_names = CLASS_NAMES
        sample_rate = 250.0
        extra = {}

    rows = {}  # gesture_id -> (label, [frame], [row of values])
    values = []
    for ln, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 3 + C:
            raise ValueError(f"{path}:{ln}: expected {3 + C} fields")
        gid, cname = parts[0], parts[1]
        try:
            frame = int(parts[2])
        except ValueError:
            raise ValueError(
                f"{path}:{ln}: frame {parts[2]!r} is not an integer"
            ) from None
        if cname not in class_names:
            raise ValueError(f"{path}:{ln}: unknown class label {cname!r}")
        try:
            values.append([float(v) for v in parts[3:]])
        except ValueError as e:
            raise ValueError(f"{path}:{ln}: {e}") from None
        label, frames, at = rows.setdefault(gid, (cname, [], []))
        if label != cname:
            raise ValueError(f"{path}:{ln}: class changes within gesture {gid}")
        frames.append(frame)
        at.append(len(values) - 1)

    if not rows:
        raise ValueError(f"{path}: no gesture rows")
    values = np.array(values, dtype=float)
    bad = ~np.isfinite(values).all(axis=1)
    if bad.any():
        raise ValueError(f"{path}:{int(bad.argmax()) + 2}: non-finite value")
    samples = []
    frame_counts = set()
    for gid, (cname, frames, at) in rows.items():
        if frames != list(range(len(frames))):
            raise ValueError(f"{path}: gap in frame indices for gesture {gid}")
        X = values[at].T
        frame_counts.add(X.shape[1])
        samples.append(
            GestureSample(X=X, label=class_names.index(cname), meta=str(gid))
        )
    if len(frame_counts) > 1:
        raise ValueError(f"{path}: ragged gestures, frame counts {frame_counts}")
    return Dataset(samples, class_names, sample_rate, extra)
