"""The convex attention classifier.

Attention scores are per-class, per-patch inner products with the weight
tensor; attention weights come from Euclidean simplex projection of each
class's score row; class scores are the attention-weighted sum of the
per-patch alignments. The whole trained state serializes to a compact
binary bundle.
"""

import math
import numbers
import struct
from dataclasses import dataclass

import numpy as np

from .features import PatchSpec, RffMap, lift
from .numutil import check_numbers
from .projections import simplex_project_rows

MAGIC = b"CVAT"
FORMAT_VERSION = 1
# order fixes the loss-kind index in the serialized model header
LOSS_KINDS = ("hinge", "squared")

_HEADER = struct.Struct("<4sHBB5Id")

# sanity cap on serialized dimensions; catches corrupt headers before
# any allocation
_MAX_DIM = 1 << 20


class ModelFormatError(ValueError):
    """Malformed or incompatible serialized model bundle."""


@dataclass(frozen=True)
class ModelBundle:
    """Serializable unit: RFF map, trained weights, norm stats, config.
    Building one refuses, naming the field, whatever deserialize would."""

    rff: RffMap
    weights: np.ndarray  # (K, P, m)
    spec: PatchSpec
    norm_mean: np.ndarray  # per channel
    norm_std: np.ndarray
    loss_kind: str

    def __post_init__(self):
        fields = _fields(self)
        for (k, v), rank in zip(fields.items(), (1, 1, 1, 2, 3)):
            if not isinstance(v, np.ndarray) or v.ndim != rank:
                got = f"shape {v.shape}" if isinstance(v, np.ndarray) else type(v).__name__
                raise ValueError(f"{k} must be a {rank}-d array, got {got}")
        _, P, m = self.weights.shape
        if P != self.spec.patches or m != self.rff.m:
            raise ValueError("weights shape inconsistent with spec/rff")
        if self.rff.patch_dim != self.spec.patch_dim:
            raise ValueError("rff patch_dim inconsistent with spec")
        if self.rff.b.shape != (m,):
            raise ValueError("rff b must have length m")
        per_channel = (self.spec.channels,)
        if self.norm_mean.shape != per_channel or self.norm_std.shape != per_channel:
            raise ValueError("norm stats must be per channel")
        check_numbers(dict(gamma=self.rff.gamma), numbers.Real, above=0)
        fault = _value_fault(fields)
        if fault:
            raise ValueError(" ".join(fault))
        if self.loss_kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.loss_kind!r}")

    @property
    def n_classes(self):
        return self.weights.shape[0]


def _fields(bundle):
    """A bundle's payload arrays, name -> array, in payload order."""
    return {"norm_mean": bundle.norm_mean, "norm_std": bundle.norm_std,
            "b": bundle.rff.b, "W": bundle.rff.W, "weights": bundle.weights}


def _value_fault(fields):
    """(name, fault) of the first array holding a value that would not load, or None."""
    for k, v in fields.items():
        if not np.isfinite(v).all():
            return k, "contains non-finite entries"
        if k == "norm_std" and not (v > 0).all():
            return k, "must be > 0"
    return None


def _score(Q, A, alpha=None):
    """Class scores of a stack of feature matrices Q (n, P, m).

    s[n, k, p] = <Q_np, A[k, p]> / sqrt(m); alpha projects each class's
    score row onto the simplex; f[n, k] = sqrt(m) <alpha_nk, s_nk>.
    Returns (f, alpha, s). Given alpha (n, K, P), attention is held there:
    f is linear in A, the fixed-attention scores the gradients differentiate.

    Both einsums stay. They reduce over the contiguous last axis in
    partial sums as wide as numpy's baseline SIMD, and the model bytes
    depend on that order. On an SSE (two-lane, no FMA) baseline, plain
    multiplies and adds summed in the same two lanes give the same bits,
    but a wider or FMA baseline moves the order and the bytes with it,
    so a ufunc rewrite matches one build only. It is also slower: the
    ufunc forms tried took 1.7-4.4x the first einsum's time at m=9
    (numpy 2.4.6, 2-core x86-64 VM).
    """
    Q = np.asarray(Q, dtype=float)
    A = np.asarray(A, dtype=float)
    if Q.ndim != 3 or Q.shape[1:] != A.shape[1:]:
        raise ValueError(f"shape mismatch: Q {Q.shape} vs A {A.shape}")
    root_m = math.sqrt(Q.shape[2])
    s = np.einsum("npm,kpm->nkp", Q, A)
    s /= root_m
    if alpha is None:
        alpha = simplex_project_rows(s.reshape(-1, Q.shape[1])).reshape(s.shape)
    f = np.einsum("nkp,nkp->nk", alpha, s)
    f *= root_m
    return f, alpha, s


def class_scores(Q, A):
    """Class scores f (K,) of one feature matrix Q (P, m)."""
    return _score(np.asarray(Q, dtype=float)[None], A)[0][0]


def batch_class_scores(Q, A):
    """Scores (n, K), attention (n, K, P) and raw score rows (n, K, P)
    for a stack of feature matrices Q (n, P, m)."""
    return _score(Q, A)


def scores(X, bundle):
    """Class scores f (n, K) of a stack of raw gestures X (n, C, T)."""
    Q = lift(X, (bundle.norm_mean, bundle.norm_std), bundle.spec, bundle.rff)
    return batch_class_scores(Q, bundle.weights)[0]


def features_for(X, bundle):
    """Raw gesture (C, T) -> normalized, patchified, RFF-lifted features."""
    stats = (bundle.norm_mean, bundle.norm_std)
    return lift(np.asarray(X, dtype=float)[None], stats, bundle.spec, bundle.rff)[0]


def predict(X, bundle):
    """Classify one raw gesture.

    Returns (label, scores); ties in the argmax go to the lowest class
    index.
    """
    f = class_scores(features_for(X, bundle), bundle.weights)
    return int(f.argmax()), f


def param_count(bundle):
    """(trainable, fixed) parameter counts.

    Trainable: the weight tensor K*P*m. Fixed: the RFF projection
    matrix and phase vector, patch_dim*m + m.
    """
    K, P, m = bundle.weights.shape
    return K * P * m, bundle.spec.patch_dim * m + m


def serialize(bundle, precision=64):
    """Pack a bundle into bytes.

    Little-endian; fixed header (magic, version, precision, loss kind,
    K, C, T, P, m, gamma) followed by norm stats, b, W, A. The 32-bit
    variant is the storage/export path, and refuses a bundle it would
    cast to a value deserialize refuses; 64-bit round-trips exactly.
    """
    if precision not in (32, 64):
        raise ValueError(f"precision must be 32 or 64, got {precision}")
    dtype = "<f4" if precision == 32 else "<f8"
    spec = bundle.spec
    header = _HEADER.pack(
        MAGIC,
        FORMAT_VERSION,
        precision,
        LOSS_KINDS.index(bundle.loss_kind),
        bundle.n_classes,
        spec.channels,
        spec.frames,
        spec.patches,
        bundle.rff.m,
        bundle.rff.gamma,
    )
    with np.errstate(over="ignore"):
        cast = {k: v.astype(dtype) for k, v in _fields(bundle).items()}
    # the bundle's values all load; a cast that loses one names its field
    fault = _value_fault(cast)
    if fault:
        raise ValueError(f"{fault[0]} does not fit in a 32-bit model; save it at 64 bits")
    return header + np.concatenate([v.ravel() for v in cast.values()]).tobytes()


def deserialize(data):
    """Unpack bytes into a ModelBundle (distinct diagnostics per fault)."""
    if len(data) < _HEADER.size:
        raise ModelFormatError("truncated payload: header incomplete")
    magic, version, precision, loss_idx, K, C, T, P, m, gamma = _HEADER.unpack(
        data[: _HEADER.size]
    )
    if magic != MAGIC:
        raise ModelFormatError(f"bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise ModelFormatError(f"unsupported format version {version}")
    if precision not in (32, 64):
        raise ModelFormatError(f"bad precision flag {precision}")
    if loss_idx >= len(LOSS_KINDS):
        raise ModelFormatError(f"bad loss kind {loss_idx}")
    for name, v in (("K", K), ("C", C), ("T", T), ("P", P), ("m", m)):
        if not 1 <= v <= _MAX_DIM:
            raise ModelFormatError(f"dimension overflow: {name}={v}")
    dtype = "<f4" if precision == 32 else "<f8"
    # a spec or bundle that refuses the header or values is a format fault
    try:
        spec = PatchSpec(channels=C, frames=T, patches=P)
        d = spec.patch_dim
        expected = _HEADER.size + (2 * C + m + d * m + K * P * m) * (precision // 8)
        if len(data) != expected:
            raise ModelFormatError(
                f"truncated payload: expected {expected} bytes, got {len(data)}")
        vals = np.frombuffer(data, dtype=dtype, offset=_HEADER.size).astype(float)
        norm_mean, norm_std, b, W, A = np.split(vals, np.cumsum([C, C, m, d * m]))
        return ModelBundle(rff=RffMap(W=W.reshape(d, m), b=b, gamma=gamma),
                           weights=A.reshape(K, P, m), spec=spec, norm_mean=norm_mean,
                           norm_std=norm_std, loss_kind=LOSS_KINDS[loss_idx])
    except ValueError as e:
        raise ModelFormatError(str(e)) from None


def save_model(bundle, path, precision=64):
    data = serialize(bundle, precision=precision)
    with open(path, "wb") as fh:
        fh.write(data)
    return len(data)


def load_model(path):
    """Read a bundle from a file; a ModelFormatError names the path."""
    with open(path, "rb") as fh:
        try:
            return deserialize(fh.read())
        except ModelFormatError as e:
            raise ModelFormatError(f"{path}: {e}") from None

