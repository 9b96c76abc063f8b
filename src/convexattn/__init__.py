"""Convex attention classifier for capacitive gesture signals.

A tiny gesture recognizer: random Fourier features fix the nonlinearity
at initialization, attention weights come from Euclidean projection onto
the probability simplex, and training minimizes a loss that is convex in
the weights for fixed attention, under a nuclear-norm constraint.
"""

from .dataio import Dataset, SynthConfig, load_csv, save_csv, synth_generate
from .features import PatchSpec, RffMap, patchify, rff_init, rff_transform
from .model import (
    ModelBundle,
    class_scores,
    deserialize,
    load_model,
    param_count,
    predict,
    save_model,
    scores,
    serialize,
)
from .numutil import RngStream, svd_thin
from .projections import (
    nuclear_ball_project,
    nuclear_norm,
    simplex_project,
    softmax_ref,
    squared_distance_to_simplex,
)
from .trainer import (
    PRESETS,
    TrainConfig,
    evaluate,
    kfold_evaluate,
    macro_f1,
    preset_config,
    split_evaluate,
    train,
)
from .verify import convexity_check, nonexpansiveness_sweep, softmax_counterexample

__version__ = "0.1.0"
