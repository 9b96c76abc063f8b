"""Convex attention classifier for capacitive gesture signals.

A tiny gesture recognizer: random Fourier features fix the nonlinearity
at initialization, attention weights come from Euclidean projection onto
the probability simplex, and training minimizes a loss that is convex in
the weights for fixed attention, under a nuclear-norm constraint.
"""

from .dataio import Dataset, SynthConfig, load_csv, save_csv, synth_generate
from .features import PatchSpec, RffMap, rff_init
from .model import (
    ModelBundle,
    deserialize,
    load_model,
    param_count,
    predict,
    save_model,
    scores,
    serialize,
)
from .numutil import RngStream
from .projections import nuclear_ball_project, nuclear_norm, simplex_project, softmax_ref
from .trainer import (
    PRESETS,
    TrainConfig,
    evaluate,
    kfold_evaluate,
    preset_config,
    split_evaluate,
    train,
)
from .verify import convexity_check, nonexpansiveness_sweep, softmax_counterexample

__version__ = "0.1.0"
