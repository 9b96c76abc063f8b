"""End-to-end walkthrough: synthesize taps, train, evaluate, export.

Run:  python3 demos/train_tap_classifier.py
Takes about half a minute.
"""

import tempfile
from pathlib import Path

from convexattn import (
    SynthConfig,
    evaluate,
    load_model,
    param_count,
    preset_config,
    save_model,
    scores,
    split_evaluate,
    synth_generate,
    train,
)

# Four tap classes (north/south/east/west), 50 gestures each, 4 channels
# by 10 frames, with measurement noise at 5% of the tap amplitude.
ds = synth_generate(SynthConfig(kind="tap", samples_per_class=50, seed=0))
X, y = ds.stacked()
print(f"dataset: {X.shape[0]} gestures, {X.shape[1]} channels x "
      f"{X.shape[2]} frames, classes {ds.class_names}")

# Train with the tuned tap preset: projected mini-batch gradient steps,
# one nuclear-norm projection per epoch.
cfg = preset_config("tap-tuned", seed=0)
bundle, report = train(ds, cfg)
trainable, fixed = param_count(bundle)
print(f"\ntrained {trainable} weights (+{fixed} fixed feature params) "
      f"in {report.wall_time_s:.1f}s")
print(f"loss {report.epoch_loss[0]:.3f} -> {report.epoch_loss[-1]:.3f}, "
      f"train accuracy {report.epoch_accuracy[-1]:.3f}, "
      f"converged at epoch {report.epochs_to_convergence}")
print(f"nuclear norm {report.final_nuclear_norm:.3f} "
      f"(constraint radius {cfg.nuclear_radius})")

# Held-out performance on a stratified 60-20-20 split.
res = split_evaluate(ds, cfg)
print(f"\nheld-out test accuracy: {res['test_accuracy']:.3f}, "
      f"macro-F1 {res['test_macro_f1']:.3f}")
print("confusion matrix (rows = true class):")
print(res["confusion"])

# Export a compact 32-bit model and confirm the predictions survive.
with tempfile.TemporaryDirectory() as d:
    path = Path(d) / "tap.model"
    nbytes = save_model(bundle, path, precision=32)
    compact = load_model(path)
    same = int((scores(X, bundle).argmax(axis=1) == scores(X, compact).argmax(axis=1)).sum())
    print(f"\n32-bit export: {nbytes} bytes, {same}/{len(X)} labels identical")

acc, f1, _ = evaluate(compact, X, y)
print(f"compact model on the full set: accuracy {acc:.3f}, macro-F1 {f1:.3f}")
