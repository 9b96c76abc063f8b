"""The midpoint convexity protocol, step by step.

Freeze the attention at a trained model's weights, perturb the weight
tensor twice, evaluate the loss at both endpoints and at their
midpoint, and check the convexity inequality
loss(mid) <= (loss(A1) + loss(A2)) / 2. Repeated 100 times.

Run:  python3 demos/convexity_walkthrough.py
"""

from dataclasses import replace

from convexattn import SynthConfig, convexity_check, preset_config, synth_generate, train
from convexattn.numutil import RngStream

ds = synth_generate(SynthConfig(kind="tap", samples_per_class=25, seed=0))
bundle, _ = train(ds, preset_config("tap-tuned", seed=0))

# One model, both losses: with attention frozen the scores are linear in
# the weights, so either loss is convex around any weights.
for loss_kind in ("hinge", "squared"):
    rep = convexity_check(
        replace(bundle, loss_kind=loss_kind), ds.samples, ds.labels,
        trials=100, noise_stddev=0.1, rng=RngStream(0),
    )
    verdict = "ok" if rep.passed else "VIOLATED"
    print(f"{loss_kind:8s}: {rep.satisfied}/{rep.trials} trials satisfied "
          f"[{verdict}]")
    print(f"          mean violation {rep.mean_violation:+.3e} "
          f"(negative = strict), min {rep.min_violation:+.3e}, "
          f"median {rep.median_violation:+.3e}, max {rep.max_violation:+.3e}")
