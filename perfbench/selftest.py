#!/usr/bin/env python3
"""Self-tests of the benchmark's tracer, on shortened training runs.

    python3 perfbench/selftest.py

The full traced run (``run.py --trace 1``) already fails an operation
when a count differs from its workload's ``expected`` table. This
script checks the same tables on two-epoch versions of the training
workloads, so the tracer can be tested in seconds:

- traced counts equal the configuration exactly (tap-cv's hinge
  subgradient calls = folds x epochs x batches, nuclear projections =
  folds x epochs, and so on);
- the other loss's calls are 0 on each workload;
- after a traced run every wrapped name is the original function again.

Exits 0 when every check holds.
"""

import sys
import tempfile
from dataclasses import replace

import run
import tracer

EPOCHS = 2


def shortened(cls):
    class Short(cls):
        def prepare(self, seed, workdir):
            st = super().prepare(seed, workdir)
            st["config"] = replace(st["config"], epochs=EPOCHS)
            return st

    return Short()


def originals():
    """(owner, attribute) -> current object for every tracer target."""
    out = {}
    for mod, path, _ in tracer.TARGETS:
        owner = sys.modules[f"{tracer.PACKAGE}.{mod}"]
        if "." in path:
            cls, meth = path.split(".")
            owner = getattr(owner, cls)
            path = meth
        out[(owner, path)] = vars(owner)[path]
    for name, m in sys.modules.items():
        if name.split(".")[0] == tracer.PACKAGE:
            for attr, value in vars(m).items():
                if callable(value):
                    out[(m, attr)] = value
    return out


def main():
    sys.path.insert(0, str(run.SRC))
    from convexattn import dataio, model, trainer

    run.dataio, run.model, run.trainer = dataio, model, trainer
    failures = []
    before = originals()
    scratch = run.ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    for cls, own, other in (
        (run.TapCv, "losses.hinge_subgradient.calls", "losses.squared_gradient.calls"),
        (run.SwipeFit, "losses.squared_gradient.calls", "losses.hinge_subgradient.calls"),
    ):
        wl = shortened(cls)
        with tempfile.TemporaryDirectory(dir=scratch) as workdir:
            tally, metrics = run.run_traced(wl, 0, workdir, {})
            # accuracy after two epochs is not the point here
            counted = [p for p in tally.problems
                       if p.startswith(("traced counts", "tracer restore"))]
            failures += [f"{wl.name}: {p}" for p in counted]
            cfg = trainer.preset_config(cls.preset, loss_kind=cls.loss)
            folds = run.FOLDS if cls is run.TapCv else 1
            steps = folds * EPOCHS * cfg.batches_per_epoch
            if metrics[own] != steps or metrics["trainer.steps"] != steps:
                failures.append(f"{wl.name}: {own}={metrics[own]}, expected {steps}")
            if metrics[other] != 0:
                failures.append(f"{wl.name}: {other}={metrics[other]}, expected 0")
            if metrics["projections.nuclear_ball_project.calls"] != folds * EPOCHS:
                failures.append(f"{wl.name}: nuclear projections != folds x epochs")
    after = originals()
    changed = [f"{getattr(o, '__name__', o)}.{a}" for (o, a), v in before.items()
               if after.get((o, a)) is not v]
    if changed:
        failures.append(f"not restored: {', '.join(changed)}")
    for f in failures:
        print(f"FAIL {f}")
    print("selftest: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
