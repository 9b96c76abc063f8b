"""Command-line front end.

Subcommands: synth, train, eval, predict, verify, bench, export.

Exit codes: 0 success; 1 a check failed (a ``verify`` check or export
label parity), and nothing else; 2 an input fault: a missing or
unreadable file, a bad CSV, model or config, data that does not fit the
model, or an output that cannot be written. The library raises
ValueError for bad input, the OS raises OSError, and numpy raises
MemoryError for a count too large to allocate; :func:`main` is the one
place that turns any of them into a single ``error:`` line and exit 2.
Diagnostics go to stderr, a warning as one ``warning:`` line; data goes
to stdout or files.
"""

import argparse
import json
import numbers
import os
import sys
import time
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import dataio, trainer, verify
from .model import LOSS_KINDS, load_model, param_count, predict, save_model, scores
from .numutil import RngStream, check_numbers


def _load_config(args, ds):
    """Build a TrainConfig from --preset and/or --config plus overrides;
    the data's channel and class counts are used unless the config names them.
    The config goes to stderr as one line of JSON that --config accepts."""
    values = dict(trainer.PRESETS[args.preset]) if args.preset else {}
    if args.config:
        values.update(dataio.read_json_object(args.config, "config"))
    if not values:
        raise ValueError("need --preset or --config")
    values.setdefault("channels", ds.samples.shape[1])
    values.setdefault("n_classes", len(ds.class_names))
    if args.seed is not None:
        values["seed"] = args.seed
    if args.loss:
        values["loss_kind"] = args.loss
    cfg = trainer.config_from(values)
    print(f"config: {json.dumps(asdict(cfg))}", file=sys.stderr)
    return cfg


def cmd_synth(args):
    cfg = dataio.SynthConfig(kind=args.kind, samples_per_class=args.n_per_class,
                             noise_stddev=args.noise, drift_rate=args.drift, seed=args.seed)
    ds = dataio.synth_generate(cfg)
    dataio.save_csv(ds, args.out)
    print(f"wrote {len(ds.samples)} samples ({len(ds.class_names)} classes) to {args.out}")
    return 0


def cmd_train(args):
    ds = dataio.load_csv(args.data)
    cfg = _load_config(args, ds)
    # an output that cannot be written fails before the training, not after
    for out in (args.out_model, args.report):
        if out and not Path(out).parent.is_dir():
            raise ValueError(f"{out}: not found")
        if out and Path(out).is_dir():
            raise ValueError(f"{out}: Is a directory")
    if args.report and Path(args.report).resolve() == Path(args.out_model).resolve():
        raise ValueError(f"--out-model and --report name one file, {args.report}")
    bundle, report = trainer.train(ds, cfg)
    trainable, fixed = param_count(bundle)
    print(f"trainable={trainable} fixed={fixed} total={trainable + fixed}")
    print(
        f"final loss={report.epoch_loss[-1]:.6f} "
        f"train_acc={report.epoch_accuracy[-1]:.4f} "
        f"nuclear_norm={report.final_nuclear_norm:.4f} "
        f"converged_epoch={report.epochs_to_convergence}"
    )
    nbytes = save_model(bundle, args.out_model)
    print(f"wrote model ({nbytes} bytes) to {args.out_model}")
    if args.report:
        lines = ["epoch\tloss\ttrain_accuracy\tnuclear_norm"]
        for i, (l, a, nn) in enumerate(
            zip(report.epoch_loss, report.epoch_accuracy, report.epoch_nuclear_norm), 1
        ):
            lines.append(f"{i}\t{l:.12g}\t{a:.6f}\t{nn:.12g}")
        Path(args.report).write_text("\n".join(lines) + "\n")
    return 0


def cmd_eval(args):
    folds, jobs = args.folds, args.jobs
    if args.mode == "split" and (folds, jobs) != (None, None):
        raise ValueError("--folds and --jobs apply only to --mode kfold")
    ds = dataio.load_csv(args.data)
    cfg = _load_config(args, ds)
    # the methodology line follows the run, so a fault prints nothing
    if args.mode == "kfold":
        folds = 10 if folds is None else folds
        res = trainer.kfold_evaluate(ds, cfg, folds=folds, jobs=1 if jobs is None else jobs)
        print(f"methodology: stratified {folds}-fold cross-validation")
        print(
            f"accuracy: {res.mean_accuracy:.4f} +/- {res.std_accuracy:.4f}  "
            f"macro_f1: {res.mean_f1:.4f} +/- {res.std_f1:.4f}"
        )
    else:
        res = trainer.split_evaluate(ds, cfg)
        print("methodology: stratified 60-20-20 train-validation-test split")
        print(
            f"val_accuracy: {res['val_accuracy']:.4f}  "
            f"val_macro_f1: {res['val_macro_f1']:.4f}"
        )
        print(
            f"accuracy: {res['test_accuracy']:.4f}  "
            f"macro_f1: {res['test_macro_f1']:.4f}  "
            f"split sizes: {res['sizes']}"
        )
    return 0


def cmd_predict(args):
    bundle = load_model(args.model)
    ds = dataio.load_csv(args.data)
    if len(ds.class_names) < bundle.n_classes:
        raise ValueError(f"{args.data}: names {len(ds.class_names)} classes, "
                         f"the model scores {bundle.n_classes}")
    K = bundle.n_classes
    f = scores(ds.samples, bundle)
    # one format call for all lines: gesture id, predicted class, K scores
    cells = np.empty((len(f), 2 + K), dtype=object)
    cells[:, 0] = ds.ids
    cells[:, 1] = np.array(ds.class_names, dtype=object)[f.argmax(axis=1)]
    cells[:, 2:] = f
    header = "gesture_id,predicted_class," + ",".join(f"score_{c}" for c in ds.class_names[:K])
    out = header + "\n" + ("%s,%s" + ",%.9g" * K + "\n") * len(f) % tuple(cells.ravel())
    if args.out:
        Path(args.out).write_text(out, encoding="utf-8")
    else:
        sys.stdout.write(out)
    return 0


def cmd_verify(args):
    # zero noise makes both midpoint endpoints the trained weights, so
    # every trial would pass without testing anything
    check_numbers({"--noise": args.noise}, numbers.Real, above=0)
    bundle = load_model(args.model)
    ds = dataio.load_csv(args.data)
    rng = RngStream(args.seed)
    rep = verify.convexity_check(bundle, ds.samples, ds.labels, trials=args.trials,
                                 noise_stddev=args.noise, rng=rng)
    print(
        f"{rep.loss_kind}: {rep.satisfied}/{rep.trials} satisfied "
        f"(mean violation {rep.mean_violation:.3e}, min {rep.min_violation:.3e}, "
        f"median {rep.median_violation:.3e}, max {rep.max_violation:.3e})"
    )
    failed = not rep.passed
    sweep = verify.nonexpansiveness_sweep(1000, bundle.spec.patches, rng.derive(7))
    print(
        f"nonexpansiveness: max ratio {sweep.max_ratio:.9f} "
        f"firm_ok={sweep.firm_ok} skipped={sweep.skipped}"
    )
    failed |= not sweep.passed
    ce = verify.softmax_counterexample()
    print(
        f"softmax counterexample: midpoint {ce.midpoint_first:.3f} vs "
        f"interpolated {ce.interpolated_first:.3f} "
        f"jensen_violated={ce.jensen_violated} "
        f"distance_convex_ok={ce.distance_convex_ok}"
    )
    failed |= not ce.passed
    return 1 if failed else 0


def cmd_bench(args):
    check_numbers({"--iters": args.iters}, numbers.Integral, least=1)
    bundle = load_model(args.model)
    ds = dataio.load_csv(args.data)
    for _ in range(10):
        predict(ds.samples[0], bundle)
    times = np.empty(args.iters)
    for i in range(args.iters):
        s = ds.samples[i % len(ds.samples)]
        t0 = time.perf_counter_ns()
        predict(s, bundle)
        times[i] = time.perf_counter_ns() - t0
    us = times / 1000.0
    p50, p99 = np.percentile(us, [50, 99])
    size = len(Path(args.model).read_bytes())
    print(
        f"latency: mean {us.mean():.2f} us, p50 {p50:.2f} us, p99 {p99:.2f} us, "
        f"std {us.std():.2f} us over {args.iters} runs"
    )
    print(f"model size: {size} bytes")
    return 0


def cmd_export(args):
    bundle = load_model(args.model)
    # the parity dataset must fit the model before --out is written
    ds = dataio.load_csv(args.data) if args.data else None
    if ds is not None:
        trainer.check_dataset(ds, bundle)
    nbytes = save_model(bundle, args.out, precision=32)
    print(f"wrote 32-bit model ({nbytes} bytes) to {args.out}")
    if ds is not None:
        exported = load_model(args.out)
        labels = scores(ds.samples, bundle).argmax(axis=1)
        match = int((scores(ds.samples, exported).argmax(axis=1) == labels).sum())
        print(f"label parity: {match}/{len(labels)} match")
        if match < len(labels):
            return 1
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="convexattn",
        description="Convex attention gesture classifier: data synthesis, "
        "training, evaluation, verification, and export.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("synth", help="generate a synthetic gesture dataset")
    s.add_argument("--kind", required=True)
    s.add_argument("--n-per-class", type=int, default=100)
    s.add_argument("--noise", type=float, default=0.05)
    s.add_argument("--drift", type=float, default=0.0)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_synth)

    def add_cfg(sp):
        sp.add_argument("--preset", choices=sorted(trainer.PRESETS), default=None)
        sp.add_argument("--config", default=None, help="JSON config file")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--loss", choices=LOSS_KINDS, default=None)

    s = sub.add_parser("train", help="train a model")
    s.add_argument("--data", required=True)
    add_cfg(s)
    s.add_argument("--out-model", required=True)
    s.add_argument("--report", default=None)
    s.set_defaults(func=cmd_train)

    s = sub.add_parser("eval", help="k-fold or split evaluation")
    s.add_argument("--data", required=True)
    s.add_argument("--mode", choices=["kfold", "split"], default="kfold")
    s.add_argument("--folds", type=int, default=None, help="kfold only (default 10)")
    s.add_argument("--jobs", type=int, default=None,
                   help="kfold only: fold-level worker processes, at most one per fold "
                        "(default 1; results identical)")
    add_cfg(s)
    s.set_defaults(func=cmd_eval)

    s = sub.add_parser("predict", help="classify gestures from a CSV")
    s.add_argument("--model", required=True)
    s.add_argument("--data", required=True)
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_predict)

    s = sub.add_parser("verify", help="run convexity checks")
    s.add_argument("--model", required=True)
    s.add_argument("--data", required=True)
    s.add_argument("--trials", type=int, default=100)
    s.add_argument("--noise", type=float, default=0.1)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=cmd_verify)

    s = sub.add_parser("bench", help="measure single-sample inference latency")
    s.add_argument("--model", required=True)
    s.add_argument("--data", required=True)
    s.add_argument("--iters", type=int, default=100)
    s.set_defaults(func=cmd_bench)

    s = sub.add_parser("export", help="write a compact 32-bit model file")
    s.add_argument("--model", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--data", default=None, help="optional parity-check dataset")
    s.set_defaults(func=cmd_export)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    # a warning is shown as one line; which are raised, and which the
    # filters turn into errors, does not change
    shown, warnings.formatwarning = warnings.formatwarning, lambda m, *_: f"warning: {m}\n"
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:  # devnull under stdout: the flush at exit must not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        message = "stdout: Broken pipe"
    except OSError as e:
        reason = "not found" if isinstance(e, FileNotFoundError) else e.strerror
        message = f"{e.filename}: {reason}" if e.filename else str(e)
    except (ValueError, MemoryError) as e:  # MemoryError: a count too large to allocate
        message = str(e)
    finally:
        warnings.formatwarning = shown
    print(f"error: {message}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
