import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from convexattn import cli, dataio, trainer, verify
from convexattn.cli import main
from convexattn.model import load_model, predict, save_model

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    shown = warnings.formatwarning
    code = main(list(argv))
    assert warnings.formatwarning is shown  # main restores how warnings are shown
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Small synthetic dataset plus a trained model for CLI round trips."""
    d = tmp_path_factory.mktemp("cli")
    data = d / "taps.csv"
    assert main(["synth", "--kind", "tap", "--n-per-class", "10",
                 "--seed", "3", "--out", str(data)]) == 0
    cfg = d / "cfg.json"
    cfg.write_text(json.dumps({
        "nuclear_radius": 5.158, "m": 9, "gamma": 0.789, "eta": 0.0297,
        "epochs": 60, "batch_size": 16, "batches_per_epoch": 32,
        "frames": 10, "patches": 10,
    }))
    model = d / "taps.model"
    # squared loss, so the CLI round trips cover the non-default kind;
    # verify checks the model's own loss, attention frozen at its weights
    assert main(["train", "--data", str(data), "--config", str(cfg),
                 "--loss", "squared", "--out-model", str(model)]) == 0
    return d, data, cfg, model


def test_synth_writes_csv_and_sidecar(tmp_path, capsys):
    out = tmp_path / "g.csv"
    code, stdout, _ = run(capsys, "synth", "--kind", "swipe",
                          "--n-per-class", "2", "--out", str(out))
    assert code == 0
    assert "8 samples" in stdout
    assert out.exists()
    assert (tmp_path / "g.csv.meta.json").exists()


@pytest.mark.parametrize("flag,value,field", [
    ("--n-per-class", "0", "samples_per_class must be >= 1, got 0"),
    ("--noise", "-0.5", "noise_stddev must be >= 0, got -0.5"),
    ("--drift", "inf", "drift_rate must be finite, got inf"),
])
def test_synth_bad_field_named_exit_2(tmp_path, capsys, flag, value, field):
    code, _, err = run(capsys, "synth", "--kind", "tap", flag, value,
                       "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert field in err
    assert "valid kinds" not in err


def test_synth_deterministic_bytes(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert run(capsys, "synth", "--kind", "tap", "--n-per-class", "4",
                   "--seed", "5", "--out", str(out))[0] == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("values", [
    lambda X: 1e200 * X,
    lambda X: np.where(X > 0.5, 1e308, -1e308),
    lambda X: np.where(X > 0.5, 1.5e308, -1.5e308),
], ids=["huge", "near-max", "past-half-max"])
def test_train_takes_finite_data_near_the_float_range(workdir, tmp_path, capsys, values):
    # the z-score statistics are scale-exact, and lift retries in their
    # units where X - mean overflows, so taps whose squares, sums or
    # differences would overflow train, and their model predicts each
    # gesture's label as the raw taps' model does
    _, data, cfg, model = workdir
    taps = dataio.load_csv(data)
    scaled, out = tmp_path / "scaled.csv", tmp_path / "scaled.model"
    dataio.save_csv(dataio.Dataset(values(taps.samples), taps.labels), scaled)
    code, _, err = run(capsys, "train", "--data", str(scaled), "--config", str(cfg),
                       "--loss", "squared", "--out-model", str(out))
    assert code == 0 and "error" not in err and "Warning" not in err

    def labels(m, x):
        code, stdout, _ = run(capsys, "predict", "--model", str(m), "--data", str(x))
        assert code == 0
        return [line.split(",")[1] for line in stdout.splitlines()[1:]]

    got = labels(out, scaled)
    assert len(got) == 40 and got == labels(model, data)


def test_missing_subcommand_exit_2(capsys):
    assert main([]) == 2


def test_train_reports_params_and_writes_model(workdir, capsys):
    d, data, cfg, model = workdir
    assert model.exists()
    bundle = load_model(model)
    assert bundle.weights.shape == (4, 10, 9)


def test_train_deterministic_model_bytes(workdir, tmp_path, capsys):
    d, data, cfg, _ = workdir
    m1, m2 = tmp_path / "m1", tmp_path / "m2"
    for m in (m1, m2):
        code, stdout, _ = run(capsys, "train", "--data", str(data),
                              "--config", str(cfg), "--out-model", str(m))
        assert code == 0
        assert "trainable=360" in stdout
    assert m1.read_bytes() == m2.read_bytes()


def test_train_report_holds_what_train_reports(workdir, tmp_path, capsys):
    # one line per epoch from 1: the loss, train accuracy and nuclear
    # norm of trainer.train on the same data and config, as printed
    _, data, _, _ = workdir
    cfg, report = tmp_path / "cfg.json", tmp_path / "report.tsv"
    cfg.write_text('{"epochs": 3}')
    code, _, err = run(capsys, "train", "--data", str(data), "--preset", "tap", "--config",
                       str(cfg), "--out-model", str(tmp_path / "m"), "--report", str(report))
    assert code == 0, err
    _, rep = trainer.train(dataio.load_csv(data), trainer.config_from(json.loads(config_line(err))))
    rows = zip(rep.epoch_loss, rep.epoch_accuracy, rep.epoch_nuclear_norm)
    assert report.read_text().splitlines() == ["epoch\tloss\ttrain_accuracy\tnuclear_norm", *(
        f"{i}\t{loss:.12g}\t{acc:.6f}\t{norm:.12g}" for i, (loss, acc, norm) in enumerate(rows, 1))]


def test_unknown_preset_exit_2(workdir, capsys):
    d, data, _, _ = workdir
    # argparse rejects values outside the preset choices
    code, _, _ = run(capsys, "train", "--data", str(data),
                     "--preset", "pinch", "--out-model", str(d / "m"))
    assert code == 2


def test_predict_output_schema(workdir, capsys):
    d, data, _, model = workdir
    code, stdout, _ = run(capsys, "predict", "--model", str(model),
                          "--data", str(data))
    assert code == 0
    lines = stdout.strip().splitlines()
    assert lines[0].startswith("gesture_id,predicted_class,score_north")
    assert len(lines) == 41
    # converged model memorizes its training labels
    names = ("north", "south", "east", "west")
    correct = sum(
        line.split(",")[1] == names[int(line.split(",")[0]) // 10]
        for line in lines[1:]
    )
    assert correct >= 40 * 0.99


def test_predict_out_is_utf8_whatever_the_locale(workdir, tmp_path, capsys):
    # load_csv reads UTF-8 whatever the locale, and --out writes the ids
    # it kept as UTF-8 too
    d, data, _, model = workdir
    lines = data.read_text(encoding="utf-8").splitlines()
    accented = tmp_path / "accented.csv"
    accented.write_text("\n".join(lines[:1] + ["g\u00e9" + line for line in lines[1:]]) + "\n",
                        encoding="utf-8")
    out = tmp_path / "predicted.csv"
    assert run(capsys, "predict", "--model", str(model), "--data", str(accented),
               "--out", str(out)) == (0, "", "")
    code, stdout, _ = run(capsys, "predict", "--model", str(model), "--data", str(accented))
    assert code == 0 and "\ng\u00e90," in stdout
    assert out.read_bytes() == stdout.encode("utf-8")


def test_verify_passes_on_trained_model(workdir, capsys):
    # the default trial count at any noise: with attention frozen at the
    # model's weights, every trial holds
    d, data, _, model = workdir
    for noise in ("0.1", "1.0", "10"):
        code, stdout, err = run(capsys, "verify", "--model", str(model),
                                "--data", str(data), "--noise", noise)
        assert (code, err) == (0, ""), (noise, stdout)
        assert stdout.startswith("squared: 100/100 satisfied")
        assert "hinge:" not in stdout
        # the violation spread: min <= median <= max, the mean inside [min, max]
        spread = re.search(r"mean violation (\S+), min (\S+), median (\S+), max (\S+)\)", stdout)
        mean, lo, mid, hi = map(float, spread.groups())
        assert lo <= mid <= hi and lo <= mean <= hi
        assert "nonexpansiveness" in stdout
        assert "jensen_violated=True" in stdout


def test_verify_checks_hinge_model_own_loss(workdir, tmp_path, capsys):
    d, data, cfg, _ = workdir
    model = tmp_path / "hinge.model"
    assert run(capsys, "train", "--data", str(data), "--config", str(cfg),
               "--loss", "hinge", "--out-model", str(model))[0] == 0
    code, stdout, _ = run(capsys, "verify", "--model", str(model), "--data", str(data))
    assert code == 0
    assert "hinge: 100/100" in stdout
    assert "squared:" not in stdout


def test_verify_deterministic(workdir, capsys):
    d, data, _, model = workdir
    outs = []
    for _ in range(2):
        code, stdout, _ = run(capsys, "verify", "--model", str(model),
                              "--data", str(data), "--trials", "5",
                              "--seed", "11")
        assert code == 0
        outs.append(stdout)
    assert outs[0] == outs[1]


# one failing report per check: verify still prints all three lines
FAILED_CHECKS = {
    "convexity_check": verify.ConvexityTrialReport(5, 4, 0.0, -1.0, 0.0, 1.0, "squared", 0.1),
    "nonexpansiveness_sweep": verify.NonexpansivenessReport(1000, 0, 2.0, False),
    "softmax_counterexample": verify.SoftmaxCounterexample(0.5, 0.5, False, True),
}


@pytest.mark.parametrize("check", FAILED_CHECKS)
def test_verify_failed_check_exits_1(workdir, capsys, monkeypatch, check):
    d, data, _, model = workdir
    monkeypatch.setattr(verify, check, lambda *args, **kwargs: FAILED_CHECKS[check])
    code, stdout, err = run(capsys, "verify", "--model", str(model),
                            "--data", str(data), "--trials", "5")
    assert (code, err) == (1, "")
    heads = [line.split(":")[0] for line in stdout.splitlines()]
    assert heads == ["squared", "nonexpansiveness", "softmax counterexample"]


def test_bench_reports_latency(workdir, capsys):
    d, data, _, model = workdir
    code, stdout, _ = run(capsys, "bench", "--model", str(model),
                          "--data", str(data), "--iters", "20")
    assert code == 0
    assert "latency: mean" in stdout
    latency = next(line for line in stdout.splitlines() if line.startswith("latency:"))
    assert " us, p50 " in latency and " us, p99 " in latency
    # exactly these two lines, and no others
    assert [line.split(":")[0] for line in stdout.splitlines()] == ["latency", "model size"]


def test_export_32_with_parity(workdir, tmp_path, capsys):
    d, data, _, model = workdir
    out = tmp_path / "compact.model"
    code, stdout, _ = run(capsys, "export", "--model", str(model),
                          "--out", str(out), "--data", str(data))
    assert code == 0
    assert "label parity: 40/40" in stdout
    assert out.stat().st_size <= 7168
    assert out.stat().st_size < model.stat().st_size


def test_eval_split_mode(workdir, tmp_path, capsys):
    d, data, cfg, _ = workdir
    code, stdout, _ = run(capsys, "eval", "--data", str(data),
                          "--config", str(cfg), "--mode", "split")
    assert code == 0
    assert "60-20-20" in stdout
    assert "val_accuracy:" in stdout and "val_macro_f1:" in stdout
    assert "accuracy:" in stdout


def test_eval_kfold_mode(workdir, capsys):
    d, data, cfg, _ = workdir
    code, stdout, _ = run(capsys, "eval", "--data", str(data),
                          "--config", str(cfg), "--mode", "kfold",
                          "--folds", "2")
    assert code == 0
    assert "stratified 2-fold" in stdout
    assert "+/-" in stdout


def test_predict_one_channel_csv_exit_2(workdir, tmp_path, capsys):
    d, _, _, model = workdir
    one = tmp_path / "one.csv"
    rows = [f"0,north,{t},{0.1 * t}" for t in range(10)]
    one.write_text("gesture_id,class,frame,ch0\n" + "\n".join(rows) + "\n")
    code, stdout, err = run(capsys, "predict", "--model", str(model),
                            "--data", str(one))
    assert code == 2
    assert err == "error: gesture shape (1, 10) does not match spec (4, 10)\n"
    assert stdout == ""


@pytest.mark.parametrize("noise,message", [
    ("0", "--noise must be > 0, got 0.0"),
    ("-1", "--noise must be > 0, got -1.0"),
    ("inf", "--noise must be finite, got inf"),
    ("nan", "--noise must be finite, got nan"),
], ids=["0", "-1", "inf", "nan"])
def test_verify_nonpositive_noise_exit_2(workdir, capsys, noise, message):
    # zero noise would compare the trained weights with themselves
    d, data, _, model = workdir
    code, stdout, err = run(capsys, "verify", "--model", str(model),
                            "--data", str(data), "--noise", noise)
    assert code == 2
    assert err == f"error: {message}\n"
    assert stdout == ""


@pytest.fixture(scope="module")
def swipe_csv(tmp_path_factory):
    """A swipe dataset: (4, 30) gestures, which the (4, 10) tap model
    in workdir cannot take."""
    out = tmp_path_factory.mktemp("swipe") / "swipe.csv"
    assert main(["synth", "--kind", "swipe", "--n-per-class", "3", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def bad_files(workdir, tmp_path_factory):
    """The fault table's bad inputs, by placeholder name: copies of the
    tap CSV with a sidecar load_csv must refuse ({meta_*}), its first
    three lines and a line that is not UTF-8 ({not_utf8}), its header
    alone ({header_only}), its first two classes alone ({two_classes}),
    its taps set to +-1.5e308 ({near_max}), which normalizing by the tap
    model's z-score statistics overflows, its channel 2 set to 1
    ({constant_channel}); the tap model with norm stats
    past the 32-bit range ({big_model}) or scored by the hinge loss
    ({hinge_model}), and a file too short for a model header
    ({junk_model}); the config with a byte that is not UTF-8
    ({cfg_not_utf8}), and configs with a bad, unknown or missing field
    ({cfg_*}, each named for its fault)."""
    d = tmp_path_factory.mktemp("sidecars")
    sidecars = {
        "meta_garbled": "{", "meta_list": "[1]",
        "meta_no_names": '{"sample_rate": 250}',
        "meta_bad_names": '{"class_names": "nsew"}',
    }
    csvs = {}
    for name, text in sidecars.items():
        csvs[name] = d / f"{name}.csv"
        csvs[name].write_bytes(workdir[1].read_bytes())
        Path(f"{csvs[name]}.meta.json").write_text(text)
    csvs["not_utf8"] = d / "not_utf8.csv"
    head = workdir[1].read_bytes().split(b"\n")[:3]
    csvs["not_utf8"].write_bytes(b"\n".join(head + [b"0,north,3,\xff"]) + b"\n")
    csvs["header_only"] = d / "header_only.csv"
    csvs["header_only"].write_bytes(head[0] + b"\n")
    taps = dataio.load_csv(workdir[1])
    csvs["two_classes"] = d / "two.csv"
    two = taps.labels < 2
    dataio.save_csv(dataio.Dataset(taps.samples[two], taps.labels[two],
                                   class_names=taps.class_names[:2]), csvs["two_classes"])
    csvs["near_max"] = d / "near_max.csv"
    dataio.save_csv(dataio.Dataset(np.where(taps.samples > 0.5, 1.5e308, -1.5e308), taps.labels),
                    csvs["near_max"])
    csvs["constant_channel"] = d / "constant.csv"
    constant = taps.samples.copy()
    constant[:, 2] = 1.0
    dataio.save_csv(dataio.Dataset(constant, taps.labels), csvs["constant_channel"])
    bundle = load_model(workdir[3])
    csvs["big_model"] = d / "big.model"
    save_model(replace(bundle, norm_mean=1e40 * bundle.norm_mean,
                       norm_std=1e40 * bundle.norm_std), csvs["big_model"])
    csvs["hinge_model"] = d / "hinge.model"
    save_model(replace(bundle, loss_kind="hinge"), csvs["hinge_model"])
    csvs["junk_model"] = d / "junk.model"
    csvs["junk_model"].write_bytes(b"not a model at all")
    csvs["cfg_not_utf8"] = d / "cfg.json"
    csvs["cfg_not_utf8"].write_bytes(workdir[2].read_bytes().replace(b"}", b', "\xff": 1}'))
    cfg = json.loads(workdir[2].read_text())
    configs = {"float_m": dict(cfg, m=2.5), "zero_patches": dict(cfg, patches=0),
               "inf_gamma": dict(cfg, gamma="G"), "unknown_key": {"learning_rate": 0.1},
               "loss_hinge": dict(cfg, loss_kind="Hinge"), "not_an_object": 5,
               "no_frames": {k: v for k, v in cfg.items() if k != "frames"},
               "variance_meta": dict(cfg, variance_meta=50), "big_eta": dict(cfg, eta=1e20),
               "tiny_radius": dict(cfg, nuclear_radius=1e-6)}
    for name, values in configs.items():
        csvs[f"cfg_{name}"] = d / f"{name}.json"
        # a gamma of 1e400, which JSON reads as infinity
        csvs[f"cfg_{name}"].write_text(json.dumps(values).replace('"G"', "1e400"))
    return csvs


# (argv, what the one error line must name); {data} holds 10 taps per
# class, {nope} does not exist, {missing} is in a directory that does
# not exist, {dir} is a directory, and the other files are bad_files'.
# Each fault comes before any output is printed or written, and no
# warning escapes: the table runs with warnings as errors.
@pytest.mark.parametrize("argv,named", [
    ("predict --model {nope} --data {data}", "{nope}: not found"),
    ("bench --model {model} --data {nope}", "{nope}: not found"),
    ("bench --model {model} --data {swipe}", "shape (4, 30)"),
    ("export --model {model} --out {out} --data {swipe}", "shape (4, 30)"),
    ("predict --model {model} --data {swipe}", "shape (4, 30)"),
    ("verify --model {model} --data {swipe} --trials 2", "shape (4, 30)"),
    ("synth --kind tap --n-per-class 1 --out {missing}", "{missing}"),
    ("synth --kind tap --noise nan --out {out}", "noise_stddev must be finite, got nan"),
    ("train --data {data} --config {cfg} --out-model {missing}", "{missing}: not found"),
    ("train --data {data} --config {cfg} --out-model {out} --report {missing}",
     "{missing}: not found"),
    ("train --data {data} --config {cfg} --out-model {dir}", "{dir}: Is a directory"),
    ("train --data {data} --config {cfg} --out-model {out} --report {dir}",
     "{dir}: Is a directory"),
    ("train --data {data} --config {cfg} --out-model {out} --report {dir}/../out",
     "--out-model and --report name one file, {dir}/../out"),
    ("predict --model {model} --data {data} --out {missing}", "{missing}"),
    ("export --model {model} --out {missing}", "{missing}"),
    ("train --data {dir} --config {cfg} --out-model {out}", "{dir}"),
    ("train --data {data} --config {dir} --out-model {out}", "{dir}"),
    ("predict --model {dir} --data {data}", "{dir}"),
    ("predict --model {model} --data {meta_garbled}", "{meta_garbled}.meta.json: invalid JSON"),
    ("predict --model {model} --data {meta_list}", "{meta_list}.meta.json: sidecar must be"),
    ("predict --model {model} --data {meta_no_names}",
     "{meta_no_names}.meta.json: missing keys ['class_names']"),
    ("verify --model {model} --data {meta_bad_names}",
     "{meta_bad_names}.meta.json: class_names must be a list of strings"),
    ("predict --model {model} --data {not_utf8}", "{not_utf8}:4: byte 0xff is not UTF-8"),
    ("predict --model {model} --data {two_classes}",
     "{two_classes}: names 2 classes, the model scores 4"),
    ("train --data {data} --config {cfg_not_utf8} --out-model {out}",
     "{cfg_not_utf8}: invalid JSON: 'utf-8' codec can't decode byte 0xff"),
    ("train --data {data} --config {cfg_float_m} --out-model {out}",
     "m must be an integer, got 2.5"),
    ("train --data {data} --config {cfg_inf_gamma} --out-model {out}",
     "gamma must be finite, got inf"),
    ("train --data {data} --config {cfg_zero_patches} --out-model {out}",
     "patches must be >= 1, got 0"),
    ("eval --data {data} --config {cfg} --folds 1", "folds must be >= 2"),
    ("eval --data {data} --config {cfg} --jobs 0", "jobs must be >= 1"),
    ("eval --data {data} --config {cfg} --folds 20", "class 0 has 10 samples, need >= 20"),
    ("eval --data {data} --config {cfg} --mode split --folds 1 --jobs 0",
     "--folds and --jobs apply only to --mode kfold"),
    ("eval --data {data} --config {cfg} --mode split --jobs 1",
     "--folds and --jobs apply only to --mode kfold"),
    ("predict --model {model} --data {near_max}", "gesture is too large: normalizing it overflows"),
    ("verify --model {hinge_model} --data {data} --noise 1e308",
     "noise_stddev 1e+308 is too large: trial 0's loss is not finite"),
    ("verify --model {model} --data {data} --noise 1e160",
     "noise_stddev 1e+160 is too large: trial 0's loss is not finite"),
    ("export --model {big_model} --out {out}", "norm_mean does not fit in a 32-bit model"),
    ("synth --kind pinch --out {out}", "unknown gesture kind 'pinch'; valid kinds: tap, swipe"),
    ("train --data {nope} --config {cfg} --out-model {out}", "{nope}: not found"),
    ("train --data {data} --out-model {out}", "need --preset or --config"),
    ("train --data {data} --config {cfg_unknown_key} --out-model {out}",
     "unknown config keys ['learning_rate']"),
    ("train --data {data} --config {cfg_variance_meta} --out-model {out}",
     "unknown config keys ['variance_meta']"),
    ("train --data {data} --config {cfg_loss_hinge} --out-model {out}",
     "unknown loss kind 'Hinge'"),
    ("train --data {data} --config {cfg_not_an_object} --out-model {out}",
     "{cfg_not_an_object}: config must be a JSON object"),
    ("train --data {data} --config {cfg_no_frames} --out-model {out}",
     "required positional argument: 'frames'"),
    ("predict --model {junk_model} --data {data}",
     "{junk_model}: truncated payload: header incomplete"),
    *((f"{command} --model {{model}} --data {{header_only}}", "{header_only}: no gesture rows")
      for command in ("verify", "bench", "export --out {out}")),
    *((f"bench --model {{model}} --data {{data}} --iters {n}", f"--iters must be >= 1, got {n}")
      for n in (0, -1)),
    # counts whose arrays exceed any 64-bit address space: nothing is mapped
    ("bench --model {model} --data {data} --iters 100000000000000000", "Unable to allocate"),
    ("verify --model {model} --data {data} --trials 100000000000000000", "Unable to allocate"),
    ("synth --kind tap --n-per-class 1000000000000000 --out {out}", "Unable to allocate"),
    ("train --data {data} --config {cfg_big_eta} --out-model {out}",
     "training diverged in epoch 1 (eta 1e+20): scores row 0 is too large"),
    # the radius, not the step size, is at fault: no divergence is named
    ("train --data {data} --config {cfg_tiny_radius} --out-model {out}",
     "error: matrix of nuclear norm 0.660841 is too far outside the ball of radius 1e-06: "
     "rounding loses the radius"),
], ids=[
    "model-not-found", "data-not-found", "bench-mismatched-data",
    "export-mismatched-data", "predict-mismatched-data", "verify-mismatched-data",
    "synth-out-missing-dir", "synth-nan-noise",
    "train-out-model-missing-dir", "train-report-missing-dir",
    "train-out-model-is-a-dir", "train-report-is-a-dir", "train-report-is-the-model",
    "predict-out-missing-dir", "export-out-missing-dir",
    "data-is-a-dir", "config-is-a-dir", "model-is-a-dir",
    "sidecar-invalid-json", "sidecar-not-an-object", "sidecar-without-class-names",
    "sidecar-class-names-not-strings", "data-not-utf8",
    "predict-fewer-class-names", "config-not-utf8", "config-m-not-an-integer",
    "config-gamma-infinite", "config-patches-zero",
    "eval-one-fold", "eval-no-jobs", "eval-more-folds-than-taps", "eval-split-folds",
    "eval-split-jobs",
    "predict-near-max-values", "verify-hinge-noise-overflow", "verify-squared-noise-overflow",
    "export-32-bit-overflow",
    "synth-unknown-kind", "train-data-not-found", "train-without-config",
    "config-unknown-key", "config-variance-meta", "config-unknown-loss-kind",
    "config-not-an-object", "config-without-frames", "predict-junk-model",
    "verify-header-only", "bench-header-only", "export-header-only",
    "bench-zero-iters", "bench-negative-iters",
    "bench-unallocatable-iters", "verify-unallocatable-trials", "synth-unallocatable-count",
    "train-diverging-eta", "train-radius-too-small",
])
@pytest.mark.filterwarnings("error")
def test_input_fault_exits_2_with_one_error_line(workdir, swipe_csv, bad_files, tmp_path,
                                                 capsys, argv, named):
    d, data, cfg, model = workdir
    paths = dict(model=model, data=data, cfg=cfg, swipe=swipe_csv, dir=tmp_path / "d",
                 out=tmp_path / "out", nope=tmp_path / "nope", missing=tmp_path / "no" / "out",
                 **bad_files)
    paths["dir"].mkdir()
    code, stdout, err = run(capsys, *(a.format(**paths) for a in argv.split()))
    assert code == 2
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1, err
    assert named.format(**paths) in errors[0]
    assert "Traceback" not in err
    assert stdout == ""
    assert not paths["out"].exists()
    assert not paths["out"].with_suffix(".meta.json").exists()


def test_export_parity_mismatch_writes_and_exits_1(workdir, tmp_path, capsys, monkeypatch):
    d, data, _, model = workdir
    out = tmp_path / "compact.model"

    def reload(path):
        bundle = load_model(path)
        if Path(path) != out:
            return bundle
        # the reloaded export gets its class weights rolled, so every label moves
        return replace(bundle, weights=np.roll(bundle.weights, 1, axis=0))

    monkeypatch.setattr(cli, "load_model", reload)
    code, stdout, err = run(capsys, "export", "--model", str(model),
                            "--out", str(out), "--data", str(data))
    assert code == 1
    assert "label parity: 0/40 match" in stdout
    assert out.exists()
    assert err == ""


def test_entry_point_exits_2_without_traceback(tmp_path):
    # the in-process tests call main(); this runs the module's sys.exit path
    proc = subprocess.run(
        [sys.executable, "-m", "convexattn.cli", "train", "--data", str(tmp_path / "nope.csv"),
         "--preset", "tap", "--out-model", str(tmp_path / "m")],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert f"{tmp_path / 'nope.csv'}: not found" in proc.stderr


@pytest.mark.parametrize("argv,code,line", [
    ("synth --kind tap --n-per-class 1000000000000000 --out {out}", 2,
     "error: Unable to allocate"),
    ("train --data {data} --config {cfg_big_eta} --out-model {out}", 2,
     "error: training diverged in epoch 1"),
    ("train --data {constant_channel} --config {cfg} --out-model {out}", 0,
     "warning: constant channels [2]: stddev clamped to 1"),
], ids=["unallocatable-count", "diverging-eta", "constant-channel"])
def test_entry_point_stderr_holds_only_prefixed_lines(workdir, bad_files, tmp_path,
                                                      argv, code, line):
    # pytest records warnings in-process, so only a process of its own
    # shows what reaches a user: no traceback, warning class or source line
    _, data, cfg, _ = workdir
    paths = dict(data=data, cfg=cfg, out=tmp_path / "out", **bad_files)
    proc = subprocess.run(
        [sys.executable, "-m", "convexattn.cli", *(a.format(**paths) for a in argv.split())],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == code, proc.stderr
    lines = proc.stderr.splitlines()
    assert any(s.startswith(line) for s in lines), proc.stderr
    assert all(s.startswith(("config: ", "warning: ", "error: ")) for s in lines), proc.stderr
    assert "Warning:" not in proc.stderr and ".py" not in proc.stderr


@pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_2(tmp_path, unbuffered):
    # stdout is a pipe whose read end is closed: the write fails at the
    # print when unbuffered, at the flush after the command otherwise
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "convexattn.cli", "synth", "--kind", "tap",
             "--n-per-class", "3", "--out", str(tmp_path / "s.csv")],
            env=env, stdout=write, stderr=subprocess.PIPE, text=True, timeout=60,
        )
    finally:
        os.close(write)
    assert proc.returncode == 2
    assert proc.stderr == "error: stdout: Broken pipe\n"


def config_line(err):
    """The JSON of the config line that a train or eval run printed."""
    (line,) = [line for line in err.splitlines() if line.startswith("config: ")]
    return line.removeprefix("config: ")


def test_printed_config_is_a_config_file(workdir, tmp_path, capsys):
    # the config line, saved as it is, trains the preset run's model bytes
    _, data, _, _ = workdir
    override = tmp_path / "epochs.json"
    override.write_text('{"epochs": 3}')
    code, _, err = run(capsys, "train", "--data", str(data), "--preset", "tap",
                       "--config", str(override), "--seed", "7", "--loss", "squared",
                       "--out-model", str(tmp_path / "preset.model"))
    assert code == 0, err
    printed = tmp_path / "printed.json"
    printed.write_text(config_line(err))
    code, _, err2 = run(capsys, "train", "--data", str(data), "--config", str(printed),
                        "--out-model", str(tmp_path / "printed.model"))
    assert code == 0, err2
    assert config_line(err2) == config_line(err)
    assert (tmp_path / "printed.model").read_bytes() == (tmp_path / "preset.model").read_bytes()


@pytest.fixture(scope="module")
def six_channels(workdir, tmp_path_factory):
    """The tap CSV with channels 0 and 1 repeated as channels 4 and 5."""
    taps = dataio.load_csv(workdir[1])
    out = tmp_path_factory.mktemp("six") / "six.csv"
    samples = np.concatenate([taps.samples, taps.samples[:, :2]], axis=1)
    dataio.save_csv(dataio.Dataset(samples, taps.labels), out)
    return out


@pytest.mark.parametrize("command", [
    "train --out-model {out}", "eval --mode split", "eval --mode kfold --folds 2",
])
def test_channels_default_to_the_data(six_channels, tmp_path, capsys, command):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"epochs": 2}')
    argv = f"{command} --data {six_channels} --preset tap --config {cfg}"
    code, stdout, err = run(capsys, *argv.format(out=tmp_path / "m").split())
    assert code == 0, err
    assert json.loads(config_line(err))["channels"] == 6
    if command.startswith("train"):
        # criterion 5's patch_dim-6 count: 6*3 + 3 fixed, 4*10*3 trainable
        assert "trainable=120 fixed=21 total=141" in stdout
        assert load_model(tmp_path / "m").spec.channels == 6


@pytest.mark.parametrize("command", ["train --out-model {out}", "eval --mode split"])
def test_config_channels_win_over_the_data(six_channels, tmp_path, capsys, command):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"epochs": 2, "channels": 4}')
    argv = f"{command} --data {six_channels} --preset tap --config {cfg}"
    code, stdout, err = run(capsys, *argv.format(out=tmp_path / "m").split())
    assert code == 2
    assert "error: dataset shape (6, 10) does not match spec (4, 10)" in err
    assert stdout == ""
    assert not (tmp_path / "m").exists()


@pytest.fixture(scope="module")
def three_classes(workdir, tmp_path_factory):
    """The tap CSV's gestures of its first three classes, with a sidecar
    that names those three."""
    taps = dataio.load_csv(workdir[1])
    out = tmp_path_factory.mktemp("three") / "three.csv"
    keep = taps.labels < 3
    dataio.save_csv(dataio.Dataset(taps.samples[keep], taps.labels[keep],
                                   class_names=taps.class_names[:3]), out)
    return out


@pytest.mark.parametrize("command", [
    "train --out-model {out}", "eval --mode split", "eval --mode kfold --folds 2",
])
def test_class_count_defaults_to_the_data(three_classes, tmp_path, capsys, command):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"epochs": 2}')
    argv = f"{command} --data {three_classes} --preset tap-tuned --config {cfg}"
    code, stdout, err = run(capsys, *argv.format(out=tmp_path / "m").split())
    assert code == 0, err
    assert json.loads(config_line(err))["n_classes"] == 3
    if command.startswith("train"):
        assert load_model(tmp_path / "m").n_classes == 3


@pytest.mark.parametrize("command", ["train --out-model {out}", "eval --mode split"])
def test_config_n_classes_wins_over_the_data(three_classes, tmp_path, capsys, command):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"epochs": 2, "n_classes": 4}')
    argv = f"{command} --data {three_classes} --preset tap-tuned --config {cfg}"
    code, stdout, err = run(capsys, *argv.format(out=tmp_path / "m").split())
    assert code == 2
    assert "error: every class in 0..3 must appear; got [0 1 2]" in err
    assert stdout == ""
    assert not (tmp_path / "m").exists()


@pytest.fixture(scope="module")
def swipe_model(swipe_csv, tmp_path_factory):
    d = tmp_path_factory.mktemp("swipe_model")
    cfg, model = d / "cfg.json", d / "swipe.model"
    cfg.write_text('{"epochs": 5}')
    assert main(["train", "--data", str(swipe_csv), "--preset", "swipe-tuned", "--config",
                 str(cfg), "--loss", "squared", "--out-model", str(model)]) == 0
    return model


def per_gesture_predict_output(model, data):
    """What `predict` prints, built one gesture at a time with model.predict."""
    bundle, ds = load_model(model), dataio.load_csv(data)
    names = ds.class_names
    lines = ["gesture_id,predicted_class," + ",".join(
        f"score_{c}" for c in names[:bundle.n_classes])]
    for gid, x in zip(ds.ids, ds.samples):
        label, f = predict(x, bundle)
        lines.append(f"{gid},{names[label]}," + ",".join(f"{v:.9g}" for v in f))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("kind", ["tap", "swipe"])
def test_predict_matches_per_gesture_predict(workdir, swipe_csv, swipe_model, capsys, kind):
    model, data = (workdir[3], workdir[1]) if kind == "tap" else (swipe_model, swipe_csv)
    code, stdout, _ = run(capsys, "predict", "--model", str(model), "--data", str(data))
    assert code == 0
    assert stdout == per_gesture_predict_output(model, data)


def test_export_parity_matches_per_gesture_count(workdir, tmp_path, capsys, monkeypatch):
    d, data, _, model = workdir
    out = tmp_path / "compact.model"

    def reload(path):
        bundle = load_model(path)
        if Path(path) != out:
            return bundle
        # classes 0 and 1 trade weights, so exactly their predictions move
        return replace(bundle, weights=bundle.weights[[1, 0, 2, 3]])

    monkeypatch.setattr(cli, "load_model", reload)
    code, stdout, _ = run(capsys, "export", "--model", str(model),
                          "--out", str(out), "--data", str(data))
    ds, bundle = dataio.load_csv(data), load_model(model)
    exported = reload(out)
    match = sum(predict(x, bundle)[0] == predict(x, exported)[0] for x in ds.samples)
    assert 0 < match < len(ds.samples)
    assert code == 1
    assert f"label parity: {match}/{len(ds.samples)} match" in stdout
