import dataclasses
import hashlib
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from collections import namedtuple
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from convexattn import dataio
from convexattn.dataio import (
    CLASS_ANCHORS,
    CLASS_NAMES,
    ELECTRODE_CORNERS,
    SWIPE_DIRECTIONS,
    Dataset,
    SynthConfig,
    load_csv,
    save_csv,
    synth_generate,
)
from convexattn.numutil import RngStream


def test_synth_shapes_and_balance():
    ds = synth_generate(SynthConfig(kind="tap", samples_per_class=7, seed=0))
    X, y = ds.stacked()
    assert X.shape == (28, 4, 10)
    assert np.array_equal(np.bincount(y), [7, 7, 7, 7])
    ds = synth_generate(SynthConfig(kind="swipe", samples_per_class=3, seed=0))
    assert ds.stacked()[0].shape == (12, 4, 30)


def test_synth_deterministic():
    a = synth_generate(SynthConfig(kind="tap", samples_per_class=5, seed=9))
    b = synth_generate(SynthConfig(kind="tap", samples_per_class=5, seed=9))
    assert np.array_equal(a.stacked()[0], b.stacked()[0])
    c = synth_generate(SynthConfig(kind="tap", samples_per_class=5, seed=10))
    assert not np.array_equal(a.stacked()[0], c.stacked()[0])


def test_noiseless_tap_channel_geometry():
    # a north tap drives the two top-edge electrodes (ch0, ch1) harder
    # than the bottom pair, symmetrically
    cfg = SynthConfig(kind="tap", samples_per_class=1, noise_stddev=0.0, seed=0)
    X, y = synth_generate(cfg).stacked()
    north = X[list(y).index(0)]
    peaks = north.max(axis=1)
    assert peaks[0] == pytest.approx(peaks[1], rel=1e-9)
    assert peaks[0] > 2 * peaks[2]
    south = X[list(y).index(1)]
    assert south.max(axis=1)[2] > 2 * south.max(axis=1)[0]


def test_noiseless_swipe_peak_ordering():
    # an east swipe reaches west electrodes before east electrodes
    cfg = SynthConfig(kind="swipe", samples_per_class=1, noise_stddev=0.0, seed=0)
    X, y = synth_generate(cfg).stacked()
    east = X[list(y).index(2)]
    t_peak = east.argmax(axis=1)
    assert t_peak[0] < t_peak[1]  # NW before NE
    assert t_peak[2] < t_peak[3]  # SW before SE


def test_synth_drift():
    cfg = SynthConfig(kind="tap", samples_per_class=2, drift_rate=0.05, seed=1)
    X, _ = synth_generate(cfg).stacked()
    # late frames carry the added ramp
    assert X[:, :, -1].mean() > X[:, :, 0].mean()


def test_csv_round_trip(tmp_path):
    ds = synth_generate(SynthConfig(kind="tap", samples_per_class=3, seed=5))
    path = tmp_path / "gestures.csv"
    save_csv(ds, path)
    back = load_csv(path)
    Xa, ya = ds.stacked()
    Xb, yb = back.stacked()
    assert np.array_equal(ya, yb)
    assert np.array_equal(Xa, Xb)  # %.17g preserves doubles exactly
    assert back.class_names == CLASS_NAMES


def test_csv_without_sidecar_uses_defaults(tmp_path):
    ds = synth_generate(SynthConfig(kind="tap", samples_per_class=2, seed=6))
    path = tmp_path / "g.csv"
    save_csv(ds, path)
    (tmp_path / "g.csv.meta.json").unlink()
    assert load_csv(path).class_names == CLASS_NAMES


@pytest.mark.parametrize("text,fault", [
    ("{", "invalid JSON"),
    ("", "invalid JSON"),
    ("[1]", "sidecar must be a JSON object"),
    ('"north"', "sidecar must be a JSON object"),
    ('{"sample_rate": 250}', "missing keys ['class_names']"),
    ("{}", "missing keys ['class_names']"),
    ('{"class_names": "nsew"}', "class_names must be a list of strings"),
    ('{"class_names": ["north", 1]}', "class_names must be a list of strings"),
    ('{"class_names": {"north": 0}}', "class_names must be a list of strings"),
    ("{\"class_names\": [\"n\xf6rd\"]}", "invalid JSON"),
    ('{"class_names": ["a", "b", "a", "b"]}', "class name 'a' is repeated"),
    ('{"class_names": ["a", "b,c"]}',
     "class name 'b,c' holds a ',' or a line break"),
    ('{"class_names": ["a", "b\\r"]}',
     "class name 'b\\r' holds a ',' or a line break"),
    ('{"class_names": ["a", "b\\u2028c"]}',
     "class name 'b\\u2028c' holds a ',' or a line break"),
    ('{"class_names": ["a", "b\\ud800"]}',
     "class name 'b\\ud800' holds a surrogate, which UTF-8 cannot encode"),
], ids=["truncated", "empty", "list", "string", "no-class-names",
        "no-keys", "names-a-string", "names-not-strings", "names-a-dict",
        "not-utf8", "name-repeated", "name-with-comma", "name-with-return",
        "name-with-line-separator", "name-not-utf8"])
def test_csv_bad_sidecar_names_its_path(tmp_path, text, fault):
    ds = synth_generate(SynthConfig(kind="tap", samples_per_class=2, seed=6))
    path = tmp_path / "g.csv"
    save_csv(ds, path)
    (tmp_path / "g.csv.meta.json").write_bytes(text.encode("latin-1"))
    with pytest.raises(ValueError) as e:
        load_csv(path)
    assert str(e.value).startswith(f"{tmp_path / 'g.csv.meta.json'}: {fault}")


def test_load_csv_reads_every_sidecar_key(tmp_path):
    # a key save_csv writes and load_csv never reads says nothing: each
    # written key, given another value, changes what loads or is refused
    path = tmp_path / "g.csv"
    save_csv(_tap_set(), path)
    sidecar = dataio._sidecar_path(path)
    written = json.loads(sidecar.read_text(encoding="utf-8"))
    kept, unread = load_csv(path), []
    for key, value in written.items():
        sidecar.write_text(json.dumps(dict(written, **{key: {"not": value}})), encoding="utf-8")
        try:
            back = load_csv(path)
        except ValueError:
            continue
        if all(np.array_equal(getattr(back, f.name), getattr(kept, f.name))
               for f in dataclasses.fields(Dataset)):
            unread.append(key)
    assert unread == []


def test_save_csv_writes_the_quick_start_csv_of_every_version(tmp_path):
    # the README quick start's taps.csv; its sidecar holds the class names alone
    path = tmp_path / "taps.csv"
    save_csv(synth_generate(SynthConfig(kind="tap", samples_per_class=100, seed=0)), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "dbbe7a596d440e4cc48833908c5857c9b77b3f77abd3784a1c9b5bbca893efa5")
    sidecar = dataio._sidecar_path(path).read_text(encoding="utf-8")
    assert json.loads(sidecar) == {"class_names": list(CLASS_NAMES)}


def test_csv_is_utf8_whatever_the_locale(tmp_path):
    # an ASCII locale, with neither UTF-8 mode nor C-locale coercion
    path = tmp_path / "g.csv"
    script = (
        "import sys\n"
        "from convexattn.dataio import SynthConfig, load_csv, save_csv, synth_generate\n"
        "ds = synth_generate(SynthConfig(kind='tap', samples_per_class=1))\n"
        "ds.class_names = ('n\\u00f6rd', 's\\u00fcd', '\\u00f6st', 'w\\u00e4st')\n"
        "save_csv(ds, sys.argv[1])\n"
        "print(load_csv(sys.argv[1]).class_names == ds.class_names)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
               LC_ALL="C")
    proc = subprocess.run([sys.executable, "-c", script, str(path)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.stdout == "True\n", proc.stderr
    assert "n\u00f6rd" in path.read_bytes().decode("utf-8")


def test_synth_config_validation():
    with pytest.raises(ValueError, match=r"^unknown gesture kind 'pinch'; valid kinds: tap, swipe$"):
        SynthConfig(kind="pinch")
    # each bad field is named with its value
    for name, value, message in [
        ("samples_per_class", 0, "samples_per_class must be >= 1, got 0"),
        ("samples_per_class", 2.5, "samples_per_class must be an integer, got 2.5"),
        ("samples_per_class", True, "samples_per_class must be an integer, got True"),
        ("seed", 1.5, "seed must be an integer, got 1.5"),
        ("seed", "0", "seed must be an integer, got '0'"),
        ("seed", -1, "seed must fit in 64 bits, got -1"),
        ("seed", 2**64, f"seed must fit in 64 bits, got {2**64}"),
        ("noise_stddev", -0.1, "noise_stddev must be >= 0, got -0.1"),
        ("noise_stddev", float("nan"), "noise_stddev must be finite, got nan"),
        ("noise_stddev", "0.05", "noise_stddev must be a number, got '0.05'"),
        ("drift_rate", float("-inf"), "drift_rate must be finite, got -inf"),
        ("drift_rate", False, "drift_rate must be a number, got False"),
    ]:
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            SynthConfig(kind="tap", **{name: value})
    # numpy's numbers pass
    cfg = SynthConfig(kind="tap", samples_per_class=np.int64(2), seed=np.uint8(3),
                      noise_stddev=np.float64(0.1), drift_rate=-0.01)
    assert len(synth_generate(cfg).samples) == 8
    assert SynthConfig(kind="swipe").frames == 30


def _counting_parse(monkeypatch):
    """Count dataio._parse_rows calls from here on, each as the number of
    data lines it parses: a list's length, or an open file's lines from
    where the parse starts."""
    calls = []
    parse = dataio._parse_rows

    def counted(source, C):
        if isinstance(source, list):
            calls.append(len(source))
        else:
            start = source.tell()
            calls.append(sum(1 for _ in source))
            source.seek(start)
        return parse(source, C)

    monkeypatch.setattr(dataio, "_parse_rows", counted)
    return calls


def test_csv_late_fault_parses_the_lines_before_it_once(tmp_path, monkeypatch):
    # a blank line before the last of 30000 rows: the lines before it
    # take one parse, not one per line
    rows = [f"{g},north,{t},1.0,2.0,3.0,4.0" for g in range(3000) for t in range(10)]
    p = tmp_path / "late.csv"
    p.write_text("\n".join(["gesture_id,class,frame,ch0,ch1,ch2,ch3",
                            *rows[:-1], "", rows[-1]]) + "\n", encoding="utf-8")
    calls = _counting_parse(monkeypatch)
    with pytest.raises(ValueError, match=r"late\.csv:30001: expected 7 fields$"):
        load_csv(p)
    assert calls == [29999]


def test_csv_strict_fault_before_a_blank_line_is_found_by_bisection(tmp_path, monkeypatch):
    # the one parse of the three lines before the blank fails; then the
    # first line parses and the second does not
    p = tmp_path / "odd.csv"
    p.write_text("gesture_id,class,frame,ch0\n0,north,0,1\n0,north,1,1_0\n"
                 "0,north,2,2\n\n0,north,3,3\n", encoding="utf-8")
    calls = _counting_parse(monkeypatch)
    with pytest.raises(ValueError, match=r"odd\.csv:3: numbers must be plain ASCII"):
        load_csv(p)
    # the last parse is of the one line before the bad one
    assert calls == [3, 1, 1, 1]


def test_csv_strict_fault_on_the_last_row_takes_a_bisection(tmp_path, monkeypatch):
    # float() reads '4_0' but the strict parse does not: the whole-file
    # parse fails, then a bisection finds the line, not one parse per line
    rows = [f"{g},north,{t},1.0,2.0,3.0,4.0" for g in range(3000) for t in range(10)]
    rows[-1] = rows[-1].replace("4.0", "4_0")
    p = tmp_path / "late.csv"
    p.write_text("\n".join(["gesture_id,class,frame,ch0,ch1,ch2,ch3", *rows]) + "\n",
                 encoding="utf-8")
    calls = _counting_parse(monkeypatch)
    with pytest.raises(ValueError, match=r"late\.csv:30001: numbers must be plain ASCII"):
        load_csv(p)
    assert len(calls) <= 2 * math.ceil(math.log2(len(rows))) + 2
    # the failed parse of the clean file is the bisection's first
    assert calls[0] == len(rows) and calls.count(len(rows)) == 1


NEWLINES = {"lf": b"\n", "crlf": b"\r\n", "cr": b"\r"}


@pytest.mark.parametrize("newline", NEWLINES.values(), ids=NEWLINES)
def test_csv_clean_file_is_parsed_once_from_the_file(tmp_path, monkeypatch, newline):
    # no sidecar, whose class names are checked with str.splitlines
    rows = [f"{g},north,{t},1.0,2.0,3.0,4.0" for g in range(3000) for t in range(10)]
    p = tmp_path / "clean.csv"
    text = "\n".join(["gesture_id,class,frame,ch0,ch1,ch2,ch3", *rows]) + "\n"
    p.write_bytes(text.encode().replace(b"\n", newline))
    calls = _counting_parse(monkeypatch)
    split = []

    def profile(frame, event, arg):
        if event == "c_call" and getattr(arg, "__name__", None) == "splitlines":
            split.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        back = load_csv(p)
    finally:
        sys.setprofile(None)
    assert calls == [30000] and split == []
    assert back.samples.shape == (3000, 4, 10)


@pytest.mark.parametrize("newline", NEWLINES.values(), ids=NEWLINES)
def test_load_csv_peak_memory_is_bounded(tmp_path, newline):
    # the held-out set of perfbench's swipe-fit: 1000 swipes, 30001
    # lines; numpy reports its buffers to tracemalloc
    p = tmp_path / "held_out.csv"
    save_csv(synth_generate(SynthConfig(kind="swipe", samples_per_class=250, seed=1)), p)
    p.write_bytes(p.read_bytes().replace(b"\n", newline))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        load_csv(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * p.stat().st_size


# three faults the parse alone would not order: a blank line it skips,
# a "\x1f" it strips and a '_' only it refuses
ROW_FAULTS = {
    "blank": (lambda t: "", "expected 4 fields"),
    "separator": (lambda t: f"0,north,{t},\x1f1", "could not convert string to float: '\\x1f1'"),
    "underscore": (lambda t: f"0,north,{t},1_0",
                   "numbers must be plain ASCII decimals without '_', and frames below 2**63"),
}


@pytest.mark.parametrize("order", list(itertools.permutations(ROW_FAULTS)), ids="-".join)
def test_csv_first_of_three_faults_is_reported_at_its_line(tmp_path, monkeypatch, order):
    rows = [f"0,north,{t},{t}" for t in range(8)]
    p = tmp_path / "g.csv"
    p.write_text("gesture_id,class,frame,ch0\n" + "\n".join(rows) + "\n", encoding="utf-8")
    calls = _counting_parse(monkeypatch)
    load_csv(p)
    assert calls == [8]
    # the faults on rows 2, 4 and 6, at lines 4, 6 and 8
    for t, name in zip((2, 4, 6), order):
        rows[t] = ROW_FAULTS[name][0](t)
    p.write_text("gesture_id,class,frame,ch0\n" + "\n".join(rows) + "\n", encoding="utf-8")
    assert _outcome(load_csv, p) == f"{p}:4: {ROW_FAULTS[order[0]][1]}"


def _tap_set():
    return synth_generate(SynthConfig(kind="tap", samples_per_class=3, seed=1))


@pytest.mark.parametrize("spoil,message", [
    (lambda ds: ds.labels.put(4, -1), r"labels must be in 0\.\.3, got -1$"),
    (lambda ds: ds.labels.put(4, 7), r"labels must be in 0\.\.3, got 7$"),
    (lambda ds: setattr(ds, "samples", ds.samples[:0]), r"cannot save an empty dataset$"),
    (lambda ds: setattr(ds, "samples", ds.samples[1]),
     r"samples must be an \(n, C, T\) array, got shape \(4, 10\)$"),
    (lambda ds: np.put(ds.samples[5], 27, np.nan), r"gesture 5 has a non-finite value$"),
    (lambda ds: np.put(ds.samples[11], 0, -np.inf), r"gesture 11 has a non-finite value$"),
    (lambda ds: setattr(ds, "samples", ds.samples + 1j),
     r"samples must hold real numbers, got dtype complex128$"),
    (lambda ds: setattr(ds, "samples", ds.samples.astype(object)),
     r"samples must hold real numbers, got dtype object$"),
    (lambda ds: setattr(ds, "class_names", ("a", 2, "c", "d")),
     r"class_names must be a list of strings$"),
    (lambda ds: setattr(ds, "class_names", ("a", "a", "b", "c")),
     r"class name 'a' is repeated$"),
    (lambda ds: setattr(ds, "class_names", ("a", "b,c", "d", "e")),
     r"class name 'b,c' holds a ',' or a line break$"),
    (lambda ds: setattr(ds, "class_names", ("a", "b", "c\n", "d")),
     r"class name 'c\\n' holds a ',' or a line break$"),
    (lambda ds: setattr(ds, "class_names", ("a", "b", "c", "d\x1ce")),
     r"class name 'd\\x1ce' holds a ',' or a line break$"),
    (lambda ds: setattr(ds, "class_names", ("a", "b", "c", "d\ud800")),
     r"class name 'd\\ud800' holds a surrogate, which UTF-8 cannot encode$"),
], ids=["label-minus-1", "label-7", "empty", "not-3-d", "nan", "minus-inf",
        "complex", "object",
        "name-not-a-string", "name-repeated", "name-with-comma", "name-with-newline",
        "name-with-file-separator", "name-not-utf8"])
def test_save_csv_refuses_a_bad_dataset_before_opening_the_file(tmp_path, spoil, message):
    p = tmp_path / "kept.csv"
    save_csv(_tap_set(), p)
    kept = p.read_bytes(), dataio._sidecar_path(p).read_bytes()
    ds = _tap_set()
    spoil(ds)
    with pytest.raises(ValueError, match=message):
        save_csv(ds, p)
    assert (p.read_bytes(), dataio._sidecar_path(p).read_bytes()) == kept


def test_synth_builds_one_generator_per_class(monkeypatch):
    built = []
    philox = np.random.Philox

    def counted(*args, **kwargs):
        built.append(kwargs)
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counted)
    ds = synth_generate(SynthConfig(kind="tap", samples_per_class=50))
    assert len(ds.samples) == 200
    assert len(built) <= 1 + len(CLASS_NAMES)


# -- reference I/O: the per-gesture generator, per-value writer and
# per-line loader that synth_generate, save_csv and load_csv replaced;
# the array versions must give the same bits, bytes and diagnostics


def _reference_synth(config):
    rng = RngStream(config.seed)
    samples, labels = [], []
    C, T = ELECTRODE_CORNERS.shape[0], config.frames
    for k in range(len(CLASS_NAMES)):
        for i in range(config.samples_per_class):
            g = rng.derive(1 + k * config.samples_per_class + i)
            if config.kind == "tap":
                t0 = (T - 1) / 2.0 + g.uniform(1, -0.05 * T, 0.05 * T)[0]
                env = np.exp(-0.5 * ((np.arange(T) - t0) / (T / 3.0)) ** 2)
                d2 = ((ELECTRODE_CORNERS - CLASS_ANCHORS[k]) ** 2).sum(axis=1)
                X = np.exp(-d2 / 0.5)[:, None] * env[None, :]
            else:
                direction = SWIPE_DIRECTIONS[k]
                jitter = g.uniform(2, -0.02, 0.02)
                start = np.array([0.5, 0.5]) - 0.75 * direction + jitter[0]
                end = np.array([0.5, 0.5]) + 0.75 * direction + jitter[1]
                u = np.arange(T) / (T - 1)
                frac = 3.0 * u ** 2 - 2.0 * u ** 3
                path = start[None, :] + frac[:, None] * (end - start)[None, :]
                d2 = ((path[None, :, :] - ELECTRODE_CORNERS[:, None, :]) ** 2).sum(axis=2)
                X = np.exp(-d2 / 0.5)
            if config.drift_rate:
                X = X + config.drift_rate * np.arange(T)[None, :]
            if config.noise_stddev:
                X = X + g.gauss(C * T, 0.0, config.noise_stddev).reshape(C, T)
            samples.append(X)
            labels.append(k)
    return Dataset(np.stack(samples), np.array(labels))


def _reference_save(dataset, path):
    C = dataset.samples.shape[1]
    lines = ["gesture_id,class,frame," + ",".join(f"ch{c}" for c in range(C))]
    for gid, (X, label) in enumerate(zip(dataset.samples, dataset.labels)):
        name = dataset.class_names[label]
        for t in range(X.shape[1]):
            vals = ",".join(f"{v:.17g}" for v in X[:, t])
            lines.append(f"{gid},{name},{t},{vals}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _reference_load(path):
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ValueError(f"{path}: empty file")
    header = lines[0].split(",")
    if header[:3] != ["gesture_id", "class", "frame"]:
        raise ValueError(f"{path}:1: missing columns, got {lines[0]!r}")
    C = len(header) - 3
    if header[3:] != [f"ch{c}" for c in range(C)] or C == 0:
        raise ValueError(f"{path}:1: malformed channel columns")
    sidecar = Path(f"{path}.meta.json")
    if sidecar.exists():
        class_names = tuple(json.loads(sidecar.read_text(encoding="utf-8"))["class_names"])
    else:
        class_names = CLASS_NAMES
    rows, values = {}, []
    for ln, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 3 + C:
            raise ValueError(f"{path}:{ln}: expected {3 + C} fields")
        gid, cname = parts[0], parts[1]
        try:
            frame = int(parts[2])
        except ValueError:
            raise ValueError(f"{path}:{ln}: frame {parts[2]!r} is not an integer") from None
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
    samples, labels, ids, frame_counts, first_lines = [], [], [], set(), []
    for gid, (cname, frames, at) in rows.items():
        gap = [j for j, frame in enumerate(frames) if frame != j]
        if gap:
            raise ValueError(f"{path}:{at[gap[0]] + 2}: gap in frame indices for gesture {gid}")
        X = values[at].T
        frame_counts.add(X.shape[1])
        first_lines.append(at[0] + 2)
        samples.append(X)
        labels.append(class_names.index(cname))
        ids.append(str(gid))
    for X, ln in zip(samples, first_lines):
        if X.shape[1] != samples[0].shape[1]:
            raise ValueError(f"{path}:{ln}: ragged gestures, frame counts {frame_counts}")
    return Dataset(np.stack(samples), np.array(labels), ids, class_names)


def _assert_same_dataset(a, b):
    # compared as bits, so the sign of zero counts
    assert a.samples.shape == b.samples.shape
    assert np.array_equal(a.samples.view(np.uint64), b.samples.view(np.uint64))
    assert a.labels.dtype == b.labels.dtype and np.array_equal(a.labels, b.labels)
    if b.ids is None:
        assert a.ids is None
    else:
        assert list(a.ids) == b.ids and all(type(i) is str for i in a.ids)
    assert a.class_names == b.class_names


PARITY_CONFIGS = {
    "defaults": {},
    "noiseless": {"noise_stddev": 0.0},
    "drift": {"drift_rate": 0.05},
    "one-per-class": {"samples_per_class": 1},
}


@pytest.mark.parametrize("kind", ["tap", "swipe"])
@pytest.mark.parametrize("overrides", PARITY_CONFIGS.values(), ids=PARITY_CONFIGS)
def test_synth_matches_reference(kind, overrides):
    cfg = SynthConfig(kind=kind, seed=3, **overrides)
    _assert_same_dataset(synth_generate(cfg), _reference_synth(cfg))


# the writer formats dataio.CSV_CHUNK gestures at a time: a dataset of
# one gesture fewer, exactly that many and one more
CHUNK_CASES = {f"chunk{d:+d}": dataio.CSV_CHUNK + d for d in (-1, 0, 1)}


@pytest.mark.parametrize("kind", ["tap", "swipe"])
@pytest.mark.parametrize(
    "overrides,gestures",
    [*((o, None) for o in PARITY_CONFIGS.values()),
     *(({"samples_per_class": dataio.CSV_CHUNK // 4 + 1}, g) for g in CHUNK_CASES.values())],
    ids=[*PARITY_CONFIGS, *CHUNK_CASES])
def test_csv_matches_reference(tmp_path, kind, overrides, gestures):
    ds = synth_generate(SynthConfig(kind=kind, seed=3, **overrides))
    ds = replace(ds, samples=ds.samples[:gestures], labels=ds.labels[:gestures])
    ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
    save_csv(ds, ours)
    _reference_save(ds, ref)
    assert ours.read_bytes() == ref.read_bytes()
    _assert_same_dataset(load_csv(ours), _reference_load(ours))


# -- properties


EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7e308, -1.7e308]
values = st.one_of(st.sampled_from(EDGE_VALUES),
                   st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def datasets(draw):
    n = draw(st.integers(1, 5))
    C = draw(st.integers(1, 4))
    T = draw(st.integers(1, 5))
    samples = np.array(draw(st.lists(values, min_size=n * C * T, max_size=n * C * T)))
    labels = draw(st.lists(st.integers(0, len(CLASS_NAMES) - 1), min_size=n, max_size=n))
    return Dataset(samples.reshape(n, C, T), np.array(labels))


PROPERTY = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@PROPERTY
@given(ds=datasets())
def test_csv_round_trip_property(tmp_path_factory, ds):
    path = tmp_path_factory.mktemp("rt") / "g.csv"
    save_csv(ds, path)
    ref = path.with_name("ref.csv")
    _reference_save(ds, ref)
    assert path.read_bytes() == ref.read_bytes()
    back = load_csv(path)
    _assert_same_dataset(back, _reference_load(path))
    assert list(back.ids) == [str(i) for i in range(len(ds.samples))]
    assert np.array_equal(ds.samples.view(np.uint64), back.samples.view(np.uint64))
    assert np.array_equal(ds.labels, back.labels)


def _outcome(loader, path):
    try:
        return loader(path)
    except ValueError as e:
        return str(e)


def _corrupt(draw, lines, C):
    """One fault at a random data line; a line an earlier fault left
    with the wrong field count is not edited again."""
    if len(lines) < 2:
        return lines
    i = draw(st.integers(1, len(lines) - 1))
    parts = lines[i].split(",")
    if len(parts) != 3 + C:
        return lines
    kind = draw(st.sampled_from([
        "fields", "frame", "class", "nonfinite", "class-change", "gap",
        "drop-row", "interleave", "blank", "value-syntax", "gesture-id",
    ]))
    if kind == "fields":
        parts = parts[:-1] if draw(st.booleans()) else parts + ["1"]
    elif kind == "frame":
        parts[2] = draw(st.sampled_from(["1.0", "x", "", "1e3", " 0", "+1"]))
    elif kind == "class":
        parts[1] = draw(st.sampled_from(["up", "North", " north", ""]))
    elif kind == "nonfinite":
        parts[3 + draw(st.integers(0, C - 1))] = draw(
            st.sampled_from(["nan", "inf", "-inf", "NaN", "-Infinity", "1e400"]))
    elif kind == "gesture-id":
        parts[0] = draw(st.sampled_from(["0", "1", "00", " 1", "a", "\x1f", ""]))
    elif kind == "class-change":
        parts[1] = draw(st.sampled_from(CLASS_NAMES))
    elif kind == "gap":
        step = draw(st.sampled_from([-1, 1, 2]))
        parts[2] = str(int(parts[2]) + step) if parts[2].isdigit() else "9"
    elif kind == "drop-row":
        return lines[:i] + lines[i + 1:]
    elif kind == "interleave":
        j = draw(st.integers(1, len(lines) - 1))
        lines = list(lines)
        lines.insert(j, lines.pop(i))
        return lines
    elif kind == "blank":
        return lines[:i] + [draw(st.sampled_from(["", " ", ","]))] + lines[i:]
    else:
        parts[3 + draw(st.integers(0, C - 1))] = draw(
            st.sampled_from([" 1.5", "1.5 ", "+2", ".5", "5.", "1e-400", "\x1f1", "0x10", "1,5"]))
    return lines[:i] + [",".join(parts)] + lines[i + 1:]


@st.composite
def corrupted_files(draw):
    n = draw(st.integers(1, 4))
    C = draw(st.integers(1, 3))
    T = draw(st.integers(1, 4))
    lines = ["gesture_id,class,frame," + ",".join(f"ch{c}" for c in range(C))]
    for g in range(n):
        name = draw(st.sampled_from(CLASS_NAMES))
        for t in range(T):
            vals = draw(st.lists(st.sampled_from(["0", "-1.5", "2.25e-3", "7"]),
                                 min_size=C, max_size=C))
            lines.append(",".join([str(g), name, str(t), *vals]))
    for _ in range(draw(st.integers(1, 3))):
        lines = _corrupt(draw, lines, C)
    return "".join(line + "\n" for line in lines)


@PROPERTY
@given(text=corrupted_files())
def test_load_csv_matches_reference_on_corrupt_files(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("bad") / "g.csv"
    path.write_text(text, encoding="utf-8")
    ours, ref = _outcome(load_csv, path), _outcome(_reference_load, path)
    if isinstance(ref, str):
        assert ours == ref
    else:
        _assert_same_dataset(ours, ref)


# -- the file contract: each file case once, for load_csv and the reference


def _csv(*rows, header="gesture_id,class,frame,ch0"):
    """A CSV's text: the header, then the rows, each line ending in "\n"."""
    return "".join(f"{line}\n" for line in (header, *rows))


HEADER = _csv().encode()
H5 = "gesture_id,class,frame,ch0,ch1"


def _at_block_end(tail, back):
    """A header and one gesture row padded with zeros, then tail, whose
    first character is ``back`` characters before the end of the
    pre-pass's first block. Up to tail the file is ASCII with "\n" line
    ends, so there a character is a byte."""
    head = HEADER + b"0,north,0,1."
    return head + b"0" * (dataio.CSV_BLOCK - back - len(head)) + tail


def _in_row(ch):
    """Two one-frame gestures with ch in the second's id, class name or value."""
    return {where: _csv("0,north,0,1", row).encode()
            for where, row in [("id", f"1{ch}1,south,0,2"), ("class", f"1,so{ch}uth,0,2"),
                               ("value", f"1,south,0,2{ch}5")]}


LOADS = "loads"
NAMES = ["north", "south", "n\u00f6rd", "s\u00fcd"]
STRICT = "numbers must be plain ASCII decimals without '_', and frames below 2**63"
# 1498 good rows on lines 2-1499, then gesture 0's first row on line 1500
LONG = [*(f"{g},north,{t},1.0,2.0" for g in range(1, 750) for t in range(2)), "0,north,0,1.0,2.0"]
OLD_SIDECAR = """{
  "sample_rate": 250.0,
  "channels": 1,
  "frames": 2,
  "class_names": [
    "up",
    "down"
  ],
  "meta": {
    "kind": "tap",
    "seed": 0,
    "synthetic": true
  }
}
"""

Case = namedtuple("Case", "file outcome reference sidecar", defaults=(None, None))

# file (text or bytes) -> load_csv's outcome: "loads", or its whole
# message for a file named g.csv. reference is the per-line loader's
# outcome where it differs on purpose; sidecar, the class names of a
# .meta.json beside the file, or its whole text.
CSV_FILES = {
    "empty": Case("", "g.csv: empty file"),
    "header-misnamed": Case(_csv("0,north,0,1.0", header="id,class,frame,ch0"),
                            "g.csv:1: missing columns, got 'id,class,frame,ch0'"),
    "header-no-channel": Case(_csv("0,north,0", header="gesture_id,class,frame"),
                              "g.csv:1: malformed channel columns"),
    "header-channel-from-1": Case(_csv("0,north,0,1", header="gesture_id,class,frame,ch1"),
                                  "g.csv:1: malformed channel columns"),
    "header-only-five-columns": Case(_csv(header=H5), "g.csv: no gesture rows"),
    "unknown-class": Case(_csv("0,upward,0,1.0"), "g.csv:2: unknown class label 'upward'"),
    "too-few-fields": Case(_csv("0,north,0,1.0", header=H5), "g.csv:2: expected 5 fields"),
    "frame-not-an-integer": Case(_csv("0,north,0,1.0", "0,north,1.5,2.0"),
                                 "g.csv:3: frame '1.5' is not an integer"),
    "value-not-a-number": Case(_csv("0,north,0,abc"),
                               "g.csv:2: could not convert string to float: 'abc'"),
    **{f"{v}-first-row": Case(_csv(f"0,north,0,{v}"), "g.csv:2: non-finite value")
       for v in ("nan", "inf", "-inf")},
    **{f"{v}-after-good-rows": Case(_csv("0,north,0,1,2", "1,south,0,3,4", "0,north,1,5,6",
                                         f"1,south,1,{v},8", header=H5),
                                    "g.csv:5: non-finite value") for v in ("nan", "inf", "-inf")},
    "class-change": Case(_csv("0,north,0,1", "1,east,0,2", "0,south,1,3", "1,east,1,4"),
                         "g.csv:4: class changes within gesture 0"),
    "frame-gap": Case(_csv("0,north,0,1.0", "0,north,2,1.0"),
                      "g.csv:3: gap in frame indices for gesture 0"),
    # gestures are checked in order of first appearance: gesture 5's gap
    # on line 6 is reported before gesture 3's on line 4
    "frame-gap-first-gesture-first": Case(
        _csv("5,north,0,1", "3,south,0,1", "3,south,2,1", "5,north,1,1", "5,north,3,1"),
        "g.csv:6: gap in frame indices for gesture 5"),
    "ragged": Case(_csv("0,north,0,1.0", "0,north,1,1.0", "1,south,0,1.0"),
                   "g.csv:4: ragged gestures, frame counts {1, 2}"),
    # the first gesture sets the count: gesture 1 is reported, not 0
    "ragged-first-gesture-sets-the-count": Case(
        _csv("0,north,0,1.0", "1,south,0,1.0", "1,south,1,1.0", "2,east,0,1.0", "2,east,1,1.0"),
        "g.csv:3: ragged gestures, frame counts {1, 2}"),
    # the set of frame counts prints as the per-line loader built it
    "ragged-counts": Case(_csv("0,north,0,1", *(f"1,south,{t},1" for t in range(9))),
                          "g.csv:3: ragged gestures, frame counts {1, 9}"),
    # a blank line is a row with one field, never skipped
    "blank-line": Case(_csv("0,north,0,1,2", "", "0,north,1,3,4", header=H5),
                       "g.csv:3: expected 5 fields"),
    "blank-lines-only": Case(_csv("", "", header=H5), "g.csv:2: expected 5 fields"),
    "blank-last-line": Case(_csv("0,north,0,1,2", "", header=H5), "g.csv:3: expected 5 fields"),
    **{f"line-1501-{name}": Case(_csv(*LONG, fault, header=H5), f"g.csv:1501: {message}")
       for name, fault, message in [
           ("fields", "0,north,1,1.0,2.0,3.0", "expected 5 fields"),
           ("frame", "0,north,1.0,1.0,2.0", "frame '1.0' is not an integer"),
           ("class", "0,up,1,1.0,2.0", "unknown class label 'up'"),
           ("value", "0,north,1,x,2.0", "could not convert string to float: 'x'"),
           ("class-change", "0,south,1,1.0,2.0", "class changes within gesture 0"),
           ("nonfinite", "0,north,1,1.0,inf", "non-finite value")]},
    # float() reads '_' separators and non-ASCII digits; the parse refuses them
    **{f"value-{name}": Case(_csv("0,north,0,1", f"0,north,1,{v}"), f"g.csv:3: {STRICT}", LOADS)
       for name, v in [("underscore", "1_0"), ("arabic-digit", "١"),
                       ("arabic-decimal", "1.5١")]},
    # the first bad line is named before a later one that int() and float() see
    "value-underscore-before-a-class-change": Case(
        _csv("0,north,0,1_0", "0,north,1,2", "1,east,0,3", "1,west,1,4"), f"g.csv:2: {STRICT}",
        "g.csv:5: class changes within gesture 1"),
    # a line the parse refuses is named by the first of its checks that fails
    "unknown-class-and-underscore": Case(_csv("0,north,0,1", "1,bogus,0,1_0"),
                                         "g.csv:3: unknown class label 'bogus'"),
    "class-change-and-underscore": Case(_csv("0,north,0,1", "0,south,1,1_0"),
                                        "g.csv:3: class changes within gesture 0"),
    # int() reads it, and the per-line loader reported a gap; the parse holds int64
    "frame-past-int64": Case(_csv("0,north,0,1", "0,north,9223372036854775808,2"),
                             f"g.csv:3: {STRICT}", "g.csv:3: gap in frame indices for gesture 0"),
    # frames are read as int() reads ASCII without '_'; the per-line
    # loader's int() reads the others too
    **{f"frame-{name}": Case(_csv(*(f"0,north,{t},{t}" for t in range(10)), f"0,north,{f},10"),
                             f"g.csv:12: {STRICT}", LOADS)
       for name, f in [("underscore", "1_0"), ("arabic-digits", "١٠")]},
    "frame-spaces": Case(_csv(*(f"0,north,{t},{t}" for t in range(10)), "0,north, 10 ,10"),
                         LOADS),
    # float() does not strip the unit separator; numpy's parse does
    "separator-value": Case(_csv("0,north,0,1", "0,north,1,\x1f1"),
                            "g.csv:3: could not convert string to float: '\\x1f1'"),
    "separator-id": Case(_csv("\x1f,north,0,1", "\x1f,north,1,2"), LOADS),
    # interleaved gestures load in first-appearance order, frames in file order
    "interleaved": Case(_csv(*(f"{g},{c},{t},{g * 100 + t}" for t in range(40)
                               for g, c in ((7, "west"), (3, "east")))), LOADS),
    # the reference names no line for a byte that does not decode
    "byte-trailing": Case(
        HEADER + b"0,north,0,1.0\n\xff", "g.csv:3: byte 0xff is not UTF-8 (invalid start byte)",
        "'utf-8' codec can't decode byte 0xff in position 41: invalid start byte"),
    "byte-in-a-value": Case(
        HEADER + b"0,north,0,1\xfe.0\n0,north,1,1.0\n",
        "g.csv:2: byte 0xfe is not UTF-8 (invalid start byte)",
        "'utf-8' codec can't decode byte 0xfe in position 38: invalid start byte"),
    "byte-crlf-truncated-sequence": Case(
        HEADER.replace(b"\n", b"\r\n") + b"0,north,0,1.0\r\n0,north,1,\xe2\x82\r\n",
        "g.csv:3: byte 0xe2 is not UTF-8 (invalid continuation byte)",
        "'utf-8' codec can't decode bytes in position 53-54: invalid continuation byte"),
    "byte-past-the-first-block": Case(
        _at_block_end(b"\n1,north,0,\xff\n", -4),
        "g.csv:3: byte 0xff is not UTF-8 (invalid start byte)",
        "'utf-8' codec can't decode byte 0xff in position 65551: invalid start byte"),
    # what str.splitlines() makes of the bytes, with "\r\n" and "\r" read
    # as "\n", whether the pre-pass finds the file clean or not
    **{name: Case(data, outcome, sidecar=NAMES) for name, data, outcome in [
        ("crlf", HEADER.replace(b"\n", b"\r\n") + b"0,north,0,1\r\n0,north,1,2\r\n", LOADS),
        ("lone-cr", HEADER.replace(b"\n", b"\r") + b"0,north,0,1\r0,north,1,2\r", LOADS),
        ("no-final-newline", HEADER + b"0,north,0,1\n0,north,1,2", LOADS),
        ("bom", b"\xef\xbb\xbf" + HEADER + b"0,north,0,1\n",
         "g.csv:1: missing columns, got '\\ufeffgesture_id,class,frame,ch0'"),
        ("header-only", HEADER, "g.csv: no gesture rows"),
        ("header-only-no-newline", HEADER.rstrip(b"\n"), "g.csv: no gesture rows"),
        ("non-ascii", HEADER + "\u00e9,n\u00f6rd,0,1\n\U0001f44b,s\u00fcd,0,2\n".encode(), LOADS),
        # the end of the pre-pass's first block: a character of two, two
        # and three bytes as its last character, and a blank line's two
        # "\n" and a "\r\n" on either side of it
        ("split-id", _at_block_end("\n\u00e9,north,0,2\n".encode(), 2), LOADS),
        ("split-class", _at_block_end("\n1,n\u00f6rd,0,2\n".encode(), 5), LOADS),
        ("split-line-separator", _at_block_end("\n1,north,0,2\u20285\n".encode(), 13),
         "g.csv:4: expected 4 fields"),
        ("split-blank-line", _at_block_end(b"\n\n1,north,0,2\n", 1), "g.csv:3: expected 4 fields"),
        ("split-crlf", _at_block_end(b"\r\n1,north,0,2\r\n", 1), LOADS),
        # a line break inside a row's id or class name leaves line 3
        # short, inside its value line 4
        *((f"{where}-{ord(ch):02x}", data, f"g.csv:{line}: expected 4 fields")
          for ch in "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
          for (where, data), line in zip(_in_row(ch).items(), (3, 3, 4))),
        # a NUL does not
        ("id-00", _in_row("\x00")["id"], LOADS),
        ("class-00", _in_row("\x00")["class"], "g.csv:3: unknown class label 'so\\x00uth'"),
        ("value-00", _in_row("\x00")["value"],
         "g.csv:3: could not convert string to float: '2\\x005'")]},
    # a sidecar as earlier versions wrote it: only its class names are read
    **{name: Case(_csv("0,up,0,1", "0,up,1,2", "1,down,0,3", "1,down,1,4"), LOADS,
                  sidecar=OLD_SIDECAR.replace('250.0', rate))
       for name, rate in [("sidecar-five-keys", "250.0"), ("sidecar-rate-a-string", '"fast"')]},
}


@pytest.mark.parametrize("case", CSV_FILES.values(), ids=CSV_FILES)
def test_csv_bytes_load_as_the_line_reader_reads_them(tmp_path, monkeypatch, case):
    # g.csv in the working directory: the path a message names
    monkeypatch.chdir(tmp_path)
    Path("g.csv").write_bytes(case.file if isinstance(case.file, bytes) else case.file.encode())
    if case.sidecar:
        text = case.sidecar if isinstance(case.sidecar, str) else json.dumps(
            {"class_names": case.sidecar})
        Path("g.csv.meta.json").write_text(text, encoding="utf-8")
    ours, ref = _outcome(load_csv, "g.csv"), _outcome(_reference_load, "g.csv")
    said = [o if isinstance(o, str) else LOADS for o in (ours, ref)]
    assert said == [case.outcome, case.reference or case.outcome]
    if said == [LOADS, LOADS]:
        _assert_same_dataset(ours, ref)


def test_csv_named_like_gzip_is_read_as_written(tmp_path):
    # np.loadtxt decompresses a path by its suffix; the parse gets an open file
    p = tmp_path / "g.csv.gz"
    save_csv(_tap_set(), p)
    _assert_same_dataset(load_csv(p), _reference_load(p))


def test_clean_check_refuses_the_other_line_breaks_and_the_unit_separator():
    breaks = {c for c in map(chr, range(sys.maxunicode + 1)) if len(f"a{c}b".splitlines()) > 1}
    assert set(dataio._UNCLEAN) == breaks - {"\n", "\r"} | {"\x1f"}
    # read as text with universal newlines, as load_csv reads a file, the
    # breaks left out of _UNCLEAN end a line as "\n" and the others stay
    for c in breaks:
        text = io.TextIOWrapper(io.BytesIO(f"a{c}b".encode()), encoding="utf-8").read()
        assert text == (f"a{c}b" if c in dataio._UNCLEAN else "a\nb"), repr(c)
