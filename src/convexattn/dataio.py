"""Gesture datasets: synthetic generation and CSV I/O."""

import json
import numbers
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .numutil import RngStream, as_floats, check_key, check_labels, check_numbers

CLASS_NAMES = ("north", "south", "east", "west")
GESTURE_KINDS = ("tap", "swipe")

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
class Dataset:
    """Gestures as arrays: ``samples`` (n, C, T) floats and ``labels``
    (n,) ints, with ``ids`` the CSV's gesture_id strings, or None for a
    generated set."""

    samples: np.ndarray
    labels: np.ndarray
    ids: np.ndarray = None
    class_names: tuple = CLASS_NAMES
    sample_rate: float = 250.0
    meta: dict = field(default_factory=dict)

    @property
    def channels(self):
        return self.samples.shape[1]

    def stacked(self):
        """(samples, labels): the dataset's own arrays, not copies."""
        return self.samples, self.labels


@dataclass
class SynthConfig:
    kind: str  # one of GESTURE_KINDS
    samples_per_class: int = 100
    noise_stddev: float = 0.05
    amplitude: float = 1.0
    drift_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in GESTURE_KINDS:
            raise ValueError(f"unknown gesture kind {self.kind!r}; "
                             f"valid kinds: {', '.join(GESTURE_KINDS)}")
        check_numbers(dict(samples_per_class=self.samples_per_class), numbers.Integral, least=1)
        check_numbers(dict(seed=self.seed), numbers.Integral)
        check_key("seed", self.seed)
        check_numbers(dict(noise_stddev=self.noise_stddev), numbers.Real, least=0)
        check_numbers(dict(amplitude=self.amplitude, drift_rate=self.drift_rate), numbers.Real)

    @property
    def frames(self):
        return 10 if self.kind == "tap" else 30


def _tap_templates(config, anchor, jitter):
    """(n, C, T) taps: a Gaussian-in-time pulse whose centre is moved by
    each gesture's one jitter draw, scaled per channel by the
    anchor-to-electrode distance."""
    T = config.frames
    t0 = (T - 1) / 2.0 + jitter[:, 0]
    width = T / 3.0
    env = np.exp(-0.5 * ((np.arange(T) - t0[:, None]) / width) ** 2)
    d2 = ((ELECTRODE_CORNERS - anchor) ** 2).sum(axis=1)
    amp = config.amplitude * np.exp(-d2 / 0.5)
    return amp[None, :, None] * env[:, None, :]


def _swipe_templates(config, direction, jitter):
    """(n, C, T) swipes, start and end points moved by each gesture's
    two jitter draws."""
    # the contact point eases in and out (smoothstep), overshooting the
    # surface edge on both ends: the finger lingers near the endpoints,
    # which is where opposing swipe classes differ most
    T = config.frames
    center = np.array([0.5, 0.5])
    start = center - 0.75 * direction + jitter[:, :1]
    end = center + 0.75 * direction + jitter[:, 1:]
    u = np.arange(T) / (T - 1)
    frac = 3.0 * u ** 2 - 2.0 * u ** 3
    path = start[:, None, :] + frac[None, :, None] * (end - start)[:, None, :]
    d2 = ((path[:, None] - ELECTRODE_CORNERS[None, :, None]) ** 2).sum(axis=3)
    return config.amplitude * np.exp(-d2 / 0.5)


def synth_generate(config):
    """Balanced synthetic gesture dataset, deterministic per seed.

    Taps are a shared Gaussian-in-time pulse with per-channel amplitude
    set by anchor-to-electrode distance; swipes translate the contact
    point across the surface so channel peaks occur in direction order.
    Gesture i of class k draws from stream ``derive(1 + k*n + i)``
    (template jitter, then noise), the class's streams in turn through
    one re-keyed generator, and each class is computed as one (n, C, T)
    block of the C-contiguous (4n, C, T) stack.
    """
    rng = RngStream(config.seed)
    n = config.samples_per_class
    C = ELECTRODE_CORNERS.shape[0]
    T = config.frames
    K = len(CLASS_NAMES)
    samples = np.empty((K * n, C, T))
    # a tap's pulse centre takes one draw, a swipe's start and end two
    draws, reach = (1, 0.05 * T) if config.kind == "tap" else (2, 0.02)
    for k in range(K):
        jitter = np.empty((n, draws))
        noise = np.empty((n, C * T))
        for i, g in enumerate(rng.derive_each(range(1 + k * n, 1 + (k + 1) * n))):
            jitter[i] = g.uniform(draws, -reach, reach)
            if config.noise_stddev:
                noise[i] = g.gauss(C * T, 0.0, config.noise_stddev)
        if config.kind == "tap":
            X = _tap_templates(config, CLASS_ANCHORS[k], jitter)
        else:
            X = _swipe_templates(config, SWIPE_DIRECTIONS[k], jitter)
        if config.drift_rate:
            X = X + config.drift_rate * np.arange(T)
        if config.noise_stddev:
            X = X + noise.reshape(n, C, T)
        samples[k * n:(k + 1) * n] = X
    return Dataset(
        samples, np.repeat(np.arange(K), n),
        meta={"kind": config.kind, "seed": config.seed, "synthetic": True},
    )


# gestures per formatted block of save_csv: bounds its memory, not its bytes
CSV_CHUNK = 256


def save_csv(dataset, path):
    """Write gesture_id,class,frame,ch0..chN rows plus a JSON sidecar.

    Each gesture's rows are written together, frames 0..T-1 in order,
    gestures numbered 0.. in dataset order. Values use ``%.17g``, which
    round-trips every double, and a dataset's file is byte-identical
    across versions. See :func:`load_csv` for what a reader checks.

    Before the file is opened, ``samples`` must be a nonempty (n, C, T)
    array of real numbers (numutil.as_floats), its ``class_names`` and
    ``sample_rate`` must be what :func:`load_csv` accepts in a sidecar
    (distinct class names, none holding a ',' or a line break; a numpy
    rate is written as the Python number it holds), its n labels must
    index ``class_names``, every gesture must be finite, and ``meta``
    must be JSON. Rows go to the file CSV_CHUNK gestures at a time.
    """
    path = Path(path)
    samples = as_floats(dataset.samples, "samples")
    if samples.ndim != 3:
        raise ValueError(f"samples must be an (n, C, T) array, got shape {samples.shape}")
    if not len(samples):
        raise ValueError("cannot save an empty dataset")
    class_names = list(dataset.class_names)
    rate = dataset.sample_rate
    if isinstance(rate, np.number):
        rate = rate.item()
    fault = _sidecar_fault(class_names, rate)
    if fault:
        raise ValueError(fault)
    labels = check_labels(dataset.labels, len(class_names), len(samples))
    bad = ~np.isfinite(samples).all(axis=(1, 2))
    if bad.any():
        raise ValueError(f"gesture {int(bad.argmax())} has a non-finite value")
    _, C, T = samples.shape
    try:
        sidecar = json.dumps({
            "sample_rate": rate,
            "channels": C,
            "frames": T,
            "class_names": class_names,
            "meta": dataset.meta,
        }, indent=2) + "\n"
    except TypeError as e:
        raise ValueError(f"meta is not JSON: {e}") from None
    names = np.array(class_names, dtype=object)[labels]
    row = "%d,%s,%d" + ",%.17g" * C + "\n"
    with open(path, "w", encoding="utf-8") as f:
        f.write("gesture_id,class,frame," + ",".join(f"ch{c}" for c in range(C)) + "\n")
        for lo in range(0, len(samples), CSV_CHUNK):
            # one format call per chunk: T rows per gesture of gid,
            # class, frame, values
            X = samples[lo:lo + CSV_CHUNK]
            g = len(X)
            cells = np.empty((g, T, 3 + C), dtype=object)
            cells[:, :, 0] = np.arange(lo, lo + g)[:, None]
            cells[:, :, 1] = names[lo:lo + g, None]
            cells[:, :, 2] = range(T)
            cells[:, :, 3:] = X.transpose(0, 2, 1)
            f.write(row * (g * T) % tuple(cells.ravel()))
    _sidecar_path(path).write_text(sidecar, encoding="utf-8")


def _sidecar_path(path):
    return Path(path).with_suffix(Path(path).suffix + ".meta.json")


def read_json_object(path, what):
    """The JSON object in a UTF-8 file: bytes that do not decode or bad
    JSON raise ``path: invalid JSON: ...``, any other value ``path:
    <what> must be a JSON object``."""
    try:
        value = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as e:  # a JSONDecodeError or a UnicodeDecodeError
        raise ValueError(f"{path}: invalid JSON: {e}") from None
    if not isinstance(value, dict):
        raise ValueError(f"{path}: {what} must be a JSON object")
    return value


def _sidecar_fault(names, rate):
    """Why a sidecar with these class_names and sample_rate would not
    load, or None: names must be a list of distinct strings, each one
    CSV field (no ',' and no line break that str.splitlines sees) that
    UTF-8 encodes (no surrogate code point), and rate a finite number > 0
    (not a string or a boolean)."""
    if not (isinstance(names, list) and all(isinstance(c, str) for c in names)):
        return "class_names must be a list of strings"
    for i, c in enumerate(names):
        if c in names[:i]:
            return f"class name {c!r} is repeated"
        if "," in c or "".join(c.splitlines()) != c:
            return f"class name {c!r} holds a ',' or a line break"
        if any("\ud800" <= ch <= "\udfff" for ch in c):
            return f"class name {c!r} holds a surrogate, which UTF-8 cannot encode"
    try:
        check_numbers(dict(sample_rate=rate), (int, float), above=0)
    except ValueError:
        return f"sample_rate must be a finite number > 0, got {rate!r}"
    return None


def _read_sidecar(path):
    """(class_names, sample_rate, meta) from the CSV's sidecar, or the
    defaults without one. Anything but a UTF-8 JSON object with a
    class_names list of strings and a finite sample_rate > 0 is a
    ValueError naming the sidecar."""
    sidecar = _sidecar_path(path)
    if not sidecar.exists():
        return CLASS_NAMES, 250.0, {}
    meta = read_json_object(sidecar, "sidecar")
    missing = [k for k in ("class_names", "sample_rate") if k not in meta]
    if missing:
        raise ValueError(f"{sidecar}: missing keys {missing}")
    fault = _sidecar_fault(meta["class_names"], meta["sample_rate"])
    if fault:
        raise ValueError(f"{sidecar}: {fault}")
    return tuple(meta["class_names"]), meta["sample_rate"], meta.get("meta", {})


def _parse_rows(lines, C):
    """One parse of CSV data lines into (gesture ids, class names,
    frames, (n, C) values), or None when a line does not parse.

    Ids and class names stay the lines' exact strings, and frames go
    through int(). Stricter than the per-field int()/float() reading:
    a value with '_' or non-ASCII digits, or a frame beyond int64, does
    not parse. Blank lines are skipped.
    """
    dtype = [("gid", object), ("class", object), ("frame", object),
             ("values", float, (C,))]
    try:
        rows = np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, ndmin=1)
        frame = rows["frame"].astype(np.int64)
    except (ValueError, OverflowError):
        return None
    return rows["gid"], rows["class"], frame, rows["values"]


def _line_fault(line, C, class_names, first_class):
    """The diagnostic for a bad data line: the first check of a row that
    fails with int() and float() reading the numbers, else the parse's
    own. first_class maps each gesture id before the line to its class."""
    parts = line.split(",")
    if len(parts) != 3 + C:
        return f"expected {3 + C} fields"
    gid, cname = parts[0], parts[1]
    try:
        int(parts[2])
    except ValueError:
        return f"frame {parts[2]!r} is not an integer"
    if cname not in class_names:
        return f"unknown class label {cname!r}"
    try:
        [float(v) for v in parts[3:]]
    except ValueError as e:
        return str(e)
    if first_class.get(gid, cname) != cname:
        return f"class changes within gesture {gid}"
    return "numbers must be plain ASCII decimals without '_', and frames below 2**63"


def _good_prefix(lines, C):
    """(end, rows): lines[end] is the first bad data line, or end is
    len(lines), and rows the one parse of lines[1:end] (None for none).

    A line is bad when it is blank or has a "\x1f" in a value, which the
    parse skips or strips where float() refuses them, or when the parse
    refuses it. The lines before the first blank or "\x1f" line take one
    parse; only when it fails is its first bad line found by bisection
    (a parse fails exactly when one of its lines does), and the lines
    before that one take one more parse.
    """
    end = lines.index("") if "" in lines else len(lines)
    if "\x1f" in "\n".join(lines[:end]):
        # a line of fewer than 4 fields is bad whatever its last one holds
        end = next((i for i in range(1, end) if "\x1f" in lines[i].split(",", 3)[-1]), end)
    before = lines[1:end]
    rows = _parse_rows(before, C) if before else None
    if before and rows is None:
        # before[:lo] parses and before[lo:hi] holds a line that does not
        lo, hi = 0, len(before)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if _parse_rows(before[lo:mid], C) is None:
                hi = mid
            else:
                lo = mid
        end, rows = lo + 1, _parse_rows(before[:lo], C) if lo else None
    return end, rows


def load_csv(path):
    """Read a gesture CSV; validates columns, frame contiguity, labels.

    The contract: a ``gesture_id,class,frame,ch0,...`` header, then one
    row per frame. A gesture's rows carry one class and frames 0..T-1 in
    order, and every gesture has the same T. Rows are grouped by
    gesture_id in order of first appearance (a gesture's rows need not
    be adjacent). A fault is reported as ``path:line:``. The checks run
    in phases, and the first phase that finds a fault reports it: a byte
    that does not decode, the header, the sidecar, then faults within
    one line (its fields, frame, class, values, or a class change within
    its gesture) at the first such line, then the first non-finite
    value, then a frame gap at the first out-of-sequence row of the
    first gesture that has one, then ragged gestures at the first row of
    the first gesture whose frame count differs from the first
    gesture's. So a NaN at line 5 and a short line at line 100 report
    line 100. Ids and class names are kept as written, frames are read
    as int() reads them, and values as float() does except that a value
    with '_' or non-ASCII digits is refused at its line. The file is
    read as UTF-8 whatever the locale, and a byte that does not decode
    is reported at its line. A file ``save_csv`` wrote loads to the same
    bits in every version.

    A file with no fault takes one parse. Otherwise one search finds the
    first bad line (blank, a "\x1f" in a value, or a line the parse
    refuses), the lines before it take one parse and their row checks,
    and the bad line's diagnostic is named once.
    """
    path = Path(path)
    try:
        text = path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as e:
        # the line of the byte as splitlines() numbers the file's lines
        raw = e.object
        line = len((raw[:e.start].decode("utf-8") + "?").splitlines())
        raise ValueError(f"{path}:{line}: byte 0x{raw[e.start]:02x} is not UTF-8 "
                         f"({e.reason})") from None
    lines = text.splitlines()
    del text  # the lines hold it; dropped before the parse
    if not lines:
        raise ValueError(f"{path}: empty file")
    header = lines[0].split(",")
    if header[:3] != ["gesture_id", "class", "frame"]:
        raise ValueError(f"{path}:1: missing columns, got {lines[0]!r}")
    chan_cols = header[3:]
    C = len(chan_cols)
    if chan_cols != [f"ch{c}" for c in range(C)] or C == 0:
        raise ValueError(f"{path}:1: malformed channel columns")

    class_names, sample_rate, extra = _read_sidecar(path)

    if len(lines) == 1:
        raise ValueError(f"{path}: no gesture rows")
    end, rows = _good_prefix(lines, C)
    if rows is None:  # the first data line is bad
        raise ValueError(f"{path}:2: {_line_fault(lines[1], C, class_names, {})}")
    gid, cname, frame, values = rows
    n = len(gid)

    # gestures in order of first appearance; a run is a stretch of rows
    # with one gesture id, so a file of whole gestures has one per gesture
    starts = np.flatnonzero(np.r_[True, gid[1:] != gid[:-1]])
    groups = {}
    run_group = [groups.setdefault(g, len(groups)) for g in gid[starts].tolist()]
    group = np.repeat(run_group, np.diff(np.r_[starts, n]))
    first = starts[np.unique(run_group, return_index=True)[1]]

    # the first row of unknown class or of a class its gesture did not
    # start with, then the first bad line
    labels = np.array([class_names.index(c) if c in class_names else -1
                       for c in cname[first].tolist()])
    bad = np.flatnonzero((labels[group] < 0) | (cname != cname[first][group]))
    if bad.size:
        r = int(bad[0])
        if cname[r] not in class_names:
            raise ValueError(f"{path}:{r + 2}: unknown class label {cname[r]!r}")
        raise ValueError(f"{path}:{r + 2}: class changes within gesture {gid[r]}")
    if end < len(lines):
        fault = _line_fault(lines[end], C, class_names, dict(zip(groups, cname[first].tolist())))
        raise ValueError(f"{path}:{end + 1}: {fault}")
    bad = ~np.isfinite(values).all(axis=1)
    if bad.any():
        raise ValueError(f"{path}:{int(bad.argmax()) + 2}: non-finite value")

    # rows gesture by gesture, each gesture's in file order
    order = np.argsort(group, kind="stable")
    counts = np.bincount(group)
    expected = np.arange(n) - np.repeat(np.cumsum(counts) - counts, counts)
    gap = np.flatnonzero(frame[order] != expected)
    if gap.size:
        r = int(order[gap[0]])
        raise ValueError(f"{path}:{r + 2}: gap in frame indices for gesture {gid[r]}")
    ragged = np.flatnonzero(counts != counts[0])
    if ragged.size:
        raise ValueError(f"{path}:{int(first[ragged[0]]) + 2}: ragged gestures, "
                         f"frame counts {set(counts.tolist())}")
    samples = values[order].reshape(len(counts), counts[0], C).transpose(0, 2, 1)
    return Dataset(samples, labels, gid[first], class_names, sample_rate, extra)
