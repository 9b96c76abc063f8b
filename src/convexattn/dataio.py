"""Gesture datasets: synthetic generation and CSV I/O."""

import collections
import itertools
import json
import numbers
from dataclasses import dataclass
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
    generated set, and ``class_names`` the names the labels index."""

    samples: np.ndarray
    labels: np.ndarray
    ids: np.ndarray = None
    class_names: tuple = CLASS_NAMES

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
    return Dataset(samples, np.repeat(np.arange(K), n))


# gestures per formatted block of save_csv: bounds its memory, not its bytes
CSV_CHUNK = 256


def save_csv(dataset, path):
    """Write gesture_id,class,frame,ch0..chN rows plus a JSON sidecar
    ``{"class_names": [...]}``.

    Each gesture's rows are written together, frames 0..T-1 in order,
    gestures numbered 0.. in dataset order. Values use ``%.17g``, which
    round-trips every double, and a dataset's CSV is byte-identical
    across versions; the sidecar changed once, when it dropped the keys
    no reader used. See :func:`load_csv` for what a reader checks.

    Before the file is opened, ``samples`` must be a nonempty (n, C, T)
    array of real numbers (numutil.as_floats), its ``class_names`` must
    be what :func:`load_csv` accepts in a sidecar (distinct class names,
    none holding a ',' or a line break), its n labels must index
    ``class_names``, and every gesture must be finite. Rows go to the
    file CSV_CHUNK gestures at a time.
    """
    path = Path(path)
    samples = as_floats(dataset.samples, "samples")
    if samples.ndim != 3:
        raise ValueError(f"samples must be an (n, C, T) array, got shape {samples.shape}")
    if not len(samples):
        raise ValueError("cannot save an empty dataset")
    class_names = list(dataset.class_names)
    fault = _sidecar_fault(class_names)
    if fault:
        raise ValueError(fault)
    labels = check_labels(dataset.labels, len(class_names), len(samples))
    bad = ~np.isfinite(samples).all(axis=(1, 2))
    if bad.any():
        raise ValueError(f"gesture {int(bad.argmax())} has a non-finite value")
    _, C, T = samples.shape
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
    _sidecar_path(path).write_text(json.dumps({"class_names": class_names}, indent=2) + "\n",
                                   encoding="utf-8")


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


def _sidecar_fault(names):
    """Why a sidecar with these class_names would not load, or None:
    names must be a list of distinct strings, each one CSV field (no ','
    and no line break that str.splitlines sees) that UTF-8 encodes (no
    surrogate code point)."""
    if not (isinstance(names, list) and all(isinstance(c, str) for c in names)):
        return "class_names must be a list of strings"
    for i, c in enumerate(names):
        if c in names[:i]:
            return f"class name {c!r} is repeated"
        if "," in c or "".join(c.splitlines()) != c:
            return f"class name {c!r} holds a ',' or a line break"
        if any("\ud800" <= ch <= "\udfff" for ch in c):
            return f"class name {c!r} holds a surrogate, which UTF-8 cannot encode"
    return None


def _read_sidecar(path):
    """The class names in the CSV's sidecar, or CLASS_NAMES without one.
    Anything but a UTF-8 JSON object whose class_names _sidecar_fault
    accepts is a ValueError naming the sidecar; no other key is read."""
    sidecar = _sidecar_path(path)
    if not sidecar.exists():
        return CLASS_NAMES
    meta = read_json_object(sidecar, "sidecar")
    if "class_names" not in meta:
        raise ValueError(f"{sidecar}: missing keys ['class_names']")
    fault = _sidecar_fault(meta["class_names"])
    if fault:
        raise ValueError(f"{sidecar}: {fault}")
    return tuple(meta["class_names"])


def _parse_rows(source, C):
    """One parse of CSV data lines, a list or an open text file from its
    current line: the distinct ids and class names, each a list in order
    of first appearance, and per row the indices of its id and class
    name in them, its int() frame and its (C,) values; or None when a
    line does not parse. Stricter than the per-field int()/float()
    reading: a value with '_' or non-ASCII digits, or a frame beyond
    int64, does not parse. Blank lines are skipped.
    """
    # each field's distinct strings, numbered from 0 as they first appear
    gids, names, frames = (collections.defaultdict(itertools.count().__next__)
                           for _ in range(3))
    dtype = [("gid", np.intp), ("class", np.intp), ("frame", np.intp), ("values", float, (C,))]
    try:
        rows = np.loadtxt(source, dtype=dtype, delimiter=",", comments=None, ndmin=1,
                          encoding=None,  # converters get str, not bytes, on numpy < 2
                          converters={0: gids.__getitem__, 1: names.__getitem__,
                                      2: frames.__getitem__})
        frame = np.array([int(s) for s in frames], dtype=np.int64)[rows["frame"]]
    except (ValueError, OverflowError):
        return None
    return list(gids), list(names), rows["gid"], rows["class"], frame, rows["values"]


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


def _good_prefix(lines, C, failed=False):
    """(end, rows): lines[end] is the first bad data line, or end is
    len(lines), and rows the one parse of lines[1:end] (None for none).

    A line is bad when it is blank or has a "\x1f" in a value, which the
    parse skips or strips where float() refuses them, or when the parse
    refuses it. The lines before the first blank or "\x1f" line take one
    parse, which ``failed`` says has already failed; only when it fails
    is its first bad line found by bisection (a parse fails exactly when
    one of its lines does), and the lines before that one take one more
    parse.
    """
    end = lines.index("") if "" in lines else len(lines)
    if "\x1f" in "\n".join(lines[:end]):
        # a line of fewer than 4 fields is bad whatever its last one holds
        end = next((i for i in range(1, end) if "\x1f" in lines[i].split(",", 3)[-1]), end)
    before = lines[1:end]
    rows = _parse_rows(before, C) if before and not failed else None
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


# characters the pre-pass of load_csv reads at a time
CSV_BLOCK = 1 << 16

# the line breaks of str.splitlines that universal newlines do not
# translate to "\n", and "\x1f", which the parse strips from a value
# where float() refuses it
_UNCLEAN = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", "\x1f")


def _clean_line_count(f):
    """The number of lines of the text file f, or None unless it decodes
    and has no blank line and no character of _UNCLEAN: then the parse
    sees each line str.splitlines() makes."""
    count, last = 0, True  # whether the text so far ends a line
    try:
        while text := f.read(CSV_BLOCK):
            nl = np.frombuffer(text.encode(), np.uint8) == 10  # a "\n" byte is always a "\n"
            if (last and nl[0]) or (nl[1:] & nl[:-1]).any() or any(c in text for c in _UNCLEAN):
                return None
            count += np.count_nonzero(nl)
            last = nl[-1]
    except UnicodeDecodeError:
        return None
    return count + (not last)


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
    read as UTF-8 text whatever the locale, with universal newlines
    ("\r\n" and "\r" end a line as "\n" does), and a byte that does not
    decode is reported at its line. A file ``save_csv`` wrote loads to
    the same bits in every version.

    An LF, CRLF or CR file with no fault is parsed once, from the open
    file, after a pre-pass over its text; a row keeps only the index of
    its id, class and frame among their distinct strings. Lines are split
    only to name a fault, or for the other line breaks: one search finds
    the first bad line (blank, a "\x1f" in a value, or a line the parse
    refuses), the lines before it take one parse and their row checks,
    and the bad line's diagnostic is named once. A failed parse of a
    clean file is that search's first parse.
    """
    path = Path(path)
    with open(path, encoding="utf-8") as f:
        count = _clean_line_count(f)
        clean = count is not None
        f.seek(0)
        if clean:
            header = f.readline().removesuffix("\n")
        else:  # the lines are split only to name a fault
            try:
                lines = f.read().splitlines()
            except UnicodeDecodeError as e:
                # e.object holds the file's bytes from its start: the line
                # of the byte as splitlines() numbers the file's lines
                line = len((e.object[:e.start].decode("utf-8") + "?").splitlines())
                raise ValueError(f"{path}:{line}: byte 0x{e.object[e.start]:02x} is not UTF-8 "
                                 f"({e.reason})") from None
            header, count = "".join(lines[:1]), len(lines)
        if not count:
            raise ValueError(f"{path}: empty file")
        columns = header.split(",")
        if columns[:3] != ["gesture_id", "class", "frame"]:
            raise ValueError(f"{path}:1: missing columns, got {header!r}")
        C = len(columns) - 3
        if columns[3:] != [f"ch{c}" for c in range(C)] or C == 0:
            raise ValueError(f"{path}:1: malformed channel columns")

        class_names = _read_sidecar(path)

        if count == 1:
            raise ValueError(f"{path}: no gesture rows")
        rows = _parse_rows(f, C) if clean else None
        if clean and rows is None:
            f.seek(0)
            lines = f.read().splitlines()
    end = None
    if rows is None:
        end, rows = _good_prefix(lines, C, failed=clean)
        if rows is None:  # the first data line is bad
            raise ValueError(f"{path}:2: {_line_fault(lines[1], C, class_names, {})}")
    gids, names, group, code, frame, values = rows
    n = len(group)

    # each gesture's first row: where the running maximum of the id
    # indices, which count up from 0 in order of first appearance, reaches it
    first = np.searchsorted(np.maximum.accumulate(group), np.arange(len(gids)))

    # the first row of unknown class or of a class its gesture did not
    # start with, then the first bad line
    known = np.array([class_names.index(c) if c in class_names else -1 for c in names])
    labels = known[code[first]]
    bad = np.flatnonzero((labels[group] < 0) | (code != code[first][group]))
    if bad.size:
        r = int(bad[0])
        if known[code[r]] < 0:
            raise ValueError(f"{path}:{r + 2}: unknown class label {names[code[r]]!r}")
        raise ValueError(f"{path}:{r + 2}: class changes within gesture {gids[group[r]]}")
    if end is not None and end < len(lines):
        fault = _line_fault(lines[end], C, class_names,
                            dict(zip(gids, [names[c] for c in code[first]])))
        raise ValueError(f"{path}:{end + 1}: {fault}")
    bad = ~np.isfinite(values)
    if bad.any():
        raise ValueError(f"{path}:{int(bad.any(axis=1).argmax()) + 2}: non-finite value")

    # rows gesture by gesture, each gesture's in file order
    order = np.argsort(group, kind="stable")
    counts = np.bincount(group)
    expected = np.arange(n) - np.repeat(np.cumsum(counts) - counts, counts)
    gap = np.flatnonzero(frame[order] != expected)
    if gap.size:
        r = int(order[gap[0]])
        raise ValueError(f"{path}:{r + 2}: gap in frame indices for gesture {gids[group[r]]}")
    ragged = np.flatnonzero(counts != counts[0])
    if ragged.size:
        raise ValueError(f"{path}:{int(first[ragged[0]]) + 2}: ragged gestures, "
                         f"frame counts {set(counts.tolist())}")
    samples = values[order].reshape(len(counts), counts[0], C).transpose(0, 2, 1)
    return Dataset(samples, labels, np.array(gids, dtype=object), class_names)
