import numpy as np
import pytest

from convexattn.dataio import (
    CLASS_NAMES,
    Dataset,
    RawStream,
    SynthConfig,
    _rolling_var,
    load_csv,
    preprocess,
    remove_drift,
    save_csv,
    segment,
    smooth,
    synth_generate,
    zscore_apply,
    zscore_fit,
)


def test_smooth_hand_case():
    out = smooth(np.array([[0.0, 3.0, 0.0]]))
    assert np.allclose(out, [[1.5, 1.0, 1.5]])


def test_smooth_constant_unchanged():
    X = np.full((2, 7), 4.2)
    assert np.allclose(smooth(X), X)


def test_smooth_single_frame():
    assert np.allclose(smooth(np.array([[5.0]])), [[5.0]])


def test_smooth_reduces_noise_variance():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(1, 500))
    assert smooth(X).var() < X.var()


def test_remove_drift_kills_constant_offset():
    X = np.full((2, 50), 7.0)
    assert np.allclose(remove_drift(X), 0.0)


def test_remove_drift_linear_ramp_bounded():
    # a slow ramp is mostly removed; the residual stays near the
    # half-window lag value
    rate = 0.01
    X = rate * np.arange(300)[None, :]
    out = remove_drift(X, window_ms=200.0, sample_rate=250.0)
    assert np.abs(out[0, 100:]).max() <= rate * 50 * 0.5 + 1e-9


def _trailing_loop(ch, window):
    """Per-frame trailing mean and variance of one channel."""
    csum = np.cumsum(np.concatenate([[0.0], ch]))
    csq = np.cumsum(np.concatenate([[0.0], ch * ch]))
    mean, var = np.empty(ch.size), np.empty(ch.size)
    for t in range(ch.size):
        lo = max(0, t + 1 - window)
        w = t + 1 - lo
        mean[t] = (csum[t + 1] - csum[lo]) / w
        var[t] = (csq[t + 1] - csq[lo]) / w - mean[t] * mean[t]
    return mean, np.maximum(var, 0.0)


@pytest.mark.parametrize("frames,window", [(30, 1), (30, 50), (1, 50), (1, 1), (300, 50)])
def test_trailing_window_matches_loop(frames, window):
    # window_ms=200 at 250 Hz is a 50-frame window
    X = np.random.default_rng(frames + window).normal(2.0, 1.5, size=(3, frames))
    rate = window * 1000.0 / 200.0
    drift = np.array([ch - _trailing_loop(ch, window)[0] for ch in X])
    assert np.array_equal(remove_drift(X, window_ms=200.0, sample_rate=rate), drift)
    var = np.array([_trailing_loop(ch, window)[1] for ch in X])
    assert np.array_equal(_rolling_var(X, window), var)
    assert np.array_equal(_rolling_var(X[0], window), var[0])


def test_zscore_fit_apply_round_trip():
    rng = np.random.default_rng(1)
    X = rng.normal(3.0, 2.0, size=(20, 4, 10))
    stats = zscore_fit(X)
    Z = zscore_apply(X, stats)
    assert np.allclose(Z.mean(axis=(0, 2)), 0.0, atol=1e-12)
    assert np.allclose(Z.std(axis=(0, 2)), 1.0, atol=1e-12)
    # one gesture at a time normalizes the same way as the stack
    assert np.array_equal(zscore_apply(X[3], stats), Z[3])


def test_zscore_constant_channel_clamped():
    X = np.ones((4, 2, 5))
    X[3, 1] = np.arange(5.0)
    with pytest.warns(UserWarning):
        mean, std = zscore_fit(X)
    assert std[0] == 1.0


def test_zscore_fit_needs_two_samples():
    with pytest.raises(ValueError):
        zscore_fit(np.ones((1, 2, 5)))
    with pytest.raises(ValueError):
        zscore_fit(np.ones((2, 5)))


def test_segment_finds_single_burst():
    rng = np.random.default_rng(2)
    x = rng.normal(0, 0.01, size=(4, 1000))
    x[:, 400:480] += 1.0 * np.sin(np.linspace(0, 6 * np.pi, 80))
    spans = segment(RawStream(sample_rate=250.0, samples=x))
    assert len(spans) == 1
    s, e = spans[0]
    assert 350 <= s <= 410 and 480 <= e <= 620


def test_segment_two_bursts_no_overlap():
    rng = np.random.default_rng(3)
    x = rng.normal(0, 0.01, size=(2, 2000))
    for t0 in (500, 1300):
        x[:, t0:t0 + 60] += np.sin(np.linspace(0, 4 * np.pi, 60))
    spans = segment(RawStream(sample_rate=250.0, samples=x))
    assert len(spans) == 2
    assert spans[0][1] <= spans[1][0]


def test_segment_quiet_stream_empty():
    rng = np.random.default_rng(4)
    x = rng.normal(0, 0.01, size=(2, 800))
    assert segment(RawStream(sample_rate=250.0, samples=x)) == []


def test_segment_rejects_short_stream():
    with pytest.raises(ValueError):
        segment(RawStream(sample_rate=250.0, samples=np.zeros((2, 10))))


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


def test_synth_drift_and_quantize():
    cfg = SynthConfig(kind="tap", samples_per_class=2, drift_rate=0.05, seed=1)
    X, _ = synth_generate(cfg).stacked()
    # late frames carry the added ramp
    assert X[:, :, -1].mean() > X[:, :, 0].mean()
    q = SynthConfig(kind="tap", samples_per_class=2, quantize_12bit=True, seed=1)
    Xq, _ = synth_generate(q).stacked()
    steps = Xq / (2.0 / 2047)
    assert np.allclose(steps, np.round(steps), atol=1e-9)


def test_preprocess_once_only():
    ds = synth_generate(SynthConfig(kind="tap", samples_per_class=2, seed=0))
    pp = preprocess(ds)
    assert pp.meta["preprocessed"]
    assert ds.meta.get("preprocessed") is None  # input untouched
    with pytest.raises(ValueError):
        preprocess(pp)


def test_preprocess_removes_drift_component():
    cfg = SynthConfig(kind="tap", samples_per_class=3, drift_rate=0.05,
                      noise_stddev=0.0, seed=2)
    raw, _ = synth_generate(cfg).stacked()
    pp, _ = preprocess(synth_generate(cfg)).stacked()
    ramp_raw = raw[:, :, -1].mean() - raw[:, :, 0].mean()
    ramp_pp = pp[:, :, -1].mean() - pp[:, :, 0].mean()
    assert abs(ramp_pp) < abs(ramp_raw)


def test_csv_round_trip(tmp_path):
    ds = synth_generate(SynthConfig(kind="tap", samples_per_class=3, seed=5))
    path = tmp_path / "gestures.csv"
    save_csv(ds, path)
    back = load_csv(path)
    Xa, ya = ds.stacked()
    Xb, yb = back.stacked()
    assert np.array_equal(ya, yb)
    assert np.array_equal(Xa, Xb)  # %.17g preserves doubles exactly
    assert back.meta["kind"] == "tap"
    assert back.class_names == CLASS_NAMES


def test_csv_header_rejected(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("id,class,frame,ch0\n0,north,0,1.0\n")
    with pytest.raises(ValueError, match="missing columns"):
        load_csv(p)


def test_csv_bad_class_rejected(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("gesture_id,class,frame,ch0\n0,upward,0,1.0\n")
    with pytest.raises(ValueError, match="unknown class"):
        load_csv(p)


def test_csv_header_only_rejected(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("gesture_id,class,frame,ch0,ch1\n")
    with pytest.raises(ValueError, match=r"empty\.csv: no gesture rows"):
        load_csv(p)


def test_csv_frame_gap_rejected(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text(
        "gesture_id,class,frame,ch0\n0,north,0,1.0\n0,north,2,1.0\n"
    )
    with pytest.raises(ValueError, match="gap in frame"):
        load_csv(p)


def test_csv_field_count_rejected(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("gesture_id,class,frame,ch0,ch1\n0,north,0,1.0\n")
    with pytest.raises(ValueError, match="expected 5 fields"):
        load_csv(p)


def test_csv_ragged_rejected(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text(
        "gesture_id,class,frame,ch0\n"
        "0,north,0,1.0\n0,north,1,1.0\n1,south,0,1.0\n"
    )
    with pytest.raises(ValueError, match="ragged"):
        load_csv(p)


def test_csv_without_sidecar_uses_defaults(tmp_path):
    ds = synth_generate(SynthConfig(kind="tap", samples_per_class=2, seed=6))
    path = tmp_path / "g.csv"
    save_csv(ds, path)
    (tmp_path / "g.csv.meta.json").unlink()
    back = load_csv(path)
    assert back.sample_rate == 250.0
    assert back.class_names == CLASS_NAMES


def test_synth_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(kind="pinch")
    with pytest.raises(ValueError):
        SynthConfig(kind="tap", samples_per_class=0)
    assert SynthConfig(kind="swipe").frames == 30


def test_csv_nonnumeric_fields_report_line(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("gesture_id,class,frame,ch0\n0,north,0,1.0\n0,north,1.5,2.0\n")
    with pytest.raises(ValueError, match=r"bad\.csv:3: frame '1\.5' is not an integer"):
        load_csv(p)
    p.write_text("gesture_id,class,frame,ch0\n0,north,0,abc\n")
    with pytest.raises(ValueError, match=r"bad\.csv:2: .*'abc'"):
        load_csv(p)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_csv_nonfinite_value_reports_line(tmp_path, value):
    p = tmp_path / "bad.csv"
    p.write_text("gesture_id,class,frame,ch0\n0,north,0,nan\n".replace("nan", value))
    with pytest.raises(ValueError, match=r"bad\.csv:2: non-finite value"):
        load_csv(p)
    p.write_text("gesture_id,class,frame,ch0,ch1\n0,north,0,1,2\n1,south,0,3,4\n"
                 f"0,north,1,5,6\n1,south,1,{value},8\n")
    with pytest.raises(ValueError, match=r"bad\.csv:5: non-finite value"):
        load_csv(p)
