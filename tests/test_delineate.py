"""Tests for R-peak detection, beat annotation, and wave scoring."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ecgmon import delineate
from ecgmon.delineate import (
    BeatAnnotation,
    InsufficientDataError,
    NoBeatsError,
    RPeakDetector,
    annotate_beats,
    detect_r_peaks,
    render_score,
    score_waves,
)
from ecgmon.synth import DEFAULT_TEMPLATE, BeatTemplate, Recording, SynthConfig, Wave, synthesize


def make_template(**amplitudes):
    """Default template with selected wave amplitudes replaced."""
    waves = {}
    for name in "pqrst":
        w = getattr(DEFAULT_TEMPLATE, name)
        if name in amplitudes:
            w = Wave(amplitudes[name], w.center, w.sigma)
        waves[name] = w
    return BeatTemplate(**waves)


def lead_on(codes, sample_rate=250):
    """A recording of the given codes with the electrode on throughout."""
    codes = np.asarray(codes)
    return Recording(codes, np.zeros(len(codes), dtype=bool), sample_rate)


# ------------------------------------------------------------ R detection

def test_detect_clean_60bpm():
    samples = synthesize(SynthConfig(heart_rate=60.0, duration=10.0))
    peaks = detect_r_peaks(samples)
    assert len(peaks) == 10
    # beats sit at (k + 1/2) s, i.e. sample 125, 375, ...
    assert all(abs(p - (125 + 250 * k)) <= 2 for k, p in enumerate(peaks))


def test_detect_spacing_72bpm():
    samples = synthesize(SynthConfig(heart_rate=72.0, duration=20.0))
    peaks = detect_r_peaks(samples)
    diffs = np.diff(peaks)
    period = 250 * 60.0 / 72.0
    assert len(peaks) == 23
    assert all(abs(d - period) <= 2 for d in diffs)


def test_flat_line_has_no_peaks():
    flat = lead_on(np.full(1000, 337))  # 4 s of mid-rail
    assert detect_r_peaks(flat) == []


def test_too_short_raises():
    samples = synthesize(SynthConfig(duration=1.5))
    with pytest.raises(InsufficientDataError):
        detect_r_peaks(samples)


def test_detect_affine_invariance():
    codes = synthesize(SynthConfig(heart_rate=60.0, duration=10.0)).codes
    base = detect_r_peaks(lead_on(codes))
    assert detect_r_peaks(lead_on(2 * codes + 50)) == base


def test_detect_concatenation_additive():
    codes = synthesize(SynthConfig(heart_rate=60.0, duration=10.0)).codes
    doubled = np.concatenate([codes, codes])
    n_single = len(detect_r_peaks(lead_on(codes)))
    n_double = len(detect_r_peaks(lead_on(doubled)))
    assert abs(n_double - 2 * n_single) <= 1


def test_detect_noisy_signal():
    samples = synthesize(SynthConfig(heart_rate=72.0, duration=20.0, noise_std=20.0, seed=11))
    peaks = detect_r_peaks(samples)
    assert 21 <= len(peaks) <= 25


def test_refractory_suppresses_close_peaks():
    # two bumps 30 samples (120 ms) apart; only the taller may survive
    x = np.full(1000, 100)
    x[500] = 500
    x[530] = 480
    peaks = detect_r_peaks(lead_on(x))
    assert peaks == [500]


def test_lead_off_samples_cannot_be_peaks():
    cfg = SynthConfig(heart_rate=60.0, duration=10.0, lead_off_intervals=((4.0, 5.0),))
    samples = synthesize(cfg)
    peaks = detect_r_peaks(samples)
    clean = detect_r_peaks(synthesize(SynthConfig(heart_rate=60.0, duration=10.0)))
    assert len(peaks) < len(clean)
    for p in peaks:
        assert not samples.lead_off[p]
        # the whole delineation span around each kept beat is lead-off free
        assert not samples.lead_off[max(0, p - 60):p + 101].any()


# ------------------------------------------------ reference R detection

def reference_trailing_threshold(x, window):
    """The index-gather form of `_trailing_threshold`, kept as its reference."""
    n = len(x)
    cs = np.concatenate(([0.0], np.cumsum(x)))
    cs2 = np.concatenate(([0.0], np.cumsum(x * x)))
    idx = np.arange(n)
    lo = np.maximum(0, idx - window + 1)
    cnt = idx + 1 - lo
    mean = (cs[idx + 1] - cs[lo]) / cnt
    var = np.maximum(0.0, (cs2[idx + 1] - cs2[lo]) / cnt - mean * mean)
    return mean + 2.0 * np.sqrt(var)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 40).flatmap(lambda n: st.tuples(
           st.lists(st.integers(0, 4095) | st.floats(-1e6, 1e6), min_size=n, max_size=n),
           st.integers(1, n + 3))),
       st.sampled_from([0, 1, 2, 3, 498, 499, 500, 501, 502, 15_500]))
def test_trailing_threshold_matches_gather_reference(case, long_n):
    values, window = case
    x = np.array(values, dtype=float)
    # bit for bit: tobytes also tells -0.0 from 0.0
    assert (delineate._trailing_threshold(x, window).tobytes()
            == reference_trailing_threshold(x, window).tobytes())
    # long records, against the windows the detector uses and those around them
    codes = np.random.default_rng(long_n).integers(0, 4096, long_n).astype(float)
    for window in (1, 2, 3, 499, 500, 501):
        assert (delineate._trailing_threshold(codes, window).tobytes()
                == reference_trailing_threshold(codes, window).tobytes())


def reference_detect_r_peaks(codes, lead_off, sample_rate):
    """Per-sample R detection, kept as the reference `detect_r_peaks` must
    match: the candidate test and the refractory merge in one loop."""
    codes = np.asarray(codes, dtype=float)
    n = len(codes)
    keep = np.flatnonzero(~lead_off)
    x = codes[keep]
    if len(x) < delineate.THRESHOLD_WINDOW_S * sample_rate:
        raise InsufficientDataError("too short")

    thr = delineate._trailing_threshold(x, int(delineate.THRESHOLD_WINDOW_S * sample_rate))
    refractory = int(round(delineate.REFRACTORY_MS / 1000.0 * sample_rate))
    peaks: list[int] = []
    for i in range(1, len(x) - 1):
        if x[i] >= x[i - 1] and x[i] > x[i + 1] and x[i] > thr[i]:
            if peaks and i - peaks[-1] < refractory:
                if x[i] > x[peaks[-1]]:
                    peaks[-1] = i
            else:
                peaks.append(i)

    out = [int(keep[i]) for i in peaks]
    if lead_off.any():
        span_lo = delineate._ms_to_samples(delineate.P_WINDOW[0], sample_rate)
        span_hi = delineate._ms_to_samples(delineate.T_WINDOW[1], sample_rate)
        out = [
            r for r in out
            if not lead_off[max(0, r + span_lo):min(n, r + span_hi + 1)].any()
        ]
    return out


def random_capture(rng, sample_rate):
    """A seeded noisy capture, with a lead-off span in two of three."""
    duration = float(rng.uniform(2.5, 20.0))
    intervals = ()
    if rng.integers(3):
        start = float(rng.uniform(0.0, duration))
        intervals = ((start, start + float(rng.uniform(0.1, 3.0))),)
    return SynthConfig(
        sample_rate=sample_rate,
        heart_rate=float(rng.uniform(40.0, 180.0)),
        duration=duration,
        noise_std=float(rng.uniform(0.0, 80.0)),
        lead_off_intervals=intervals,
        seed=int(rng.integers(2**31)),
    )


@pytest.mark.parametrize("sample_rate", [100, 250, 500, 1000])
def test_detect_matches_per_sample_reference(sample_rate):
    rng = np.random.default_rng(sample_rate)
    compared = 0
    for _ in range(12):
        rec = synthesize(random_capture(rng, sample_rate))
        detector = RPeakDetector(rec)
        # the prefixes a session checks second by second, and the whole capture,
        # each on its own and as reads of one pass over the capture
        for end in (*range(2 * sample_rate, len(rec), 3 * sample_rate), len(rec)):
            head = rec[:end]
            try:
                want = reference_detect_r_peaks(head.codes, head.lead_off, sample_rate)
            except InsufficientDataError:
                with pytest.raises(InsufficientDataError):
                    detect_r_peaks(head)
                with pytest.raises(InsufficientDataError):
                    detector.peaks(end)
                continue
            assert detect_r_peaks(head) == want, (sample_rate, end)
            assert detector.peaks(end) == want, (sample_rate, end)
            compared += 1
    assert compared >= 12


def test_detect_matches_reference_on_plateaus_and_ties():
    # flat-topped and equal-height peaks inside one refractory period
    x = np.full(1500, 100)
    x[500:503] = 400
    x[540] = 400
    x[900] = 300
    x[930] = 300
    x[1200] = 350
    x[1201] = 350
    rec = lead_on(x)
    want = reference_detect_r_peaks(rec.codes, rec.lead_off, 250)
    assert detect_r_peaks(rec) == want == [502, 900, 1201]


# -------------------------------------------------------------- annotation

def test_annotate_clean_beats_all_valid():
    samples = synthesize(SynthConfig(heart_rate=60.0, duration=10.0))
    peaks = detect_r_peaks(samples)
    anns = annotate_beats(samples, peaks)
    assert len(anns) == len(peaks)
    for ann in anns:
        assert ann.r_valid and ann.p_valid and ann.q_valid and ann.s_valid and ann.t_valid


def test_annotate_fiducials_near_template_centers():
    samples = synthesize(SynthConfig(heart_rate=60.0, duration=10.0))
    peaks = detect_r_peaks(samples)
    anns = annotate_beats(samples, peaks)
    # template centers in samples at 250 Hz: P -50, Q -10, S +10, T +62.5
    for ann in anns:
        assert abs(ann.p_index - (ann.r_index - 50)) <= 3
        assert abs(ann.q_index - (ann.r_index - 10)) <= 3
        assert abs(ann.s_index - (ann.r_index + 10)) <= 3
        assert abs(ann.t_index - (ann.r_index + 62)) <= 3


def test_suppressed_p_goes_invalid():
    samples = synthesize(SynthConfig(heart_rate=60.0, duration=10.0), make_template(p=0.0))
    peaks = detect_r_peaks(samples)
    anns = annotate_beats(samples, peaks)
    assert anns
    assert all(not a.p_valid for a in anns)
    assert all(a.q_valid and a.s_valid and a.t_valid for a in anns)


def test_only_r_template_all_waves_invalid():
    samples = synthesize(
        SynthConfig(heart_rate=60.0, duration=10.0),
        make_template(p=0.0, q=0.0, s=0.0, t=0.0),
    )
    peaks = detect_r_peaks(samples)
    anns = annotate_beats(samples, peaks)
    assert anns
    for a in anns:
        assert a.r_valid
        assert not (a.p_valid or a.q_valid or a.s_valid or a.t_valid)


def test_window_off_record_is_invalid():
    # slice the record so the first beat's P window starts before sample 0
    samples = synthesize(SynthConfig(heart_rate=60.0, duration=10.0))
    first_r = detect_r_peaks(samples)[0]
    cut = samples[first_r - 55:]  # only 55 samples of history, P needs 60
    peaks = detect_r_peaks(cut)
    anns = annotate_beats(cut, peaks)
    lead = [a for a in anns if a.r_index == 55]
    assert len(lead) == 1
    assert not lead[0].p_valid
    later = [a for a in anns if a.r_index != 55]
    assert later and all(a.p_valid for a in later)


def test_detector_reads_never_go_back():
    rec = synthesize(SynthConfig(duration=6.0))
    detector = RPeakDetector(rec)
    assert detector.peaks(1000) == detector.peaks(1000) == detect_r_peaks(rec[:1000])
    with pytest.raises(ValueError):
        detector.peaks(999)


@st.composite
def detector_reads(draw):
    """A capture and increasing read ends: repeats, single samples, steps
    of up to 10 s, and reads around each edge of a lead-off span."""
    rate = draw(st.integers(100, 1000))
    duration = draw(st.floats(1.0, 12.0))
    starts = draw(st.lists(st.floats(0.0, duration), max_size=2))
    intervals = tuple((s, s + draw(st.floats(0.0, 3.0))) for s in starts)
    recording = synthesize(SynthConfig(
        sample_rate=rate,
        heart_rate=draw(st.floats(20.0, 250.0)),
        duration=duration,
        noise_std=draw(st.sampled_from([0.0, draw(st.floats(0.0, 160.0))])),
        lead_off_intervals=intervals,
        seed=draw(st.integers(0, 2**31 - 1)),
    ))
    steps = draw(st.lists(st.one_of(st.just(0), st.integers(1, 3), st.integers(1, 10 * rate)),
                          min_size=1, max_size=30))
    edges = [round(t * rate) + d for interval in intervals for t in interval for d in (-1, 0, 1)]
    ends = sorted(min(max(end, 0), len(recording)) for end in [*np.cumsum(steps).tolist(), *edges])
    return recording, ends


@settings(max_examples=60, deadline=None)
@given(detector_reads())
def test_detector_reads_at_irregular_ends_match_reference(case):
    recording, ends = case
    detector = RPeakDetector(recording)
    for end in ends:
        head = recording[:end]
        try:
            want = reference_detect_r_peaks(head.codes, head.lead_off, recording.sample_rate)
        except InsufficientDataError:
            with pytest.raises(InsufficientDataError):
                detector.peaks(end)
            continue
        assert detector.peaks(end) == want, end


# ------------------------------------------------ baseline and noise floor

def reference_baseline_and_floor(seg):
    """One chunk at a time, the strictly quieter chunk replacing the kept
    one: the loop the reshaped `_baseline_and_floor` must match."""
    chunk = max(1, len(seg) // 8)
    quiet_std = None
    quiet_median = 0.0
    for j in range(0, len(seg) - chunk + 1, chunk):
        piece = seg[j:j + chunk]
        s = float(piece.std())
        if quiet_std is None or s < quiet_std:
            quiet_std = s
            quiet_median = float(np.median(piece))
    if quiet_std is None:
        return 0.0, float("inf")
    return quiet_median, max(3.0 * quiet_std, 1.0)


# 641 samples is the full P-to-T span of a beat at 1000 Hz
_SPAN = 641


@st.composite
def beat_spans(draw):
    """Code segments: random, constant, or chunks that repeat one pattern
    shifted by whole codes, so their stds tie and their medians differ."""
    n = draw(st.integers(1, _SPAN))
    kind = draw(st.sampled_from(["random", "constant", "tied"]))
    if kind == "random":
        return np.array(draw(st.lists(st.integers(0, 1023), min_size=n, max_size=n)), dtype=float)
    if kind == "constant":
        return np.full(n, float(draw(st.integers(0, 1023))))
    chunk = max(1, n // 8)
    pattern = np.array(draw(st.lists(st.integers(0, 64), min_size=chunk, max_size=chunk)))
    shifts = draw(st.lists(st.integers(0, 900), min_size=n // chunk + 1, max_size=n // chunk + 1))
    return np.concatenate([pattern + s for s in shifts])[:n].astype(float)


def baselines_and_floors(segs):
    """`_baselines_and_floors` over the segments laid end to end, as a list
    of (baseline, floor) pairs."""
    hi = np.cumsum([len(seg) for seg in segs], dtype=np.intp)
    lo = hi - [len(seg) for seg in segs]
    codes = np.concatenate([np.asarray(seg, dtype=float) for seg in segs])
    base, floor = delineate._baselines_and_floors(codes, lo, hi)
    return list(zip(base.tolist(), floor.tolist()))


@settings(max_examples=300, deadline=None)
@given(st.lists(beat_spans(), min_size=1, max_size=4))
def test_baseline_and_floor_matches_chunk_loop(segs):
    # each segment once and again in reverse, so equal lengths are reduced together
    segs = segs + segs[::-1]
    assert baselines_and_floors(segs) == [reference_baseline_and_floor(seg) for seg in segs]


def test_baseline_and_floor_edges():
    assert baselines_and_floors([np.array([])]) == [(0.0, float("inf"))]
    # eight chunks with equal stds: the first one's median wins the tie
    seg = np.concatenate([np.array([0.0, 2.0, 4.0, 6.0]) + 10 * j for j in range(8)])
    assert baselines_and_floors([seg]) == [reference_baseline_and_floor(seg)] == [(3.0, 3.0 * 5 ** 0.5)]
    segs = [np.arange(n, dtype=float) % 7 for n in range(_SPAN + 1)]
    assert baselines_and_floors(segs) == [reference_baseline_and_floor(seg) for seg in segs]


# ------------------------------------------------ reference annotation

def reference_annotate_beats(recording, r_indices):
    """One beat at a time and one window at a time, kept as the reference
    the columnar `annotate_beats` must match."""
    codes = recording.codes.astype(float)
    sample_rate = recording.sample_rate
    n = len(codes)
    span_lo = delineate._ms_to_samples(delineate.P_WINDOW[0], sample_rate)
    span_hi = delineate._ms_to_samples(delineate.T_WINDOW[1], sample_rate)

    annotations = []
    for r in r_indices:
        seg = codes[max(0, r + span_lo):min(n, r + span_hi + 1)]
        base, floor = reference_baseline_and_floor(seg)
        fields: dict = {"r_index": int(r)}
        for wave, (a, b), sign in (
            ("p", delineate.P_WINDOW, +1),
            ("q", delineate.Q_WINDOW, -1),
            ("s", delineate.S_WINDOW, -1),
            ("t", delineate.T_WINDOW, +1),
        ):
            lo = r + delineate._ms_to_samples(a, sample_rate) + 1
            hi = r + delineate._ms_to_samples(b, sample_rate)  # exclusive
            if lo < 0 or hi > n or hi - lo < 1:
                fields[f"{wave}_index"] = None
                fields[f"{wave}_valid"] = False
                continue
            window = codes[lo:hi]
            pos = int(np.argmax(window) if sign > 0 else np.argmin(window)) + lo
            deviation = (codes[pos] - base) * sign
            fields[f"{wave}_index"] = pos
            fields[f"{wave}_valid"] = bool(deviation > floor)
        annotations.append(BeatAnnotation(**fields))
    return annotations


@st.composite
def annotation_cases(draw):
    """A short noisy capture, with lead-off spans, and R indices anywhere in
    it, crowded at both edges, unsorted and repeated."""
    duration = draw(st.floats(0.05, 6.0))
    starts = draw(st.lists(st.floats(0.0, duration), max_size=3))
    # waves down to a code or two, so deviations meet the one-code floor
    scale = draw(st.sampled_from([1.0, draw(st.floats(0.0, 0.1))]))
    recording = synthesize(SynthConfig(
        sample_rate=draw(st.integers(100, 1000)),
        heart_rate=draw(st.floats(20.0, 250.0)),
        duration=duration,
        noise_std=draw(st.sampled_from([0.0, draw(st.floats(0.0, 160.0))])),
        lead_off_intervals=tuple((s, s + draw(st.floats(0.0, 2.0))) for s in starts),
        seed=draw(st.integers(0, 2**31 - 1)),
    ), BeatTemplate(*(w._replace(amplitude=w.amplitude * scale) for w in DEFAULT_TEMPLATE.waves())))
    last = len(recording) - 1
    r = st.one_of(st.integers(0, min(last, _SPAN)), st.integers(max(0, last - _SPAN), last),
                  st.integers(0, last))
    return recording, draw(st.lists(r, max_size=60))


@settings(max_examples=150, deadline=None)
@given(annotation_cases())
def test_annotate_matches_per_beat_reference(case):
    recording, r_indices = case
    got = annotate_beats(recording, r_indices)
    assert got == reference_annotate_beats(recording, r_indices)
    assert {type(v) for a in got for v in vars(a).values()} <= {int, bool, type(None)}


def test_annotation_median_calls_do_not_grow_with_beats(monkeypatch):
    # the quiet chunks of all full-span beats take one median together
    rec = synthesize(SynthConfig(duration=40.0))
    peaks = detect_r_peaks(rec)
    assert len(peaks) >= 42
    calls = []
    median = np.median

    def counting(*args, **kwargs):
        calls.append(1)
        return median(*args, **kwargs)

    monkeypatch.setattr(np, "median", counting)
    annotate_beats(rec, peaks[:5])
    few = len(calls)
    calls.clear()
    annotate_beats(rec, peaks[:42])
    assert 1 <= len(calls) <= few


# ----------------------------------------------------------------- scoring

def test_scores_all_valid():
    anns = [BeatAnnotation(r_index=0, p_valid=True, q_valid=True, s_valid=True, t_valid=True)
            for _ in range(12)]
    s = score_waves(anns)
    assert s.as_tuple() == (100.0, 100.0, 100.0, 100.0, 100.0)


def test_scores_rounding_cases():
    # 16/21 -> 76.190476... -> 76.19; 15/16 -> 93.75; 13/14 -> 92.857 -> 92.86
    anns = [BeatAnnotation(r_index=i, p_valid=(i < 16)) for i in range(21)]
    assert score_waves(anns).p == 76.19
    anns = [BeatAnnotation(r_index=i, q_valid=(i < 15)) for i in range(16)]
    assert score_waves(anns).q == 93.75
    anns = [BeatAnnotation(r_index=i, t_valid=(i < 13)) for i in range(14)]
    assert score_waves(anns).t == 92.86


def test_scores_half_up_at_boundary():
    # 1/8 = 12.5% exactly at the rounding boundary stays 12.5
    anns = [BeatAnnotation(r_index=i, s_valid=(i == 0)) for i in range(8)]
    assert score_waves(anns).s == 12.5
    # 5/6 = 83.333..., 1/6 = 16.666... -> 16.67 (half-up)
    anns = [BeatAnnotation(r_index=i, p_valid=(i == 0)) for i in range(6)]
    assert score_waves(anns).p == 16.67


def test_scores_permutation_invariant():
    rng = np.random.default_rng(3)
    anns = [
        BeatAnnotation(
            r_index=i,
            p_valid=bool(rng.integers(2)), q_valid=bool(rng.integers(2)),
            s_valid=bool(rng.integers(2)), t_valid=bool(rng.integers(2)),
        )
        for i in range(17)
    ]
    shuffled = list(anns)
    rng.shuffle(shuffled)
    assert score_waves(anns) == score_waves(shuffled)


def test_scores_monotone_under_appends():
    anns = [BeatAnnotation(r_index=i, p_valid=(i % 3 == 0), q_valid=True,
                           s_valid=(i % 2 == 0), t_valid=False) for i in range(9)]
    before = score_waves(anns)
    all_valid = BeatAnnotation(r_index=99, p_valid=True, q_valid=True,
                               s_valid=True, t_valid=True)
    after = score_waves(anns + [all_valid])
    assert all(b >= a for b, a in zip(after.as_tuple(), before.as_tuple()))
    none_valid = BeatAnnotation(r_index=99)
    worse = score_waves(anns + [none_valid])
    # R stays 100 by construction; every other score can only drop
    assert worse.r == 100.0
    assert all(w <= a for w, a in zip(worse.as_tuple(), before.as_tuple()))


def test_scores_empty_raises():
    with pytest.raises(NoBeatsError):
        score_waves([])


def test_noise_free_defaults_score_100():
    for duration in (5.0, 5.8, 7.3, 10.0, 20.0):
        samples = synthesize(SynthConfig(duration=duration))
        peaks = detect_r_peaks(samples)
        scores = score_waves(annotate_beats(samples, peaks))
        assert scores.as_tuple() == (100.0,) * 5, duration


def test_higher_sample_rate_still_clean():
    samples = synthesize(SynthConfig(sample_rate=1000, heart_rate=60.0, duration=10.0))
    peaks = detect_r_peaks(samples)
    assert len(peaks) == 10
    scores = score_waves(annotate_beats(samples, peaks))
    assert scores.as_tuple() == (100.0,) * 5


# ------------------------------------------------------------ render_score

@pytest.mark.parametrize("value,text", [
    (91.6, "91.6"),
    (100.0, "100"),
    (76.19, "76.19"),
    (93.75, "93.75"),
    (80.0, "80"),
    (92.86, "92.86"),
    (0.0, "0"),
])
def test_render_score(value, text):
    assert render_score(value) == text
