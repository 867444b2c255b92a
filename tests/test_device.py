"""Tests for the device loop: heartbeat counting, session gating, CSV."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ecgmon import delineate, device
from ecgmon.delineate import WaveScores
from ecgmon.device import (
    DeviceAgent,
    NoPulseError,
    NoSignalError,
    PqrstRecord,
    dump_csv,
    load_csv,
    measure_heartbeat,
    overall_score,
    parse_csv_row,
    run_ecg_session,
    to_csv_row,
)
from ecgmon.synth import DEFAULT_TEMPLATE, BeatTemplate, SynthConfig, Wave, pulse_events, synthesize
from test_delineate import reference_annotate_beats


def template_with(**amplitudes):
    waves = {}
    for name in "pqrst":
        w = getattr(DEFAULT_TEMPLATE, name)
        if name in amplitudes:
            w = Wave(amplitudes[name], w.center, w.sigma)
        waves[name] = w
    return BeatTemplate(**waves)


# ---------------------------------------------------------------- heartbeat

def test_heartbeat_24_events():
    events = [k * (20.0 / 24.0) for k in range(24)]
    reading = measure_heartbeat(events, "p1")
    assert reading.bpm == 72
    assert reading.window_seconds == 20


def test_heartbeat_33_events():
    events = np.linspace(0.0, 19.9, 33)
    assert measure_heartbeat(events, "p1").bpm == 99


def test_heartbeat_ignores_out_of_window():
    events = [-1.0, 0.0, 5.0, 19.999, 20.0, 25.0]
    assert measure_heartbeat(events, "p1").bpm == 9  # 3 inside [0, 20)


def test_heartbeat_empty_raises():
    with pytest.raises(NoPulseError):
        measure_heartbeat([], "p1")
    with pytest.raises(NoPulseError):
        measure_heartbeat([20.0, 31.0], "p1")


def test_heartbeat_divisible_by_three():
    rng = np.random.default_rng(5)
    for _ in range(20):
        events = sorted(rng.uniform(0.0, 20.0, rng.integers(1, 60)))
        assert measure_heartbeat(events, "x").bpm % 3 == 0


def test_heartbeat_matches_synth_rate():
    # a whole number of beats per 20 s window reproduces the rate exactly
    for hr in (60.0, 72.0, 90.0, 120.0):
        events = pulse_events(SynthConfig(heart_rate=hr, duration=20.0))
        assert measure_heartbeat(events, "p").bpm == int(hr)


# ------------------------------------------------------------ overall score

def test_overall_score_record_one():
    # (91.6 + 100 + 100 + 100 + 90) / 5 = 96.32
    assert overall_score(WaveScores(91.6, 100.0, 100.0, 100.0, 90.0)) == 96.32


def test_overall_score_only_r():
    assert overall_score(WaveScores(0.0, 0.0, 100.0, 0.0, 0.0)) == 20.0


def test_overall_score_half_up():
    # mean 96.875 rounds up to 96.88 under half-up
    assert overall_score(WaveScores(96.875, 96.875, 96.875, 96.875, 96.875)) == 96.88


# ---------------------------------------------------------------- sessions

def test_session_clean_uploads():
    samples = synthesize(SynthConfig(duration=12.0))
    outcome = run_ecg_session(samples, "p1", age=30)
    assert outcome.status == "Uploaded"
    assert outcome.message == "OK"
    assert outcome.overall_score == 100.0
    assert outcome.record is not None
    assert outcome.record.patient_id == "p1"
    assert outcome.record.scores() == (100.0,) * 5


def test_session_only_r_errors():
    samples = synthesize(
        SynthConfig(duration=12.0),
        template_with(p=0.0, q=0.0, s=0.0, t=0.0),
    )
    outcome = run_ecg_session(samples, "p1", age=30)
    assert outcome.status == "Error"
    assert outcome.message == "ERROR"
    assert outcome.overall_score == 20.0
    assert outcome.record is None


def test_session_publishes_record():
    published = []
    samples = synthesize(SynthConfig(duration=12.0))
    run_ecg_session(samples, "p9", age=41, record_no=7,
                    publish=lambda t, p, q: published.append((t, p, q)))
    assert len(published) == 1
    topic, payload, qos = published[0]
    assert topic == "clinic/p9/ecg/pqrst"
    assert qos == 1
    doc = json.loads(payload)
    assert doc["record_no"] == 7
    assert doc["age"] == 41
    assert doc["r"] == 100.0


def test_session_error_publishes_status_event():
    published = []
    samples = synthesize(
        SynthConfig(duration=12.0),
        template_with(p=0.0, q=0.0, s=0.0, t=0.0),
    )
    run_ecg_session(samples, "p2", age=50,
                    publish=lambda t, p, q: published.append((t, p, q)))
    assert len(published) == 1
    topic, payload, _ = published[0]
    assert topic == "clinic/p2/status"
    doc = json.loads(payload)
    assert doc["message"] == "ERROR"
    assert doc["event"] == "session_rejected"


@pytest.fixture
def scored_lengths(monkeypatch):
    """Lengths of the recordings the session hands to annotation."""
    lengths = []
    annotate = delineate.annotate_beats

    def spy(recording, r_indices):
        lengths.append(len(recording))
        return annotate(recording, r_indices)

    monkeypatch.setattr(delineate, "annotate_beats", spy)
    return lengths


def test_session_stops_at_fifty_beats(scored_lengths):
    # 72 bpm for 70 s would be ~84 beats; capture must stop around beat 50,
    # i.e. roughly 42 s in, leaving the rest of the recording unread
    outcome = run_ecg_session(synthesize(SynthConfig(duration=70.0)), "p1", age=30)
    assert outcome.status == "Uploaded"
    # beat 50 is centered at (49 + 1/2) * 60/72 = 41.25 s
    (length,) = scored_lengths
    assert 41.0 <= (length - 1) / 250 <= 45.0


def test_session_timeout_at_sixty_seconds(scored_lengths):
    # 45 bpm yields fewer than 50 beats in 60 s, so the timeout fires
    outcome = run_ecg_session(synthesize(SynthConfig(heart_rate=45.0, duration=90.0)),
                              "p1", age=30)
    assert outcome.status == "Uploaded"
    (length,) = scored_lengths
    assert (length - 1) / 250 <= 61.0
    # the one-second read that reaches t = 60 s is the last one
    assert length == 61 * 250


def test_session_lead_off_at_start_still_scores():
    # the first 2 s hold under 2 s of lead-on signal, so the stop check
    # waits for more capture instead of failing
    rec = synthesize(SynthConfig(duration=10.0, lead_off_intervals=((0.5, 1.5),)))
    outcome = run_ecg_session(rec, "p1", age=30)
    assert outcome.status == "Uploaded"
    assert outcome.overall_score == 100.0


def test_session_mostly_lead_off_raises_no_signal():
    rec = synthesize(SynthConfig(duration=10.0, lead_off_intervals=((0.0, 9.0),)))
    with pytest.raises(NoSignalError):
        run_ecg_session(rec, "p1", age=30)


def test_session_flat_signal_raises():
    flat = synthesize(SynthConfig(duration=8.0), template_with(p=0.0, q=0.0, r=0.0, s=0.0, t=0.0))
    with pytest.raises(NoSignalError):
        run_ecg_session(flat, "p1", age=30)


def test_session_too_short_raises():
    samples = synthesize(SynthConfig(duration=1.0))
    with pytest.raises(NoSignalError):
        run_ecg_session(samples, "p1", age=30)


def test_session_computes_the_threshold_once(monkeypatch):
    # one detection pass per session, however many seconds it reads
    calls = []
    threshold = delineate._trailing_threshold

    def counting(x, window):
        calls.append(len(x))
        return threshold(x, window)

    monkeypatch.setattr(delineate, "_trailing_threshold", counting)
    timeout = synthesize(SynthConfig(heart_rate=45.0, duration=90.0))
    fifty_beats = synthesize(SynthConfig(duration=70.0))
    for recording in (timeout, fifty_beats):
        calls.clear()
        assert run_ecg_session(recording, "p1", age=30).status == "Uploaded"
        assert calls == [len(recording)]


# ------------------------------------------- reference per-prefix session

def reference_detect_prefix(recording):
    """R detection over one prefix from scratch, kept as the reference the
    detector's checkpoint reads must match."""
    sample_rate = recording.sample_rate
    lead_off = recording.lead_off
    n = len(recording)
    keep = np.flatnonzero(~lead_off)
    x = recording.codes[keep].astype(float)
    if len(x) < delineate.THRESHOLD_WINDOW_S * sample_rate:
        raise delineate.InsufficientDataError(
            f"need at least {delineate.THRESHOLD_WINDOW_S:g} s of signal, got {len(x) / sample_rate:g} s"
        )
    thr = delineate._trailing_threshold(x, int(delineate.THRESHOLD_WINDOW_S * sample_rate))
    refractory = int(round(delineate.REFRACTORY_MS / 1000.0 * sample_rate))
    mid = x[1:-1]
    candidates = np.flatnonzero((mid >= x[:-2]) & (mid > x[2:]) & (mid > thr[1:-1])) + 1
    peaks: list[int] = []
    for i in candidates.tolist():
        if peaks and i - peaks[-1] < refractory:
            if x[i] > x[peaks[-1]]:
                peaks[-1] = i
        else:
            peaks.append(i)
    out = keep[peaks].tolist()
    if lead_off.any():
        span_lo = delineate._ms_to_samples(delineate.P_WINDOW[0], sample_rate)
        span_hi = delineate._ms_to_samples(delineate.T_WINDOW[1], sample_rate)
        out = [r for r in out if not lead_off[max(0, r + span_lo):min(n, r + span_hi + 1)].any()]
    return out


def reference_session(recording):
    """The session loop that detects every one-second prefix from scratch
    and annotates one beat at a time, kept as the reference for
    `run_ecg_session`: (status, overall, scores)
    or ("no_signal", message)."""
    rate = recording.sample_rate
    end, peaks = 0, None
    while end < len(recording):
        end, peaks = min(end + rate, len(recording)), None
        if (end - 1) / rate >= device.SESSION_TIMEOUT_S:
            break
        if (~recording.lead_off[:end]).sum() >= delineate.THRESHOLD_WINDOW_S * rate:
            peaks = reference_detect_prefix(recording[:end])
            if len(peaks) >= device.SESSION_TARGET_BEATS:
                break
    captured = recording[:end]
    if peaks is None:
        try:
            peaks = reference_detect_prefix(captured)
        except delineate.InsufficientDataError as exc:
            return ("no_signal", str(exc))
    if not peaks:
        return ("no_signal", "no R peaks detected before the session timeout")
    scores = delineate.score_waves(reference_annotate_beats(captured, peaks))
    overall = overall_score(scores)
    return ("Uploaded" if overall > device.UPLOAD_GATE else "Error", overall, scores)


def session_result(recording):
    try:
        outcome = run_ecg_session(recording, "p1", age=30)
    except NoSignalError as exc:
        return ("no_signal", str(exc))
    return (outcome.status, outcome.overall_score, outcome.scores)


@st.composite
def session_configs(draw):
    duration = draw(st.floats(3.0, 64.0))
    starts = draw(st.lists(st.floats(0.0, duration), max_size=3))
    return SynthConfig(
        sample_rate=draw(st.integers(100, 1000)),
        heart_rate=draw(st.floats(20.0, 250.0)),
        duration=duration,
        noise_std=draw(st.sampled_from([0.0, draw(st.floats(0.0, 160.0))])),
        lead_off_intervals=tuple((s, s + draw(st.floats(0.0, 4.0))) for s in starts),
        seed=draw(st.integers(0, 2**31 - 1)),
    )


@settings(max_examples=60, deadline=None)
@given(session_configs())
def test_session_matches_per_prefix_reference(config):
    recording = synthesize(config)
    rate = recording.sample_rate
    detector = delineate.RPeakDetector(recording)
    for end in range(rate, len(recording) + rate, rate):
        end = min(end, len(recording))
        try:
            want = reference_detect_prefix(recording[:end])
        except delineate.InsufficientDataError as exc:
            with pytest.raises(delineate.InsufficientDataError, match=re.escape(str(exc))):
                detector.peaks(end)
            continue
        assert detector.peaks(end) == want, end
    assert session_result(recording) == reference_session(recording)


def test_gate_is_strict():
    # mean exactly 80 is NOT uploaded; find a template degraded enough
    # to score exactly (100, 0, 100, 100, 100) -> 80.0
    samples = synthesize(SynthConfig(duration=12.0), template_with(q=0.0))
    outcome = run_ecg_session(samples, "p1", age=30)
    assert outcome.overall_score == 80.0
    assert outcome.status == "Error"


# --------------------------------------------------------------------- CSV

def test_to_csv_row_trims_trailing_zeros():
    rec = PqrstRecord(1, 21, 91.6, 100.0, 100.0, 100.0, 90.0)
    assert to_csv_row(rec) == "1,21,91.6,100,100,100,90"


def test_to_csv_row_two_decimals():
    rec = PqrstRecord(11, 19, 100.0, 76.19, 76.19, 76.19, 94.54)
    assert to_csv_row(rec) == "11,19,100,76.19,76.19,76.19,94.54"


def test_parse_csv_row_round_trip():
    line = "5,20,78.5,100,80,100,100"
    rec = parse_csv_row(line)
    assert rec == PqrstRecord(5, 20, 78.5, 100.0, 80.0, 100.0, 100.0)
    assert to_csv_row(rec) == line


def test_parse_csv_row_wrong_width():
    with pytest.raises(ValueError):
        parse_csv_row("1,2,3")


def test_dump_load_round_trip():
    records = [
        PqrstRecord(1, 21, 91.6, 100.0, 100.0, 100.0, 90.0),
        PqrstRecord(2, 23, 100.0, 100.0, 100.0, 100.0, 100.0),
        PqrstRecord(12, 18, 93.75, 93.75, 93.75, 93.75, 93.75),
    ]
    text = dump_csv(records)
    assert text.startswith(device.CSV_HEADER + "\n")
    assert load_csv(text) == records


def test_load_csv_without_header():
    assert load_csv("3,30,100,100,100,100,100\n") == [
        PqrstRecord(3, 30, 100.0, 100.0, 100.0, 100.0, 100.0)
    ]
    assert load_csv("") == []


# ------------------------------------------------------------- DeviceAgent

def test_agent_increments_record_no_on_upload():
    published = []
    agent = DeviceAgent("p1", 30, lambda t, p, q: published.append((t, json.loads(p))))
    agent.run_and_publish_session(synthesize(SynthConfig(duration=12.0)))
    agent.run_and_publish_session(synthesize(SynthConfig(duration=12.0)))
    assert agent.next_record_no == 3
    assert [doc["record_no"] for _, doc in published] == [1, 2]


def test_agent_error_does_not_increment():
    agent = DeviceAgent("p1", 30, lambda t, p, q: None)
    bad = synthesize(SynthConfig(duration=12.0), template_with(p=0.0, q=0.0, s=0.0, t=0.0))
    outcome = agent.run_and_publish_session(bad)
    assert outcome.status == "Error"
    assert agent.next_record_no == 1


def test_agent_heartbeat_topic_and_payload():
    published = []
    agent = DeviceAgent("p42", 61, lambda t, p, q: published.append((t, json.loads(p), q)))
    events = pulse_events(SynthConfig(heart_rate=90.0, duration=20.0))
    reading = agent.measure_and_publish_heartbeat(events)
    assert reading.bpm == 90
    topic, doc, qos = published[0]
    assert topic == "clinic/p42/heartbeat"
    assert doc["bpm"] == 90
    assert qos == 1


def test_agent_waveform_payload():
    published = []
    agent = DeviceAgent("p1", 30, lambda t, p, q: published.append((t, json.loads(p))))
    rec = synthesize(SynthConfig(sample_rate=500, duration=2.0,
                                 lead_off_intervals=((1.0, 1.5),)))
    agent.publish_waveform(rec, seq=4)
    topic, doc = published[0]
    assert topic == "clinic/p1/ecg/waveform"
    assert doc["seq"] == 4
    assert doc["sample_rate"] == 500
    assert doc["samples"] == rec.codes.tolist()
    assert doc["lead_off"] == rec.lead_off.tolist()
    assert sum(doc["lead_off"]) == 250
