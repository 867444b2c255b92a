"""Tests for the signal generator: quantizer arithmetic, beat placement,
lead-off handling, and the pulse event stream.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ecgmon import synth
from ecgmon.synth import (
    DEFAULT_TEMPLATE,
    BeatTemplate,
    ConfigError,
    SynthConfig,
    Wave,
    pulse_events,
    quantize,
    synthesize,
)


# ---------------------------------------------------------------- quantize

def test_quantize_midrail():
    # 1650 mV against a 5 V / 10-bit converter: 1.65 / 5 * 1024 = 337.92
    assert quantize(1650.0, 5.0, 10) == 337


def test_quantize_rails():
    assert quantize(0.0, 5.0, 10) == 0
    assert quantize(5000.0, 5.0, 10) == 1023
    assert quantize(-123.0, 5.0, 10) == 0
    assert quantize(99999.0, 5.0, 10) == 1023


def test_quantize_array_matches_scalar():
    volts = np.linspace(-500.0, 5500.0, 97)
    arr = quantize(volts, 5.0, 10)
    assert arr.dtype == np.int64
    assert [quantize(float(v), 5.0, 10) for v in volts] == list(arr)


def test_quantize_monotone():
    rng = np.random.default_rng(7)
    v = np.sort(rng.uniform(-100.0, 5100.0, 500))
    codes = quantize(v, 5.0, 12)
    assert (np.diff(codes) >= 0).all()


def test_quantize_step_size():
    # one LSB of a 5 V / 10-bit converter is 5000/1024 mV
    lsb = 5000.0 / 1024.0
    assert quantize(10 * lsb + 0.01, 5.0, 10) == 10
    assert quantize(11 * lsb - 0.01, 5.0, 10) == 10
    assert quantize(11 * lsb + 0.01, 5.0, 10) == 11


# --------------------------------------------------------------- synthesize

def test_sample_count_and_spacing():
    rec = synthesize(SynthConfig(sample_rate=250, duration=10.0))
    assert len(rec) == 2500
    assert rec.sample_rate == 250
    assert rec.codes.shape == rec.lead_off.shape == (2500,)
    assert rec.codes.dtype == np.int64
    assert rec.lead_off.dtype == np.bool_


def test_zero_duration_is_empty():
    rec = synthesize(SynthConfig(duration=0.0))
    assert len(rec) == 0
    assert len(rec.lead_off) == 0


def test_beat_count_default_config():
    # 72 bpm, 10 s: centers at (k + 1/2) * 60/72 while center + 0.45 <= 10,
    # which admits k = 0..10.
    codes = synthesize(SynthConfig()).codes
    # R peaks are the only excursions near the top of the swing
    high = codes > codes.min() + 0.8 * (codes.max() - codes.min())
    n_runs = int(np.sum(np.diff(high.astype(int)) == 1) + (1 if high[0] else 0))
    assert n_runs == 11


def same_recording(a, b):
    return (np.array_equal(a.codes, b.codes) and np.array_equal(a.lead_off, b.lead_off)
            and a.sample_rate == b.sample_rate)


def test_noise_free_is_deterministic():
    a = synthesize(SynthConfig(seed=None))
    b = synthesize(SynthConfig(seed=None))
    assert same_recording(a, b)


def test_seeded_noise_is_deterministic():
    cfg = SynthConfig(noise_std=20.0, seed=42)
    assert same_recording(synthesize(cfg), synthesize(cfg))
    other = SynthConfig(noise_std=20.0, seed=43)
    assert not same_recording(synthesize(other), synthesize(cfg))


def test_codes_stay_in_adc_range():
    cfg = SynthConfig(noise_std=80.0, seed=1, adc_bits=10)
    codes = synthesize(cfg).codes
    assert codes.min() >= 0
    assert codes.max() <= 1023


def test_lead_off_pins_rail_high():
    cfg = SynthConfig(duration=4.0, lead_off_intervals=((1.0, 2.0),))
    rec = synthesize(cfg)
    t = np.arange(len(rec)) / rec.sample_rate
    inside = (t >= 1.0) & (t < 2.0)
    assert inside.any()
    assert rec.lead_off[inside].all() and (rec.codes[inside] == 1023).all()
    assert not rec.lead_off[~inside].any()


def test_lead_off_boundaries_half_open():
    cfg = SynthConfig(sample_rate=250, duration=4.0, lead_off_intervals=((1.0, 2.0),))
    rec = synthesize(cfg)
    assert not rec.lead_off[249]   # 0.996 s
    assert rec.lead_off[250]       # 1.0 s
    assert rec.lead_off[499]       # 1.996 s
    assert not rec.lead_off[500]   # 2.0 s


def test_slice_is_a_shorter_recording():
    cfg = SynthConfig(sample_rate=500, duration=4.0, lead_off_intervals=((1.0, 2.0),))
    rec = synthesize(cfg)
    head = rec[:800]
    assert len(head) == 800 and head.sample_rate == 500
    assert np.array_equal(head.codes, rec.codes[:800])
    assert np.array_equal(head.lead_off, rec.lead_off[:800])


def test_suppressed_wave_changes_nothing_else():
    flat_p = BeatTemplate(
        p=Wave(0.0, -0.20, 0.025),
        q=DEFAULT_TEMPLATE.q,
        r=DEFAULT_TEMPLATE.r,
        s=DEFAULT_TEMPLATE.s,
        t=DEFAULT_TEMPLATE.t,
    )
    base = synthesize(SynthConfig()).codes
    nop = synthesize(SynthConfig(), flat_p).codes
    # the two only differ around the P windows, and there nop <= base
    assert (nop <= base).all()
    assert (nop < base).any()


# ------------------------------------------------- reference synthesis

def reference_synthesize(config, template=DEFAULT_TEMPLATE):
    """Every wave of every beat evaluated over the whole record, kept as the
    reference the windowed `synthesize` must match bit for bit.  Returns
    the analog millivolts handed to the quantizer and the recording."""
    n = int(math.floor(config.sample_rate * config.duration + 1e-9))
    t = np.arange(n) / config.sample_rate
    shape = np.zeros(n)
    for c in synth._beat_centers(config.heart_rate, config.duration):
        for w in template.waves():
            if w.amplitude == 0.0:
                continue
            shape += w.amplitude * np.exp(-((t - c - w.center) ** 2) / (2.0 * w.sigma ** 2))
    mv = config.baseline + config.gain * shape
    if config.noise_std > 0:
        mv = mv + np.random.default_rng(config.seed).normal(0.0, config.noise_std, n)
    codes = quantize(mv, config.adc_reference, config.adc_bits)
    lead_off = np.zeros(n, dtype=bool)
    for start, end in config.lead_off_intervals:
        lead_off |= (t >= start) & (t < end)
    codes[lead_off] = (1 << config.adc_bits) - 1
    return mv, synth.Recording(codes, lead_off, config.sample_rate)


def synthesize_with_analog(config, template=DEFAULT_TEMPLATE):
    """`synthesize`, plus the millivolts it handed to the quantizer."""
    seen = []

    def spy(voltage, adc_reference, adc_bits):
        seen.append(np.array(voltage))
        return quantize(voltage, adc_reference, adc_bits)

    with mock.patch.object(synth, "quantize", spy):
        rec = synthesize(config, template)
    (mv,) = seen
    return mv, rec


@st.composite
def synth_cases(draw):
    """A capture over the ranges a device meets, with every wave's width
    scaled, so supports run from under a sample to many beats wide."""
    duration = draw(st.floats(3.0, 64.0))
    starts = draw(st.lists(st.floats(0.0, duration), max_size=3))
    config = SynthConfig(
        sample_rate=draw(st.integers(100, 1000)),
        heart_rate=draw(st.floats(20.0, 250.0)),
        duration=duration,
        # at a zero baseline the analog values keep every bit of the waves' sum
        baseline=draw(st.sampled_from([0.0, 1650.0])),
        noise_std=draw(st.sampled_from([0.0, draw(st.floats(0.0, 160.0))])),
        lead_off_intervals=tuple((s, s + draw(st.floats(0.0, 4.0))) for s in starts),
        seed=draw(st.integers(0, 2**31 - 1)),
    )
    widen = draw(st.floats(0.05, 20.0))
    template = BeatTemplate(*(w._replace(sigma=w.sigma * widen) for w in DEFAULT_TEMPLATE.waves()))
    return config, template


@settings(max_examples=40, deadline=None)
@given(synth_cases())
def test_synthesize_matches_whole_record_reference(case):
    config, template = case
    want_mv, want = reference_synthesize(config, template)
    got_mv, got = synthesize_with_analog(config, template)
    assert np.array_equal(got_mv, want_mv)
    assert same_recording(got, want)


def test_synthesize_matches_reference_at_the_edges():
    # Supports that cross both ends of the record, a support narrower than
    # one sample, and at 20 bpm a first P wave whose last nonzero values
    # (under 1e-300 mV) fall on samples no other wave reaches.
    wide = BeatTemplate(*(w._replace(sigma=w.sigma * 30) for w in DEFAULT_TEMPLATE.waves()))
    narrow = BeatTemplate(*(w._replace(sigma=1e-5) for w in DEFAULT_TEMPLATE.waves()))
    for template in (wide, narrow, DEFAULT_TEMPLATE):
        for rate in (100, 1000):
            for config in (SynthConfig(sample_rate=rate, heart_rate=250.0, duration=3.0),
                           SynthConfig(sample_rate=rate, heart_rate=20.0, duration=6.0, baseline=0.0)):
                want_mv, want = reference_synthesize(config, template)
                got_mv, got = synthesize_with_analog(config, template)
                assert np.array_equal(got_mv, want_mv), (template, config)
                assert same_recording(got, want)


def test_synthesize_evaluates_each_wave_once(monkeypatch):
    # all beats of a 62 s capture take one exp per wave, and none for a flat wave
    calls = []
    exp = np.exp

    def counting(*args, **kwargs):
        calls.append(1)
        return exp(*args, **kwargs)

    monkeypatch.setattr(np, "exp", counting)
    config = SynthConfig(heart_rate=40.0, duration=62.0)
    synthesize(config)
    assert 1 <= len(calls) <= 5
    calls.clear()
    no_p_or_t = BeatTemplate(*(w._replace(amplitude=0.0) if name in "pt" else w
                               for name, w in zip("pqrst", DEFAULT_TEMPLATE.waves())))
    synthesize(config, no_p_or_t)
    assert 1 <= len(calls) <= 3


# ------------------------------------------------------------- pulse events

def test_pulse_events_60bpm_20s():
    events = pulse_events(SynthConfig(heart_rate=60.0, duration=20.0))
    assert events == [float(k) for k in range(20)]


def test_pulse_events_zero_duration():
    assert pulse_events(SynthConfig(duration=0.0)) == []


def test_pulse_events_lead_off_swallowed():
    cfg = SynthConfig(heart_rate=60.0, duration=20.0, lead_off_intervals=((5.0, 10.0),))
    events = pulse_events(cfg)
    assert len(events) == 15
    assert all(not (5.0 <= ts < 10.0) for ts in events)


def test_pulse_event_count_tracks_rate():
    for hr, duration in [(48.0, 12.5), (72.0, 10.0), (95.0, 33.0), (140.0, 7.0)]:
        events = pulse_events(SynthConfig(heart_rate=hr, duration=duration))
        assert len(events) == math.ceil(duration * hr / 60.0 - 1e-9), (hr, duration)


# ------------------------------------------------------------- validation

@pytest.mark.parametrize("kwargs,field", [
    ({"sample_rate": 50}, "sample_rate"),
    ({"heart_rate": 10.0}, "heart_rate"),
    ({"heart_rate": 400.0}, "heart_rate"),
    ({"duration": -1.0}, "duration"),
    ({"noise_std": -0.5}, "noise_std"),
    ({"adc_reference": 0.0}, "adc_reference"),
    ({"adc_bits": 4}, "adc_bits"),
    ({"adc_bits": 24}, "adc_bits"),
    ({"gain": 0.0}, "gain"),
    ({"lead_off_intervals": ((3.0, 1.0),)}, "lead_off_intervals"),
    *(({name: bad}, name)
      for name in ("heart_rate", "duration", "baseline", "noise_std", "adc_reference", "gain")
      for bad in (math.nan, math.inf, -math.inf)),
    ({"lead_off_intervals": ((math.nan, 1.0),)}, "lead_off_intervals"),
    ({"lead_off_intervals": ((1.0, math.nan),)}, "lead_off_intervals"),
    ({"lead_off_intervals": ((1.0, math.inf),)}, "lead_off_intervals"),
    ({"sample_rate": synth.MAX_SAMPLE_RATE + 1}, "sample_rate"),
    ({"sample_rate": 10**9}, "sample_rate"),
    ({"duration": synth.MAX_DURATION_S + 0.001}, "duration"),
    ({"duration": 1e12}, "duration"),
])
def test_config_errors_name_the_field(kwargs, field):
    with pytest.raises(ConfigError, match=field):
        SynthConfig(**kwargs).validate()


def test_template_rejects_bad_ordering():
    bad = BeatTemplate(
        p=Wave(0.15, 0.10, 0.025),  # P after R
        q=DEFAULT_TEMPLATE.q,
        r=DEFAULT_TEMPLATE.r,
        s=DEFAULT_TEMPLATE.s,
        t=DEFAULT_TEMPLATE.t,
    )
    with pytest.raises(ConfigError):
        bad.validate()


def test_template_rejects_nonpositive_sigma():
    bad = BeatTemplate(
        p=DEFAULT_TEMPLATE.p,
        q=DEFAULT_TEMPLATE.q,
        r=Wave(1.0, 0.0, 0.0),
        s=DEFAULT_TEMPLATE.s,
        t=DEFAULT_TEMPLATE.t,
    )
    with pytest.raises(ConfigError):
        bad.validate()


@pytest.mark.parametrize("wave", "pqrst")
@pytest.mark.parametrize("attr", Wave._fields)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_template_rejects_non_finite_values(wave, attr, bad):
    w = getattr(DEFAULT_TEMPLATE, wave)
    template = BeatTemplate(**{**dict(zip("pqrst", DEFAULT_TEMPLATE.waves())),
                               wave: w._replace(**{attr: bad})})
    with pytest.raises(ConfigError, match=f"template.{wave}.{attr}"):
        template.validate()
    with pytest.raises(ConfigError):
        synthesize(SynthConfig(duration=3.0), template)


def test_non_finite_config_never_reaches_the_quantizer():
    for config in (SynthConfig(baseline=math.nan), SynthConfig(duration=math.inf),
                   SynthConfig(duration=math.nan)):
        with pytest.raises(ConfigError):
            synthesize(config)


def test_default_template_is_valid():
    DEFAULT_TEMPLATE.validate()
    assert DEFAULT_TEMPLATE.r.center == 0.0
    assert DEFAULT_TEMPLATE.r.amplitude == 1.0
