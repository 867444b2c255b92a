"""Tests for the signal generator: quantizer arithmetic, beat placement,
lead-off handling, and the pulse event stream.
"""

import math

import numpy as np
import pytest

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


def test_default_template_is_valid():
    DEFAULT_TEMPLATE.validate()
    assert DEFAULT_TEMPLATE.r.center == 0.0
    assert DEFAULT_TEMPLATE.r.amplitude == 1.0
