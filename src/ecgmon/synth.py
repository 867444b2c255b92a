"""Synthetic ECG and pulse generation.

Stands in for the analog front end of a wearable monitor: each heartbeat
is modelled as a sum of five Gaussian bumps (P, Q, R, S, T), repeated at
the beat period, amplified onto a mid-rail baseline, optionally corrupted
with Gaussian noise, and quantized by an ideal ADC.  A separate event
stream mimics the optical pulse counter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "Wave",
    "BeatTemplate",
    "SynthConfig",
    "Recording",
    "ConfigError",
    "DEFAULT_TEMPLATE",
    "MAX_SAMPLE_RATE",
    "MAX_DURATION_S",
    "quantize",
    "synthesize",
    "pulse_events",
]


class ConfigError(ValueError):
    """Raised when a synthesis configuration violates an invariant."""


class Wave(NamedTuple):
    """One Gaussian component of the beat: a*exp(-(t-mu)^2 / (2*sigma^2))."""

    amplitude: float  # millivolts, sign carries wave polarity
    center: float     # seconds, offset from the R peak
    sigma: float      # seconds, width


@dataclass(frozen=True)
class BeatTemplate:
    """Morphology of a single heartbeat as five Gaussian waves.

    Centers are offsets from the R peak (R itself sits at 0) and must be
    ordered P < Q < R < S < T.  P, R and T deflect upward (amplitude >= 0),
    Q and S downward (amplitude <= 0).
    """

    p: Wave
    q: Wave
    r: Wave
    s: Wave
    t: Wave

    def waves(self) -> tuple[Wave, ...]:
        return (self.p, self.q, self.r, self.s, self.t)

    def validate(self) -> None:
        for name, w in zip("pqrst", self.waves()):
            for attr, value in zip(w._fields, w):
                if not math.isfinite(value):
                    raise ConfigError(f"template.{name}.{attr}: must be finite")
        centers = [w.center for w in self.waves()]
        if not (centers[0] < centers[1] < centers[2] == 0.0 < centers[3] < centers[4]):
            raise ConfigError("template: wave centers must satisfy P < Q < R=0 < S < T")
        for name, w in zip("pqrst", self.waves()):
            if w.sigma <= 0:
                raise ConfigError(f"template.{name}: sigma must be > 0")
        for name in ("q", "s"):
            if getattr(self, name).amplitude > 0:
                raise ConfigError(f"template.{name}: amplitude must be <= 0")
        for name in ("p", "r", "t"):
            if getattr(self, name).amplitude < 0:
                raise ConfigError(f"template.{name}: amplitude must be >= 0")


#: Conventional textbook magnitudes for an adult lead-II beat.
DEFAULT_TEMPLATE = BeatTemplate(
    p=Wave(0.15, -0.20, 0.025),
    q=Wave(-0.10, -0.040, 0.010),
    r=Wave(1.00, 0.0, 0.012),
    s=Wave(-0.20, 0.040, 0.010),
    t=Wave(0.30, 0.25, 0.045),
)

# exp(-z) rounds to exactly 0.0 for z > ~745.13, that is beyond
# sqrt(2 * 745.13) ~ 38.6 sigma of a wave's centre; sqrt(1492) adds a margin.
_SUPPORT_SIGMAS = math.sqrt(1492.0)

# Waves are evaluated in blocks of at most this many samples (2 MiB of float64).
_BLOCK_ELEMENTS = 1 << 18

# Upper bounds of a capture: 600 s at 2000 Hz is 1.2 million samples, so a
# recording's columns stay within tens of megabytes.
MAX_SAMPLE_RATE = 2000
MAX_DURATION_S = 600.0

# The last beat of a record keeps this much signal after its R peak so the
# full T wave (center 0.25 s plus ~3 sigma) stays inside the record.
_POST_BEAT_MARGIN = 0.45


@dataclass(frozen=True)
class SynthConfig:
    """Parameters of one synthesis run.

    The front-end gain maps template millivolts to ADC-input millivolts the
    way an instrumentation amplifier would; with the defaults a 1 mV R wave
    lands around 450 counts above the mid-rail baseline.
    """

    sample_rate: int = 250        # samples per second
    heart_rate: float = 72.0      # beats per minute
    duration: float = 10.0        # seconds
    baseline: float = 1650.0      # millivolts at the ADC input (mid-rail)
    noise_std: float = 0.0        # millivolts, post-gain additive noise
    adc_reference: float = 5.0    # volts
    adc_bits: int = 10
    gain: float = 1100.0          # amplifier gain applied to the template
    lead_off_intervals: tuple[tuple[float, float], ...] = ()
    seed: int | None = None       # noise generator seed, None for fresh entropy

    def validate(self) -> None:
        for name in ("heart_rate", "duration", "baseline", "noise_std", "adc_reference", "gain"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name}: must be finite")
        if not 100 <= self.sample_rate <= MAX_SAMPLE_RATE:
            raise ConfigError(f"sample_rate: must be within [100, {MAX_SAMPLE_RATE}]")
        if not 20 <= self.heart_rate <= 250:
            raise ConfigError("heart_rate: must be within [20, 250]")
        if not 0 <= self.duration <= MAX_DURATION_S:
            raise ConfigError(f"duration: must be within [0, {MAX_DURATION_S:g}]")
        if self.noise_std < 0:
            raise ConfigError("noise_std: must be >= 0")
        if self.adc_reference <= 0:
            raise ConfigError("adc_reference: must be > 0")
        if not 8 <= self.adc_bits <= 16:
            raise ConfigError("adc_bits: must be within [8, 16]")
        if self.gain <= 0:
            raise ConfigError("gain: must be > 0")
        for iv in self.lead_off_intervals:
            if len(iv) != 2 or not all(map(math.isfinite, iv)) or not 0 <= iv[0] <= iv[1]:
                raise ConfigError("lead_off_intervals: each entry must be [start, end) with finite 0 <= start <= end")


@dataclass(frozen=True, eq=False)
class Recording:
    """A quantized capture held as columns.

    Sample i was read i / sample_rate seconds into the session: `codes[i]`
    is its ADC code (int64) and `lead_off[i]` (bool) marks an electrode that
    was off.  Slicing gives a shorter recording over views of the columns.
    Recordings compare by identity; compare their columns with numpy.
    """

    codes: np.ndarray
    lead_off: np.ndarray
    sample_rate: int

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, index: slice) -> "Recording":
        return Recording(self.codes[index], self.lead_off[index], self.sample_rate)


def quantize(voltage, adc_reference: float, adc_bits: int):
    """Quantize a voltage (millivolts) to an ADC code.

    code = clamp(floor(voltage / 1000 / adc_reference * 2**bits),
                 0, 2**bits - 1)

    Accepts a scalar or an ndarray; clamping absorbs out-of-range inputs,
    so the mapping is total and monotone non-decreasing.
    """
    full_scale = 1 << adc_bits
    code = np.floor(np.asarray(voltage, dtype=float) / 1000.0 / adc_reference * full_scale)
    code = np.clip(code, 0, full_scale - 1).astype(np.int64)
    if code.ndim == 0:
        return int(code)
    return code


def _beat_centers(heart_rate: float, duration: float) -> list[float]:
    # Beats are phased half a period into the record so the first P wave
    # and the last T wave both fit inside it.
    period = 60.0 / heart_rate
    centers = []
    c = period / 2.0
    while c + _POST_BEAT_MARGIN <= duration + 1e-12:
        centers.append(c)
        c += period
    return centers


def _beats_shape(t: np.ndarray, sample_rate: int, centers: np.ndarray,
                 template: BeatTemplate) -> np.ndarray:
    # The sum of every wave of every beat at the times t.  Outside its
    # support a wave adds exactly 0.0, so each wave is evaluated only from
    # one sample before its support in a beat to one sample after it, all
    # beats at once as the rows of one (beats x width) block with a shared
    # width; a row runs past its own support or the record end only where
    # it adds +-0.0 or is cut off.  The rows are added in (beat, wave) order,
    # the order of the sum over the whole record, so each sample keeps its
    # bits.  Beats go in groups so that a block stays under _BLOCK_ELEMENTS.
    n = len(t)
    spans = []
    for w in template.waves():
        if w.amplitude == 0.0:
            continue
        reach = _SUPPORT_SIGMAS * w.sigma
        mu = centers + w.center
        lo = np.maximum(np.searchsorted(t, mu - reach) - 1, 0)
        hi = np.minimum(np.searchsorted(t, mu + reach, side="right") + 1, n)
        spans.append((w, lo, int((hi - lo).max(initial=1))))
    if not spans or not len(centers):
        return np.zeros(n)
    shape = np.zeros(n + max(width for _, _, width in spans))
    t_pad = np.arange(len(shape)) / sample_rate
    step = max(1, _BLOCK_ELEMENTS // sum(width for _, _, width in spans))
    for first in range(0, len(centers), step):
        beats = slice(first, first + step)
        blocks = []
        for w, lo, width in spans:
            # w.amplitude * exp(-((t - c - w.center) ** 2) / (2 * w.sigma ** 2)),
            # worked in place on the one block
            x = sliding_window_view(t_pad, width)[lo[beats]]
            x -= centers[beats, None]
            x -= w.center
            np.square(x, out=x)
            np.negative(x, out=x)
            x /= 2.0 * w.sigma ** 2
            np.exp(x, out=x)
            x *= w.amplitude
            blocks.append(zip(lo[beats].tolist(), x))
        for beat in zip(*blocks):
            for lo, row in beat:
                shape[lo:lo + len(row)] += row
    return shape[:n]


def synthesize(config: SynthConfig, template: BeatTemplate = DEFAULT_TEMPLATE) -> Recording:
    """Generate floor(sample_rate * duration) quantized ECG samples.

    Returns one Recording: `codes` (int64) and `lead_off` (bool) columns of
    that length, and the config's `sample_rate`, so no consumer takes the
    rate separately.  The analog signal is baseline + gain * sum of beat
    Gaussians plus Gaussian noise; samples falling inside a lead-off
    interval are pinned to the rail-high code and flagged.
    """
    config.validate()
    template.validate()
    n = int(math.floor(config.sample_rate * config.duration + 1e-9))
    t = np.arange(n) / config.sample_rate
    shape = _beats_shape(t, config.sample_rate,
                         np.array(_beat_centers(config.heart_rate, config.duration)), template)
    mv = config.baseline + config.gain * shape
    if config.noise_std > 0:
        rng = np.random.default_rng(config.seed)
        mv = mv + rng.normal(0.0, config.noise_std, n)
    codes = quantize(mv, config.adc_reference, config.adc_bits)

    lead_off = np.zeros(n, dtype=bool)
    for start, end in config.lead_off_intervals:
        lead_off |= (t >= start) & (t < end)
    rail = (1 << config.adc_bits) - 1
    codes[lead_off] = rail

    return Recording(codes, lead_off, config.sample_rate)


def pulse_events(config: SynthConfig) -> list[float]:
    """Beat timestamps as seen by the pulse counter.

    Events fall at k * (60 / heart_rate) for k = 0, 1, ... strictly below
    duration; events inside a lead-off interval are swallowed (no optical
    return, no count).
    """
    config.validate()
    period = 60.0 / config.heart_rate
    events = []
    k = 0
    while True:
        ts = k * period
        if ts >= config.duration:
            break
        if not _in_lead_off(ts, config.lead_off_intervals):
            events.append(ts)
        k += 1
    return events


def _in_lead_off(ts: float, intervals: Sequence[tuple[float, float]]) -> bool:
    return any(start <= ts < end for start, end in intervals)
