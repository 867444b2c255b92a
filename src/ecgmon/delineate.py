"""R-peak detection, PQRST delineation and per-wave scoring.

Detection is threshold based: a sample is a beat candidate when it is a
local maximum above mean + 2*std of the trailing two seconds of signal,
and candidates closer than the refractory period are merged keeping the
larger one.  Around each R peak the four remaining waves are searched in
fixed clinical windows and declared valid when they deflect from the
local baseline, in the expected direction, by more than the noise floor.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from typing import Optional, Sequence

import numpy as np

from .synth import Recording

__all__ = [
    "BeatAnnotation",
    "WaveScores",
    "InsufficientDataError",
    "NoBeatsError",
    "RPeakDetector",
    "detect_r_peaks",
    "annotate_beats",
    "score_waves",
    "render_score",
]

# Search windows around R, milliseconds. Open intervals, endpoint excluded.
Q_WINDOW = (-80, 0)
S_WINDOW = (0, 80)
P_WINDOW = (-240, -80)
T_WINDOW = (80, 400)

REFRACTORY_MS = 200
THRESHOLD_WINDOW_S = 2.0


class InsufficientDataError(ValueError):
    """Less signal than the adaptive threshold needs (2 s)."""


class NoBeatsError(ValueError):
    """Scoring requested for an empty annotation list."""


@dataclass(frozen=True)
class BeatAnnotation:
    """Fiducial indices and validity flags for one detected beat.

    The R index is always present and trusted (beats are anchored on the
    detected R); the other indices are extremum positions inside their
    search windows, or None when the window falls off the record.
    """

    r_index: int
    p_index: Optional[int] = None
    q_index: Optional[int] = None
    s_index: Optional[int] = None
    t_index: Optional[int] = None
    p_valid: bool = False
    q_valid: bool = False
    r_valid: bool = True
    s_valid: bool = False
    t_valid: bool = False


@dataclass(frozen=True)
class WaveScores:
    """Per-wave detection percentages, rounded half-up to 2 decimals."""

    p: float
    q: float
    r: float
    s: float
    t: float

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.p, self.q, self.r, self.s, self.t)


def _trailing_threshold(x: np.ndarray, window: int) -> np.ndarray:
    # mean + 2*std over the trailing `window` samples, truncated at the
    # start of the record; cumulative sums keep it O(n).
    n = len(x)
    cs = np.concatenate(([0.0], np.cumsum(x)))
    cs2 = np.concatenate(([0.0], np.cumsum(x * x)))
    idx = np.arange(n)
    lo = np.maximum(0, idx - window + 1)
    cnt = idx + 1 - lo
    mean = (cs[idx + 1] - cs[lo]) / cnt
    var = np.maximum(0.0, (cs2[idx + 1] - cs2[lo]) / cnt - mean * mean)
    return mean + 2.0 * np.sqrt(var)


class RPeakDetector:
    """One causal R-detection pass over a recording, read at growing ends.

    `peaks(end)` returns exactly what `detect_r_peaks(recording[:end])`
    would: the threshold is causal (cumulative sums accumulate in order), a
    candidate at lead-on index i needs only the sample after it, and the
    refractory merge is an online loop.  So the candidates are found once
    over the whole recording, and each read merges only those its new
    samples settle.  Reads must not go back to an earlier end.
    """

    def __init__(self, recording: Recording):
        self._rate = recording.sample_rate
        self._keep = np.flatnonzero(~recording.lead_off)
        # lead-on samples before each index, so a prefix's count is one lookup
        self._lead_on = np.concatenate(([0], np.cumsum(~recording.lead_off)))
        x = self._x = recording.codes[self._keep].astype(float)
        thr = _trailing_threshold(x, int(THRESHOLD_WINDOW_S * self._rate))
        mid = x[1:-1]
        self._candidates = (
            np.flatnonzero((mid >= x[:-2]) & (mid > x[2:]) & (mid > thr[1:-1])) + 1
        ).tolist()
        self._merged = 0     # candidates consumed so far
        self._peaks: list[int] = []
        self._end = 0

    def peaks(self, end: int) -> list[int]:
        """Indices of R peaks in `recording[:end]`."""
        if end < self._end:
            raise ValueError(f"read at {end} after a read at {self._end}")
        self._end = end
        m = int(self._lead_on[end])
        if m < THRESHOLD_WINDOW_S * self._rate:
            raise InsufficientDataError(
                f"need at least {THRESHOLD_WINDOW_S:g} s of signal, got {m / self._rate:g} s"
            )

        # A candidate at i is settled once x[i + 1] is read, so up to m - 2.
        stop = bisect.bisect_right(self._candidates, m - 2)
        refractory = int(round(REFRACTORY_MS / 1000.0 * self._rate))
        x, peaks = self._x, self._peaks
        # Candidates closer than the refractory period merge into the larger.
        # Each merge compares with the peak kept so far, so this stays a loop.
        for i in self._candidates[self._merged:stop]:
            if peaks and i - peaks[-1] < refractory:
                if x[i] > x[peaks[-1]]:
                    peaks[-1] = i
            else:
                peaks.append(i)
        self._merged = stop

        # Drop a beat whose analysis span meets a lead-off sample before end.
        r = self._keep[np.asarray(peaks, dtype=np.intp)]
        lo = np.maximum(0, r + _ms_to_samples(P_WINDOW[0], self._rate))
        hi = np.minimum(end, r + _ms_to_samples(T_WINDOW[1], self._rate) + 1)
        clean = self._lead_on[hi] - self._lead_on[lo] == hi - lo
        return r[clean].tolist()


def detect_r_peaks(recording: Recording) -> list[int]:
    """Indices of R peaks in the recording.

    Lead-off samples are cut out before thresholding; returned indices
    refer to positions in the recording, and a beat whose analysis
    windows would overlap a removed region is dropped entirely.
    """
    return RPeakDetector(recording).peaks(len(recording))


def _ms_to_samples(ms: int, sample_rate: int) -> int:
    return int(round(ms / 1000.0 * sample_rate))


def annotate_beats(recording: Recording, r_indices: Sequence[int]) -> list[BeatAnnotation]:
    """Locate P, Q, S and T around each detected R and judge validity.

    Q and S are the window minima, P and T the window maxima.  The local
    baseline and noise floor come from the quietest eighth of the beat's
    own span: baseline is its median, the floor is 3x its std (at least
    one code, so quantization flicker never validates a flat wave).  A
    wave is valid when its window lies fully inside the record and its
    extremum deviates from the baseline, in the expected direction, by
    more than the floor.
    """
    codes = recording.codes.astype(float)
    sample_rate = recording.sample_rate
    n = len(codes)
    span_lo = _ms_to_samples(P_WINDOW[0], sample_rate)
    span_hi = _ms_to_samples(T_WINDOW[1], sample_rate)

    annotations = []
    for r in r_indices:
        seg = codes[max(0, r + span_lo):min(n, r + span_hi + 1)]
        base, floor = _baseline_and_floor(seg)
        fields: dict = {"r_index": int(r)}
        for wave, (a, b), sign in (
            ("p", P_WINDOW, +1),
            ("q", Q_WINDOW, -1),
            ("s", S_WINDOW, -1),
            ("t", T_WINDOW, +1),
        ):
            lo = r + _ms_to_samples(a, sample_rate) + 1
            hi = r + _ms_to_samples(b, sample_rate)  # exclusive
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


def _baseline_and_floor(seg: np.ndarray) -> tuple[float, float]:
    chunk = max(1, len(seg) // 8)
    k = len(seg) // chunk
    if k == 0:  # empty segment, degenerate beat at the very edge
        return 0.0, float("inf")
    stds = seg[:k * chunk].reshape(k, chunk).std(axis=1)
    j = int(np.argmin(stds))  # the first quietest chunk wins a tie
    quiet_median = float(np.median(seg[j * chunk:(j + 1) * chunk]))
    return quiet_median, max(3.0 * float(stds[j]), 1.0)


def _ratio_score(valid: int, total: int) -> float:
    pct = Decimal(100 * valid) / Decimal(total)
    return float(pct.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def score_waves(annotations: Sequence[BeatAnnotation]) -> WaveScores:
    """Percentage of beats with a valid instance of each wave."""
    total = len(annotations)
    if total == 0:
        raise NoBeatsError("cannot score an empty annotation list")
    return WaveScores(
        p=_ratio_score(sum(a.p_valid for a in annotations), total),
        q=_ratio_score(sum(a.q_valid for a in annotations), total),
        r=_ratio_score(sum(a.r_valid for a in annotations), total),
        s=_ratio_score(sum(a.s_valid for a in annotations), total),
        t=_ratio_score(sum(a.t_valid for a in annotations), total),
    )


def render_score(value: float) -> str:
    """Render a score with up to 2 decimals, trailing zeros trimmed.

    91.60 -> "91.6", 100.00 -> "100", 76.19 -> "76.19".
    """
    text = f"{value:.2f}"
    return text.rstrip("0").rstrip(".")
