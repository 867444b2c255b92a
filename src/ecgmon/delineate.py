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
from numpy.lib.stride_tricks import sliding_window_view

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
    head = min(window - 1, n)   # the samples whose window is cut by the start
    cs = np.concatenate(([0.0], np.cumsum(x)))
    cs2 = np.concatenate(([0.0], np.cumsum(x * x)))
    cnt = np.minimum(np.arange(1, n + 1), window)
    mean = (cs[1:] - np.concatenate((np.zeros(head), cs[:n - head]))) / cnt
    var = np.maximum(0.0, (cs2[1:] - np.concatenate((np.zeros(head), cs2[:n - head]))) / cnt
                     - mean * mean)
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
        keep = np.flatnonzero(~recording.lead_off)
        # lead-on samples before each index, so a prefix's count is one lookup
        self._lead_on = np.concatenate(([0], np.cumsum(~recording.lead_off)))
        x = recording.codes[keep].astype(float)
        thr = _trailing_threshold(x, int(THRESHOLD_WINDOW_S * self._rate))
        mid = x[1:-1]
        candidates = np.flatnonzero((mid >= x[:-2]) & (mid > x[2:]) & (mid > thr[1:-1])) + 1
        self._candidates = candidates.tolist()  # lead-on indices
        self._heights = x[candidates].tolist()
        # Each candidate's R in the recording, the end of its analysis span
        # and the first lead-off sample from the span's start on (or the
        # record's length): the beat is clean at a read at `end` when that
        # sample lies at or past min(end, span end).
        r = keep[candidates]
        lead_offs = np.append(np.flatnonzero(recording.lead_off), len(recording))
        first_off = lead_offs[np.searchsorted(
            lead_offs, np.maximum(0, r + _ms_to_samples(P_WINDOW[0], self._rate)))]
        span_end = r + _ms_to_samples(T_WINDOW[1], self._rate) + 1
        self._spans = list(zip(r.tolist(), span_end.tolist(), first_off.tolist()))
        self._refractory = _ms_to_samples(REFRACTORY_MS, self._rate)
        self._merged = 0     # candidates consumed so far
        self._peaks: list[int] = []  # the merged peaks, as candidate numbers
        self._settled = 0    # leading peaks whose lead-off verdict is final
        self._clean: list[int] = []  # the clean ones among them, as R indices
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
        at, heights, peaks = self._candidates, self._heights, self._peaks
        # Candidates closer than the refractory period merge into the larger.
        # Each merge compares with the peak kept so far, so this stays a loop.
        for j in range(self._merged, stop):
            if peaks and at[j] - at[peaks[-1]] < self._refractory:
                if heights[j] > heights[peaks[-1]]:
                    peaks[-1] = j
            else:
                peaks.append(j)
        self._merged = stop

        # Drop a beat whose analysis span meets a lead-off sample before end.
        # Only the last peak can still be merged away, so every other peak
        # whose span ends by `end` has its final verdict: those are kept, and
        # each read checks only the peaks after them.
        while self._settled < len(peaks) - 1:
            r, span_end, first_off = self._spans[peaks[self._settled]]
            if span_end > end:
                break
            if first_off >= span_end:
                self._clean.append(r)
            self._settled += 1
        spans = (self._spans[j] for j in peaks[self._settled:])
        return self._clean + [r for r, span_end, first_off in spans
                              if first_off >= min(end, span_end)]


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
    r = np.asarray(r_indices, dtype=np.intp)
    base, floor = _baselines_and_floors(
        codes,
        np.maximum(0, r + _ms_to_samples(P_WINDOW[0], sample_rate)),
        np.minimum(n, r + _ms_to_samples(T_WINDOW[1], sample_rate) + 1),
    )
    columns = [r.tolist()]
    for (a, b), sign in ((P_WINDOW, +1), (Q_WINDOW, -1), (S_WINDOW, -1), (T_WINDOW, +1)):
        lo = r + _ms_to_samples(a, sample_rate) + 1
        width = _ms_to_samples(b, sample_rate) - _ms_to_samples(a, sample_rate) - 1
        inside = (lo >= 0) & (lo + width <= n) & (width >= 1)
        index, valid = np.zeros(len(r), dtype=np.intp), inside
        if inside.any():
            # every beat's window as one row; argmax and argmin take the first
            # extremum, and a beat whose window leaves the record reads row 0
            start = np.where(inside, lo, 0)
            rows = sliding_window_view(codes, width)[start]
            index = (rows.argmax(axis=1) if sign > 0 else rows.argmin(axis=1)) + start
            valid = inside & ((codes[index] - base) * sign > floor)
        columns.append([i if ok else None for i, ok in zip(index.tolist(), inside.tolist())])
        columns.append(valid.tolist())
    return [BeatAnnotation(ri, pi, qi, si, ti, pv, qv, True, sv, tv)
            for ri, pi, pv, qi, qv, si, sv, ti, tv in zip(*columns)]


def _baselines_and_floors(codes: np.ndarray, lo: np.ndarray,
                          hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Baseline and noise floor of each segment codes[lo[i]:hi[i]].

    A segment splits into full chunks of max(1, len // 8) samples; the
    first chunk with the smallest std is the quietest, its median is the
    baseline and 3x its std (at least 1.0) the floor.  An empty segment
    gets (0.0, inf).  Segments of one length, all but the beats at the
    record edges, are reduced together as one (segments x chunks x chunk)
    block.
    """
    lengths = hi - lo
    base = np.zeros(len(lo))
    floor = np.full(len(lo), np.inf)
    for length in np.unique(lengths[lengths > 0]).tolist():
        chunk = max(1, length // 8)
        k = length // chunk
        at = np.flatnonzero(lengths == length)
        chunks = sliding_window_view(codes, k * chunk)[lo[at]].reshape(len(at), k, chunk)
        stds = chunks.std(axis=2)
        j = stds.argmin(axis=1)  # the first quietest chunk wins a tie
        rows = np.arange(len(at))
        base[at] = np.median(chunks[rows, j], axis=1)
        floor[at] = np.maximum(3.0 * stds[rows, j], 1.0)
    return base, floor


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
