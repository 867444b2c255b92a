"""Descriptive statistics, outlier flagging, correlation structure and
quality classification over a score dataset.

Conventions are pinned down where library defaults diverge: quantiles
interpolate linearly at fractional index f*(n-1) over the sorted column,
standard deviation and covariance use the n-1 divisor, and correlations
of a zero-variance column are reported as NaN markers rather than zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .device import PqrstRecord, load_csv

__all__ = [
    "COLUMNS",
    "SCORE_COLUMNS",
    "Dataset",
    "ColumnStats",
    "THETA_EXCELLENT",
    "THETA_ACCEPTABLE",
    "describe",
    "quantile",
    "iqr_outliers",
    "covariance_matrix",
    "correlation_matrix",
    "rank_against",
    "classify_quality",
    "quality_distribution",
]

COLUMNS = ("RecordNo", "Age", "P", "Q", "R", "S", "T")
SCORE_COLUMNS = ("P", "Q", "R", "S", "T")

THETA_EXCELLENT = 96.0
THETA_ACCEPTABLE = 85.0


class Dataset:
    """Ordered rows of (record_no, age, p, q, r, s, t) with column access.

    `rows` is an iterable of 7-value rows, or an (n, 7) array taken as a
    whole with no per-row work.  No rows give an empty (0, 7) dataset.
    """

    def __init__(self, rows: Iterable[Sequence[float]]):
        data = np.array(rows if isinstance(rows, np.ndarray) else [tuple(r) for r in rows],
                        dtype=float)
        if data.shape == (0,):
            data = data.reshape(0, len(COLUMNS))
        if data.ndim != 2 or data.shape[1] != len(COLUMNS):
            raise ValueError(f"rows must have {len(COLUMNS)} values each")
        if len(data) and np.isnan(data).any():
            raise ValueError("dataset must not contain missing values")
        self._data = data

    @classmethod
    def from_records(cls, records: Iterable[PqrstRecord]) -> "Dataset":
        return cls([(r.record_no, r.age, r.p, r.q, r.r, r.s, r.t) for r in records])

    @classmethod
    def from_csv(cls, text: str) -> "Dataset":
        """Parse a score CSV with `device.load_csv`, the device's own format."""
        return cls.from_records(load_csv(text))

    def __len__(self) -> int:
        return len(self._data)

    def column(self, name: str) -> np.ndarray:
        return self._data[:, COLUMNS.index(name)].copy()

    @property
    def rows(self) -> np.ndarray:
        return self._data.copy()

    def row(self, i: int) -> np.ndarray:
        return self._data[i].copy()

    def scores(self) -> np.ndarray:
        """The five wave-score columns as an (n, 5) array."""
        return self._data[:, 2:7].copy()


@dataclass(frozen=True)
class ColumnStats:
    count: int
    mean: float
    std: float
    min: float
    q25: float
    q50: float
    q75: float
    max: float


def quantile(values: Sequence[float], fraction: float) -> float:
    """Quantile by linear interpolation at index fraction*(n-1).

    With the sorted column x_0..x_{n-1} and h = fraction*(n-1), the
    result is x_floor(h) + (h - floor(h)) * (x_floor(h)+1 - x_floor(h)).
    """
    if not 0 <= fraction <= 1:
        raise ValueError("fraction must be within [0, 1]")
    x = np.sort(np.asarray(values, dtype=float))
    if len(x) == 0:
        raise ValueError("quantile of an empty sequence")
    return _sorted_quantile(x, fraction)


def _sorted_quantile(x: np.ndarray, fraction: float) -> float:
    """`quantile` of a column that is already sorted and non-empty."""
    h = fraction * (len(x) - 1)
    lo = int(math.floor(h))
    hi = min(lo + 1, len(x) - 1)
    return float(x[lo] + (h - lo) * (x[hi] - x[lo]))


def _sample_std(x: np.ndarray) -> float:
    n = len(x)
    if n < 2:
        return 0.0  # declared convention for a single observation
    mean = float(x.sum()) / n
    return math.sqrt(float(((x - mean) ** 2).sum()) / (n - 1))


def describe(dataset: Dataset) -> dict[str, ColumnStats]:
    """Per-column count, mean, sample std, min, quartiles, max, by column name."""
    if len(dataset) == 0:
        raise ValueError("cannot describe an empty dataset")
    out = {}
    for name in COLUMNS:
        x = dataset.column(name)
        # one sort serves the quartiles; mean and std sum in row order,
        # since summing the sorted copy would round differently
        xs = np.sort(x)
        out[name] = ColumnStats(
            count=len(x),
            mean=float(x.sum()) / len(x),
            std=_sample_std(x),
            min=float(x.min()),
            q25=_sorted_quantile(xs, 0.25),
            q50=_sorted_quantile(xs, 0.50),
            q75=_sorted_quantile(xs, 0.75),
            max=float(x.max()),
        )
    return out


def iqr_outliers(dataset: Dataset, column: str, k: float = 1.5) -> list[int]:
    """Row indices whose value falls outside quartile +/- k*IQR."""
    x = dataset.column(column)
    if len(x) == 0:
        raise ValueError("quantile of an empty sequence")
    xs = np.sort(x)
    q25 = _sorted_quantile(xs, 0.25)
    q75 = _sorted_quantile(xs, 0.75)
    iqr = q75 - q25
    lo = q25 - k * iqr
    hi = q75 + k * iqr
    return np.flatnonzero((x < lo) | (x > hi)).tolist()


def covariance_matrix(dataset: Dataset) -> np.ndarray:
    """Sample covariance (n-1 divisor) over all seven columns."""
    if len(dataset) < 2:
        raise ValueError("covariance needs at least 2 rows")
    data = dataset.rows
    centered = data - data.mean(axis=0)
    return centered.T @ centered / (len(dataset) - 1)


def correlation_matrix(dataset: Dataset) -> np.ndarray:
    """Pearson correlation; entries touching a zero-variance column are NaN."""
    cov = covariance_matrix(dataset)
    std = np.sqrt(np.diag(cov))
    positive = std > 0
    return np.divide(cov, np.outer(std, std), out=np.full_like(cov, np.nan),
                     where=np.outer(positive, positive))


def rank_against(dataset: Dataset, target: str = "R") -> list[tuple[str, float]]:
    """Physiological columns ordered by correlation with the target.

    Record numbers are bookkeeping, not physiology, so they stay out of
    the ranking; the target itself leads the list with correlation 1.
    Ties keep column order.
    """
    if target not in COLUMNS:
        raise ValueError(f"unknown column {target!r}")
    corr = correlation_matrix(dataset)
    ti = COLUMNS.index(target)
    ranked = [(name, float(corr[COLUMNS.index(name), ti]))
              for name in COLUMNS if name != "RecordNo"]
    ranked.sort(key=lambda item: -item[1])
    return ranked


def _check_thresholds(theta_excellent: float, theta_acceptable: float) -> None:
    if theta_acceptable >= theta_excellent:
        raise ValueError("thresholds must satisfy theta_acceptable < theta_excellent")


def classify_quality(scores: Sequence[float], theta_excellent: float = THETA_EXCELLENT,
                     theta_acceptable: float = THETA_ACCEPTABLE) -> str:
    """Band label from the mean of the five wave scores (P, Q, R, S, T).

    Thresholds are boundary inclusive: a mean exactly at a threshold
    lands in the higher band.
    """
    _check_thresholds(theta_excellent, theta_acceptable)
    if len(scores) != 5:
        raise ValueError("a record carries exactly five wave scores")
    mean = sum(scores) / 5.0
    if mean >= theta_excellent:
        return "Excellent"
    if mean >= theta_acceptable:
        return "Acceptable"
    return "Poor"


def quality_distribution(dataset: Dataset, theta_excellent: float = THETA_EXCELLENT,
                         theta_acceptable: float = THETA_ACCEPTABLE) -> dict:
    """Counts and percentages per band over the whole dataset.

    Each row's mean adds its scores in `classify_quality`'s order, so every
    row lands in the same band as it would there, bit for bit.
    """
    _check_thresholds(theta_excellent, theta_acceptable)
    p, q, r, s, t = dataset.scores().T
    mean = ((((p + q) + r) + s) + t) / 5.0
    excellent = mean >= theta_excellent
    acceptable = ~excellent & (mean >= theta_acceptable)
    n = len(dataset)
    counts = {"Excellent": int(excellent.sum()), "Acceptable": int(acceptable.sum())}
    counts["Poor"] = n - counts["Excellent"] - counts["Acceptable"]
    return {
        label: {"count": count, "pct": 100.0 * count / n if n else 0.0}
        for label, count in counts.items()
    }
