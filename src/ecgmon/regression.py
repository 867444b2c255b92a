"""Ordinary least squares for the score model R ~ S + T + Age.

The fit is numpy's least-squares solve of the design matrix, whose
reported rank tells a rank-deficient design apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from .analytics import Dataset

__all__ = [
    "DEFAULT_PREDICTORS",
    "LinearModel",
    "SplitSpec",
    "EvalReport",
    "SingularDesignError",
    "fit_ols",
    "predict",
    "evaluate",
    "split",
    "design_from_dataset",
    "save_model",
    "load_model",
]

DEFAULT_PREDICTORS = ("S", "T", "Age")


class SingularDesignError(ValueError):
    """Design matrix is rank deficient within tolerance."""


@dataclass(frozen=True)
class LinearModel:
    intercept: float
    coefficients: tuple[tuple[str, float], ...]  # ordered (predictor, value)
    target: str = "R"                            # the column the model predicts

    def coefficient(self, name: str) -> float:
        for n, v in self.coefficients:
            if n == name:
                return v
        raise KeyError(name)

    @property
    def predictor_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.coefficients)


@dataclass(frozen=True)
class SplitSpec:
    test_row_indices: tuple[int, ...]

    def validate(self, n_rows: int) -> None:
        seen = set()
        for i in self.test_row_indices:
            if not 0 <= i < n_rows:
                raise ValueError(f"test index {i} out of range for {n_rows} rows")
            if i in seen:
                raise ValueError(f"duplicate test index {i}")
            seen.add(i)


@dataclass(frozen=True)
class EvalReport:
    mae: float
    mse: float
    accuracy_pct: float
    pairs: tuple[tuple[float, float], ...]  # (actual, predicted)


def fit_ols(rows: Sequence[Sequence[float]], targets: Sequence[float],
            predictor_names: Sequence[str] = DEFAULT_PREDICTORS) -> LinearModel:
    """Least squares fit of targets on rows of predictor values.

    Each row carries the predictor values in `predictor_names` order; an
    intercept column is prepended internally.
    """
    x = np.asarray(rows, dtype=float)
    y = np.asarray(targets, dtype=float)
    if x.ndim != 2 or x.shape[1] != len(predictor_names):
        raise ValueError(f"rows must be (n, {len(predictor_names)})")
    if len(x) != len(y):
        raise ValueError("rows and targets must have equal length")
    if len(x) < x.shape[1] + 1:
        raise ValueError(f"need at least {x.shape[1] + 1} rows, got {len(x)}")
    design = np.hstack([np.ones((len(x), 1)), x])
    beta, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < design.shape[1]:
        raise SingularDesignError(f"design matrix has rank {rank} of {design.shape[1]} columns")
    return LinearModel(
        intercept=float(beta[0]),
        coefficients=tuple(zip(predictor_names, (float(v) for v in beta[1:]))),
    )


def predict(model: LinearModel, row) -> float:
    """intercept + sum of coefficient * predictor value.

    `row` is either a mapping of predictor name to value or a sequence
    in the model's predictor order.
    """
    if isinstance(row, Mapping):
        values = [row[name] for name in model.predictor_names]
    else:
        values = list(row)
        if len(values) != len(model.coefficients):
            raise ValueError(f"expected {len(model.coefficients)} predictor values")
    return float(model.intercept + sum(v * x for (_, v), x in zip(model.coefficients, values)))


def evaluate(actuals: Sequence[float], predictions: Sequence[float]) -> EvalReport:
    """MAE, MSE, and accuracy as 100 x the coefficient of determination.

    Accuracy is 100 * (1 - SS_res / SS_tot) over the evaluated rows; with
    all-identical actuals SS_tot is zero and accuracy is reported as NaN.
    """
    a = np.asarray(actuals, dtype=float)
    p = np.asarray(predictions, dtype=float)
    if len(a) == 0 or len(a) != len(p):
        raise ValueError("need equal-length, non-empty lists")
    err = a - p
    mae = float(np.abs(err).mean())
    mse = float((err ** 2).mean())
    ss_tot = float(((a - a.mean()) ** 2).sum())
    if ss_tot == 0.0:
        accuracy = float("nan")
    else:
        accuracy = 100.0 * (1.0 - float((err ** 2).sum()) / ss_tot)
    return EvalReport(mae, mse, accuracy, tuple(zip(a.tolist(), p.tolist())))


def split(rows: Sequence, spec: SplitSpec) -> tuple[list, list]:
    """Deterministic train/test partition preserving row order in each part."""
    spec.validate(len(rows))
    test_set = set(spec.test_row_indices)
    train = [rows[i] for i in range(len(rows)) if i not in test_set]
    test = [rows[i] for i in range(len(rows)) if i in test_set]
    return train, test


def design_from_dataset(dataset: Dataset,
                        predictors: Sequence[str] = DEFAULT_PREDICTORS,
                        target: str = "R") -> tuple[np.ndarray, np.ndarray]:
    """Extract (predictor matrix, target vector) from a Dataset."""
    x = np.column_stack([dataset.column(name) for name in predictors])
    y = dataset.column(target)
    return x, y


# ------------------------------------------------------------ model file

def save_model(model: LinearModel, path,
               metadata: Optional[Mapping[str, str]] = None) -> None:
    """Write the model as a small text document (full float precision)."""
    lines = ["# ecgmon linear model", f"target {model.target}",
             f"intercept {model.intercept!r}"]
    for name, value in model.coefficients:
        lines.append(f"coef {name} {value!r}")
    for key, value in (metadata or {}).items():
        lines.append(f"meta {key} {value}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite number")
    return value


def load_model(path) -> LinearModel:
    """Read a `save_model` file back; a file without a target line predicts R.
    A line cut short or with a non-finite number is a ValueError naming it."""
    intercept = None
    coefficients = []
    target = "R"
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        try:
            if parts[0] == "intercept":
                intercept = _finite(parts[1])
            elif parts[0] == "coef":
                coefficients.append((parts[1], _finite(parts[2])))
            elif parts[0] == "target":
                target = parts[1]
        except (IndexError, ValueError) as exc:
            raise ValueError(f"{path}, line {lineno}: {line.strip()!r}: {exc}") from exc
    if intercept is None or not coefficients:
        raise ValueError(f"{path}: not a model file")
    return LinearModel(intercept, tuple(coefficients), target)
