"""Tests for the least-squares fit, prediction, evaluation metrics,
the train/test split, and the text model file.
"""

import math
import re

import numpy as np
import pytest

from ecgmon import sample_data
from ecgmon.regression import (
    DEFAULT_PREDICTORS,
    EvalReport,
    LinearModel,
    SingularDesignError,
    SplitSpec,
    design_from_dataset,
    evaluate,
    fit_ols,
    load_model,
    predict,
    save_model,
    split,
)


@pytest.fixture(scope="module")
def clinic():
    return sample_data.sample_dataset()


# --------------------------------------------------------------------- fit

def test_fit_recovers_exact_plane():
    # y = 2 + 0.5*s - 0.1*t + 0.3*age on generic points
    rows = [(100, 90, 20), (80, 95, 30), (76, 94, 19), (93, 100, 45), (88, 85, 25)]
    targets = [2 + 0.5 * s - 0.1 * t + 0.3 * a for s, t, a in rows]
    model = fit_ols(rows, targets)
    assert model.intercept == pytest.approx(2.0, abs=1e-9)
    assert model.coefficient("S") == pytest.approx(0.5, abs=1e-11)
    assert model.coefficient("T") == pytest.approx(-0.1, abs=1e-11)
    assert model.coefficient("Age") == pytest.approx(0.3, abs=1e-11)


def test_fit_identity_predictor():
    # target equals the S column: beta = (0, 1, 0, 0)
    rows = [(100, 90, 20), (80, 95, 30), (76, 94, 19), (93, 100, 45), (88, 85, 25)]
    targets = [r[0] for r in rows]
    model = fit_ols(rows, targets)
    assert model.intercept == pytest.approx(0.0, abs=1e-8)
    assert model.coefficient("S") == pytest.approx(1.0, abs=1e-10)
    assert model.coefficient("T") == pytest.approx(0.0, abs=1e-10)


def test_fit_clinic_dataset(clinic):
    # frozen from an independent least-squares solution of the same system
    x, y = design_from_dataset(clinic)
    model = fit_ols(x, y)
    assert model.intercept == pytest.approx(12.000950817260355, abs=1e-6)
    assert model.coefficient("S") == pytest.approx(1.0089547265244383, abs=1e-6)
    assert model.coefficient("T") == pytest.approx(-0.196256340651576, abs=1e-6)
    assert model.coefficient("Age") == pytest.approx(0.16899717290326915, abs=1e-6)


def test_fit_clinic_training_rows(clinic):
    # the reference model: drop the five held-out rows, fit on the rest
    x, y = design_from_dataset(clinic)
    train_x, _ = split(list(x), SplitSpec((2, 5, 17, 19, 12)))
    train_y, _ = split(list(y), SplitSpec((2, 5, 17, 19, 12)))
    model = fit_ols(train_x, train_y)
    assert model.intercept == pytest.approx(14.319164821637438, abs=1e-6)
    assert model.coefficient("S") == pytest.approx(0.9624453059091265, abs=1e-6)
    assert model.coefficient("T") == pytest.approx(-0.17349130546037306, abs=1e-6)
    assert model.coefficient("Age") == pytest.approx(0.16293677465903245, abs=1e-6)


def test_fit_translation_equivariance(clinic):
    x, y = design_from_dataset(clinic)
    base = fit_ols(x, y)
    shifted = fit_ols(x, y + 10.0)
    assert shifted.intercept == pytest.approx(base.intercept + 10.0, abs=1e-8)
    for name in base.predictor_names:
        assert shifted.coefficient(name) == pytest.approx(base.coefficient(name), abs=1e-9)


def test_fit_residual_orthogonality(clinic):
    # normal equations force X^T (y - X beta) = 0
    x, y = design_from_dataset(clinic)
    model = fit_ols(x, y)
    design = np.hstack([np.ones((len(x), 1)), x])
    beta = np.array([model.intercept] + [model.coefficient(n) for n in model.predictor_names])
    residuals = y - design @ beta
    assert np.allclose(design.T @ residuals, 0.0, atol=1e-7)


def test_fit_duplicate_predictor_singular():
    rows = [(100, 100, 20), (80, 80, 30), (76, 76, 19), (93, 93, 45), (88, 88, 25)]
    targets = [90.0, 85.0, 80.0, 95.0, 88.0]
    with pytest.raises(SingularDesignError):
        fit_ols(rows, targets, ("S", "S2", "Age"))


def test_fit_needs_enough_rows():
    with pytest.raises(ValueError):
        fit_ols([(1, 2, 3), (4, 5, 6)], [1.0, 2.0])


# ----------------------------------------------------------------- predict

def test_predict_mapping_and_sequence():
    model = LinearModel(intercept=1.0, coefficients=(("S", 2.0), ("T", -1.0)))
    assert predict(model, {"S": 3.0, "T": 4.0}) == pytest.approx(3.0)
    assert predict(model, [3.0, 4.0]) == pytest.approx(3.0)
    assert isinstance(predict(model, np.array([3.0, 4.0])), float)


def test_predict_wrong_width():
    model = LinearModel(intercept=0.0, coefficients=(("S", 1.0),))
    with pytest.raises(ValueError):
        predict(model, [1.0, 2.0])


def test_predict_linearity():
    model = LinearModel(intercept=5.0, coefficients=(("A", 2.0), ("B", 3.0)))
    a = predict(model, [1.0, 1.0])
    b = predict(model, [2.0, 1.0])
    assert b - a == pytest.approx(2.0)


# ---------------------------------------------------------------- evaluate

def test_evaluate_hand_case():
    # errors (-2, 0): mae 1, mse 2; ss_tot = 8 -> accuracy 50
    report = evaluate([10.0, 14.0], [12.0, 14.0])
    assert report.mae == pytest.approx(1.0)
    assert report.mse == pytest.approx(2.0)
    assert report.accuracy_pct == pytest.approx(50.0)
    assert report.pairs == ((10.0, 12.0), (14.0, 14.0))


def test_evaluate_perfect_prediction():
    report = evaluate([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert report.mae == 0.0
    assert report.mse == 0.0
    assert report.accuracy_pct == pytest.approx(100.0)


def test_evaluate_constant_actuals_nan():
    report = evaluate([5.0, 5.0], [5.0, 6.0])
    assert math.isnan(report.accuracy_pct)
    assert report.mae == pytest.approx(0.5)


def test_evaluate_mae_at_most_rmse():
    rng = np.random.default_rng(9)
    for _ in range(25):
        a = rng.normal(90, 5, 10)
        p = a + rng.normal(0, 2, 10)
        report = evaluate(a, p)
        assert report.mae <= math.sqrt(report.mse) + 1e-12


def test_evaluate_empty_rejected():
    with pytest.raises(ValueError):
        evaluate([], [])
    with pytest.raises(ValueError):
        evaluate([1.0], [1.0, 2.0])


# ------------------------------------------------------------------- split

def test_split_preserves_order(clinic):
    rows = list(range(20))
    train, test = split(rows, SplitSpec((2, 5, 17, 19, 12)))
    assert test == [2, 5, 12, 17, 19]            # dataset order, not listing order
    assert train == [i for i in range(20) if i not in {2, 5, 12, 17, 19}]
    assert len(train) + len(test) == 20


def test_split_empty_test():
    train, test = split([1, 2, 3], SplitSpec(()))
    assert train == [1, 2, 3] and test == []


def test_split_bad_indices():
    with pytest.raises(ValueError):
        split([1, 2, 3], SplitSpec((3,)))
    with pytest.raises(ValueError):
        split([1, 2, 3], SplitSpec((1, 1)))


def test_split_then_fit_on_train(clinic):
    x, y = design_from_dataset(clinic)
    spec = SplitSpec((2, 5, 17, 19, 12))
    train_x, test_x = split(list(x), spec)
    train_y, test_y = split(list(y), spec)
    assert len(train_x) == 15 and len(test_x) == 5
    model = fit_ols(train_x, train_y)
    # leaving five rows out moves the fit only slightly
    assert model.coefficient("S") == pytest.approx(0.962445, abs=0.02)


# -------------------------------------------------------------- model file

def test_model_file_round_trip(tmp_path, clinic):
    x, y = design_from_dataset(clinic)
    model = fit_ols(x, y)
    path = tmp_path / "model.txt"
    save_model(model, path, metadata={"rows": "20"})
    loaded = load_model(path)
    assert loaded.intercept == model.intercept           # repr round-trip is exact
    assert loaded.coefficients == model.coefficients


def test_model_file_format(tmp_path):
    model = LinearModel(intercept=1.5, coefficients=(("S", 0.25), ("Age", -2.0)))
    path = tmp_path / "model.txt"
    save_model(model, path)
    lines = path.read_text().splitlines()
    assert lines[1] == "target R"
    assert lines[2] == "intercept 1.5"
    assert lines[3] == "coef S 0.25"



def test_model_file_keeps_its_target(tmp_path):
    model = LinearModel(intercept=1.5, coefficients=(("R", 0.25),), target="S")
    path = tmp_path / "model.txt"
    save_model(model, path)
    assert path.read_text().splitlines()[1] == "target S"
    assert load_model(path) == model
    # a file written without a target line predicts R
    path.write_text("intercept 1.5\ncoef S 0.25\n")
    assert load_model(path).target == "R"

@pytest.mark.parametrize("text,lineno", [
    ("intercept\ncoef S 1.0\n", 1),
    ("# model\nintercept 1.0\ncoef S\n", 3),
    ("intercept 1.0\ncoef\n", 2),
    ("target\n", 1),
    ("intercept nan\ncoef S 1.0\n", 1),
    ("intercept 1.0\ncoef S inf\n", 2),
    ("intercept 1.0\ncoef S -Infinity\n", 2),
    ("intercept 1.0\ncoef S 1e400\n", 2),
])
def test_load_model_names_the_bad_line(tmp_path, text, lineno):
    path = tmp_path / "model.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(f"{path}, line {lineno}: ")):
        load_model(path)


def test_load_model_rejects_garbage(tmp_path):
    path = tmp_path / "nope.txt"
    path.write_text("just some text\n")
    with pytest.raises(ValueError):
        load_model(path)
