"""Tests for the descriptive statistics, outlier fences, correlation
ranking, and quality banding over the bundled clinic dataset.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ecgmon import analytics, sample_data
from ecgmon.analytics import (
    COLUMNS,
    THETA_ACCEPTABLE,
    THETA_EXCELLENT,
    Dataset,
    classify_quality,
    correlation_matrix,
    covariance_matrix,
    describe,
    iqr_outliers,
    quality_distribution,
    quantile,
    rank_against,
)
from ecgmon.delineate import WaveScores
from ecgmon.device import PqrstRecord


@pytest.fixture(scope="module")
def clinic():
    return sample_data.sample_dataset()


# ---------------------------------------------------------------- quantile

def test_quantile_interpolation():
    data = [1.0, 2.0, 3.0, 4.0]
    # h = 0.25 * 3 = 0.75 -> 1 + 0.75
    assert quantile(data, 0.25) == 1.75
    assert quantile(data, 0.5) == 2.5
    assert quantile(data, 0.75) == 3.25
    assert quantile(data, 0.0) == 1.0
    assert quantile(data, 1.0) == 4.0


def test_quantile_single_value():
    assert quantile([7.5], 0.25) == 7.5
    assert quantile([7.5], 0.99) == 7.5


def test_quantile_unsorted_input():
    assert quantile([4.0, 1.0, 3.0, 2.0], 0.25) == 1.75


def test_quantile_matches_numpy_linear():
    rng = np.random.default_rng(12)
    for _ in range(50):
        vals = rng.normal(50.0, 10.0, rng.integers(2, 40))
        f = float(rng.uniform(0, 1))
        assert quantile(vals, f) == pytest.approx(
            np.quantile(vals, f, method="linear"), abs=1e-9)


def test_quantile_bad_inputs():
    with pytest.raises(ValueError):
        quantile([1.0], 1.5)
    with pytest.raises(ValueError):
        quantile([], 0.5)


# ----------------------------------------------------------------- dataset

def test_dataset_from_csv_matches_records(clinic):
    via_records = Dataset.from_records(sample_data.sample_records())
    assert np.array_equal(clinic.rows, via_records.rows)
    assert len(clinic) == 20


def test_dataset_from_csv_rejects_extra_field():
    text = "Record No,Age,P,Q,R,S,T\n1,21,91.6,100,100,100,90\n2,23,100,100,100,100,100,7\n"
    with pytest.raises(ValueError, match="7 CSV fields"):
        Dataset.from_csv(text)


def test_dataset_rejects_ragged_rows():
    with pytest.raises(ValueError):
        Dataset([(1, 21, 91.6, 100.0)])
    with pytest.raises(ValueError):   # 14 values are not refolded into 2 rows
        Dataset([(1, 21)] * 7)


def test_empty_dataset_has_no_rows():
    for empty in (Dataset([]), Dataset.from_records([])):
        assert len(empty) == 0
        assert empty.rows.shape == (0, len(COLUMNS))
        with pytest.raises(ValueError, match="empty dataset"):
            describe(empty)


def test_dataset_rejects_nan():
    with pytest.raises(ValueError):
        Dataset([(1, 21, 91.6, 100.0, float("nan"), 100.0, 90.0)])


def test_dataset_column_access(clinic):
    ages = clinic.column("Age")
    assert ages[0] == 21 and ages[7] == 45
    with pytest.raises(ValueError):
        clinic.column("BloodPressure")


# ---------------------------------------------------------------- describe

# hand-checked against the dataset with an independent quantile/std
# implementation before freezing
EXPECTED_STATS = {
    "RecordNo": dict(mean=10.5, std=5.91608, min=1.0, q25=5.75, q50=10.5, q75=15.25, max=20.0),
    "Age": dict(mean=29.85, std=8.863141, min=18.0, q25=22.75, q50=28.5, q75=36.25, max=45.0),
    "P": dict(mean=97.0675, std=5.876498, min=78.5, q25=98.4375, q50=100.0, q75=100.0, max=100.0),
    "Q": dict(mean=96.257, std=7.568712, min=76.19, q25=98.4375, q50=100.0, q75=100.0, max=100.0),
    "R": dict(mean=95.257, std=8.33099, min=76.19, q25=93.525, q50=100.0, q75=100.0, max=100.0),
    "S": dict(mean=96.5145, std=7.1465, min=76.19, q25=98.4375, q50=100.0, q75=100.0, max=100.0),
    "T": dict(mean=97.6645, std=4.500192, min=85.0, q25=98.635, q50=100.0, q75=100.0, max=100.0),
}


def test_describe_clinic_dataset(clinic):
    summary = describe(clinic)
    for col, expected in EXPECTED_STATS.items():
        stats = summary[col]
        assert stats.count == 20
        for fieldname, value in expected.items():
            assert getattr(stats, fieldname) == pytest.approx(value, abs=5e-7), (col, fieldname)


def test_describe_single_row():
    ds = Dataset([(1, 21, 91.6, 100.0, 100.0, 100.0, 90.0)])
    stats = describe(ds)["P"]
    assert stats.count == 1
    assert stats.std == 0.0  # sample std of one observation is defined as 0
    assert stats.mean == stats.min == stats.max == 91.6


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(*[st.floats(-1e6, 1e6)] * len(COLUMNS)), min_size=1, max_size=60))
def test_describe_quartiles_equal_quantile(rows):
    """describe sorts each column once; its quartiles are exactly quantile's."""
    dataset = Dataset(rows)
    summary = describe(dataset)
    for name in COLUMNS:
        x = dataset.column(name)
        stats = summary[name]
        assert (stats.q25, stats.q50, stats.q75) == (
            quantile(x, 0.25), quantile(x, 0.5), quantile(x, 0.75))


# ---------------------------------------------------------------- outliers

def test_iqr_outliers_p_column(clinic):
    # q25 = 98.4375, q75 = 100 -> fences [96.09375, 102.34375]
    assert iqr_outliers(clinic, "P") == [0, 4, 6, 11, 18]


def test_iqr_outliers_other_columns(clinic):
    assert iqr_outliers(clinic, "Age") == []
    assert iqr_outliers(clinic, "Q") == [5, 8, 10, 11, 14]
    assert iqr_outliers(clinic, "R") == [4, 5, 8, 10]


def test_iqr_outliers_constant_column():
    ds = Dataset([(i, 30, 100, 100, 100, 100, 100) for i in range(1, 6)])
    assert iqr_outliers(ds, "P") == []


def test_iqr_outliers_wider_fence(clinic):
    assert iqr_outliers(clinic, "R", k=10.0) == []


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 12), min_size=1, max_size=30), st.sampled_from([0.0, 0.5, 1.5]))
def test_iqr_outliers_match_the_per_value_loop(values, k):
    # small integers put values on the fences and tie them
    ds = Dataset([(i, 30, v, 0, 0, 0, 0) for i, v in enumerate(values)])
    x = ds.column("P")
    q25, q75 = quantile(x, 0.25), quantile(x, 0.75)
    lo, hi = q25 - k * (q75 - q25), q75 + k * (q75 - q25)
    assert iqr_outliers(ds, "P", k=k) == [i for i, v in enumerate(x) if v < lo or v > hi]


# ------------------------------------------------------- covariance matrix

def test_covariance_known_cells(clinic):
    cov = covariance_matrix(clinic)
    # RecordNo is 1..20, variance = sum((i - 10.5)^2)/19 = 665/19 = 35
    assert cov[0, 0] == pytest.approx(35.0, abs=1e-9)
    assert cov[0, 1] == pytest.approx(23.236842, abs=1e-6)
    assert cov[1, 1] == pytest.approx(78.555263, abs=1e-6)
    assert cov[3, 4] == pytest.approx(53.345401, abs=1e-6)


def test_covariance_symmetric(clinic):
    cov = covariance_matrix(clinic)
    assert np.allclose(cov, cov.T, atol=1e-12)
    # diagonal equals the squared sample stds
    summary = describe(clinic)
    for i, col in enumerate(COLUMNS):
        assert cov[i, i] == pytest.approx(summary[col].std ** 2, rel=1e-9)


# ------------------------------------------------------ correlation matrix

def test_correlation_known_cells(clinic):
    corr = correlation_matrix(clinic)
    assert corr[3, 5] == pytest.approx(0.989389, abs=1e-6)   # Q vs S
    assert corr[3, 4] == pytest.approx(0.846016, abs=1e-6)   # Q vs R
    assert corr[2, 3] == pytest.approx(-0.213549, abs=1e-6)  # P vs Q


def test_correlation_structure(clinic):
    corr = correlation_matrix(clinic)
    assert np.allclose(np.diag(corr), 1.0, atol=1e-12)
    assert np.allclose(corr, corr.T, atol=1e-12)
    assert (np.abs(corr) <= 1.0 + 1e-12).all()


def test_correlation_consistent_with_covariance(clinic):
    cov = covariance_matrix(clinic)
    corr = correlation_matrix(clinic)
    sd = np.sqrt(np.diag(cov))
    assert np.allclose(corr, cov / np.outer(sd, sd), atol=1e-12)


def test_correlation_affine_invariance(clinic):
    rows = clinic.rows
    scaled = rows.copy()
    scaled[:, 2] = 3.0 * scaled[:, 2] + 11.0  # rescale P
    assert np.allclose(
        correlation_matrix(Dataset(scaled)), correlation_matrix(clinic), atol=1e-12)


def test_correlation_permutation_invariance(clinic):
    rng = np.random.default_rng(4)
    rows = clinic.rows
    shuffled = rows[rng.permutation(len(rows))]
    base = covariance_matrix(clinic)
    assert np.allclose(covariance_matrix(Dataset(shuffled)), base, atol=1e-9)


def test_correlation_zero_variance_marked_nan():
    ds = Dataset([(i, 30, 100, 90 + i, 90 + i, 100, 95) for i in range(1, 6)])
    corr = correlation_matrix(ds)
    p = COLUMNS.index("P")
    assert np.isnan(corr[p, 0]) and np.isnan(corr[0, p])
    assert np.isnan(corr[p, p])
    q = COLUMNS.index("Q")
    assert corr[q, COLUMNS.index("R")] == pytest.approx(1.0)


def test_correlation_hand_computed_three_rows():
    ds = Dataset([
        (1, 20, 100, 80.0, 90.0, 100, 95),
        (2, 25, 100, 85.0, 94.0, 100, 95),
        (3, 30, 100, 95.0, 92.0, 100, 95),
    ])
    q = ds.column("Q")
    r = ds.column("R")
    num = float(np.sum((q - q.mean()) * (r - r.mean())))
    den = math.sqrt(float(np.sum((q - q.mean()) ** 2) * np.sum((r - r.mean()) ** 2)))
    corr = correlation_matrix(ds)
    assert corr[COLUMNS.index("Q"), COLUMNS.index("R")] == pytest.approx(num / den, abs=1e-12)


def reference_correlation_matrix(dataset):
    """The element-by-element loop that `correlation_matrix` replaced."""
    cov = covariance_matrix(dataset)
    std = np.sqrt(np.diag(cov))
    out = np.full_like(cov, np.nan)
    for i in range(len(COLUMNS)):
        for j in range(len(COLUMNS)):
            if std[i] > 0 and std[j] > 0:
                out[i, j] = cov[i, j] / (std[i] * std[j])
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 40), st.sets(st.integers(0, len(COLUMNS) - 1)), st.integers(0, 2**32 - 1))
def test_correlation_matrix_matches_the_loop_bit_for_bit(rows, constant, seed):
    rng = np.random.default_rng(seed)
    data = rng.normal(50.0, 20.0, (rows, len(COLUMNS))) * rng.uniform(1e-3, 1e3, len(COLUMNS))
    data[:, sorted(constant)] = 42.5             # zero-variance columns
    dataset = Dataset(data)
    assert correlation_matrix(dataset).tobytes() == reference_correlation_matrix(dataset).tobytes()


# ----------------------------------------------------------------- ranking

def test_rank_against_r(clinic):
    ranking = rank_against(clinic, "R")
    assert [name for name, _ in ranking] == ["R", "Q", "S", "T", "Age", "P"]
    expected = [1.0, 0.846016, 0.837237, 0.347479, 0.287883, 0.205213]
    for (_, value), want in zip(ranking, expected):
        assert value == pytest.approx(want, abs=1e-6)


def test_rank_excludes_record_no(clinic):
    names = [name for name, _ in rank_against(clinic, "Q")]
    assert "RecordNo" not in names
    assert names[0] == "Q"
    assert set(names) == {"Age", "P", "Q", "R", "S", "T"}


def test_rank_duplicated_column_ties_with_target(clinic):
    rows = clinic.rows
    rows[:, 5] = rows[:, 4]  # make S a copy of R
    ranking = rank_against(Dataset(rows), "R")
    assert ranking[0][0] == "R"
    assert ranking[1][0] == "S"
    assert ranking[0][1] == pytest.approx(1.0)
    assert ranking[1][1] == pytest.approx(1.0)


# ----------------------------------------------------------------- quality

def test_classify_quality_bands():
    assert classify_quality((100.0, 100.0, 100.0, 100.0, 100.0)) == "Excellent"
    assert classify_quality((96.0, 96.0, 96.0, 96.0, 96.0)) == "Excellent"     # boundary
    assert classify_quality((95.99, 96.0, 96.0, 96.0, 96.0)) == "Acceptable"
    assert classify_quality((85.0, 85.0, 85.0, 85.0, 85.0)) == "Acceptable"    # boundary
    assert classify_quality((84.99, 85.0, 85.0, 85.0, 85.0)) == "Poor"


def test_classify_quality_accepts_records_and_scores():
    rec = PqrstRecord(9, 43, 100.0, 80.0, 80.0, 80.0, 85.0)  # mean 85.0
    assert classify_quality(rec.scores()) == "Acceptable"
    ws = WaveScores(100.0, 76.19, 76.19, 76.19, 94.54)       # mean 84.622
    assert classify_quality(ws.as_tuple()) == "Poor"
    rec7 = PqrstRecord(7, 24, 90.0, 100.0, 100.0, 100.0, 90.0)  # mean 96.0
    assert classify_quality(rec7.scores()) == "Excellent"


def test_quality_distribution_clinic(clinic):
    dist = quality_distribution(clinic)
    assert dist["Excellent"] == {"count": 14, "pct": 70.0}
    assert dist["Acceptable"] == {"count": 5, "pct": 25.0}
    assert dist["Poor"] == {"count": 1, "pct": 5.0}
    assert sum(v["count"] for v in dist.values()) == 20
    assert sum(v["pct"] for v in dist.values()) == pytest.approx(100.0)


def test_quality_custom_thresholds(clinic):
    dist = quality_distribution(clinic, theta_excellent=101.0, theta_acceptable=0.0)
    assert dist["Excellent"]["count"] == 0
    assert dist["Acceptable"]["count"] == 20


def test_quality_distribution_empty_and_bad_thresholds():
    empty = Dataset(np.empty((0, 7)))
    assert quality_distribution(empty) == {
        label: {"count": 0, "pct": 0.0} for label in ("Excellent", "Acceptable", "Poor")}
    with pytest.raises(ValueError, match="thresholds"):
        quality_distribution(empty, theta_excellent=85.0, theta_acceptable=85.0)


THRESHOLD_MEANS = [m for theta in (THETA_ACCEPTABLE, THETA_EXCELLENT)
                   for m in (math.nextafter(theta, -math.inf), theta,
                             math.nextafter(theta, math.inf))]


def scores_with_mean(four, mean):
    """Five scores whose mean, summed as `classify_quality` sums them, is
    exactly `mean`: the fifth is stepped one ulp at a time onto it."""
    t = 5.0 * mean - sum(four)
    for _ in range(64):
        got = sum(four + [t]) / 5.0
        if got == mean:
            return four + [t]
        t = math.nextafter(t, math.inf if got < mean else -math.inf)
    return None


score = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)


@st.composite
def score_rows(draw):
    if draw(st.booleans()):
        mean = draw(st.sampled_from(THRESHOLD_MEANS))
        near = st.floats(min_value=mean - 4.0, max_value=min(mean + 4.0, 100.0))
        scores = scores_with_mean(draw(st.lists(near, min_size=4, max_size=4)), mean)
        assume(scores is not None and 0.0 <= scores[4] <= 100.0)
    else:
        scores = draw(st.lists(score, min_size=5, max_size=5))
    return (1, 40, *scores)


@settings(max_examples=300, deadline=None)
@given(st.lists(score_rows(), min_size=0, max_size=40))
def test_quality_distribution_matches_classify_quality_per_row(rows):
    """The whole-dataset count bands every row as `classify_quality` does,
    including means exactly on a threshold and one ulp either side."""
    want = {"Excellent": 0, "Acceptable": 0, "Poor": 0}
    for row in rows:
        want[classify_quality(row[2:])] += 1
    got = quality_distribution(Dataset(rows))
    assert {label: entry["count"] for label, entry in got.items()} == want


def test_threshold_means_are_reachable():
    """The generator above really lands on each threshold mean."""
    for mean in THRESHOLD_MEANS:
        scores = scores_with_mean([90.0, 80.0, 95.5, 70.25], mean)
        assert scores is not None and sum(scores) / 5.0 == mean
        band = classify_quality(scores)
        assert quality_distribution(Dataset([(1, 40, *scores)]))[band]["count"] == 1


def test_dataset_from_array_equals_dataset_from_rows(clinic):
    rows = clinic.rows
    from_array = Dataset(rows)
    rows[:] = 0.0                     # the dataset holds its own copy
    assert np.array_equal(from_array.rows, clinic.rows)
    assert np.array_equal(from_array.rows, Dataset(clinic.rows.tolist()).rows)
