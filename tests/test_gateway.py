"""Tests for the HTTP gateway: routing, windows, stats, prediction,
and the ingest endpoint, each against a live server on a loopback port.
"""

import http.client
import json
import socket
import statistics
import time

import pytest

from ecgmon import analytics, regression, sample_data
from ecgmon.config import GatewayConfig
from ecgmon.gateway import MAX_BODY_BYTES, Gateway
from ecgmon.store import RecordStore

# received_at used by the window tests: 2023-11-14T22:13:20Z exactly
EPOCH_MS = 1_700_000_000_000


def request(gateway, method, path, body=None):
    """One HTTP exchange; returns (status, decoded JSON body)."""
    if isinstance(body, (dict, list)):
        body = json.dumps(body).encode("utf-8")
    conn = http.client.HTTPConnection("127.0.0.1", gateway.port, timeout=5)
    try:
        conn.request(method, path, body=body)
        resp = conn.getresponse()
        raw = resp.read()
    finally:
        conn.close()
    return resp.status, json.loads(raw) if raw else None


def pqrst_body(record, patient_id="p1", **overrides):
    body = {
        "kind": "pqrst", "patient_id": patient_id,
        "record_no": record.record_no, "age": record.age,
        "p": record.p, "q": record.q, "r": record.r,
        "s": record.s, "t": record.t,
    }
    body.update(overrides)
    return body


def heartbeat_body(bpm=72, patient_id="p1", **overrides):
    body = {"kind": "heartbeat", "patient_id": patient_id, "bpm": bpm,
            "window_seconds": 20, "measured_at": "2026-01-01T00:00:00Z"}
    body.update(overrides)
    return body


@pytest.fixture()
def store(tmp_path):
    st = RecordStore(tmp_path / "telemetry")
    yield st
    st.close()


@pytest.fixture()
def gw(store):
    gateway = Gateway(store, GatewayConfig(http_port=0)).start()
    yield gateway
    gateway.stop()


@pytest.fixture()
def gw_with_model(store, tmp_path):
    # same recipe as the reference model: hold out five rows, fit the rest
    x, y = regression.design_from_dataset(sample_data.sample_dataset())
    spec = regression.SplitSpec((2, 5, 17, 19, 12))
    train_x, _ = regression.split(list(x), spec)
    train_y, _ = regression.split(list(y), spec)
    model = regression.fit_ols(train_x, train_y)
    path = tmp_path / "model.txt"
    regression.save_model(model, path)
    gateway = Gateway(store, GatewayConfig(http_port=0, model_path=str(path))).start()
    yield gateway
    gateway.stop()


# ----------------------------------------------------------------- routing

def test_unknown_route_is_404(gw):
    status, body = request(gw, "GET", "/nope")
    assert status == 404
    assert body["code"] == "not_found"


def test_problem_documents_have_fixed_shape(gw):
    status, body = request(gw, "GET", "/patients/nobody/heartbeat/latest")
    assert status == 404
    assert set(body) == {"status", "code", "detail"}
    assert body["status"] == 404


def test_unknown_patient_heartbeat_404(gw):
    status, body = request(gw, "GET", "/patients/nobody/heartbeat/latest")
    assert status == 404
    assert body["code"] == "no_heartbeat"
    assert "nobody" in body["detail"]


@pytest.mark.parametrize("pid", ["a%2Fb", "p.1", "sp%20ace", "x" * 65])
def test_bad_patient_id_rejected(gw, pid):
    status, body = request(gw, "GET", f"/patients/{pid}/heartbeat/latest")
    assert status == 400
    assert body["code"] == "bad_patient_id"


def test_keep_alive_gets_are_not_delayed(gw, store):
    """Headers and body leave in two writes; without TCP_NODELAY the body
    waits about 40 ms for the client's delayed ACK on every keep-alive GET."""
    store.append("clinic/p1/heartbeat", "p1", {
        "patient_id": "p1", "bpm": 72, "window_seconds": 20,
        "measured_at": "2026-01-01T00:00:00Z"})
    conn = http.client.HTTPConnection("127.0.0.1", gw.port, timeout=5)
    elapsed = []
    try:
        for _ in range(20):
            start = time.perf_counter()
            conn.request("GET", "/patients/p1/heartbeat/latest")
            resp = conn.getresponse()
            resp.read()
            elapsed.append(time.perf_counter() - start)
            assert resp.status == 200
    finally:
        conn.close()
    assert statistics.median(elapsed) < 0.020


def test_post_to_unknown_route_404(gw):
    status, body = request(gw, "POST", "/patients/p1/ecg", body={})
    assert status == 404
    assert body["code"] == "not_found"


# ----------------------------------------------------------------- ingest

def test_ingest_heartbeat_then_latest(gw):
    status, body = request(gw, "POST", "/ingest", body=heartbeat_body(bpm=72))
    assert status == 201
    assert body == {"sequence": 1}

    status, body = request(gw, "GET", "/patients/p1/heartbeat/latest")
    assert status == 200
    assert body["payload"]["bpm"] == 72
    assert body["topic"] == "clinic/p1/heartbeat"
    assert body["patient_id"] == "p1"
    assert body["sequence"] == 1
    assert isinstance(body["received_at"], int)


def test_latest_heartbeat_is_most_recent(gw, store):
    store.append("clinic/p1/heartbeat", "p1",
                 {"patient_id": "p1", "bpm": 60, "window_seconds": 20,
                  "measured_at": "t0"}, received_at=EPOCH_MS)
    store.append("clinic/p1/heartbeat", "p1",
                 {"patient_id": "p1", "bpm": 90, "window_seconds": 20,
                  "measured_at": "t1"}, received_at=EPOCH_MS + 1000)
    status, body = request(gw, "GET", "/patients/p1/heartbeat/latest")
    assert status == 200
    assert body["payload"]["bpm"] == 90


def test_ingest_pqrst_then_window_query(gw):
    record = sample_data.sample_records()[0]
    status, body = request(gw, "POST", "/ingest", body=pqrst_body(record))
    assert status == 201
    assert body == {"sequence": 1}

    status, body = request(
        gw, "GET",
        "/patients/p1/ecg?from=1970-01-01T00:00:00Z&to=2100-01-01T00:00:00Z")
    assert status == 200
    assert len(body) == 1
    payload = body[0]["payload"]
    assert payload["record_no"] == record.record_no
    assert payload["r"] == record.r


def test_ingest_score_out_of_range_422(gw):
    record = sample_data.sample_records()[0]
    status, body = request(gw, "POST", "/ingest", body=pqrst_body(record, r=150))
    assert status == 422
    assert body["code"] == "invalid_document"


def test_ingest_missing_field_400(gw):
    body = heartbeat_body()
    del body["bpm"]
    status, problem = request(gw, "POST", "/ingest", body=body)
    assert status == 400
    assert problem["code"] == "invalid_document"
    assert "bpm" in problem["detail"]


def test_ingest_empty_body_400(gw):
    status, body = request(gw, "POST", "/ingest", body=b"")
    assert status == 400
    assert body["code"] == "empty_body"


def test_ingest_garbage_json_400(gw):
    status, body = request(gw, "POST", "/ingest", body=b"{nope")
    assert status == 400
    assert body["code"] == "bad_json"


def test_ingest_non_object_body_400(gw):
    status, body = request(gw, "POST", "/ingest", body=[1, 2, 3])
    assert status == 400
    assert body["code"] == "bad_json"


@pytest.mark.parametrize("kind", ["ecg", "waveform", "", None])
def test_ingest_bad_kind_400(gw, kind):
    body = heartbeat_body()
    if kind is None:
        del body["kind"]
    else:
        body["kind"] = kind
    status, problem = request(gw, "POST", "/ingest", body=body)
    assert status == 400
    assert problem["code"] == "bad_kind"


@pytest.mark.parametrize("length,status,code", [
    ("-5", 400, "bad_length"),
    ("twelve", 400, "bad_length"),
    (str(MAX_BODY_BYTES + 1), 413, "body_too_large"),
])
def test_ingest_bad_content_length_answered_without_reading_body(gw, length, status, code):
    # The client keeps the connection open and sends no body, so a handler
    # that tried to read one would never answer.
    with socket.create_connection(("127.0.0.1", gw.port), timeout=1.0) as sock:
        sock.sendall(f"POST /ingest HTTP/1.1\r\nHost: localhost\r\n"
                     f"Connection: keep-alive\r\nContent-Length: {length}\r\n\r\n".encode())
        resp = http.client.HTTPResponse(sock)
        resp.begin()
        problem = json.loads(resp.read())
    assert resp.status == status
    assert problem["code"] == code
    # the unread body would desynchronize the connection, so it is closed
    assert resp.getheader("Connection") == "close"


def test_ingest_body_at_the_limit_is_read(gw):
    status, body = request(gw, "POST", "/ingest", body=b" " * MAX_BODY_BYTES)
    assert status == 400
    assert body["code"] == "bad_json"


def test_ingest_bad_payload_patient_id_400(gw):
    status, body = request(gw, "POST", "/ingest",
                           body=heartbeat_body(patient_id="a/b"))
    assert status == 400
    assert body["code"] == "bad_patient_id"

    body = heartbeat_body()
    del body["patient_id"]
    status, problem = request(gw, "POST", "/ingest", body=body)
    assert status == 400
    assert problem["code"] == "bad_patient_id"


# ----------------------------------------------------------------- windows

def append_one_pqrst(store, received_at, record_no=1):
    record = sample_data.sample_records()[record_no - 1]
    payload = {k: v for k, v in pqrst_body(record).items() if k != "kind"}
    store.append("clinic/p1/ecg/pqrst", "p1", payload, received_at=received_at)


def test_ecg_window_is_half_open(gw, store):
    append_one_pqrst(store, EPOCH_MS)

    # [20s, 21s) contains the document
    status, body = request(
        gw, "GET",
        "/patients/p1/ecg?from=2023-11-14T22:13:20Z&to=2023-11-14T22:13:21Z")
    assert status == 200 and len(body) == 1

    # [19s, 20s) excludes it: `to` is exclusive
    status, body = request(
        gw, "GET",
        "/patients/p1/ecg?from=2023-11-14T22:13:19Z&to=2023-11-14T22:13:20Z")
    assert status == 200 and body == []

    # the empty window [t, t) is legal and empty
    status, body = request(
        gw, "GET",
        "/patients/p1/ecg?from=2023-11-14T22:13:20Z&to=2023-11-14T22:13:20Z")
    assert status == 200 and body == []


def test_ecg_window_honors_utc_offset_and_naive(gw, store):
    append_one_pqrst(store, EPOCH_MS)
    # +05:30 local time for the same instant
    status, body = request(
        gw, "GET",
        "/patients/p1/ecg?from=2023-11-15T03:43:20%2B05:30&to=2023-11-15T03:43:21%2B05:30")
    assert status == 200 and len(body) == 1
    # a naive timestamp counts as UTC
    status, body = request(
        gw, "GET",
        "/patients/p1/ecg?from=2023-11-14T22:13:20&to=2023-11-14T22:13:21")
    assert status == 200 and len(body) == 1


def test_ecg_from_after_to_400(gw):
    status, body = request(
        gw, "GET",
        "/patients/p1/ecg?from=2023-11-14T22:13:21Z&to=2023-11-14T22:13:20Z")
    assert status == 400
    assert body["code"] == "bad_window"


def test_ecg_bad_timestamp_400(gw):
    status, body = request(gw, "GET", "/patients/p1/ecg?from=yesterday&to=now")
    assert status == 400
    assert body["code"] == "bad_timestamp"


def test_ecg_missing_params_400(gw):
    status, body = request(gw, "GET", "/patients/p1/ecg?from=2023-11-14T22:13:20Z")
    assert status == 400
    assert body["code"] == "missing_window"


def test_ecg_unknown_patient_is_empty_list(gw):
    status, body = request(
        gw, "GET",
        "/patients/ghost/ecg?from=1970-01-01T00:00:00Z&to=2100-01-01T00:00:00Z")
    assert status == 200
    assert body == []


# ------------------------------------------------------------------- stats

def load_sample_records(store):
    for i, record in enumerate(sample_data.sample_records()):
        payload = {k: v for k, v in pqrst_body(record).items() if k != "kind"}
        store.append("clinic/p1/ecg/pqrst", "p1", payload,
                     received_at=EPOCH_MS + i * 1000)


def test_stats_empty_store_404(gw):
    status, body = request(gw, "GET", "/stats")
    assert status == 404
    assert body["code"] == "empty_store"


def test_stats_matches_direct_analysis(gw, store):
    load_sample_records(store)
    status, body = request(gw, "GET", "/stats")
    assert status == 200
    assert body["count"] == 20

    summary = analytics.describe(sample_data.sample_dataset())
    for name in analytics.COLUMNS:
        got = body["stats"][name]
        want = summary[name]
        assert got["count"] == want.count
        for field in ("mean", "std", "min", "q25", "q50", "q75", "max"):
            assert got[field] == pytest.approx(getattr(want, field), abs=1e-12)


def test_stats_correlation_matches_direct(gw, store):
    load_sample_records(store)
    status, body = request(gw, "GET", "/stats")
    assert status == 200
    assert body["correlation"]["columns"] == list(analytics.COLUMNS)
    want = analytics.correlation_matrix(sample_data.sample_dataset())
    got = body["correlation"]["matrix"]
    for i in range(len(analytics.COLUMNS)):
        for j in range(len(analytics.COLUMNS)):
            assert got[i][j] == pytest.approx(want[i][j], abs=1e-12)


def test_stats_single_record_has_null_correlation(gw, store):
    append_one_pqrst(store, EPOCH_MS)
    status, body = request(gw, "GET", "/stats")
    assert status == 200
    assert body["count"] == 1
    assert body["correlation"] is None
    assert body["stats"]["R"]["std"] == 0.0


def test_stats_quality_bands(gw, store):
    load_sample_records(store)
    status, body = request(gw, "GET", "/stats")
    assert status == 200
    assert body["quality"] == {
        "Excellent": {"count": 14, "pct": 70.0},
        "Acceptable": {"count": 5, "pct": 25.0},
        "Poor": {"count": 1, "pct": 5.0},
    }


# -------------------------------------------------------------- prediction

def test_prediction_without_model_503(gw, store):
    load_sample_records(store)
    status, body = request(gw, "GET", "/patients/p1/prediction")
    assert status == 503
    assert body["code"] == "no_model"


def test_prediction_without_records_404(gw_with_model):
    status, body = request(gw_with_model, "GET", "/patients/p1/prediction")
    assert status == 404
    assert body["code"] == "no_records"


def test_prediction_uses_latest_record(gw_with_model, store):
    load_sample_records(store)
    status, body = request(gw_with_model, "GET", "/patients/p1/prediction")
    assert status == 200
    assert set(body) == {"patient_id", "record_no", "actual_r",
                         "predicted_r", "abs_error"}

    # the latest record is the last one loaded
    record = sample_data.sample_records()[-1]
    expected = regression.predict(
        gw_with_model.model,
        {"S": record.s, "T": record.t, "Age": record.age})
    assert body["patient_id"] == "p1"
    assert body["record_no"] == record.record_no
    assert body["actual_r"] == pytest.approx(record.r, abs=1e-12)
    assert body["predicted_r"] == pytest.approx(expected, abs=1e-9)
    assert body["abs_error"] == pytest.approx(abs(record.r - expected), abs=1e-9)


def test_unreadable_model_file_leaves_gateway_modelless(store, tmp_path):
    cfg = GatewayConfig(http_port=0, model_path=str(tmp_path / "missing.txt"))
    gateway = Gateway(store, cfg).start()
    try:
        assert gateway.model is None
        status, body = request(gateway, "GET", "/patients/p1/prediction")
        assert status == 503
    finally:
        gateway.stop()
