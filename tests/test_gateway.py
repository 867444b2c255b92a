"""Tests for the HTTP gateway: routing, windows, stats, prediction,
and the ingest endpoint, each against a live server on a loopback port.
"""

import builtins
import gc
import http.client
import json
import logging
import socket
import socketserver
import statistics
import struct
import threading
import time
import weakref
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import example, given, settings, strategies as st

from ecgmon import analytics, cli, regression, sample_data, store as store_mod
from ecgmon.config import GatewayConfig
from ecgmon.gateway import (MAX_BODY_BYTES, MAX_HEADER_LINES, MAX_LINE_BYTES, Gateway,
                            _parse_rfc3339)
from ecgmon.ingest import IngestionSink
from ecgmon.mqtt.broker import Broker
from ecgmon.mqtt.client import MqttClient
from ecgmon.store import RecordStore
from test_store import (blocked_append_fsync, fail_append_fsync, heartbeat, reference_encode_line,
                        reference_served, returns_within, stored_lines)

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

def test_a_stopped_gateway_is_freed_without_a_full_collection(store):
    """Its handler class, which only a full collection frees, holds it weakly."""
    gateway = Gateway(store, GatewayConfig(http_port=0)).start()
    assert request(gateway, "GET", "/stats")[0] == 404
    gateway.stop()
    freed = weakref.ref(gateway)
    gc.disable()
    try:
        del gateway
        assert freed() is None
    finally:
        gc.enable()


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


def test_each_response_is_one_write_on_a_keep_alive_connection(gw, store, monkeypatch):
    writes = []
    write = socketserver._SocketWriter.write

    def spy(self, data):
        writes.append(bytes(data))
        return write(self, data)

    monkeypatch.setattr(socketserver._SocketWriter, "write", spy)
    load_sample_records(store)
    exchanges = [("POST", "/ingest", json.dumps(heartbeat_body()).encode(), 201),
                 ("GET", "/patients/p1/heartbeat/latest", None, 200),
                 ("GET", f"/patients/p1/ecg?{ALL_TIME}", None, 200),
                 ("GET", "/stats", None, 200),
                 ("GET", "/patients/p1/prediction", None, 503),
                 ("GET", "/nope", None, 404)]
    conn = http.client.HTTPConnection("127.0.0.1", gw.port, timeout=5)
    try:
        for n, (method, path, body, expected) in enumerate(exchanges, 1):
            conn.request(method, path, body=body)
            resp = conn.getresponse()
            payload = resp.read()
            assert resp.status == expected
            assert len(writes) == n
            assert writes[-1].endswith(b"\r\n\r\n" + payload)
    finally:
        conn.close()


def test_post_to_unknown_route_404(gw):
    status, body = request(gw, "POST", "/patients/p1/ecg", body={})
    assert status == 404
    assert body["code"] == "not_found"


def test_an_unexpected_error_in_a_post_is_500_and_the_connection_serves_on(gw, monkeypatch, caplog):
    def submit(*args, **kwargs):
        raise RuntimeError("sink exploded")

    monkeypatch.setattr(gw.sink, "submit", submit)
    conn = http.client.HTTPConnection("127.0.0.1", gw.port, timeout=5)
    try:
        with caplog.at_level(logging.ERROR, logger="ecgmon.gateway"):
            conn.request("POST", "/ingest", body=json.dumps(heartbeat_body()).encode())
            resp = conn.getresponse()
            problem = json.loads(resp.read())
        sock = conn.sock
        assert resp.status == 500
        assert (problem["code"], problem["detail"]) == ("internal_error", "sink exploded")
        assert "POST /ingest failed" in caplog.text
        conn.request("GET", "/patients/p1/heartbeat/latest")
        resp = conn.getresponse()
        assert (resp.status, json.loads(resp.read())["code"]) == (404, "no_heartbeat")
        assert conn.sock is sock
    finally:
        conn.close()


# ----------------------------------------------------------------- framing

def exchange(sock, data):
    """Send raw request bytes; returns (status, JSON body, Connection header)."""
    sock.sendall(data)
    resp = http.client.HTTPResponse(sock)
    resp.begin()
    return resp.status, json.loads(resp.read()), resp.getheader("Connection")


def closed_by_server(sock):
    try:
        return sock.recv(1) == b""
    except ConnectionResetError:  # closed with unread request bytes still queued
        return True


def wait_for_thread_count(count):
    deadline = time.monotonic() + 5
    while threading.active_count() > count and time.monotonic() < deadline:
        time.sleep(0.01)
    return threading.active_count()


def header_lines(n):
    return b"Host: localhost\r\n" + b"".join(b"X-N: %d\r\n" % i for i in range(n - 1))


LONG = b"a" * MAX_LINE_BYTES


@pytest.mark.parametrize("data,status,code", [
    (b"GET /stats HTTP/1.1\r\n" + header_lines(MAX_HEADER_LINES + 1) + b"\r\n",
     431, "headers_too_large"),
    (b"GET /" + LONG + b" HTTP/1.1\r\nHost: localhost\r\n\r\n", 414, "uri_too_long"),
    (b"GET /stats HTTP/1.1\r\nHost: localhost\r\nX-Long: " + LONG + b"\r\n\r\n",
     431, "headers_too_large"),
    (b"hello\r\n\r\n", 400, "bad_request"),
    (b"GET /stats\r\n\r\n", 400, "bad_request"),
    (b"GET /stats HTTP/2.0\r\nHost: localhost\r\n\r\n", 505, "version_not_supported"),
    (b"PUT /ingest HTTP/1.1\r\nHost: localhost\r\nContent-Length: 2\r\n\r\n{}",
     501, "not_implemented"),
    (b"HEAD /stats HTTP/1.1\r\nHost: localhost\r\n\r\n", 501, "not_implemented"),
    (b"GET /stats HTTP/1.1\r\n\r\n", 400, "bad_request"),
    (b"GET /stats HTTP/1.1\r\nHost: a\r\nHost: b\r\n\r\n", 400, "bad_request"),
    (b"GET /stats HTTP/1.1\r\nHost : localhost\r\n\r\n", 400, "bad_request"),
    (b"GET /stats HTTP/1.1\r\nHost: localhost\r\nX-A: 1\r\n folded\r\n\r\n",
     400, "bad_request"),
    (b"GET /stats HTTP/1.1\r\nHost: localhost\r\nno colon\r\n\r\n", 400, "bad_request"),
], ids=["101-header-lines", "long-request-line", "long-header-line", "junk-request-line",
        "no-version", "http-2", "put", "head", "no-host", "two-hosts", "space-before-colon",
        "folded-line", "no-colon"])
def test_hostile_request_gets_a_problem_document_and_a_close(gw, data, status, code):
    baseline = threading.active_count()
    with socket.create_connection(("127.0.0.1", gw.port), timeout=5) as sock:
        answer, problem, connection = exchange(sock, data)
        assert (answer, problem["status"], problem["code"]) == (status, status, code)
        assert set(problem) == {"status", "code", "detail"}
        assert connection == "close"
        assert closed_by_server(sock)
    assert wait_for_thread_count(baseline) == baseline


def test_request_at_the_limits_is_served_on_a_kept_connection(gw):
    # 100 header lines, one of them 8 KiB with its CRLF
    longest = b"X-Long: " + b"a" * (MAX_LINE_BYTES - 10) + b"\r\n"
    assert len(longest) == MAX_LINE_BYTES
    data = (b"GET /stats HTTP/1.1\r\n" + header_lines(MAX_HEADER_LINES - 1) + longest
            + b"\r\n")
    with socket.create_connection(("127.0.0.1", gw.port), timeout=5) as sock:
        for _ in range(2):
            status, problem, connection = exchange(sock, data)
            assert (status, problem["code"], connection) == (404, "empty_store", None)


def test_bare_newline_line_endings_are_served(gw):
    with socket.create_connection(("127.0.0.1", gw.port), timeout=5) as sock:
        for _ in range(2):
            status, problem, connection = exchange(sock, b"GET /nope HTTP/1.1\nHost: x\n\n")
            assert (status, problem["code"], connection) == (404, "not_found", None)


def test_http_1_0_closes_unless_it_asks_for_keep_alive(gw):
    baseline = threading.active_count()
    with socket.create_connection(("127.0.0.1", gw.port), timeout=5) as sock:
        assert exchange(sock, b"GET /stats HTTP/1.0\r\n\r\n")[::2] == (404, "close")
        assert closed_by_server(sock)
    with socket.create_connection(("127.0.0.1", gw.port), timeout=5) as sock:
        for _ in range(2):
            assert exchange(sock, b"GET /stats HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n"
                            )[::2] == (404, None)
    with socket.create_connection(("127.0.0.1", gw.port), timeout=5) as sock:
        data = b"GET /stats HTTP/1.1\r\nHost: x\r\nConnection: keep-alive, close\r\n\r\n"
        assert exchange(sock, data)[::2] == (404, "close")
        assert closed_by_server(sock)
    assert wait_for_thread_count(baseline) == baseline


def test_expect_100_continue_is_answered_before_the_body_is_read(gw, store):
    with socket.create_connection(("127.0.0.1", gw.port), timeout=5) as sock:
        sock.sendall(f"POST /ingest HTTP/1.1\r\nHost: localhost\r\nExpect: 100-continue\r\n"
                     f"Content-Length: {BODY_LEN}\r\n\r\n".encode())
        assert sock.recv(64) == b"HTTP/1.1 100 Continue\r\n\r\n"
        assert exchange(sock, INGEST_BODY)[:2] == (201, {"sequence": 1})
    assert store.latest("p1", "heartbeat").payload["bpm"] == 72


@pytest.mark.parametrize("length", [None, "chunked"], ids=["chunked", "chunked-and-length"])
def test_transfer_encoding_is_refused_once_and_closes(gw, store, length):
    """Read by Content-Length, or as no body, a chunked body was a second
    request on the connection (RFC 9112 §6.1, §6.3)."""
    chunked = b"%x\r\n%s\r\n0\r\n\r\n" % (len(INGEST_BODY), INGEST_BODY)
    framing = b"Transfer-Encoding: chunked\r\n"
    if length:
        framing += b"Content-Length: %d\r\n" % len(chunked)
    baseline = threading.active_count()
    with socket.create_connection(("127.0.0.1", gw.port), timeout=5) as sock:
        status, problem, connection = exchange(
            sock, b"POST /ingest HTTP/1.1\r\nHost: localhost\r\n" + framing + b"\r\n" + chunked)
        assert (status, problem["code"], connection) == (501, "not_implemented", "close")
        assert closed_by_server(sock)
    assert wait_for_thread_count(baseline) == baseline
    assert store.read_class("heartbeat") == []


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


def test_ingest_record_no_beyond_exact_json_integers_422(gw):
    """A record number no float64 carries exactly is refused, so it can
    never reach the stats matrix; /stats keeps answering."""
    record = sample_data.sample_records()[0]
    for record_no in (2**53, 10**400):
        status, body = request(gw, "POST", "/ingest",
                               body=pqrst_body(record, record_no=record_no))
        assert status == 422
        assert body["code"] == "invalid_document"
    status, _ = request(gw, "POST", "/ingest", body=pqrst_body(record, record_no=2**53 - 1))
    assert status == 201
    status, body = request(gw, "GET", "/stats")
    assert status == 200
    assert body["stats"]["RecordNo"]["max"] == 2**53 - 1


def test_a_document_whose_fsync_fails_never_shows_in_stats(gw, store, monkeypatch):
    """/stats answers at once while the append's fsync is held, and shows
    the document neither then nor after the fsync fails."""
    record = sample_data.sample_records()[0]
    for record_no in (1, 2):
        assert request(gw, "POST", "/ingest", body=pqrst_body(record, record_no=record_no))[0] == 201
    entered, release = blocked_append_fsync(monkeypatch, fail=True)
    posted = []
    poster = threading.Thread(target=lambda: posted.append(
        request(gw, "POST", "/ingest", body=pqrst_body(record, record_no=3))))
    poster.start()
    try:
        assert entered.wait(5)
        status, body = returns_within(1, lambda: request(gw, "GET", "/stats"))
        assert (status, body["count"]) == (200, 2)
    finally:
        release.set()
        poster.join(30)
    assert not poster.is_alive()
    assert [(status, body["code"]) for status, body in posted] == [(503, "store_unavailable")]
    status, body = request(gw, "GET", "/stats")
    assert (status, body["count"], body["stats"]["RecordNo"]["max"]) == (200, 2, 2)


def test_ingest_integer_over_digit_limit_400(gw):
    status, body = request(gw, "POST", "/ingest",
                           body=b'{"kind": "pqrst", "record_no": 1' + b"0" * 5000 + b"}")
    assert status == 400
    assert body["code"] == "bad_json"


def test_ingest_deeply_nested_json_400(gw):
    status, body = request(gw, "POST", "/ingest", body=b"[" * 100_000 + b"]" * 100_000)
    assert status == 400
    assert body["code"] == "bad_json"


def with_nested_extra(body, depth):
    """The JSON of `body` plus an extra field "x" of `depth` nested lists."""
    return json.dumps(body).encode()[:-1] + b', "x": ' + b"[" * depth + b"0" + b"]" * depth + b"}"


def test_ingest_nested_extra_field_400_and_latest_still_answers(gw):
    status, _ = request(gw, "POST", "/ingest", body=heartbeat_body(bpm=72))
    assert status == 201
    status, body = request(gw, "POST", "/ingest", body=with_nested_extra(heartbeat_body(bpm=99), 500))
    assert status == 400
    assert body["code"] == "invalid_document"
    status, body = request(gw, "GET", "/patients/p1/heartbeat/latest")
    assert status == 200
    assert body["payload"]["bpm"] == 72
    # at the limit the document is stored and read back whole
    limit = store_mod.MAX_EXTRA_DEPTH
    status, _ = request(gw, "POST", "/ingest", body=with_nested_extra(heartbeat_body(bpm=80), limit))
    assert status == 201
    status, body = request(gw, "GET", "/patients/p1/heartbeat/latest")
    assert status == 200
    assert body["payload"]["bpm"] == 80
    assert json.dumps(body["payload"]["x"]) == "[" * limit + "0" + "]" * limit


def test_nested_extra_field_over_mqtt_is_acked_and_dropped(store):
    sink = IngestionSink(store).start()
    broker = Broker("127.0.0.1", 0, sink=sink).start()
    gateway = Gateway(store, GatewayConfig(http_port=0)).start()
    client = MqttClient(client_id="nested").connect("127.0.0.1", broker.port)
    try:
        payload = {k: v for k, v in heartbeat_body(bpm=72).items() if k != "kind"}
        client.publish("clinic/p1/heartbeat", json.dumps(payload).encode(), qos=1)
        # publish returns once the PUBACK is read, so the message was acked
        client.publish("clinic/p1/heartbeat", with_nested_extra(dict(payload, bpm=99), 500), qos=1)
        assert [d.payload["bpm"] for d in store.read_class("heartbeat")] == [72]
        status, body = request(gateway, "GET", "/patients/p1/heartbeat/latest")
        assert status == 200
        assert body["payload"]["bpm"] == 72
    finally:
        client.disconnect()
        gateway.stop()
        broker.stop()
        sink.stop()


NON_FINITE = [b"NaN", b"Infinity", b"-Infinity"]


def with_extra_literal(body, literal):
    """The JSON of `body` plus an extra field "x" holding a list of one `literal`."""
    return json.dumps(body).encode()[:-1] + b', "x": [' + literal + b"]}"


@pytest.mark.parametrize("literal", NON_FINITE)
def test_ingest_non_finite_number_400(gw, literal):
    status, body = request(gw, "POST", "/ingest", body=with_extra_literal(heartbeat_body(), literal))
    assert status == 400
    assert body["code"] == "invalid_document"
    assert body["detail"].startswith("payload: ")
    status, body = request(gw, "GET", "/patients/p1/heartbeat/latest")
    assert status == 404


@pytest.mark.parametrize("literal", NON_FINITE)
def test_non_finite_number_over_mqtt_is_acked_and_dropped(store, literal):
    sink = IngestionSink(store).start()
    broker = Broker("127.0.0.1", 0, sink=sink).start()
    client = MqttClient(client_id="non-finite").connect("127.0.0.1", broker.port)
    try:
        payload = {k: v for k, v in heartbeat_body(bpm=72).items() if k != "kind"}
        # publish returns once the PUBACK is read, so the message was acked
        client.publish("clinic/p1/heartbeat", with_extra_literal(dict(payload, bpm=99), literal), qos=1)
        client.publish("clinic/p1/heartbeat", json.dumps(payload).encode(), qos=1)
        assert [d.payload["bpm"] for d in store.read_class("heartbeat")] == [72]
    finally:
        client.disconnect()
        broker.stop()
        sink.stop()


def test_nan_stored_before_it_was_refused_is_served_as_null(tmp_path):
    root = tmp_path / "telemetry"
    log = root / "heartbeat" / "2023-11-14.log"
    log.parent.mkdir(parents=True)
    payload = {k: v for k, v in heartbeat_body().items() if k != "kind"}
    log.write_bytes(reference_encode_line({
        "seq": 1, "topic": "clinic/p1/heartbeat", "patient_id": "p1", "received_at": EPOCH_MS,
        "message_id": None, "payload": dict(payload, x=[float("nan"), float("-inf")])}))
    with RecordStore(root) as store:
        gateway = Gateway(store, GatewayConfig(http_port=0)).start()
        try:
            status, body = request(gateway, "GET", "/patients/p1/heartbeat/latest")
        finally:
            gateway.stop()
    assert status == 200
    assert body["payload"] == dict(payload, x=[None, None])


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


INGEST_BODY = json.dumps(heartbeat_body()).encode("utf-8")
BODY_LEN = str(len(INGEST_BODY))


@pytest.mark.parametrize("lengths,status,code", [
    ([f"+{BODY_LEN}"], 400, "bad_length"),
    ([f"{BODY_LEN[0]}_{BODY_LEN[1:]}"], 400, "bad_length"),
    (["-0"], 400, "bad_length"),
    ([BODY_LEN, str(len(INGEST_BODY) + 1)], 400, "bad_length"),
    (["9" * 5000], 413, "body_too_large"),
], ids=["plus", "underscore", "minus-zero", "two-differing", "5000-digits"])
def test_ingest_content_length_other_than_digits_is_refused_and_closes(gw, store, lengths,
                                                                      status, code):
    # RFC 9110 §8.6 (1*DIGIT) and RFC 9112 §6.3 (differing values); the
    # whole body is sent, so only the header decides
    headers = "".join(f"Content-Length: {value}\r\n" for value in lengths)
    with socket.create_connection(("127.0.0.1", gw.port), timeout=5) as sock:
        sock.sendall(f"POST /ingest HTTP/1.1\r\nHost: localhost\r\n"
                     f"Connection: keep-alive\r\n{headers}\r\n".encode() + INGEST_BODY)
        resp = http.client.HTTPResponse(sock)
        resp.begin()
        problem = json.loads(resp.read())
        assert (resp.status, problem["code"]) == (status, code)
        assert resp.getheader("Connection") == "close"
        try:
            assert sock.recv(1) == b""
        except ConnectionResetError:  # closed with the unread body still queued
            pass
    assert store.latest("p1", "heartbeat") is None


def test_ingest_content_length_with_surrounding_whitespace_or_repeated_is_read(gw, store):
    headers = f"Content-Length: \t{BODY_LEN} \r\nContent-Length: {BODY_LEN}\r\n"
    with socket.create_connection(("127.0.0.1", gw.port), timeout=5) as sock:
        sock.sendall(f"POST /ingest HTTP/1.1\r\nHost: localhost\r\n{headers}\r\n".encode()
                     + INGEST_BODY)
        resp = http.client.HTTPResponse(sock)
        resp.begin()
        assert (resp.status, json.loads(resp.read())) == (201, {"sequence": 1})
    assert store.latest("p1", "heartbeat").payload["bpm"] == 72



def handler_threads():
    return {t for t in threading.enumerate() if t.name.endswith("(_run)")}


def test_stalled_connections_are_closed_and_release_their_threads(gw, monkeypatch, caplog):
    monkeypatch.setattr("ecgmon.gateway._Handler.read_timeout_s", 0.5)

    before = handler_threads()
    with socket.create_connection(("127.0.0.1", gw.port), timeout=5) as stalled, \
            socket.create_connection(("127.0.0.1", gw.port), timeout=5) as silent:
        # headers that announce a body which never comes, and nothing at all
        stalled.sendall(b"POST /ingest HTTP/1.1\r\nHost: localhost\r\n"
                        b"Content-Length: 10\r\n\r\n")
        deadline = time.monotonic() + 5
        while len(handler_threads() - before) < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        threads = handler_threads() - before
        assert len(threads) == 2
        assert stalled.recv(1) == b""
        assert silent.recv(1) == b""
    for thread in threads:
        thread.join(timeout=5)
        assert not thread.is_alive()
    assert not [r for r in caplog.records if r.levelno >= logging.ERROR]


def test_a_get_with_a_body_is_answered_once_and_closes(gw, store):
    """A GET's body is never read; left on the connection, it would be
    served as the next request (RFC 9112 §6.3, §11.2)."""
    smuggled = b"POST /ingest HTTP/1.1\r\nHost: localhost\r\nContent-Length: %s\r\n\r\n%s" % (
        BODY_LEN.encode(), INGEST_BODY)
    with socket.create_connection(("127.0.0.1", gw.port), timeout=5) as sock:
        sock.sendall(b"GET /stats HTTP/1.1\r\nHost: localhost\r\nContent-Length: %d\r\n\r\n%s"
                     % (len(smuggled), smuggled))
        sock.shutdown(socket.SHUT_WR)
        answered = b""
        try:
            while chunk := sock.recv(65536):
                answered += chunk
        except ConnectionResetError:  # closed with the unread body still queued
            pass
    head = answered.partition(b"\r\n\r\n")[0]
    assert answered.count(b"HTTP/1.1 ") == 1
    assert head.startswith(b"HTTP/1.1 404 ") and b"\r\nConnection: close" in head
    assert store.read_class("heartbeat") == []


def test_a_reset_mid_request_ends_its_handler_quietly(gw, caplog):
    before = handler_threads()
    sock = socket.create_connection(("127.0.0.1", gw.port), timeout=5)
    sock.sendall(b"GET /stats HT")          # a request line cut short
    deadline = time.monotonic() + 5
    while not handler_threads() - before and time.monotonic() < deadline:
        time.sleep(0.01)
    handlers = handler_threads() - before
    assert len(handlers) == 1
    # SO_LINGER of (on, 0 s): close() sends an RST, not a FIN
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    sock.close()
    for thread in handlers:
        thread.join(timeout=1)
        assert not thread.is_alive()
    assert not [r for r in caplog.records if r.levelno >= logging.ERROR]


@pytest.mark.parametrize("whole_system", [False, True], ids=["gateway", "system"])
def test_stop_ends_kept_alive_connections(tmp_path, caplog, whole_system):
    """A request on a kept-alive connection after stop() reads EOF: it is
    not served by a stopped gateway, nor over a closed store."""
    root = tmp_path / "telemetry"
    if whole_system:
        system = cli.start_system(GatewayConfig(http_port=0, mqtt_port=0, store_root=str(root)))
        port, stop = system.gateway.port, system.stop
    else:
        store = RecordStore(root)
        gateway = Gateway(store, GatewayConfig(http_port=0)).start()
        port, stop = gateway.port, gateway.stop
    get = b"GET /stats HTTP/1.1\r\nHost: localhost\r\n\r\n"
    before = handler_threads()
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
            assert exchange(sock, get)[::2] == (404, None)
            handlers = handler_threads() - before
            assert len(handlers) == 1
            stop()
            sock.sendall(get)
            assert closed_by_server(sock)
        for thread in handlers:
            thread.join(timeout=1)
            assert not thread.is_alive()
        assert not [r for r in caplog.records if r.levelno >= logging.ERROR]
    finally:
        stop()
        if not whole_system:
            store.close()


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


def test_ingest_with_the_sink_stopped_and_its_queue_full_is_503_busy(gw, store):
    gw.sink.stop()
    no_wait = threading.Event()
    no_wait.set()
    # invalid payloads, so that the backlog is dropped at once when the sink restarts
    while gw.sink.submit("clinic/p9/heartbeat", b"not json", None,
                         abort=no_wait) is not None:
        pass
    started = time.monotonic()
    status, body = request(gw, "POST", "/ingest", body=heartbeat_body(bpm=72))
    assert time.monotonic() - started < 1
    assert (status, body["code"]) == (503, "busy")
    assert store.read_class("heartbeat") == []
    gw.sink.start()
    status, body = request(gw, "POST", "/ingest", body=heartbeat_body(bpm=72))
    assert (status, body) == (201, {"sequence": 1})
    assert [d.payload["bpm"] for d in store.read_class("heartbeat")] == [72]


def test_ingest_queued_while_the_sink_is_stopped_is_503_busy_after_the_wait(gw, store,
                                                                           monkeypatch):
    monkeypatch.setattr("ecgmon.gateway._Handler.read_timeout_s", 0.5)
    gw.sink.stop()
    started = time.monotonic()
    status, body = request(gw, "POST", "/ingest", body=heartbeat_body(bpm=72))
    assert time.monotonic() - started < 1
    assert (status, body["code"]) == (503, "busy")
    # the sink skips the cancelled document when it drains its queue
    gw.sink.start()
    status, body = request(gw, "POST", "/ingest", body=heartbeat_body(bpm=73))
    assert (status, body) == (201, {"sequence": 1})
    assert [d.payload["bpm"] for d in store.read_class("heartbeat")] == [73]


def queued(sink):
    return [item for item in list(sink._queue.queue) if item is not None]


def test_stop_withdraws_an_ingest_still_queued_and_ends_its_handler(store, caplog):
    gateway = Gateway(store, GatewayConfig(http_port=0)).start()
    gateway.sink.stop()
    before = handler_threads()
    try:
        with socket.create_connection(("127.0.0.1", gateway.port), timeout=5) as sock:
            sock.sendall(b"POST /ingest HTTP/1.1\r\nHost: localhost\r\nContent-Length: %s\r\n\r\n%s"
                         % (BODY_LEN.encode(), INGEST_BODY))
            # queued behind the stopped sink's wake-up, which may still be there
            deadline = time.monotonic() + 5
            while not queued(gateway.sink) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert len(queued(gateway.sink)) == 1
            handlers = handler_threads() - before
            assert len(handlers) == 1
            gateway.stop()
            assert closed_by_server(sock)
        for thread in handlers:
            thread.join(timeout=1)
            assert not thread.is_alive()
        # the queue is drained in order, so the withdrawn item was skipped
        # by the time a later one is stored
        gateway.sink.start()
        later = gateway.sink.submit("clinic/p2/heartbeat", json.dumps(heartbeat("p2")).encode(), None)
        assert later.result(timeout=5) == 1
        assert [d.patient_id for d in store.read_class("heartbeat")] == ["p2"]
        assert not [r for r in caplog.records if r.levelno >= logging.ERROR]
    finally:
        gateway.stop()


def test_ingest_during_an_fsync_failure_is_503_and_the_retry_is_stored_once(tmp_path, monkeypatch):
    root = tmp_path / "telemetry"
    with RecordStore(root) as store:
        gateway = Gateway(store, GatewayConfig(http_port=0)).start()
        try:
            fail_append_fsync(monkeypatch)
            status, body = request(gateway, "POST", "/ingest", body=heartbeat_body(bpm=72))
            assert (status, body["code"]) == (503, "store_unavailable")
            assert "injected fsync failure" in body["detail"]
            assert store.read_class("heartbeat") == []
            status, body = request(gateway, "POST", "/ingest", body=heartbeat_body(bpm=72))
            assert (status, body) == (201, {"sequence": 1})
        finally:
            gateway.stop()
        served = [(d.sequence, d.payload) for d in store.read_class("heartbeat")]
    payload = {k: v for k, v in heartbeat_body(bpm=72).items() if k != "kind"}
    assert served == [(1, payload)]
    with RecordStore(root) as store:
        assert [(d.sequence, d.payload) for d in store.read_class("heartbeat")] == served


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


UTC_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
MS_BEFORE_2100 = (datetime(2100, 1, 1, tzinfo=timezone.utc) - UTC_EPOCH) // timedelta(milliseconds=1)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, MS_BEFORE_2100 - 1))
@example(1079337347472)
def test_every_millisecond_round_trips_in_utc_and_with_an_offset(ms):
    """Float arithmetic parsed 2004-03-15T07:55:47.472Z as ...471 ms."""
    instant = UTC_EPOCH + timedelta(milliseconds=ms)
    utc = instant.isoformat(timespec="milliseconds").replace("+00:00", "Z")
    local = instant.astimezone(timezone(timedelta(hours=5, minutes=30))).isoformat(
        timespec="milliseconds")
    assert local.endswith("+05:30")
    assert _parse_rfc3339(utc) == _parse_rfc3339(local) == ms


def test_sub_millisecond_bounds_round_up():
    # received_at is whole milliseconds: 472 is not in [472.001, ...), 473 is
    assert _parse_rfc3339("2004-03-15T07:55:47.472Z") == 1079337347472
    assert _parse_rfc3339("2004-03-15T07:55:47.472001Z") == 1079337347473
    assert _parse_rfc3339("1969-12-31T23:59:59.9995Z") == 0


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


ALL_TIME = "from=1970-01-01T00:00:00Z&to=2100-01-01T00:00:00Z"


def raw_request(gateway, path):
    """One GET; returns (status, body bytes)."""
    conn = http.client.HTTPConnection("127.0.0.1", gateway.port, timeout=5)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def test_window_and_latest_serve_the_reference_documents(gw, store, tmp_path):
    extras = [{}, {"x": "é \"NaN\" \ud800", "y": [-0.0, 2**53 - 1, {"Infinity": None}]}]
    for i, (record, extra) in enumerate(zip(sample_data.sample_records(), extras * 3)):
        payload = {k: v for k, v in pqrst_body(record).items() if k != "kind"}
        store.append("clinic/p1/ecg/pqrst", "p1", dict(payload, **extra),
                     received_at=EPOCH_MS + i)
    heartbeat = {k: v for k, v in heartbeat_body().items() if k != "kind"}
    store.append("clinic/p1/heartbeat", "p1", dict(heartbeat, x="\u2028"))
    lines = stored_lines(tmp_path / "telemetry")
    docs = store.read_class("pqrst")
    status, raw = raw_request(gw, f"/patients/p1/ecg?{ALL_TIME}")
    assert status == 200
    # the stored bytes are compact; parsed and encoded again they are the reference
    assert json.dumps(json.loads(raw)) == "[%s]" % ", ".join(
        reference_served(lines[d.sequence]) for d in docs)
    status, raw = raw_request(gw, "/patients/p1/heartbeat/latest")
    assert status == 200
    assert json.dumps(json.loads(raw)) == reference_served(lines[len(docs) + 1])


def test_window_over_a_damaged_line_answers_500_with_none_of_its_bytes(gw, store, tmp_path):
    append_one_pqrst(store, EPOCH_MS, record_no=1)
    append_one_pqrst(store, EPOCH_MS + 1, record_no=2)
    log = tmp_path / "telemetry" / "pqrst" / "2023-11-14.log"
    raw = log.read_bytes()
    at = raw.rindex(b'"age":') + len(b'"age":')
    assert raw[at:at + 1].isdigit()
    # the same length, changed in place after open
    log.write_bytes(raw[:at] + (b"1" if raw[at:at + 1] != b"1" else b"2") + raw[at + 1:])
    with pytest.raises(store_mod.StoreError, match="checksum"):
        store.read_range("p1", "pqrst", 0, 2**62)
    status, body = raw_request(gw, f"/patients/p1/ecg?{ALL_TIME}")
    assert status == 500
    problem = json.loads(body)
    assert problem["code"] == "internal_error" and "checksum" in problem["detail"]
    assert b'"payload"' not in body and b'"record_no"' not in body


class CountingDecoder:
    """Counts the store's JSON decodes."""

    def __init__(self, decoder):
        self.decoder = decoder
        self.calls = 0

    def decode(self, text):
        self.calls += 1
        return self.decoder.decode(text)


def test_window_and_latest_decode_nothing_and_prediction_one_payload(gw_with_model, store,
                                                                     monkeypatch):
    load_sample_records(store)
    store.append("clinic/p1/heartbeat", "p1", {k: v for k, v in heartbeat_body().items()
                                               if k != "kind"})
    decoder = CountingDecoder(store_mod._DECODER)
    monkeypatch.setattr(store_mod, "_DECODER", decoder)
    status, body = request(gw_with_model, "GET", f"/patients/p1/ecg?{ALL_TIME}")
    assert status == 200 and len(body) == len(sample_data.sample_records())
    status, body = request(gw_with_model, "GET", "/patients/p1/heartbeat/latest")
    assert status == 200 and body["payload"]["bpm"] == 72
    assert decoder.calls == 0
    status, body = request(gw_with_model, "GET", "/patients/p1/prediction")
    assert status == 200 and body["record_no"] == sample_data.sample_records()[-1].record_no
    assert decoder.calls == 1


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


def test_stats_reads_no_log_file(gw, store, monkeypatch):
    load_sample_records(store)
    opened = []

    def spy(*args, **kwargs):
        opened.append(args)
        return builtins.open(*args, **kwargs)

    monkeypatch.setattr(store_mod, "open", spy, raising=False)
    status, body = request(gw, "GET", "/stats")
    assert status == 200
    assert body["count"] == 20
    assert opened == []


def get_raw(gateway, path):
    conn = http.client.HTTPConnection("127.0.0.1", gateway.port, timeout=5)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def test_stats_is_served_from_a_memo_until_a_record_is_added(gw, store, monkeypatch):
    load_sample_records(store)
    status, first = get_raw(gw, "/stats")
    assert status == 200
    calls = []
    describe = analytics.describe

    def spy(dataset):
        calls.append(len(dataset))
        return describe(dataset)

    monkeypatch.setattr(analytics, "describe", spy)
    assert get_raw(gw, "/stats") == (200, first)
    assert calls == []
    record = sample_data.sample_records()[0]
    payload = {k: v for k, v in pqrst_body(record, r=12.5).items() if k != "kind"}
    store.append("clinic/p1/ecg/pqrst", "p1", payload, received_at=EPOCH_MS + 20_000)
    status, third = get_raw(gw, "/stats")
    assert calls == [21]
    assert json.loads(third)["count"] == 21
    assert json.loads(third)["stats"]["R"]["min"] == 12.5
    # what a gateway with no memo answers over the same rows
    fresh = Gateway(store, GatewayConfig(http_port=0)).start()
    try:
        assert get_raw(fresh, "/stats") == (200, third)
    finally:
        fresh.stop()


def test_stats_counts_a_publish_acked_just_before(store):
    sink = IngestionSink(store).start()
    broker = Broker("127.0.0.1", 0, sink=sink).start()
    gateway = Gateway(store, GatewayConfig(http_port=0)).start()
    client = MqttClient(client_id="stats-reader").connect("127.0.0.1", broker.port)
    try:
        for n, record in enumerate(sample_data.sample_records()[:5], start=1):
            payload = {k: v for k, v in pqrst_body(record).items() if k != "kind"}
            client.publish("clinic/p1/ecg/pqrst", json.dumps(payload).encode(), qos=1)
            status, body = request(gateway, "GET", "/stats")
            assert status == 200
            assert body["count"] == n
            assert body["stats"]["RecordNo"]["max"] == record.record_no
    finally:
        client.disconnect()
        gateway.stop()
        broker.stop()
        sink.stop()


def test_stats_single_record_has_null_correlation(gw, store):
    append_one_pqrst(store, EPOCH_MS)
    status, body = request(gw, "GET", "/stats")
    assert status == 200
    assert body["count"] == 1
    assert body["correlation"] is None
    assert body["stats"]["R"]["std"] == 0.0


def test_stats_zero_variance_column_correlates_as_null(gw, store):
    for i, record in enumerate(sample_data.sample_records()):
        payload = {k: v for k, v in pqrst_body(record, age=50).items() if k != "kind"}
        store.append("clinic/p1/ecg/pqrst", "p1", payload, received_at=EPOCH_MS + i * 1000)
    status, body = request(gw, "GET", "/stats")
    assert status == 200
    age = analytics.COLUMNS.index("Age")
    matrix = body["correlation"]["matrix"]
    for i, row in enumerate(matrix):
        for j, value in enumerate(row):
            if age in (i, j):
                assert value is None
            else:
                assert isinstance(value, float)


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


def test_prediction_that_overflows_serves_null(store, tmp_path, caplog):
    path = tmp_path / "model.txt"
    path.write_text("intercept 1.0\ncoef S 1e308\n")
    load_sample_records(store)
    gateway = Gateway(store, GatewayConfig(http_port=0, model_path=str(path))).start()
    try:
        assert gateway.model is not None
        status, body = request(gateway, "GET", "/patients/p1/prediction")
    finally:
        gateway.stop()
    record = sample_data.sample_records()[-1]
    assert status == 200
    assert body == {"patient_id": "p1", "record_no": record.record_no,
                    "actual_r": pytest.approx(record.r, abs=1e-12),
                    "predicted_r": None, "abs_error": None}
    assert not [r for r in caplog.records if r.levelno >= logging.ERROR]


def test_unreadable_model_file_leaves_gateway_modelless(store, tmp_path):
    cfg = GatewayConfig(http_port=0, model_path=str(tmp_path / "missing.txt"))
    gateway = Gateway(store, cfg).start()
    try:
        assert gateway.model is None
        status, body = request(gateway, "GET", "/patients/p1/prediction")
        assert status == 503
    finally:
        gateway.stop()


@pytest.mark.parametrize("text", ["intercept\ncoef S 1.0\n", "intercept 1.0\ncoef S\n",
                                  "intercept nan\ncoef S 1.0\n", "intercept 1.0\ncoef S inf\n"])
def test_malformed_model_file_leaves_gateway_modelless(store, tmp_path, caplog, text):
    path = tmp_path / "model.txt"
    path.write_text(text)
    load_sample_records(store)
    gateway = Gateway(store, GatewayConfig(http_port=0, model_path=str(path))).start()
    try:
        assert gateway.model is None
        assert f"{path}, line " in caplog.text
        status, body = request(gateway, "GET", "/patients/p1/prediction")
        assert status == 503
        assert body["code"] == "no_model"
    finally:
        gateway.stop()


def test_model_for_another_target_leaves_gateway_modelless(store, tmp_path, caplog):
    # /prediction reports actual_r and predicted_r, so only an R model serves it
    path = tmp_path / "model.txt"
    regression.save_model(regression.LinearModel(1.0, (("R", 1.0),), target="S"), path)
    load_sample_records(store)
    gateway = Gateway(store, GatewayConfig(http_port=0, model_path=str(path))).start()
    try:
        assert gateway.model is None
        assert "predicts S, not R" in caplog.text
        status, body = request(gateway, "GET", "/patients/p1/prediction")
        assert status == 503
        assert body["code"] == "no_model"
    finally:
        gateway.stop()
