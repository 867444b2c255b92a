"""HTTP query gateway over the record store.

Pull-only JSON API: latest heartbeat, ECG records by time window,
dataset statistics, model prediction for a patient's latest record, and
an ingest endpoint that appends through the ingestion sink, as the MQTT
path does.  Every error response is a problem document {status, code, detail}.
"""

from __future__ import annotations

import contextlib
import json
import logging
import math
import socket
import socketserver
import struct
import threading
import time
from concurrent import futures
from datetime import datetime, timedelta, timezone
from email.utils import formatdate
from functools import lru_cache
from http import HTTPStatus
from typing import Optional
from urllib.parse import parse_qs

from . import analytics, device, regression
from .config import GatewayConfig
from .ingest import IngestionSink, Listener
from .store import PATIENT_ID, RecordStore, StoreError, ValidationError, load_document

__all__ = ["Gateway"]

log = logging.getLogger("ecgmon.gateway")

MAX_BODY_BYTES = 1 << 20   # a valid ingest body is under 1 KB
MAX_LINE_BYTES = 8192      # request line and each header line (RFC 9112 §3: 8,000 at least)
MAX_HEADER_LINES = 100
_REASONS = {status.value: status.phrase.encode() for status in HTTPStatus}
# the Date header's value for a second, formatted once (RFC 9110 §6.6.1)
_http_date = lru_cache(maxsize=1)(lambda second: formatdate(second, usegmt=True).encode())
_NO_WAIT = threading.Event()   # POST /ingest's `abort`: one try to queue, then 503
_NO_WAIT.set()


_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MS = timedelta(milliseconds=1)


def _parse_rfc3339(text: str) -> int:
    """RFC-3339 timestamp to UTC milliseconds; naive times count as UTC.

    Exact integer arithmetic, rounded up: a stored document's received_at
    is whole milliseconds, so it lies in the window [from, to) exactly when
    it lies in [ceil(from), ceil(to))."""
    cleaned = text.strip()
    if cleaned.endswith(("Z", "z")):
        cleaned = cleaned[:-1] + "+00:00"
    dt = datetime.fromisoformat(cleaned)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return -((_EPOCH - dt) // _MS)


# Built once, as json.dumps builds one per call that passes an option.  No
# response may hold NaN or an infinity; /stats and /prediction map theirs to
# null with _finite_or_null.
_ENCODER = json.JSONEncoder(allow_nan=False)


def _finite_or_null(value: float) -> Optional[float]:
    return value if math.isfinite(value) else None


class _Handler(socketserver.StreamRequestHandler):
    server: "Gateway"   # what the Gateway's listener passes for StreamRequestHandler's server
    # seconds a read or a queued POST /ingest may wait, so a stalled client releases its thread
    read_timeout_s = 60

    def setup(self) -> None:
        super().setup()
        # a kernel receive timeout; a socket timeout would poll() before
        # every read and write, about 7% of dashboard-query's throughput
        seconds, fraction = divmod(self.read_timeout_s, 1)
        self.connection.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO,
                                   struct.pack("ll", int(seconds), int(fraction * 1e6)))

    def handle(self) -> None:
        self.close_connection = False
        # a client that hangs up or resets mid-request or mid-answer has no one left to answer
        with contextlib.suppress(ConnectionError):
            while not self.close_connection and self._read_request():
                try:
                    (self.do_GET if self.command == b"GET" else self.do_POST)()
                except ConnectionError:
                    raise
                except Exception as exc:  # noqa: BLE001 - last-resort handler
                    log.exception("%s %s failed", self.command.decode("latin-1"), self.path)
                    self._problem(500, "internal_error", str(exc))

    def _read_request(self) -> bool:
        """Read a request line and its header lines; False ends the connection."""
        line = self.rfile.readline(MAX_LINE_BYTES + 1)
        if len(line) > MAX_LINE_BYTES:
            return self._refuse(414, "uri_too_long", f"request line over {MAX_LINE_BYTES} bytes")
        if not line.endswith(b"\n"):   # closed, or timed out, before the line ended
            return False
        words = line.split()
        if len(words) != 3 or not words[2].startswith(b"HTTP/"):
            return self._refuse(400, "bad_request", "malformed request line")
        self.command, target, self.request_version = words
        self.path = target.decode("latin-1")
        if self.request_version not in (b"HTTP/1.1", b"HTTP/1.0"):
            return self._refuse(505, "version_not_supported", "only HTTP/1.0 and HTTP/1.1")
        # a repeated field's values joined by commas, as RFC 9110 §5.3 allows
        self.headers = headers = {}
        for n in range(MAX_HEADER_LINES + 1):
            line = self.rfile.readline(MAX_LINE_BYTES + 1)
            if line in (b"\r\n", b"\n"):
                break
            if n == MAX_HEADER_LINES or len(line) > MAX_LINE_BYTES:
                return self._refuse(431, "headers_too_large", "too many or too long header lines")
            if not line.endswith(b"\n"):
                return False
            name, colon, value = line.partition(b":")
            if not colon or not name or name != name.strip():   # RFC 9112 §5.1, §5.2
                return self._refuse(400, "bad_request", "malformed header line")
            key, value = name.decode("latin-1").title(), value.strip().decode("latin-1")
            headers[key] = f"{headers[key]}, {value}" if key in headers else value
        if self.request_version == b"HTTP/1.1" and "," in headers.get("Host", ","):
            return self._refuse(400, "bad_request", "HTTP/1.1 needs one Host")  # RFC 9112 §3.2
        if self.command not in (b"GET", b"POST"):
            return self._refuse(501, "not_implemented", f"no method {self.command.decode('latin-1')}")
        # a body framed otherwise than by Content-Length cannot be skipped, and
        # read by Content-Length it would smuggle a request (RFC 9112 §6.1, §6.3)
        if "Transfer-Encoding" in headers:
            return self._refuse(501, "not_implemented", "no Transfer-Encoding")
        # RFC 9110 §8.6: the value is 1*DIGIT; RFC 9112 §6.3: differing
        # repeated values are as invalid as a malformed one
        values = {v.strip(" \t") for v in headers.get("Content-Length", "0").split(",")}
        text = values.pop() if len(values) == 1 else ""
        try:
            self.length = int(text) if text.isascii() and text.isdigit() else -1
        except ValueError:  # more digits than int() converts, so far over the limit
            self.length = MAX_BODY_BYTES + 1
        # refused, the body stays unread, so the connection cannot carry another request
        if self.length < 0:
            return self._refuse(400, "bad_length", "Content-Length must be a non-negative integer")
        if self.length > MAX_BODY_BYTES:
            return self._refuse(413, "body_too_large", f"body exceeds {MAX_BODY_BYTES} bytes")
        connection = {t.strip() for t in headers.get("Connection", "").lower().split(",")}
        self.close_connection = ("close" in connection if self.request_version == b"HTTP/1.1"
                                 else "keep-alive" not in connection)
        # a GET's body is never read, and would be read as the next request (RFC 9112 §6.3)
        self.close_connection |= self.command == b"GET" and self.length > 0
        return True

    def _refuse(self, status: int, code: str, detail: str) -> bool:
        self.close_connection = True
        self._problem(status, code, detail)
        return False

    # ------------------------------------------------------------ plumbing

    def _send_bytes(self, status: int, data: bytes) -> None:
        """Answer with a JSON body: status line, headers and body in one write."""
        self.wfile.write(b"HTTP/1.1 %d %s\r\nServer: ecgmon\r\nDate: %s\r\n"
                         b"Content-Type: application/json; charset=utf-8\r\n"
                         b"Content-Length: %d\r\n%s\r\n%s" % (
                             status, _REASONS[status], _http_date(int(time.time())),
                             len(data), b"Connection: close\r\n" if self.close_connection else b"",
                             data))

    def _send_json(self, status: int, body) -> None:
        self._send_bytes(status, _ENCODER.encode(body).encode("utf-8"))

    def _problem(self, status: int, code: str, detail: str) -> None:
        self._send_json(status, {"status": status, "code": code, "detail": detail})

    # ------------------------------------------------------------ routing

    def do_GET(self) -> None:  # noqa: N802 - the name the benchmark's tracer wraps
        path, _, query = self.path.partition("?")
        parts = [p for p in path.split("/") if p]
        if parts == ["stats"]:
            return self._get_stats()
        if len(parts) == 4 and parts[0] == "patients" and parts[2:] == ["heartbeat", "latest"]:
            return self._with_patient(parts[1], self._get_latest_heartbeat)
        if len(parts) == 3 and parts[0] == "patients" and parts[2] == "ecg":
            return self._with_patient(parts[1], self._get_ecg, parse_qs(query))
        if len(parts) == 3 and parts[0] == "patients" and parts[2] == "prediction":
            return self._with_patient(parts[1], self._get_prediction)
        self._problem(404, "not_found", f"no route for {path}")

    def do_POST(self) -> None:  # noqa: N802
        path = self.path.partition("?")[0]
        if path.rstrip("/") == "/ingest":
            return self._post_ingest()
        self._problem(404, "not_found", f"no route for {path}")

    def _with_patient(self, patient_id: str, handler, *args) -> None:
        if not PATIENT_ID.fullmatch(patient_id):
            self._problem(400, "bad_patient_id", f"patient id must match {PATIENT_ID.pattern}")
            return
        handler(patient_id, *args)

    # ------------------------------------------------------------ handlers

    def _get_latest_heartbeat(self, patient_id: str) -> None:
        doc = self.server.store.latest(patient_id, "heartbeat")
        if doc is None:
            self._problem(404, "no_heartbeat", f"no heartbeat readings for {patient_id}")
            return
        self._send_bytes(200, doc.json)

    def _get_ecg(self, patient_id: str, query: dict) -> None:
        try:
            from_raw = query["from"][0]
            to_raw = query["to"][0]
        except KeyError:
            self._problem(400, "missing_window", "both from and to are required")
            return
        try:
            from_ts = _parse_rfc3339(from_raw)
            to_ts = _parse_rfc3339(to_raw)
        except ValueError as exc:
            self._problem(400, "bad_timestamp", f"unparseable RFC-3339 timestamp: {exc}")
            return
        if from_ts > to_ts:
            self._problem(400, "bad_window", "from must be <= to")
            return
        self._send_bytes(200, self.server.store.read_range_json(patient_id, "pqrst", from_ts, to_ts))

    def _get_stats(self) -> None:
        rows = self.server.store.pqrst_matrix()
        if not len(rows):
            self._problem(404, "empty_store", "no score records stored yet")
            return
        count, body = self.server.stats_memo
        if count != len(rows):
            body = self._stats_body(rows)
            self.server.stats_memo = len(rows), body
        self._send_bytes(200, body)

    def _stats_body(self, rows) -> bytes:
        dataset = analytics.Dataset(rows)
        summary = analytics.describe(dataset)
        # correlation is undefined on a single row; the field goes null
        correlation = None
        if len(dataset) >= 2:
            correlation = {
                "columns": list(analytics.COLUMNS),
                # NaN where a column has zero variance
                "matrix": [[_finite_or_null(v) for v in row]
                           for row in analytics.correlation_matrix(dataset).tolist()],
            }
        quality = analytics.quality_distribution(
            dataset,
            self.server.config.theta_excellent,
            self.server.config.theta_acceptable,
        )
        return _ENCODER.encode({
            "count": len(dataset),
            "stats": {
                name: vars(summary[name]) for name in analytics.COLUMNS
            },
            "correlation": correlation,
            "quality": quality,
        }).encode("utf-8")

    def _get_prediction(self, patient_id: str) -> None:
        model = self.server.model
        if model is None:
            self._problem(503, "no_model", "no prediction model configured")
            return
        doc = self.server.store.latest(patient_id, "pqrst")
        if doc is None:
            self._problem(404, "no_records", f"no score records for {patient_id}")
            return
        row = dict(zip(analytics.COLUMNS, device.pqrst_row(doc.payload)))
        predicted = regression.predict(model, row)
        self._send_json(200, {
            "patient_id": patient_id,
            "record_no": row["RecordNo"],
            "actual_r": row["R"],
            # finite coefficients can still overflow to infinity
            "predicted_r": _finite_or_null(predicted),
            "abs_error": _finite_or_null(abs(row["R"] - predicted)),
        })

    def _post_ingest(self) -> None:
        if (self.request_version == b"HTTP/1.1"
                and self.headers.get("Expect", "").lower() == "100-continue"):
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        raw = self.rfile.read(self.length)
        if raw is None or len(raw) < self.length:  # the client stalled or hung up mid-body
            self.close_connection = True
            return
        if not raw:
            self._problem(400, "empty_body", "request body is required")
            return
        try:
            body = load_document(raw)
        except ValidationError as exc:
            self._problem(400, "bad_json", str(exc))
            return
        kind = body.pop("kind", None)
        if kind not in ("heartbeat", "pqrst"):
            self._problem(400, "bad_kind", "kind must be 'heartbeat' or 'pqrst'")
            return
        patient_id = body.get("patient_id")
        if not isinstance(patient_id, str) or not PATIENT_ID.fullmatch(patient_id):
            self._problem(400, "bad_patient_id", "payload patient_id is missing or invalid")
            return
        outcome = self.server.sink.submit(device.topic(patient_id, kind),
                                           json.dumps(body).encode(), None, abort=_NO_WAIT)
        if outcome is None:
            return self._problem(503, "busy", "the ingestion queue is full; nothing was stored")
        # not taken in time, or by the gateway's stop(), it is withdrawn, and the sink skips it
        futures.wait((outcome, self.server.stopped), self.read_timeout_s, futures.FIRST_COMPLETED)
        if outcome.cancel():
            if self.server.stopped.done():   # stop() shut the connection: no one to answer
                self.close_connection = True
                return
            return self._problem(503, "busy", "the ingestion sink is stalled; nothing was stored")
        try:
            seq = outcome.result()   # the sink holds it: nothing is stored after a 503
        except ValidationError as exc:
            status = 422 if exc.out_of_range else 400
            self._problem(status, "invalid_document", str(exc))
            return
        except StoreError as exc:
            return self._problem(503, "store_unavailable", str(exc))
        self._send_json(201, {"sequence": seq})


class Gateway:
    """Threading HTTP/1.1 server bound to a store and a config.  `POST
    /ingest` appends through `sink`, its own `IngestionSink`, which
    `start_system` shares with the broker: the store's one writer."""

    def __init__(self, store: RecordStore, config: Optional[GatewayConfig] = None):
        self.store = store
        self.config = config or GatewayConfig()
        self.sink = IngestionSink(store)
        # (pqrst rows, /stats body over them): the rows never change and the
        # thresholds are frozen, so the body stands until a row is added
        self.stats_memo: tuple[int, bytes] = (0, b"")
        self.model: Optional[regression.LinearModel] = None
        if self.config.model_path:
            try:
                model = regression.load_model(self.config.model_path)
                if model.target != "R":  # /prediction answers actual_r and predicted_r
                    raise ValueError(f"it predicts {model.target}, not R")
                self.model = model
            except (OSError, ValueError) as exc:
                log.warning("model file %s not usable: %s", self.config.model_path, exc)
        self.port = self.config.http_port   # the bound one once started
        self._listener: Optional[Listener] = None
        # done by stop(), which so ends each POST /ingest's wait for the sink
        self.stopped: futures.Future = futures.Future()

    def start(self) -> "Gateway":
        self.stopped = futures.Future()
        self._listener = Listener(self.config.http_host, self.port,
                                  lambda sock, addr: _Handler(sock, addr, self))
        self.port = self._listener.port
        self.sink.start()
        log.info("gateway listening on %s:%d", self.config.http_host, self.port)
        return self

    def stop(self) -> None:
        if self._listener is not None:
            self._listener.stop()
        if not self.stopped.done():
            self.stopped.set_result(None)
        self.sink.stop()
