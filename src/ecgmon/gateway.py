"""HTTP query gateway over the record store.

Pull-only JSON API: latest heartbeat, ECG records by time window,
dataset statistics, model prediction for a patient's latest record, and
an ingest endpoint equivalent to the MQTT path.  Every error response
is a problem document {status, code, detail}.
"""

from __future__ import annotations

import json
import logging
import math
import threading
from datetime import datetime, timezone
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional
from urllib.parse import parse_qs, urlparse

from . import analytics, device, regression
from .config import GatewayConfig
from .store import PATIENT_ID, RecordStore, ValidationError

__all__ = ["Gateway"]

log = logging.getLogger("ecgmon.gateway")

MAX_BODY_BYTES = 1 << 20   # a valid ingest body is under 1 KB


def _parse_rfc3339(text: str) -> int:
    """RFC-3339 timestamp to UTC milliseconds; naive times count as UTC."""
    cleaned = text.strip()
    if cleaned.endswith(("Z", "z")):
        cleaned = cleaned[:-1] + "+00:00"
    dt = datetime.fromisoformat(cleaned)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp() * 1000)


def _jsonable(value):
    """Make a structure JSON-safe: non-finite floats become None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "ecgmon"
    # headers and body go out in two writes; with Nagle's algorithm the body
    # waits for the client's delayed ACK of the headers on a keep-alive connection
    disable_nagle_algorithm = True

    # set by Gateway when building the server
    gateway: "Gateway"

    def log_message(self, fmt, *args):  # noqa: N802 - stdlib name
        log.debug("%s " + fmt, self.address_string(), *args)

    # ------------------------------------------------------------ plumbing

    def _send_json(self, status: int, body) -> None:
        data = json.dumps(_jsonable(body)).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json; charset=utf-8")
        self.send_header("Content-Length", str(len(data)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(data)

    def _problem(self, status: int, code: str, detail: str) -> None:
        self._send_json(status, {"status": status, "code": code, "detail": detail})

    # ------------------------------------------------------------ routing

    def do_GET(self) -> None:  # noqa: N802 - stdlib name
        try:
            url = urlparse(self.path)
            parts = [p for p in url.path.split("/") if p]
            if parts == ["stats"]:
                return self._get_stats()
            if len(parts) == 4 and parts[0] == "patients" and parts[2:] == ["heartbeat", "latest"]:
                return self._with_patient(parts[1], self._get_latest_heartbeat)
            if len(parts) == 3 and parts[0] == "patients" and parts[2] == "ecg":
                return self._with_patient(parts[1], self._get_ecg, parse_qs(url.query))
            if len(parts) == 3 and parts[0] == "patients" and parts[2] == "prediction":
                return self._with_patient(parts[1], self._get_prediction)
            self._problem(404, "not_found", f"no route for {url.path}")
        except BrokenPipeError:
            pass
        except Exception as exc:  # noqa: BLE001 - last-resort handler
            log.exception("GET %s failed", self.path)
            self._problem(500, "internal_error", str(exc))

    def do_POST(self) -> None:  # noqa: N802 - stdlib name
        try:
            url = urlparse(self.path)
            if url.path.rstrip("/") == "/ingest":
                return self._post_ingest()
            self._problem(404, "not_found", f"no route for {url.path}")
        except BrokenPipeError:
            pass
        except Exception as exc:  # noqa: BLE001
            log.exception("POST %s failed", self.path)
            self._problem(500, "internal_error", str(exc))

    def _with_patient(self, patient_id: str, handler, *args) -> None:
        if not PATIENT_ID.fullmatch(patient_id):
            self._problem(400, "bad_patient_id", f"patient id must match {PATIENT_ID.pattern}")
            return
        handler(patient_id, *args)

    # ------------------------------------------------------------ handlers

    def _get_latest_heartbeat(self, patient_id: str) -> None:
        doc = self.gateway.store.latest(patient_id, "heartbeat")
        if doc is None:
            self._problem(404, "no_heartbeat", f"no heartbeat readings for {patient_id}")
            return
        self._send_json(200, self._document(doc))

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
        docs = self.gateway.store.read_range(patient_id, "pqrst", from_ts, to_ts)
        self._send_json(200, [self._document(d) for d in docs])

    def _get_stats(self) -> None:
        docs = self.gateway.store.read_class("pqrst")
        if not docs:
            self._problem(404, "empty_store", "no score records stored yet")
            return
        dataset = analytics.Dataset([device.pqrst_row(d.payload) for d in docs])
        summary = analytics.describe(dataset)
        # correlation is undefined on a single row; the field goes null
        correlation = None
        if len(dataset) >= 2:
            correlation = {
                "columns": list(analytics.COLUMNS),
                "matrix": analytics.correlation_matrix(dataset).tolist(),
            }
        quality = analytics.quality_distribution(
            dataset,
            self.gateway.config.theta_excellent,
            self.gateway.config.theta_acceptable,
        )
        self._send_json(200, {
            "count": len(dataset),
            "stats": {
                name: vars(summary[name]) for name in analytics.COLUMNS
            },
            "correlation": correlation,
            "quality": quality,
        })

    def _get_prediction(self, patient_id: str) -> None:
        model = self.gateway.model
        if model is None:
            self._problem(503, "no_model", "no prediction model configured")
            return
        doc = self.gateway.store.latest(patient_id, "pqrst")
        if doc is None:
            self._problem(404, "no_records", f"no score records for {patient_id}")
            return
        row = dict(zip(analytics.COLUMNS, device.pqrst_row(doc.payload)))
        predicted = regression.predict(model, row)
        self._send_json(200, {
            "patient_id": patient_id,
            "record_no": row["RecordNo"],
            "actual_r": row["R"],
            "predicted_r": predicted,
            "abs_error": abs(row["R"] - predicted),
        })

    def _post_ingest(self) -> None:
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if not 0 <= length <= MAX_BODY_BYTES:
            # the body stays unread, so the connection cannot carry another request
            self.close_connection = True
            if length < 0:
                self._problem(400, "bad_length", "Content-Length must be a non-negative integer")
            else:
                self._problem(413, "body_too_large", f"body exceeds {MAX_BODY_BYTES} bytes")
            return
        raw = self.rfile.read(length)
        if not raw:
            self._problem(400, "empty_body", "request body is required")
            return
        try:
            body = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._problem(400, "bad_json", f"body is not valid JSON: {exc}")
            return
        if not isinstance(body, dict):
            self._problem(400, "bad_json", "body must be a JSON object")
            return
        kind = body.pop("kind", None)
        if kind not in ("heartbeat", "pqrst"):
            self._problem(400, "bad_kind", "kind must be 'heartbeat' or 'pqrst'")
            return
        patient_id = body.get("patient_id")
        if not isinstance(patient_id, str) or not PATIENT_ID.fullmatch(patient_id):
            self._problem(400, "bad_patient_id", "payload patient_id is missing or invalid")
            return
        try:
            seq = self.gateway.store.append(device.topic(patient_id, kind), patient_id, body)
        except ValidationError as exc:
            status = 422 if exc.out_of_range else 400
            self._problem(status, "invalid_document", str(exc))
            return
        self._send_json(201, {"sequence": seq})

    def _document(self, doc) -> dict:
        return {
            "sequence": doc.sequence,
            "topic": doc.topic,
            "patient_id": doc.patient_id,
            "received_at": doc.received_at,
            "payload": doc.payload,
        }


class Gateway:
    """ThreadingHTTPServer wrapper bound to a store and a config."""

    def __init__(self, store: RecordStore, config: Optional[GatewayConfig] = None):
        self.store = store
        self.config = config or GatewayConfig()
        self.model: Optional[regression.LinearModel] = None
        if self.config.model_path:
            try:
                self.model = regression.load_model(self.config.model_path)
            except (OSError, ValueError) as exc:
                log.warning("model file %s not usable: %s", self.config.model_path, exc)
        handler = type("BoundHandler", (_Handler,), {"gateway": self})
        self._server = ThreadingHTTPServer(
            (self.config.http_host, self.config.http_port), handler)
        self._server.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    def start(self) -> "Gateway":
        self._thread = threading.Thread(
            target=lambda: self._server.serve_forever(poll_interval=0.05),
            daemon=True)
        self._thread.start()
        log.info("gateway listening on %s:%d", self.config.http_host, self.port)
        return self

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=2)
