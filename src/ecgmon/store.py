"""Append-only document store for telemetry.

One log file per topic class and UTC day under the store root; every
line is a self-contained JSON object whose trailing "crc" field is the
CRC-32 of the line without it.  Appends are fsynced before returning,
an in-memory offset index per (class, patient) is rebuilt by scanning
the logs on open, and a torn final line (a crash mid-append) is detected
and truncated away without touching earlier documents.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import re
import threading
import time
import zlib
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

from . import device

__all__ = [
    "RecordStore",
    "StoredDocument",
    "StoreError",
    "ValidationError",
    "TOPIC_CLASSES",
    "PATIENT_ID",
    "parse_topic",
]

TOPIC_CLASSES = tuple(device.TOPIC_SUFFIXES)
_CLASS_OF_SUFFIX = {suffix: klass for klass, suffix in device.TOPIC_SUFFIXES.items()}
# A patient id is one safe path segment, in a topic and in a gateway URL alike.
PATIENT_ID = re.compile(r"[A-Za-z0-9_-]{1,64}")


class StoreError(RuntimeError):
    """IO failure or log corruption outside the crash-tail contract."""


class ValidationError(ValueError):
    """Payload rejected; carries the offending field for diagnostics."""

    def __init__(self, field: str, reason: str, out_of_range: bool = False):
        super().__init__(f"{field}: {reason}")
        self.field = field
        self.reason = reason
        self.out_of_range = out_of_range


@dataclass(frozen=True)
class StoredDocument:
    sequence: int
    topic: str
    patient_id: str
    received_at: int          # ingestion wall clock, UTC milliseconds
    payload: dict
    message_id: Optional[int] = None


@dataclass(frozen=True, slots=True)
class _IndexEntry:
    sequence: int
    received_at: int
    path: Path
    offset: int
    length: int


def parse_topic(topic: str) -> tuple[str, str]:
    """Map a telemetry topic, as `device.topic` builds it, to (patient_id, class).

    A topic whose patient id does not match `PATIENT_ID` is rejected, so
    every stored document can be read back through the gateway.
    """
    patient_id, _, suffix = topic.partition("/")[2].partition("/")
    klass = _CLASS_OF_SUFFIX.get(suffix)
    if klass is None or device.topic(patient_id, klass) != topic:
        raise ValidationError("topic", f"unrecognized topic {topic!r}")
    if not PATIENT_ID.fullmatch(patient_id):
        raise ValidationError("patient_id", f"{patient_id!r} must match {PATIENT_ID.pattern}")
    return patient_id, klass


# ------------------------------------------------------------- schemas

def _require(payload: dict, field: str, types) -> object:
    if field not in payload:
        raise ValidationError(field, "required field missing")
    value = payload[field]
    type_tuple = types if isinstance(types, tuple) else (types,)
    wanted = "/".join(t.__name__ for t in type_tuple)
    # bool is a subclass of int; a flag is never a valid count or score
    if isinstance(value, bool) and bool not in type_tuple:
        raise ValidationError(field, f"expected {wanted}, got bool")
    if not isinstance(value, type_tuple):
        raise ValidationError(field, f"expected {wanted}, got {type(value).__name__}")
    return value


def _require_number(payload: dict, field: str, lo: float, hi: float) -> float:
    value = _require(payload, field, (int, float))
    if not lo <= value <= hi:
        raise ValidationError(field, f"value {value} outside [{lo}, {hi}]",
                              out_of_range=True)
    return float(value)


def _validate_heartbeat(payload: dict) -> None:
    _require(payload, "patient_id", str)
    bpm = _require(payload, "bpm", int)
    if not 0 <= bpm <= 750:
        raise ValidationError("bpm", f"value {bpm} outside [0, 750]", out_of_range=True)
    _require_number(payload, "window_seconds", 1, 3600)
    _require(payload, "measured_at", str)


def _validate_pqrst(payload: dict) -> None:
    record_no = _require(payload, "record_no", int)
    if record_no < 1:
        raise ValidationError("record_no", "must be a positive integer", out_of_range=True)
    age = _require(payload, "age", int)
    if not 1 <= age <= 120:
        raise ValidationError("age", f"value {age} outside [1, 120]", out_of_range=True)
    for wave in ("p", "q", "r", "s", "t"):
        _require_number(payload, wave, 0.0, 100.0)
    _require(payload, "patient_id", str)
    if payload.get("captured_at") is not None:
        _require(payload, "captured_at", str)


def _validate_waveform(payload: dict) -> None:
    _require(payload, "patient_id", str)
    seq = _require(payload, "seq", int)
    if seq < 0:
        raise ValidationError("seq", "must be >= 0", out_of_range=True)
    _require_number(payload, "sample_rate", 1, 1_000_000)
    samples = _require(payload, "samples", list)
    lead_off = _require(payload, "lead_off", list)
    if len(samples) != len(lead_off):
        raise ValidationError("lead_off", "length must match samples")
    for i, code in enumerate(samples):
        if not isinstance(code, int) or isinstance(code, bool) or code < 0:
            raise ValidationError("samples", f"entry {i} is not a non-negative integer")
    for i, flag in enumerate(lead_off):
        if not isinstance(flag, bool):
            raise ValidationError("lead_off", f"entry {i} is not a boolean")


def _validate_status(payload: dict) -> None:
    _require(payload, "patient_id", str)
    _require(payload, "event", str)


_VALIDATORS = {
    "heartbeat": _validate_heartbeat,
    "pqrst": _validate_pqrst,
    "waveform": _validate_waveform,
    "status": _validate_status,
}


def _dedup_key(topic: str, message_id: int, payload: dict) -> tuple[str, int, bytes]:
    """A redelivery repeats the topic, the packet id and the payload; a new
    message that reuses the packet id differs in the payload's digest."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    return topic, message_id, hashlib.blake2b(body, digest_size=8).digest()


def _now_ms() -> int:
    return time.time_ns() // 1_000_000


def _day_of(received_at_ms: int) -> str:
    return datetime.fromtimestamp(received_at_ms / 1000.0, tz=timezone.utc).strftime("%Y-%m-%d")


def _encode_line(record: dict) -> bytes:
    body = json.dumps(record, separators=(",", ":"), sort_keys=False)
    crc = zlib.crc32(body.encode("utf-8"))
    return (body[:-1] + f',"crc":{crc}}}\n').encode("utf-8")


def _decode_line(raw: bytes) -> Optional[dict]:
    """Parse and verify one log line; None means damaged."""
    text = raw.decode("utf-8", errors="replace").rstrip("\n")
    marker = text.rfind(',"crc":')
    if marker < 0:
        return None
    body = text[:marker] + "}"
    try:
        record = json.loads(text)
    except json.JSONDecodeError:
        return None
    if zlib.crc32(body.encode("utf-8")) != record.get("crc"):
        return None
    return record


class RecordStore:
    """Single-writer, many-reader document log over a directory tree."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        # (topic class, patient id) -> that patient's entries in sequence order
        self._index: dict[tuple[str, str], list[_IndexEntry]] = {}
        self._dedup: dict[tuple[str, int, bytes], int] = {}
        # topic class -> (path, handle) of the one day file it appends to
        self._write_handles: dict[str, tuple[Path, object]] = {}
        self._closed = False
        self._rebuild()

    # ----------------------------------------------------------- open

    def _rebuild(self) -> None:
        """Index every log and set the next sequence and today's dedup keys."""
        self._dedup_day = _day_of(_now_ms())
        for klass in TOPIC_CLASSES:
            for path in sorted(self.root.glob(f"{klass}/*.log")):
                self._scan_file(klass, path)
        for entries in self._index.values():
            # appends dated out of day order put later sequences in earlier files
            entries.sort(key=lambda e: e.sequence)
        self._next_seq = max((e[-1].sequence for e in self._index.values()), default=0) + 1

    def _scan_file(self, klass: str, path: Path) -> None:
        # a file holds the documents received on the day it is named after,
        # so only today's file can hold keys a redelivery may still hit
        today = path.stem == self._dedup_day
        with open(path, "rb") as fh:
            offset = 0
            for raw in fh:
                record = _decode_line(raw) if raw.endswith(b"\n") else None
                if record is None:
                    # Damage is tolerated only at the very end of the file
                    # (a torn final append); anything else is corruption.
                    if fh.read(1) == b"":
                        os.truncate(path, offset)
                        break
                    raise StoreError(f"corrupt log line mid-file in {path} at offset {offset}")
                seq = record["seq"]
                self._index.setdefault((klass, record["patient_id"]), []).append(
                    _IndexEntry(seq, record["received_at"], path, offset, len(raw)))
                if today and record.get("message_id") is not None:
                    key = _dedup_key(record["topic"], record["message_id"], record["payload"])
                    self._dedup[key] = seq
                offset += len(raw)

    # ----------------------------------------------------------- write

    def append(self, topic: str, patient_id: str, payload: dict, *,
               message_id: Optional[int] = None,
               received_at: Optional[int] = None) -> int:
        """Validate, persist, and index one document; returns its sequence.

        A redelivery (same topic, message id and payload within the current
        UTC day) returns the original sequence without writing anything.
        """
        topic_pid, klass = parse_topic(topic)
        if topic_pid != patient_id:
            raise ValidationError("patient_id", f"{patient_id!r} does not match topic {topic!r}")
        payload_pid = payload.get("patient_id")
        if payload_pid is not None and payload_pid != patient_id:
            raise ValidationError("patient_id", "payload patient_id does not match topic")
        _VALIDATORS[klass](payload)
        key = None if message_id is None else _dedup_key(topic, message_id, payload)

        with self._lock:
            if self._closed:
                raise StoreError("store is closed")
            ts = _now_ms() if received_at is None else int(received_at)
            day = _day_of(ts)
            if day != self._dedup_day:
                self._dedup = {}
                self._dedup_day = day
            if key in self._dedup:
                return self._dedup[key]

            seq = self._next_seq
            record = {
                "seq": seq,
                "topic": topic,
                "patient_id": patient_id,
                "received_at": ts,
                "message_id": message_id,
                "payload": payload,
            }
            line = _encode_line(record)
            try:
                path, fh = self._day_file(klass, day)
                offset = fh.tell()
                fh.write(line)
                fh.flush()
                os.fsync(fh.fileno())
            except OSError as exc:
                raise StoreError(f"append failed: {exc}") from exc

            self._next_seq = seq + 1
            self._index.setdefault((klass, patient_id), []).append(
                _IndexEntry(seq, ts, path, offset, len(line)))
            if key is not None:
                self._dedup[key] = seq
            return seq

    def _day_file(self, klass: str, day: str) -> tuple[Path, object]:
        """The class's append handle for one day; a new day closes the old one."""
        current = self._write_handles.get(klass)
        if current is not None and current[0].stem == day:
            return current
        if current is not None:
            current[1].close()
        path = self.root / klass / f"{day}.log"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.touch()
        # A new file is lost with its directory entry, so the class directory
        # and the root are synced before its first ack.  Syncing on every open
        # also covers a file that an earlier open created and failed to sync.
        for directory in (path.parent, self.root):
            fd = os.open(directory, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
        current = self._write_handles[klass] = (path, open(path, "ab"))
        return current

    # ----------------------------------------------------------- read

    def _entries(self, patient_id: Optional[str], topic_class: str) -> list[_IndexEntry]:
        """A copy of one patient's entries, or of the whole class's, by sequence."""
        if topic_class not in TOPIC_CLASSES:
            raise ValidationError("topic", f"unrecognized topic class {topic_class!r}")
        with self._lock:
            if patient_id is not None:
                return list(self._index.get((topic_class, patient_id), ()))
            entries = [e for (klass, _), listed in self._index.items()
                       if klass == topic_class for e in listed]
        entries.sort(key=lambda e: e.sequence)
        return entries

    def read_range(self, patient_id: Optional[str], topic_class: str,
                   from_ts: float, to_ts: float) -> list[StoredDocument]:
        """Documents in the half-open window [from_ts, to_ts), sequence order.

        An unknown patient simply yields an empty list.
        """
        if from_ts > to_ts:
            raise ValueError("from_ts must be <= to_ts")
        return self._load([e for e in self._entries(patient_id, topic_class)
                           if from_ts <= e.received_at < to_ts])

    def read_class(self, topic_class: str, patient_id: Optional[str] = None) -> list[StoredDocument]:
        """Every stored document of one class, oldest first."""
        return self._load(self._entries(patient_id, topic_class))

    def latest(self, patient_id: str, topic_class: str) -> Optional[StoredDocument]:
        """The most recently received document of a class for one patient."""
        best = max(self._entries(patient_id, topic_class),
                   key=lambda e: (e.received_at, e.sequence), default=None)
        return None if best is None else self._load([best])[0]

    def _load(self, entries: list[_IndexEntry]) -> list[StoredDocument]:
        """Read entries back, opening each file once per run of entries in it."""
        docs = []
        try:
            for path, run in itertools.groupby(entries, key=lambda e: e.path):
                with open(path, "rb") as fh:
                    for entry in run:
                        fh.seek(entry.offset)
                        record = _decode_line(fh.read(entry.length))
                        if record is None:
                            raise StoreError(f"checksum failure in {path} at offset {entry.offset}")
                        docs.append(StoredDocument(
                            record["seq"], record["topic"], record["patient_id"],
                            record["received_at"], record["payload"], record.get("message_id")))
        except OSError as exc:
            raise StoreError(f"read failed: {exc}") from exc
        return docs

    # ----------------------------------------------------------- export

    def export_csv(self, patient_id: Optional[str] = None) -> str:
        """All stored score records as CSV, ordered by record number."""
        records = [device.PqrstRecord.from_payload(d.payload)
                   for d in self.read_class("pqrst", patient_id)]
        records.sort(key=lambda r: r.record_no)
        return device.dump_csv(records)

    def close(self) -> None:
        with self._lock:
            self._closed = True
            for _, fh in self._write_handles.values():
                try:
                    fh.close()
                except OSError:
                    pass
            self._write_handles.clear()

    def __enter__(self) -> "RecordStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
