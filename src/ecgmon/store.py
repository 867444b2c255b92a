"""Append-only document store for telemetry.

One log file per topic class and UTC day under the store root; every
line is a self-contained JSON object whose trailing "crc" field is the
CRC-32 of the line without it.  Appends are fsynced before returning,
an in-memory offset index per (class, patient) is rebuilt by scanning
the logs on open, and a torn final line (a crash mid-append) is detected
and truncated away without touching earlier documents.  The numeric
columns of every pqrst document are also kept in memory, as one float64
matrix in sequence order, so dataset statistics need no log reads.  A
scan of a log of another day than today leaves a `.hint` file beside it
with what the scan put in the index, so the next open reads the hint and
decodes only the lines appended after it.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import re
import struct
import sys
import threading
import time
import zlib
from array import array
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from . import analytics, device

__all__ = [
    "RecordStore",
    "StoredDocument",
    "StoreError",
    "ValidationError",
    "TOPIC_CLASSES",
    "PATIENT_ID",
    "MAX_EXTRA_DEPTH",
    "parse_topic",
    "load_document",
]

TOPIC_CLASSES = tuple(device.TOPIC_SUFFIXES)
_CLASS_OF_SUFFIX = {suffix: klass for klass, suffix in device.TOPIC_SUFFIXES.items()}
# A patient id is one safe path segment, in a topic and in a gateway URL alike.
PATIENT_ID = re.compile(r"[A-Za-z0-9_-]{1,64}")
# The largest integer a JSON number carries exactly (RFC 7493, section 2.2),
# so every record number is also exact in the float64 pqrst matrix.
MAX_RECORD_NO = 2**53 - 1


class StoreError(RuntimeError):
    """IO failure or log corruption outside the crash-tail contract."""


class ValidationError(ValueError):
    """Payload rejected; carries the offending field for diagnostics."""

    def __init__(self, field: str, reason: str, out_of_range: bool = False):
        super().__init__(f"{field}: {reason}")
        self.field = field
        self.reason = reason
        self.out_of_range = out_of_range


class StoredDocument:
    """One stored document over its CRC-checked log line.

    `sequence` and `received_at` come from the index; the other fields are
    decoded from the line on first use.  `json` is the document as the
    gateway serves it, spliced from the line's bytes without decoding it.
    """

    __slots__ = ("sequence", "received_at", "line", "_record")

    def __init__(self, sequence: int, received_at: int, line: bytes):
        self.sequence = sequence
        self.received_at = received_at     # ingestion wall clock, UTC milliseconds
        self.line = line
        self._record: Optional[dict] = None

    def _field(self, name: str):
        if self._record is None:
            self._record = _DECODER.decode(self.line.decode("utf-8"))
        return self._record.get(name)

    topic = property(lambda self: self._field("topic"))
    patient_id = property(lambda self: self._field("patient_id"))
    payload = property(lambda self: self._field("payload"))
    message_id = property(lambda self: self._field("message_id"))

    @property
    def json(self) -> bytes:
        """{"sequence", "topic", "patient_id", "received_at", "payload"} as
        compact JSON: the line's header up to "message_id", then its payload."""
        line = self.line
        payload = line[line.index(_PAYLOAD_KEY) + len(_PAYLOAD_KEY):line.rindex(_CRC_KEY)]
        # a NaN or an infinity in a line written before they were refused;
        # decoded and encoded again, it serves as null
        if b"NaN" in payload or b"Infinity" in payload:
            payload = _ENCODER.encode(self.payload).encode("ascii")
        return b'{"sequence":%s,"payload":%s}' % (
            line[len(_SEQ_KEY):line.index(_MESSAGE_ID_KEY)], payload)


# A tuple, so an open builds the entries of a hinted log in C, with
# tuple.__new__ over the hint's columns.
class _IndexEntry(NamedTuple):
    sequence: int
    received_at: int
    path: str       # shared by every entry of one log, so runs compare in C
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

_NUMBER = (int, float)
_TEXT = ((str,), None, None)
_LIST = ((list,), None, None)
# topic class -> field -> (accepted types, lo, hi); fields are checked in this
# order, a field whose types include NoneType may be absent, and lo is None
# where no range applies
_SCHEMAS = {
    "heartbeat": {"patient_id": _TEXT, "bpm": ((int,), 0, 750),
                  "window_seconds": (_NUMBER, 1, 3600), "measured_at": _TEXT},
    "pqrst": {"record_no": ((int,), 1, MAX_RECORD_NO), "age": ((int,), 1, 120),
              **dict.fromkeys(("p", "q", "r", "s", "t"), (_NUMBER, 0.0, 100.0)),
              "patient_id": _TEXT, "captured_at": ((str, type(None)), None, None)},
    "waveform": {"patient_id": _TEXT, "seq": ((int,), 0, math.inf),
                 "sample_rate": (_NUMBER, 1, 1_000_000), "samples": _LIST, "lead_off": _LIST},
    "status": {"patient_id": _TEXT, "event": _TEXT},
}


# Keys outside a class's schema are stored as sent, but their lists and
# objects may nest at most this deep: a stored document is decoded again when
# read, by decoders that recurse once per level.
MAX_EXTRA_DEPTH = 32


def _nests_deeper(value, limit: int) -> bool:
    """Whether lists and objects nest more than `limit` deep in `value`,
    walked one level at a time rather than by recursion."""
    level = [value]
    for _ in range(limit + 1):
        level = [v for v in level if isinstance(v, (list, dict))]
        if not level:
            return False
        level = [c for v in level for c in (v.values() if isinstance(v, dict) else v)]
    return True


def _validate(klass: str, payload: dict) -> None:
    """Raise `ValidationError` for the first field that breaks the class's
    schema, or for a key outside it that nests deeper than MAX_EXTRA_DEPTH."""
    for field, (types, lo, hi) in _SCHEMAS[klass].items():
        if field not in payload and type(None) not in types:
            raise ValidationError(field, "required field missing")
        value = payload.get(field)
        # bool is a subclass of int; a flag is never a valid count, score or text
        if isinstance(value, bool) or not isinstance(value, types):
            wanted = "/".join(t.__name__ for t in types)
            raise ValidationError(field, f"expected {wanted}, got {type(value).__name__}")
        if lo is not None and not lo <= value <= hi:
            raise ValidationError(field, f"must be in [{lo}, {hi}]", out_of_range=True)
    if klass == "waveform":
        samples, lead_off = payload["samples"], payload["lead_off"]
        if len(samples) != len(lead_off):
            raise ValidationError("lead_off", "length must match samples")
        for i, code in enumerate(samples):
            if not isinstance(code, int) or isinstance(code, bool) or code < 0:
                raise ValidationError("samples", f"entry {i} is not a non-negative integer")
        for i, flag in enumerate(lead_off):
            if not isinstance(flag, bool):
                raise ValidationError("lead_off", f"entry {i} is not a boolean")
    schema = _SCHEMAS[klass]
    for key, value in payload.items():
        if key not in schema and _nests_deeper(value, MAX_EXTRA_DEPTH):
            raise ValidationError(key, f"nests deeper than {MAX_EXTRA_DEPTH} levels")


def load_document(raw: bytes) -> dict:
    """Parse a telemetry document as it arrives over MQTT or HTTP: one JSON
    object in UTF-8.  Anything else is a `ValidationError` on "payload"."""
    try:
        doc = json.loads(raw.decode("utf-8"))
    # ValueError also covers an integer literal over the interpreter's
    # digit limit; RecursionError is nesting deeper than the decoder goes.
    except (ValueError, RecursionError) as exc:
        raise ValidationError("payload", f"not a JSON document: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError("payload", "top-level JSON value must be an object")
    return doc


def _dedup_key(topic: str, message_id: int, payload: bytes) -> tuple[str, int, bytes]:
    """A redelivery repeats the topic, the packet id and the payload; a new
    message that reuses the packet id differs in the payload's digest."""
    return topic, message_id, hashlib.blake2b(payload, digest_size=8).digest()


def _now_ms() -> int:
    return time.time_ns() // 1_000_000


def _day_of(received_at_ms: int) -> str:
    return datetime.fromtimestamp(received_at_ms / 1000.0, tz=timezone.utc).strftime("%Y-%m-%d")


# Built once: json.dumps and json.loads build a coder per call that passes
# an option.  Log lines are compact ASCII JSON without NaN or infinities,
# which RFC 8259 has no literal for; those in lines written before they were
# refused read as null, as the gateway has always served them.
_ENCODER = json.JSONEncoder(separators=(",", ":"), allow_nan=False)
_DECODER = json.JSONDecoder(parse_constant=lambda _: None)
# A line's keys, in the order every version of the store has written them:
# seq, topic, patient_id, received_at, message_id, payload, crc.
_SEQ_KEY = b'{"seq":'
_MESSAGE_ID_KEY = b',"message_id":'
_PAYLOAD_KEY = b',"payload":'
_CRC_KEY = b',"crc":'


def _encode_line(header: dict, payload: bytes) -> bytes:
    """One log line: the header's fields, then "payload" holding `payload`
    as is, then "crc", the CRC-32 of the line without it."""
    body = _ENCODER.encode(header)[:-1].encode("utf-8") + _PAYLOAD_KEY + payload
    return body + b'%s%d}\n' % (_CRC_KEY, zlib.crc32(b"}", zlib.crc32(body)))


def _crc_checks(raw: bytes) -> bool:
    """Whether a log line ends in "crc", the CRC-32 of the line without it,
    and a newline."""
    marker = raw.rfind(_CRC_KEY)
    return marker >= 0 and raw[marker + len(_CRC_KEY):] == b"%d}\n" % zlib.crc32(
        b"}", zlib.crc32(raw[:marker]))


def _decode_line(raw: bytes) -> Optional[dict]:
    """Parse and verify one log line; None means damaged."""
    if not _crc_checks(raw):
        return None
    try:
        text = raw.decode("utf-8")
        # not decode, whose two whitespace matches take a third of its time
        # here: a line starts with its object, and one the CRC check passed
        # ends in "}\n", so anything but that newline after it is extra data
        record, end = _DECODER.raw_decode(text)
    except ValueError:   # also a UnicodeDecodeError
        return None
    return record if end == len(text) - 1 else None


# A hint file: this header, then each column, then the CRC-32 of all that.
# Native byte order throughout: on a machine of the other order the version
# reads wrong and the hint is ignored.
_HINT_MAGIC = b"ECGH"
_HINT_VERSION = 1
# magic, version, covered log bytes, their CRC-32, lines, patients, bytes of
# patient ids, pqrst rows
_HINT_HEADER = struct.Struct("=4sIQIIIII")
_HINT_CRC = struct.Struct("=I")


@dataclass(slots=True)
class _Hint:
    """What a scan of a log's first `covered` bytes puts in the index; the
    content of the log's `.hint` file."""
    covered: int = 0
    crc: int = 0            # CRC-32 of the covered bytes
    # patient id -> that patient's index entries in the log, in file order
    entries: dict = field(default_factory=dict)
    # the pqrst lines' sequences and `device.pqrst_row` values, in file
    # order; none in a log of another class
    row_seqs: array = field(default_factory=lambda: array("q"))
    rows: np.ndarray = field(default_factory=lambda: np.empty((0, len(analytics.COLUMNS))))

    def encode(self) -> bytes:
        """The header; the entries' sequence, received_at, offset and length
        columns, grouped by patient; each patient's entry count; the row
        sequences; the patient ids joined by NUL; the rows; the CRC-32."""
        ids = "\0".join(self.entries).encode("utf-8", "surrogatepass")
        lines = list(itertools.chain.from_iterable(self.entries.values()))
        seqs, received, _, offsets, lengths = zip(*lines) if lines else [()] * 5
        body = b"".join([
            _HINT_HEADER.pack(_HINT_MAGIC, _HINT_VERSION, self.covered, self.crc, len(lines),
                              len(self.entries), len(ids), len(self.rows)),
            *(array("q", column) for column in (seqs, received, offsets, lengths)),
            array("q", map(len, self.entries.values())), self.row_seqs, ids, self.rows.tobytes()])
        return body + _HINT_CRC.pack(zlib.crc32(body))

    @classmethod
    def decode(cls, data: bytes, path: str) -> Optional["_Hint"]:
        """The hint a file holds for the log at `path`; None unless its CRC,
        magic, version and length all check."""
        body = memoryview(data)[:-_HINT_CRC.size]
        if len(data) < _HINT_HEADER.size + _HINT_CRC.size or (
                _HINT_CRC.unpack_from(data, len(body))[0] != zlib.crc32(body)):
            return None
        magic, version, covered, crc, lines, patients, id_bytes, rows = _HINT_HEADER.unpack_from(body)
        width = len(analytics.COLUMNS)
        if (magic != _HINT_MAGIC or version != _HINT_VERSION or len(body) != _HINT_HEADER.size
                + 32 * lines + 8 * patients + id_bytes + 8 * (1 + width) * rows):
            return None
        columns, pos = [], _HINT_HEADER.size
        for count in (lines, lines, lines, lines, patients, rows):
            columns.append(array("q"))
            columns[-1].frombytes(body[pos:pos + 8 * count])
            pos += 8 * count
        seqs, received, offsets, lengths, counts, row_seqs = columns
        # a patient id of an old log may hold a NUL; its hint splits into too many
        ids = str(body[pos:pos + id_bytes], "utf-8", "surrogatepass").split("\0") if patients else []
        if len(ids) != patients:
            return None
        # built in C: tuple.__new__ over the columns
        built = map(tuple.__new__, itertools.repeat(_IndexEntry),
                    zip(seqs, received, itertools.repeat(path), offsets, lengths))
        return cls(covered, crc, {pid: list(itertools.islice(built, n)) for pid, n in zip(ids, counts)},
                   row_seqs, np.frombuffer(body[pos + id_bytes:], dtype=float).reshape(rows, width))


def _read_hint(path: str, log_path: str) -> Optional[_Hint]:
    try:
        with open(path, "rb") as fh:
            return _Hint.decode(fh.read(), log_path)
    except OSError:
        return None


def _crc_of_first(fh, size: int) -> int:
    """The CRC-32 of a file's first `size` bytes, or of all of it when it
    is shorter, read a MiB at a time."""
    crc = 0
    while size > 0 and (chunk := fh.read(min(size, 1 << 20))):
        crc = zlib.crc32(chunk, crc)
        size -= len(chunk)
    return crc


def _write_hint(path: str, hint: _Hint) -> None:
    """Replace a hint file.  It is not fsynced: a hint lost or torn in a
    crash fails its CRC, and the next open scans the log instead."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(hint.encode())
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass


class RecordStore:
    """Single-writer, many-reader document log over a directory tree."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        # (topic class, patient id) -> that patient's entries in sequence order
        self._index: dict[tuple[str, str], list[_IndexEntry]] = {}
        self._dedup: dict[tuple[str, int, bytes], int] = {}
        # (topic class, day) -> its log's path, one str shared by its index entries
        self._paths: dict[tuple[str, str], str] = {}
        # topic class -> (day, path, handle) of the one day file it appends to
        self._write_handles: dict[str, tuple[str, str, object]] = {}
        self._closed = False
        self._rebuild()

    # ----------------------------------------------------------- open

    def _rebuild(self) -> None:
        """Index every log and set the next sequence and today's dedup keys."""
        self._dedup_day = _day_of(_now_ms())
        seqs: list[array] = []          # of the pqrst documents, per log
        rows: list[np.ndarray] = []     # their `device.pqrst_row` values
        for klass in TOPIC_CLASSES:
            for path in sorted(self.root.glob(f"{klass}/*.log")):
                self._scan_file(klass, path.stem, seqs, rows)
        # appends dated out of day order put later sequences in earlier files
        for entries in self._index.values():
            entries.sort(key=lambda e: e.sequence)
        # pqrst rows in sequence order: the first _rows rows of _matrix
        order = np.argsort(np.frombuffer(b"".join(seqs), dtype=np.int64))
        self._matrix = np.concatenate([np.empty((0, len(analytics.COLUMNS)))] + rows)[order]
        self._rows = len(order)
        self._next_seq = max((e[-1].sequence for e in self._index.values()), default=0) + 1

    def _scan_file(self, klass: str, day: str, seqs: list, rows: list) -> None:
        """Index one log: from its hint, when the hint's CRC and that of
        the log bytes it covers both check, then by decoding each line
        after them.  A log of another day than today ends with its hint
        rewritten whenever a line was decoded."""
        path = self._paths[klass, day] = str(self.root / klass / f"{day}.log")
        hint_path = path.removesuffix(".log") + ".hint"
        # a file holds the documents received on the day it is named after,
        # so only today's file can hold keys a redelivery may still hit
        today = day == self._dedup_day
        hint = None if today else _read_hint(hint_path, path)
        tail = []       # the pqrst rows of the decoded lines
        with open(path, "rb") as fh:
            if hint is not None and _crc_of_first(fh, hint.covered) != hint.crc:
                hint = None
                fh.seek(0)
            log = hint or _Hint()
            offset, crc = log.covered, log.crc
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
                log.entries.setdefault(record["patient_id"], []).append(
                    _IndexEntry(seq, record["received_at"], path, offset, len(raw)))
                if klass == "pqrst":
                    row = device.pqrst_row(record["payload"])
                    # the other columns were range-checked when written, but
                    # record_no was unbounded before MAX_RECORD_NO
                    if row[0] > sys.float_info.max:
                        raise StoreError(f"record_no beyond float64 range in {path} "
                                         f"at offset {offset}")
                    tail.append(row)
                    log.row_seqs.append(seq)
                if today and record.get("message_id") is not None:
                    # the payload's bytes, as hashed on append; no header field can hold its key
                    body = raw[raw.index(_PAYLOAD_KEY) + len(_PAYLOAD_KEY):raw.rindex(_CRC_KEY)]
                    self._dedup[_dedup_key(record["topic"], record["message_id"], body)] = seq
                crc = zlib.crc32(raw, crc)
                offset += len(raw)
        if tail:
            log.rows = np.concatenate([log.rows, np.array(tail, dtype=float)])
        if klass == "pqrst":
            seqs.append(log.row_seqs)
            rows.append(log.rows)
        for pid, entries in log.entries.items():
            self._index.setdefault((klass, pid), []).extend(entries)
        if not today and (hint is None or offset > hint.covered):
            log.covered, log.crc = offset, crc
            _write_hint(hint_path, log)

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
        _validate(klass, payload)
        try:
            body = _ENCODER.encode(payload).encode("utf-8")
        except ValueError as exc:   # a NaN or an infinity
            raise ValidationError("payload", str(exc)) from exc
        key = None if message_id is None else _dedup_key(topic, message_id, body)
        # converted before the write, so no valid document can fail after its fsync
        row = np.array(device.pqrst_row(payload), dtype=float) if klass == "pqrst" else None

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
            line = _encode_line({"seq": seq, "topic": topic, "patient_id": patient_id,
                                 "received_at": ts, "message_id": message_id}, body)
            try:
                path, fh = self._day_file(klass, day)
                offset = fh.tell()
            except OSError as exc:
                raise StoreError(f"append failed: {exc}") from exc
            try:
                fh.write(line)
                fh.flush()
                os.fsync(fh.fileno())
            except OSError as exc:
                self._discard_failed_write(klass, path, offset)
                raise StoreError(f"append failed: {exc}") from exc

            self._next_seq = seq + 1
            self._index.setdefault((klass, patient_id), []).append(
                _IndexEntry(seq, ts, path, offset, len(line)))
            if row is not None:
                self._add_row(row)
            if key is not None:
                self._dedup[key] = seq
            return seq

    def _discard_failed_write(self, klass: str, path: str, offset: int) -> None:
        """Cut the log back to where a failed append started.

        The unacked message is retransmitted, so a line left behind would
        come back as a duplicate on the next open.  The handle is dropped
        (closing it may flush buffered bytes, which the cut removes) and
        the next append reopens the file.  When the cut fails too, the
        store closes, so nothing more is written or acked.
        """
        *_, fh = self._write_handles.pop(klass)
        try:
            fh.close()
        except OSError:
            pass
        try:
            fd = os.open(path, os.O_WRONLY)
            try:
                os.ftruncate(fd, offset)
                os.fsync(fd)
            finally:
                os.close(fd)
        except OSError as exc:
            self._close_locked()
            raise StoreError(f"append failed and {path} could not be cut back to "
                             f"offset {offset}: {exc}; store closed") from exc

    def _add_row(self, row: np.ndarray) -> None:
        """Append one pqrst row, doubling the matrix when it is full."""
        if self._rows == len(self._matrix):
            grown = np.empty((max(2 * self._rows, 1024), self._matrix.shape[1]))
            grown[:self._rows] = self._matrix[:self._rows]
            self._matrix = grown
        self._matrix[self._rows] = row
        self._rows += 1

    def _day_file(self, klass: str, day: str) -> tuple[str, object]:
        """The class's append handle for one day; a new day closes the old one."""
        current = self._write_handles.get(klass)
        if current is not None and current[0] == day:
            return current[1:]
        if current is not None:
            # dropped first: if opening the new day fails, no closed handle is left
            self._write_handles.pop(klass)[2].close()
        class_dir = self.root / klass
        path = self._paths.setdefault((klass, day), str(class_dir / f"{day}.log"))
        class_dir.mkdir(parents=True, exist_ok=True)
        Path(path).touch()
        # A new file is lost with its directory entry, so the class directory
        # and the root are synced before its first ack.  Syncing on every open
        # also covers a file that an earlier open created and failed to sync.
        for directory in (class_dir, self.root):
            fd = os.open(directory, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
        fh = open(path, "ab")
        self._write_handles[klass] = (day, path, fh)
        return path, fh

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

    def pqrst_matrix(self) -> np.ndarray:
        """An (n, 7) float64 copy of every pqrst document's `device.pqrst_row`,
        in `analytics.COLUMNS` order, one row per document in sequence order
        (the order of `read_class("pqrst")`)."""
        with self._lock:
            return self._matrix[:self._rows].copy()

    def _load(self, entries: list[_IndexEntry]) -> list[StoredDocument]:
        """Read entries back, opening each file once per run of entries in it.
        Each line's CRC and sequence are checked; nothing is decoded."""
        docs = []
        try:
            for path, run in itertools.groupby(entries, key=lambda e: e.path):
                # unbuffered: each line is one pread of its own length
                with open(path, "rb", buffering=0) as fh:
                    for entry in run:
                        line = os.pread(fh.fileno(), entry.length, entry.offset)
                        if not _crc_checks(line):
                            raise StoreError(f"checksum failure in {path} at offset {entry.offset}")
                        if not line.startswith(b"%s%d," % (_SEQ_KEY, entry.sequence)):
                            raise StoreError(f"line in {path} at offset {entry.offset} is not "
                                             f"sequence {entry.sequence}")
                        docs.append(StoredDocument(entry.sequence, entry.received_at, line))
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
            self._close_locked()

    def _close_locked(self) -> None:
        """`close` for a caller that holds the lock."""
        self._closed = True
        for *_, fh in self._write_handles.values():
            try:
                fh.close()
            except OSError:
                pass
        self._write_handles.clear()

    def __enter__(self) -> "RecordStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
