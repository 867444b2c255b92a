"""Append-only document store for telemetry.

One log file per topic class and UTC day under the store root; every
line is a self-contained JSON object whose trailing "crc" field is the
CRC-32 of the line without it.  Appends are fsynced before returning,
an in-memory offset index per (class, patient) is rebuilt by scanning
the logs on open, and a torn final line (a crash mid-append) is detected
and truncated away without touching earlier documents.  The numeric
columns of every pqrst document are also kept in memory, as one float64
matrix in sequence order, so dataset statistics need no log reads.  A
scan of any log, of whatever day, leaves a `.hint` file beside it holding
the log's index rows in file order, so the next open loads the hint and
decodes only the lines appended after it.  An index row keeps
what a read needs besides the line: the line's CRC-32, to check it
against, and where its keys start, to cut the served document out of it
with no search; a window is served as one join of such cuts.  Reads take
no lock: an append publishes its index rows and its pqrst row only after
their fsync, so no read waits for an append, and none sees a document a
crash could take back.  Reads go through one cached read descriptor per
log, opened by the first read that needs it and kept for every later
one, at most MAX_READ_HANDLES of them.
"""

from __future__ import annotations

import fcntl
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
# A redelivery is recognised within this long of the first delivery: well
# above the client's retry budget, max_retries x ack_timeout = 30 x 1 s.
DEDUP_WINDOW_MS = 10 * 60 * 1000
# The most logs a store keeps open for reading; past it, the first opened of
# them is dropped and opened again by its next read.
MAX_READ_HANDLES = 256


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
    """One stored document over its checked log line.

    `sequence` and `received_at` come from the index; the other fields are
    decoded from the line on first use.  `json` is the document as the
    gateway serves it, cut from the line's bytes at the offsets its index
    row keeps, without decoding it.
    """

    __slots__ = ("sequence", "received_at", "line", "_cuts", "_record")

    def __init__(self, sequence: int, received_at: int, line: bytes, cuts: list):
        self.sequence = sequence
        self.received_at = received_at     # ingestion wall clock, UTC milliseconds
        self.line = line
        self._cuts = cuts                  # the row's _MESSAGE_ID_AT, _PAYLOAD_AT and _CRC_AT
        self._record: Optional[dict] = None

    def _field(self, name: str):
        if self._record is None:
            self._record = _DECODER.decode(self.line.decode("utf-8"))
        return self._record.get(name)

    topic = property(lambda self: self._field("topic"))
    patient_id = property(lambda self: self._field("patient_id"))
    payload = property(lambda self: self._field("payload"))
    message_id = property(lambda self: self._field("message_id"))

    def _payload_bytes(self) -> bytes:
        """The bytes of the line's "payload" value, as the append wrote them."""
        _, payload_at, crc_at = self._cuts
        return self.line[payload_at + len(_PAYLOAD_KEY):crc_at]

    @property
    def json(self) -> bytes:
        """{"sequence", "topic", "patient_id", "received_at", "payload"} as
        compact JSON: the line's header up to "message_id", then its payload."""
        payload = self._payload_bytes()
        # a NaN or an infinity in a line written before they were refused;
        # decoded and encoded again, it serves as null
        if b"NaN" in payload or b"Infinity" in payload:
            payload = _ENCODER.encode(self.payload).encode("ascii")
        return b'{"sequence":%s,"payload":%s}' % (self.line[len(_SEQ_KEY):self._cuts[0]], payload)


# The columns of an index row: a document's sequence, its received_at, its
# line's log (a place in `RecordStore._logs`), offset and length, its message
# id (-1 for none), the CRC-32 of the whole line, and the offsets in the line
# of its ',"message_id":', ',"payload":' and ',"crc":' keys.
_INDEX_WIDTH = 10
(_SEQ, _RECEIVED, _LOG, _OFFSET, _LENGTH, _MESSAGE_ID,
 _CRC, _MESSAGE_ID_AT, _PAYLOAD_AT, _CRC_AT) = range(_INDEX_WIDTH)
_NO_ENTRIES = np.empty((0, _INDEX_WIDTH), np.int64)


def _by_sequence(entries: np.ndarray) -> np.ndarray:
    return entries[np.argsort(entries[:, _SEQ])]


def _then_by(order: np.ndarray, *keys: np.ndarray) -> np.ndarray:
    """`order` sorted stably by each key in turn: from the argsort of unique
    sequences, `np.lexsort((sequences, *keys))`, but with each key of 16
    bits or fewer radix-sorted."""
    for key in keys:
        order = order[np.argsort(key[order], kind="stable")]
    return order


def _appended(matrix: np.ndarray, rows: int, row) -> np.ndarray:
    """`matrix` with `row` written after its first `rows` rows, in a copy of
    twice the size when those fill it."""
    if rows == len(matrix):
        matrix = np.concatenate([matrix, np.empty((max(rows, 8), matrix.shape[1]), matrix.dtype)])
    matrix[rows] = row
    return matrix


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


def _encode_line(header: dict, payload: bytes) -> tuple[bytes, tuple[int, int, int, int]]:
    """One log line: the header's fields, then "payload" holding `payload`
    as is, then "crc", the CRC-32 of the line without it; and the line's
    index columns from _CRC to _CRC_AT."""
    head = _ENCODER.encode(header)[:-1].encode("utf-8")
    body = head + _PAYLOAD_KEY + payload
    body_crc = zlib.crc32(body)
    tail = b'%s%d}\n' % (_CRC_KEY, zlib.crc32(b"}", body_crc))
    return body + tail, (zlib.crc32(tail, body_crc), head.rindex(_MESSAGE_ID_KEY), len(head), len(body))


def _decode_line(raw: bytes) -> Optional[tuple[dict, tuple[int, int, int, int]]]:
    """Parse and verify one log line: its record and its index columns from
    _CRC to _CRC_AT.  None means damaged: the line does not end in "crc",
    the CRC-32 of the line without it, and a newline, or is not one object."""
    crc_at = raw.rfind(_CRC_KEY)
    if crc_at < 0:
        return None
    head_crc = zlib.crc32(raw[:crc_at])
    if raw[crc_at + len(_CRC_KEY):] != b"%d}\n" % zlib.crc32(b"}", head_crc):
        return None
    try:
        text = raw.decode("utf-8")
        # not decode, whose two whitespace matches take a third of its time
        # here: a line starts with its object, and one the CRC check passed
        # ends in "}\n", so anything but that newline after it is extra data
        record, end = _DECODER.raw_decode(text)
    except ValueError:   # also a UnicodeDecodeError
        return None
    if end != len(text) - 1:
        return None
    # JSON escapes each quote in a string, so these keys occur only as keys,
    # the header's before any of the payload's and "crc" after them all
    return record, (zlib.crc32(raw[crc_at:], head_crc), raw.index(_MESSAGE_ID_KEY),
                    raw.index(_PAYLOAD_KEY), crc_at)


# A hint file: this header, the log's index rows in file order, the patient
# ids joined by NUL, a pqrst log's rows in the same order, then the CRC-32 of
# all that.  Native byte order throughout: on a machine of the other order
# the version reads wrong.
_HINT_MAGIC = b"ECGH"
_HINT_VERSION = 6
# magic, version, covered log bytes, their CRC-32, lines, patients, bytes of
# patient ids, pqrst rows
_HINT_HEADER = struct.Struct("=4sIQIIIII")
_HINT_CRC = struct.Struct("=I")


class _Hint(NamedTuple):
    """What a scan of a log's first `covered` bytes puts in the index; the
    content of the log's `.hint` file."""
    covered: int = 0
    crc: int = 0            # CRC-32 of the covered bytes
    ids: list = []          # the log's patient ids, in the order the log first names them
    # an index row per line, in file order; the log column holds the line's
    # patient, as a place in `ids`, until the open sets it to the log
    entries: np.ndarray = _NO_ENTRIES
    # a pqrst log's `device.pqrst_row` values, one per index row; none in a
    # log of another class
    rows: np.ndarray = np.empty((0, len(analytics.COLUMNS)))

    def encode(self) -> bytes:
        ids = "\0".join(self.ids).encode("utf-8", "surrogatepass")
        body = b"".join([
            _HINT_HEADER.pack(_HINT_MAGIC, _HINT_VERSION, self.covered, self.crc, len(self.entries),
                              len(self.ids), len(ids), len(self.rows)),
            self.entries.tobytes(), ids, self.rows.tobytes()])
        return body + _HINT_CRC.pack(zlib.crc32(body))

    @classmethod
    def read(cls, path: str) -> Optional["_Hint"]:
        """The hint a file holds; None unless it reads and its CRC, magic,
        version and length all check.  Its arrays are views of the file's bytes."""
        try:
            with open(path, "rb", buffering=0) as fh:
                data = fh.read()
        except OSError:
            return None
        end = len(data) - _HINT_CRC.size
        if end < _HINT_HEADER.size or data[end:] != _HINT_CRC.pack(zlib.crc32(memoryview(data)[:end])):
            return None
        magic, version, covered, crc, lines, patients, id_bytes, rows = _HINT_HEADER.unpack_from(data)
        width = len(analytics.COLUMNS)
        pos = _HINT_HEADER.size + 8 * _INDEX_WIDTH * lines
        if (magic != _HINT_MAGIC or version != _HINT_VERSION
                or end != pos + id_bytes + 8 * width * rows):
            return None
        # a patient id of an old log may hold a NUL; its hint splits into too many
        ids = data[pos:pos + id_bytes].decode("utf-8", "surrogatepass").split("\0") if patients else []
        if len(ids) != patients:
            return None
        entries = np.frombuffer(data, np.int64, _INDEX_WIDTH * lines, _HINT_HEADER.size)
        return cls(covered, crc, ids, entries.reshape(lines, _INDEX_WIDTH),
                   np.frombuffer(data, float, width * rows, pos + id_bytes).reshape(rows, width))


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


class _ReadHandle(int):
    """A read-only descriptor of one log (or of the root's LOCK), closed
    when the last reference to it goes.  A read holds one across its preads,
    so a handle dropped from the cache meanwhile is not closed under it, nor
    its number reused.  It is a copy of a file object's descriptor: a file
    object left to the collector unclosed would warn."""

    __slots__ = ()

    def __del__(self, _close=os.close):
        _close(self)


class RecordStore:
    """Single-writer, many-reader document log over a directory tree; in a
    running system the writer is the ingestion sink's one worker thread."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        # Orders the one writer (append, and the cut of a failed one) against
        # close(); no read takes it.
        self._lock = threading.Lock()
        # (topic class, patient id) -> (its index rows in (received_at, sequence)
        # order, how many are in use); `_pqrst` is (the pqrst rows in sequence
        # order, how many are in use).  Reads take these without a lock, which
        # holds under the GIL because: a reader takes a tuple by one dict get
        # or attribute load, and the whole index by one dict copy, none of
        # which runs Python code midway; rows below a tuple's count never
        # change; the row past it is written, fsynced and only then counted by
        # a new tuple; and a grown or inserted-into array is a new one.
        # Unchecked for a free-threaded build (PEP 703), which would also need
        # each publish to be a release store and each read an acquire load, so
        # that a row's bytes are seen with the count that covers them.
        self._index: dict[tuple[str, str], tuple[np.ndarray, int]] = {}
        self._logs: list[str] = []      # the path of each log an index row names
        # topic class -> (day, log, handle) of the one day file it appends to
        self._write_handles: dict[str, tuple[str, int, object]] = {}
        # log -> its read handle, in the order they were opened; only a miss
        # takes _read_lock, never _lock, which append holds while it reads
        self._read_handles: dict[int, _ReadHandle] = {}
        self._read_lock = threading.Lock()
        self._closed = False
        self._reads_closed = False
        # One store per root, across processes too: the kernel drops the lock
        # when its descriptor is closed, here or by the process's end.
        self._root_lock = _ReadHandle(os.open(self.root / "LOCK", os.O_RDONLY | os.O_CREAT, 0o644))
        try:
            try:
                fcntl.flock(self._root_lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                raise StoreError(f"store {self.root} is already open (its LOCK is held)") from None
            self._rebuild()
        except BaseException:
            self._root_lock = None      # closes it
            raise

    # ----------------------------------------------------------- open

    def _rebuild(self) -> None:
        """Index every log and set the next sequence."""
        self._pqrst = np.empty((0, len(analytics.COLUMNS))), 0
        self._next_seq = 1
        for klass in TOPIC_CLASSES:
            class_dir = self.root / klass
            try:
                # the logs Path.glob("*.log") lists: every name ending so, hidden ones too
                with os.scandir(class_dir) as listing:
                    names = sorted(entry.name for entry in listing if entry.name.endswith(".log"))
            except (FileNotFoundError, NotADirectoryError):
                continue
            if not names:
                continue
            first = len(self._logs)
            self._logs += [f"{class_dir}/{name}" for name in names]
            logs = [self._scan_file(klass, n) for n in range(first, len(self._logs))]
            entries = np.concatenate([log.entries for log in logs])
            rows = np.concatenate([log.rows for log in logs])
            listed = [log.ids for log in logs]
            lengths = [len(log.entries) for log in logs]
            del logs    # and the hint bytes they view, whose memory the gathers below reuse
            # patient id -> its number within the class; each row's number, in
            # the smallest unsigned dtype that holds them all, gathered at its
            # log's first place in `listed` plus its place in that log's ids
            ids = dict(zip(dict.fromkeys(itertools.chain.from_iterable(listed)), itertools.count()))
            numbers = np.fromiter(map(ids.__getitem__, itertools.chain.from_iterable(listed)),
                                  np.min_scalar_type(len(ids)), sum(map(len, listed)))
            starts = np.cumsum([0, *map(len, listed[:-1])])
            patients = numbers.take(entries[:, _LOG] + starts.repeat(lengths))
            entries[:, _LOG] = np.repeat(range(first, len(self._logs)), lengths)
            by_seq = np.argsort(entries[:, _SEQ])
            # rows are gathered with take, a few times faster than indexing with an array
            if klass == "pqrst":    # in sequence order, every row in use
                self._pqrst = rows.take(by_seq, axis=0), len(rows)
            # each patient's rows in (received_at, sequence) order, cut from one sort
            order = _then_by(by_seq, entries[:, _RECEIVED], patients)
            entries = entries.take(order, axis=0)
            bounds = patients[order].searchsorted(np.arange(len(ids) + 1)).tolist()
            for pid, start, end in zip(ids, bounds, bounds[1:]):
                self._index[klass, pid] = entries[start:end], end - start
            self._next_seq = max(self._next_seq, int(entries[:, _SEQ].max(initial=0)) + 1)
            # freed here, not when the next class's concatenations replace them
            del by_seq, order, patients, numbers, rows

    def _scan_file(self, klass: str, number: int) -> _Hint:
        """Index one log, whatever its day: from its hint, when the hint's
        CRC and that of the log bytes it covers both check, then by
        decoding each line after them.  Returns what the scan found, as
        the log's hint holds it, and rewrites the hint whenever a line
        was decoded."""
        path = self._logs[number]
        hint_path = path.removesuffix(".log") + ".hint"
        hint = _Hint.read(hint_path)
        with open(path, "rb") as fh:
            if hint is not None and _crc_of_first(fh, hint.covered) != hint.crc:
                hint = None
                fh.seek(0)
            if hint is not None and not fh.peek(1):
                return hint                 # no byte past those it covers
            log = hint or _Hint()
            ids = dict(zip(log.ids, itertools.count()))
            tail, tail_rows = array("q"), array("d")    # of the decoded lines
            offset, crc = log.covered, log.crc
            for raw in fh:
                decoded = _decode_line(raw)
                if decoded is None:
                    # Damage is tolerated only at the very end of the file
                    # (a torn final append); anything else is corruption.
                    if fh.read(1) == b"":
                        os.truncate(path, offset)
                        break
                    raise StoreError(f"corrupt log line mid-file in {path} at offset {offset}")
                record, columns = decoded
                message_id = record["message_id"]
                # a line an older version wrote with a message id beyond int64
                # is never a redelivery's original: append refuses such an id
                if message_id is None or not 0 <= message_id < 2**63:
                    message_id = -1
                tail.extend((record["seq"], record["received_at"],
                             ids.setdefault(record["patient_id"], len(ids)), offset, len(raw),
                             message_id, *columns))
                if klass == "pqrst":
                    row = device.pqrst_row(record["payload"])
                    # the other columns were range-checked when written, but
                    # record_no was unbounded before MAX_RECORD_NO
                    if row[0] > sys.float_info.max:
                        raise StoreError(f"record_no beyond float64 range in {path} "
                                         f"at offset {offset}")
                    tail_rows.extend(row)
                crc = zlib.crc32(raw, crc)
                offset += len(raw)
        if tail:
            log = _Hint(offset, crc, list(ids),
                        np.concatenate([log.entries, np.reshape(tail, (-1, _INDEX_WIDTH))]),
                        np.concatenate([log.rows, np.reshape(tail_rows, (-1, log.rows.shape[1]))]))
        if hint is None or offset > hint.covered:
            _write_hint(hint_path, log)
        return log

    # ----------------------------------------------------------- write

    def append(self, topic: str, patient_id: str, payload: dict, *,
               message_id: Optional[int] = None,
               received_at: Optional[int] = None) -> int:
        """Validate, persist, and index one document; returns its sequence.

        A redelivery (same topic, message id and payload bytes as a stored
        document received at most DEDUP_WINDOW_MS before it, or after it)
        returns the original sequence without writing anything.  A message
        id is a non-negative int64.
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
        if message_id is not None and not 0 <= message_id < 2**63:
            raise ValidationError("message_id", "must be in [0, 2**63 - 1]", out_of_range=True)
        # converted before the write, so no valid document can fail after its fsync
        pqrst = np.array(device.pqrst_row(payload), dtype=float) if klass == "pqrst" else None

        with self._lock:
            if self._closed:
                raise StoreError("store is closed")
            ts = _now_ms() if received_at is None else int(received_at)
            entries, n = self._index.get((klass, patient_id), (_NO_ENTRIES, 0))
            received = entries[:n, _RECEIVED]
            if message_id is not None:
                since = entries[received.searchsorted(ts - DEDUP_WINDOW_MS):n]
                for doc in self._load(since[since[:, _MESSAGE_ID] == message_id]):
                    if doc._payload_bytes() == body:
                        return doc.sequence

            seq = self._next_seq
            line, columns = _encode_line({"seq": seq, "topic": topic, "patient_id": patient_id,
                                          "received_at": ts, "message_id": message_id}, body)
            try:
                log, fh = self._day_file(klass, _day_of(ts))
                # not tell(): after a cut, an O_APPEND handle's position
                # stays past the new end until its next write
                offset = fh.seek(0, os.SEEK_END)
            except OSError as exc:
                raise StoreError(f"append failed: {exc}") from exc
            row = (seq, ts, log, offset, len(line), -1 if message_id is None else message_id, *columns)
            try:
                # unbuffered: one write(2), which may write only part of the line
                if fh.write(line) != len(line):
                    raise OSError(f"short write to {self._logs[log]}")
                os.fsync(fh.fileno())
            except OSError as exc:
                self._discard_failed_write(self._logs[log], offset)
                raise StoreError(f"append failed: {exc}") from exc

            self._next_seq = seq + 1
            # a row dated before the patient's newest goes into a copy, so a
            # row once written never changes
            at = received.searchsorted(ts, "right")
            self._index[klass, patient_id] = (_appended(entries, n, row) if at == n else
                                              np.insert(entries[:n], at, row, axis=0)), n + 1
            if pqrst is not None:
                matrix, rows = self._pqrst
                self._pqrst = _appended(matrix, rows, pqrst), rows + 1
            return seq

    def _discard_failed_write(self, path: str, offset: int) -> None:
        """Cut the log back to where a failed append started.

        The unacked message is retransmitted, so a line left behind would
        come back as a duplicate on the next open.  The append handle is
        unbuffered and stays open for the retransmit.  When the cut fails
        too, the store closes, so nothing more is written or acked.
        """
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

    def _day_file(self, klass: str, day: str) -> tuple[int, object]:
        """The class's log and append handle for one day; a new day closes the old."""
        current = self._write_handles.get(klass)
        if current is not None and current[0] == day:
            return current[1:]
        if current is not None:
            # dropped first: if opening the new day fails, no closed handle is left
            self._write_handles.pop(klass)[2].close()
        class_dir = self.root / klass
        path = str(class_dir / f"{day}.log")
        if path not in self._logs:
            self._logs.append(path)
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
        fh = open(path, "ab", buffering=0)
        self._write_handles[klass] = (day, self._logs.index(path), fh)
        return self._write_handles[klass][1:]

    # ----------------------------------------------------------- read

    def _entries(self, patient_id: Optional[str], topic_class: str) -> np.ndarray:
        """One patient's index rows, or the whole class's, by received_at and
        then sequence."""
        if topic_class not in TOPIC_CLASSES:
            raise ValidationError("topic", f"unrecognized topic class {topic_class!r}")
        if patient_id is not None:
            entries, n = self._index.get((topic_class, patient_id), (_NO_ENTRIES, 0))
            return entries[:n]
        # a copy: iterated as it is, the index may gain a patient midway
        listed = [entries[:n] for (klass, _), (entries, n) in self._index.copy().items()
                  if klass == topic_class]
        entries = np.concatenate([_NO_ENTRIES, *listed])
        return entries.take(_then_by(np.argsort(entries[:, _SEQ]), entries[:, _RECEIVED]), axis=0)

    def read_range(self, patient_id: Optional[str], topic_class: str,
                   from_ts: float, to_ts: float) -> list[StoredDocument]:
        """Documents in the half-open window [from_ts, to_ts), sequence order.

        An unknown patient simply yields an empty list.
        """
        return self._load(self._window(patient_id, topic_class, from_ts, to_ts))

    def read_range_json(self, patient_id: Optional[str], topic_class: str,
                        from_ts: float, to_ts: float) -> bytes:
        """`read_range`'s documents as the gateway serves a window: the JSON
        array of their `json`.  Each line is read and checked as `_load`
        does, then cut at its row's offsets into two slices of one join,
        with no object, search or format per document."""
        window = self._window(patient_id, topic_class, from_ts, to_ts)
        parts = []
        current = None
        try:
            for (sequence, _, log, offset, length, _, crc,
                 message_id_at, payload_at, crc_at) in window.tolist():
                if log != current:
                    current, handle = log, self._read_handle(log)
                line = os.pread(handle, length, offset)
                if zlib.crc32(line) != crc:
                    raise self._damage(log, offset, sequence, line)
                parts += (b'},{"sequence":', line[len(_SEQ_KEY):message_id_at], line[payload_at:crc_at])
        except OSError as exc:
            raise StoreError(f"read failed: {exc}") from exc
        if not parts:
            return b"[]"
        parts[0] = b'[{"sequence":'
        parts.append(b"}]")
        served = b"".join(parts)
        # a NaN or an infinity in a line written before they were refused
        # serves as null, as `json` makes it; a search for each word's first
        # letter alone (memchr) rules most windows out in a thirtieth of the time
        if (b"N" in served and b"NaN" in served) or (b"I" in served and b"Infinity" in served):
            return b"[%s]" % b",".join(doc.json for doc in self._load(window))
        return served

    def _window(self, patient_id: Optional[str], topic_class: str,
                from_ts: float, to_ts: float) -> np.ndarray:
        """The index rows of [from_ts, to_ts), in sequence order."""
        if from_ts > to_ts:
            raise ValueError("from_ts must be <= to_ts")
        entries = self._entries(patient_id, topic_class)
        start, end = np.searchsorted(entries[:, _RECEIVED], (from_ts, to_ts))
        return _by_sequence(entries[start:end])

    def read_class(self, topic_class: str, patient_id: Optional[str] = None) -> list[StoredDocument]:
        """Every stored document of one class, oldest first."""
        return self._load(_by_sequence(self._entries(patient_id, topic_class)))

    def latest(self, patient_id: str, topic_class: str) -> Optional[StoredDocument]:
        """The most recently received document of a class for one patient:
        the largest received_at, and of those the largest sequence."""
        latest = self._load(self._entries(patient_id, topic_class)[-1:])
        return latest[0] if latest else None

    def pqrst_matrix(self) -> np.ndarray:
        """An (n, 7) float64 read-only view of every pqrst document's
        `device.pqrst_row`, in `analytics.COLUMNS` order, one row per document
        in sequence order (the order of `read_class("pqrst")`).  Its rows stay
        as they are: an append writes after them or into a new matrix."""
        matrix, rows = self._pqrst
        view = matrix[:rows]
        view.flags.writeable = False
        return view

    def _load(self, entries: np.ndarray) -> list[StoredDocument]:
        """Read index rows back, each line with one pread through its log's
        read handle, and check each against its row's CRC-32 of the whole
        line, which covers its sequence too.  Nothing is decoded."""
        docs = []
        current = None
        try:
            for row in entries.tolist():
                sequence, received_at, log, offset, length, _, crc = row[:_MESSAGE_ID_AT]
                if log != current:
                    current, handle = log, self._read_handle(log)
                line = os.pread(handle, length, offset)
                if zlib.crc32(line) != crc:
                    raise self._damage(log, offset, sequence, line)
                docs.append(StoredDocument(sequence, received_at, line, row[_MESSAGE_ID_AT:]))
        except OSError as exc:
            raise StoreError(f"read failed: {exc}") from exc
        return docs

    def _damage(self, log: int, offset: int, sequence: int, line: bytes) -> StoreError:
        """What is wrong with a line whose CRC-32 is not its row's: the
        sequence is looked at first, so that a line at another's offset is
        named as such."""
        if not line.startswith(b"%s%d," % (_SEQ_KEY, sequence)):
            return StoreError(f"line in {self._logs[log]} at offset {offset} is not sequence {sequence}")
        return StoreError(f"checksum failure in {self._logs[log]} at offset {offset}")

    def _read_handle(self, log: int) -> _ReadHandle:
        """A log's read handle: the cached one, or else one opened and cached
        unless a read racing this one just did; past MAX_READ_HANDLES the
        first opened is dropped."""
        handle = self._read_handles.get(log)
        if handle is not None:
            return handle
        with self._read_lock:
            if self._reads_closed:
                raise StoreError("store is closed")
            if log not in self._read_handles:
                if len(self._read_handles) >= MAX_READ_HANDLES:
                    del self._read_handles[next(iter(self._read_handles))]
                with open(self._logs[log], "rb", buffering=0) as fh:
                    self._read_handles[log] = _ReadHandle(os.dup(fh.fileno()))
            return self._read_handles[log]

    # ----------------------------------------------------------- export

    def export_csv(self, patient_id: Optional[str] = None) -> str:
        """All stored score records as CSV, ordered by record number."""
        records = [device.PqrstRecord.from_payload(d.payload)
                   for d in self.read_class("pqrst", patient_id)]
        records.sort(key=lambda r: r.record_no)
        return device.dump_csv(records)

    def close(self) -> None:
        """Close the append handles and drop every read handle; a read that
        needs a log after this raises `StoreError`.  A read already under
        way keeps its handle until it is done."""
        with self._lock:
            self._close_locked()
        with self._read_lock:
            self._reads_closed = True
            self._read_handles.clear()
        self._root_lock = None      # closes it, which releases the root

    def _close_locked(self) -> None:
        """Stop appending, for a caller that holds the lock; reads go on."""
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
