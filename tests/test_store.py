"""Tests for the append-only document store: durability, crash recovery,
dedup, schema checks, range reads, and CSV export.
"""

import builtins
import errno
import fcntl
import itertools
import json
import math
import os
import re
import stat
import subprocess
import sys
import tempfile
import threading
import time
import zlib
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ecgmon import device, sample_data, store as store_mod
from ecgmon.store import (
    RecordStore,
    StoreError,
    ValidationError,
    parse_topic,
)


def heartbeat(pid="p1", bpm=72):
    return {"patient_id": pid, "bpm": bpm, "window_seconds": 20,
            "measured_at": "2026-01-05T10:00:00Z"}


def pqrst(pid="p1", record_no=1, **scores):
    doc = {"record_no": record_no, "age": 30, "p": 100.0, "q": 100.0,
           "r": 100.0, "s": 100.0, "t": 100.0, "patient_id": pid,
           "captured_at": None}
    doc.update(scores)
    return doc


@pytest.fixture
def store(tmp_path):
    s = RecordStore(tmp_path / "telemetry")
    yield s
    s.close()


# ------------------------------------------------------------ topic scheme

def test_parse_topic():
    assert parse_topic("clinic/p1/heartbeat") == ("p1", "heartbeat")
    assert parse_topic("clinic/abc-7/ecg/waveform") == ("abc-7", "waveform")
    assert parse_topic("clinic/p1/ecg/pqrst") == ("p1", "pqrst")
    assert parse_topic("clinic/p1/status") == ("p1", "status")


@pytest.mark.parametrize("topic", [
    "clinic/p1/bloodpressure",
    "clinic/p1",
    "hospital/p1/heartbeat",
    "clinic//heartbeat",
    "clinic/p1/ecg",
    "clinic/p.1/heartbeat",
    "clinic/sp ace/status",
    "clinic/a/b/heartbeat",
    "clinic/" + "x" * 65 + "/heartbeat",
    "clinic/" + "x" * 300 + "/ecg/pqrst",
])
def test_parse_topic_rejects_unknown(topic):
    with pytest.raises(ValidationError):
        parse_topic(topic)


@pytest.mark.parametrize("klass", store_mod.TOPIC_CLASSES)
def test_parse_topic_inverts_device_topic(klass):
    pid = "Ab_9-" + "x" * 59
    assert parse_topic(device.topic(pid, klass)) == (pid, klass)


def test_append_rejects_patient_id_over_64_chars(store):
    pid = "x" * 65
    with pytest.raises(ValidationError, match="patient_id"):
        store.append(f"clinic/{pid}/heartbeat", pid, heartbeat(pid))
    assert store.read_class("heartbeat") == []


# ----------------------------------------------------------- append / read

def test_append_assigns_monotonic_sequences(store):
    s1 = store.append("clinic/p1/heartbeat", "p1", heartbeat())
    s2 = store.append("clinic/p1/heartbeat", "p1", heartbeat(bpm=75))
    s3 = store.append("clinic/p2/heartbeat", "p2", heartbeat("p2"))
    assert (s1, s2, s3) == (1, 2, 3)
    docs = store.read_class("heartbeat")
    assert [d.sequence for d in docs] == [1, 2, 3]
    assert docs[0].payload == heartbeat()


def test_read_range_half_open(store):
    for i, ts in enumerate([1000, 2000, 3000, 4000]):
        store.append("clinic/p1/heartbeat", "p1", heartbeat(bpm=60 + i),
                     received_at=ts)
    window = store.read_range("p1", "heartbeat", 2000, 4000)
    assert [d.payload["bpm"] for d in window] == [61, 62]
    assert store.read_range("p1", "heartbeat", 2000, 2000) == []
    with pytest.raises(ValueError):
        store.read_range("p1", "heartbeat", 5, 4)


def test_unknown_class_rejected(store):
    store.append("clinic/p1/heartbeat", "p1", heartbeat(), received_at=1000)
    with pytest.raises(ValidationError):
        store.read_class("bloodpressure")
    with pytest.raises(ValidationError):
        store.read_range("p1", "clinic/p1/heartbeat", 0, 10_000)
    with pytest.raises(ValidationError):
        store.latest("p1", "ecg")


def test_read_unknown_patient_is_empty(store):
    store.append("clinic/p1/heartbeat", "p1", heartbeat())
    assert store.read_range("ghost", "heartbeat", 0, 2**62) == []
    assert store.latest("ghost", "heartbeat") is None


def test_latest_picks_newest_received_at(store):
    store.append("clinic/p1/heartbeat", "p1", heartbeat(bpm=60), received_at=5000)
    store.append("clinic/p1/heartbeat", "p1", heartbeat(bpm=90), received_at=9000)
    store.append("clinic/p1/heartbeat", "p1", heartbeat(bpm=75), received_at=7000)
    assert store.latest("p1", "heartbeat").payload["bpm"] == 90


def test_classes_are_separate(store):
    store.append("clinic/p1/heartbeat", "p1", heartbeat())
    store.append("clinic/p1/ecg/pqrst", "p1", pqrst())
    store.append("clinic/p1/status", "p1",
                 {"patient_id": "p1", "event": "session_rejected", "message": "ERROR"})
    assert len(store.read_class("heartbeat")) == 1
    assert len(store.read_class("pqrst")) == 1
    assert len(store.read_class("status")) == 1
    assert len(store.read_class("waveform")) == 0


def test_log_file_layout(store, tmp_path):
    store.append("clinic/p1/heartbeat", "p1", heartbeat(),
                 received_at=1_767_600_000_000)  # 2026-01-05 UTC
    path = tmp_path / "telemetry" / "heartbeat" / "2026-01-05.log"
    assert path.exists()
    line = path.read_bytes().decode().strip()
    record = json.loads(line)
    assert record["seq"] == 1
    assert record["topic"] == "clinic/p1/heartbeat"
    # trailing crc field covers everything before itself
    body = line[:line.rfind(',"crc":')] + "}"
    assert record["crc"] == zlib.crc32(body.encode())


DAY_MS = 86_400_000


@pytest.fixture
def opened(monkeypatch):
    """Every file object the store module opens from now on."""
    files = []

    def spy(*args, **kwargs):
        fh = builtins.open(*args, **kwargs)
        files.append(fh)
        return fh

    monkeypatch.setattr(store_mod, "open", spy, raising=False)
    return files


def append_interleaved(store):
    """Three patients' documents interleaved over three day files."""
    for day in range(3):
        for pid in ("p1", "p2", "p3"):
            store.append(f"clinic/{pid}/ecg/pqrst", pid, pqrst(pid, record_no=day + 1),
                         received_at=1_767_600_000_000 + day * DAY_MS)


def test_read_class_opens_each_day_file_once(tmp_path, opened):
    root = tmp_path / "telemetry"
    with RecordStore(root) as store:
        append_interleaved(store)
    with RecordStore(root) as store:
        opened.clear()
        docs = store.read_class("pqrst")
        assert [d.sequence for d in docs] == list(range(1, 10))
        assert [d.patient_id for d in docs] == ["p1", "p2", "p3"] * 3
        assert len(opened) == 3
        assert all(fh.closed for fh in opened)


def test_patient_read_opens_only_its_files(store, opened):
    append_interleaved(store)
    for no in (1, 2, 3):
        store.append("clinic/p9/ecg/pqrst", "p9", pqrst("p9", record_no=no),
                     received_at=1_767_600_000_000 + DAY_MS + no)
    opened.clear()
    docs = store.read_class("pqrst", "p9")
    assert [d.sequence for d in docs] == [10, 11, 12]
    assert len(opened) == 1
    opened.clear()
    assert [d.sequence for d in store.read_range("p2", "pqrst", 0, 2**62)] == [2, 5, 8]
    # p9's read already opened the middle day's file
    assert [Path(fh.name).name for fh in opened] == ["2026-01-05.log", "2026-01-07.log"]


def test_reopen_keeps_sequence_order_for_days_appended_out_of_order(tmp_path):
    root = tmp_path / "telemetry"
    days = [2, 0, 2, 1, 0]
    with RecordStore(root) as store:
        for n, day in enumerate(days):
            store.append("clinic/p1/heartbeat", "p1", heartbeat(bpm=60 + n),
                         received_at=1_767_600_000_000 + day * DAY_MS)
    with RecordStore(root) as store:
        assert [d.sequence for d in store.read_class("heartbeat", "p1")] == [1, 2, 3, 4, 5]
        assert [d.sequence for d in store.read_class("heartbeat")] == [1, 2, 3, 4, 5]
        assert store.latest("p1", "heartbeat").payload["bpm"] == 62
        assert store.append("clinic/p1/heartbeat", "p1", heartbeat()) == 6


def test_byte_flipped_after_open_fails_the_read(store, tmp_path):
    store.append("clinic/p1/heartbeat", "p1", heartbeat(bpm=60))
    store.append("clinic/p1/heartbeat", "p1", heartbeat(bpm=61))
    log = next((tmp_path / "telemetry" / "heartbeat").glob("*.log"))
    raw = log.read_bytes()
    log.write_bytes(raw[:20] + bytes([raw[20] ^ 0xFF]) + raw[21:])
    with pytest.raises(StoreError, match="checksum"):
        store.read_class("heartbeat")
    with pytest.raises(StoreError, match="checksum"):
        store.read_range("p1", "heartbeat", 0, 2**62)


def test_one_write_handle_per_class_across_days(store, opened):
    for day in range(40):
        ts = 1_767_600_000_000 + day * DAY_MS
        store.append("clinic/p1/heartbeat", "p1", heartbeat(), received_at=ts)
        store.append("clinic/p1/ecg/pqrst", "p1", pqrst(record_no=day + 1), received_at=ts)
    assert len(opened) == 80
    assert sum(not fh.closed for fh in opened) == 2
    assert len(store.read_class("heartbeat")) == 40
    store.close()
    assert all(fh.closed for fh in opened)


def test_new_day_file_syncs_its_directories(store, tmp_path, monkeypatch):
    synced = []
    real_fsync = os.fsync

    def spy(fd):
        info = os.fstat(fd)
        synced.append(info.st_ino if stat.S_ISDIR(info.st_mode) else "file")
        real_fsync(fd)

    monkeypatch.setattr(store_mod.os, "fsync", spy)
    root = tmp_path / "telemetry"
    store.append("clinic/p1/heartbeat", "p1", heartbeat(), received_at=1_767_600_000_000)
    class_dir, root_dir = (root / "heartbeat").stat().st_ino, root.stat().st_ino
    assert synced == [class_dir, root_dir, "file"]
    synced.clear()
    store.append("clinic/p1/heartbeat", "p1", heartbeat(bpm=73), received_at=1_767_600_000_001)
    assert synced == ["file"]
    synced.clear()
    store.append("clinic/p1/heartbeat", "p1", heartbeat(), received_at=1_767_600_000_000 + DAY_MS)
    assert synced == [class_dir, root_dir, "file"]


# ------------------------------------------------------------------ dedup

def test_duplicate_message_id_same_day_collapses(store):
    s1 = store.append("clinic/p1/heartbeat", "p1", heartbeat(), message_id=7)
    s2 = store.append("clinic/p1/heartbeat", "p1", heartbeat(), message_id=7)
    assert s1 == s2
    assert len(store.read_class("heartbeat")) == 1


def test_same_id_different_topic_not_deduped(store):
    s1 = store.append("clinic/p1/heartbeat", "p1", heartbeat(), message_id=7)
    s2 = store.append("clinic/p2/heartbeat", "p2", heartbeat("p2"), message_id=7)
    assert s1 != s2
    assert len(store.read_class("heartbeat")) == 2


def test_no_message_id_never_dedups(store):
    store.append("clinic/p1/heartbeat", "p1", heartbeat())
    store.append("clinic/p1/heartbeat", "p1", heartbeat())
    assert len(store.read_class("heartbeat")) == 2


def test_dedup_survives_reopen(tmp_path):
    root = tmp_path / "telemetry"
    with RecordStore(root) as store:
        store.append("clinic/p1/heartbeat", "p1", heartbeat(), message_id=42)
    with RecordStore(root) as store:
        store.append("clinic/p1/heartbeat", "p1", heartbeat(), message_id=42)
        assert len(store.read_class("heartbeat")) == 1


def test_same_id_different_payload_both_stored(tmp_path):
    root = tmp_path / "telemetry"
    first, second = pqrst(r=90.0), pqrst(r=95.0)
    with RecordStore(root) as store:
        s1 = store.append("clinic/p1/ecg/pqrst", "p1", first, message_id=7)
        s2 = store.append("clinic/p1/ecg/pqrst", "p1", second, message_id=7)
        assert s1 != s2
    with RecordStore(root) as store:
        # after a reopen each payload still dedups only against itself
        assert store.append("clinic/p1/ecg/pqrst", "p1", second, message_id=7) == s2
        assert store.append("clinic/p1/ecg/pqrst", "p1", first, message_id=7) == s1
        s3 = store.append("clinic/p1/ecg/pqrst", "p1", pqrst(r=99.0), message_id=7)
        assert s3 not in (s1, s2)
        assert [d.payload["r"] for d in store.read_class("pqrst")] == [90.0, 95.0, 99.0]


# ------------------------------------------------------------- validation

def test_patient_topic_mismatch_rejected(store):
    with pytest.raises(ValidationError, match="patient_id"):
        store.append("clinic/p1/heartbeat", "p2", heartbeat("p2"))
    with pytest.raises(ValidationError, match="patient_id"):
        store.append("clinic/p1/heartbeat", "p1", heartbeat("p9"))


def test_missing_field_rejected(store):
    doc = heartbeat()
    del doc["bpm"]
    with pytest.raises(ValidationError) as exc:
        store.append("clinic/p1/heartbeat", "p1", doc)
    assert exc.value.field == "bpm"
    assert not exc.value.out_of_range


def test_wrong_type_rejected(store):
    with pytest.raises(ValidationError):
        store.append("clinic/p1/heartbeat", "p1", heartbeat(bpm="72"))
    with pytest.raises(ValidationError):
        store.append("clinic/p1/heartbeat", "p1", heartbeat(bpm=True))


@pytest.mark.parametrize("doc,field", [
    (heartbeat(bpm=900), "bpm"),
    (heartbeat(bpm=-1), "bpm"),
    (pqrst(record_no=0), "record_no"),
    (pqrst(age=200), "age"),
    (pqrst(p=150.0), "p"),
    (pqrst(t=-0.5), "t"),
    (pqrst(record_no=2**53), "record_no"),
    (pqrst(record_no=10**400), "record_no"),
])
def test_out_of_range_flagged(store, doc, field):
    topic = "clinic/p1/heartbeat" if "bpm" in doc else "clinic/p1/ecg/pqrst"
    with pytest.raises(ValidationError) as exc:
        store.append(topic, "p1", doc)
    assert exc.value.field == field
    assert exc.value.out_of_range


def test_pqrst_age_must_be_integer(store):
    bad = pqrst()
    bad["age"] = 30.5
    with pytest.raises(ValidationError):
        store.append("clinic/p1/ecg/pqrst", "p1", bad)


def test_waveform_schema(store):
    doc = {"patient_id": "p1", "seq": 0, "sample_rate": 250,
           "samples": [337, 340, 338], "lead_off": [False, False, True]}
    store.append("clinic/p1/ecg/waveform", "p1", doc)
    bad = dict(doc, lead_off=[False])
    with pytest.raises(ValidationError, match="lead_off"):
        store.append("clinic/p1/ecg/waveform", "p1", bad)
    bad = dict(doc, samples=[337, -1, 338])
    with pytest.raises(ValidationError, match="samples"):
        store.append("clinic/p1/ecg/waveform", "p1", bad)



def nested(depth, inner=0):
    """`depth` lists, one inside the other, around `inner`."""
    for _ in range(depth):
        inner = [inner]
    return inner


@pytest.mark.parametrize("klass", sorted(store_mod.TOPIC_CLASSES))
def test_keys_outside_the_schema_nest_at_most_the_limit(klass):
    limit = store_mod.MAX_EXTRA_DEPTH
    valid = VALID_DOCS[klass]
    store_mod._validate(klass, dict(valid, x=nested(limit), y={"a": [nested(limit - 2)]},
                                    z=nested(limit - 1, inner=[])))
    for deep in (nested(limit + 1), {"a": nested(limit)}, [[], nested(limit)],
                 nested(limit, inner={})):
        with pytest.raises(ValidationError, match="^x: nests deeper than"):
            store_mod._validate(klass, dict(valid, x=deep))


def test_nesting_is_checked_without_recursion(store):
    # far deeper than the interpreter's recursion limit
    with pytest.raises(ValidationError, match="^x: "):
        store.append("clinic/p1/heartbeat", "p1", dict(heartbeat(), x=nested(100_000)))
    assert store.read_class("heartbeat") == []


def test_nesting_check_skips_the_schema_fields(monkeypatch):
    walked = []
    nests_deeper = store_mod._nests_deeper

    def spy(value, limit):
        walked.append(value)
        return nests_deeper(value, limit)

    monkeypatch.setattr(store_mod, "_nests_deeper", spy)
    store_mod._validate("waveform", dict(VALID_DOCS["waveform"], note="x"))
    assert walked == ["x"]


# The per-class validators the schema table replaced, kept as its reference.

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
    if not 1 <= record_no <= store_mod.MAX_RECORD_NO:
        raise ValidationError("record_no", f"must be an integer in [1, {store_mod.MAX_RECORD_NO}]",
                              out_of_range=True)
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


REFERENCE_VALIDATORS = {
    "heartbeat": _validate_heartbeat,
    "pqrst": _validate_pqrst,
    "waveform": _validate_waveform,
    "status": _validate_status,
}

VALID_DOCS = {
    "heartbeat": heartbeat(),
    "pqrst": pqrst(),
    "waveform": {"patient_id": "p1", "seq": 3, "sample_rate": 250,
                 "samples": [337, 0, 1023], "lead_off": [False, True, False]},
    "status": {"patient_id": "p1", "event": "online"},
}
# every bound in the schemas, each with values on, just inside and just past it
BOUNDS = (0, 1, 100, 120, 750, 3600, 1_000_000, store_mod.MAX_RECORD_NO)
EDGE_VALUES = (
    True, False, None, "", "7", [], [0], {}, math.nan, math.inf, -math.inf, -0.0,
    2**53 + 1, -(2**53), 2**70, 10**400,
    *(v for b in BOUNDS for v in (b - 1, b, b + 1, float(b), b - 0.5, b + 0.5, -b)),
)
WAVEFORM_ENTRIES = (-1, 0, 1023, True, False, None, 0.0, 1.5, "1", 2**70)


def _outcome(check, doc):
    try:
        check(doc)
    except ValidationError as exc:
        return exc.field, exc.out_of_range
    return None


@pytest.mark.parametrize("klass", sorted(VALID_DOCS))
def test_valid_documents_pass_both_validators(klass):
    assert _outcome(REFERENCE_VALIDATORS[klass], VALID_DOCS[klass]) is None
    store_mod._validate(klass, VALID_DOCS[klass])


def _single_mutations():
    for klass, valid in VALID_DOCS.items():
        for field in valid:
            yield klass, {k: v for k, v in valid.items() if k != field}
            for value in EDGE_VALUES:
                yield klass, dict(valid, **{field: value})
    wave = VALID_DOCS["waveform"]
    for entry in WAVEFORM_ENTRIES:
        yield "waveform", dict(wave, samples=[337, entry, 1023])
        yield "waveform", dict(wave, lead_off=[False, entry, False])
        yield "waveform", dict(wave, samples=[entry])


def test_schema_table_matches_reference_on_every_single_mutation():
    mismatches = [(klass, doc) for klass, doc in _single_mutations()
                  if _outcome(lambda d: store_mod._validate(klass, d), doc)
                  != _outcome(REFERENCE_VALIDATORS[klass], doc)]
    assert not mismatches


@settings(max_examples=600, deadline=None)
@given(st.sampled_from(sorted(VALID_DOCS)), st.data())
def test_schema_table_matches_reference_validators(klass, data):
    doc = dict(VALID_DOCS[klass])
    values = st.one_of(st.sampled_from(EDGE_VALUES), st.integers(), st.floats(),
                       st.text(max_size=3))
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        field = data.draw(st.sampled_from(sorted(VALID_DOCS[klass])), label="field")
        action = data.draw(st.sampled_from(("drop", "swap", "entries")), label="action")
        if action == "drop":
            doc.pop(field, None)
        elif action == "swap":
            doc[field] = data.draw(values, label="value")
        else:  # mismatched lengths and bad samples or flags
            doc[field] = data.draw(st.lists(st.sampled_from(WAVEFORM_ENTRIES), max_size=4),
                                   label="entries")
    want = _outcome(REFERENCE_VALIDATORS[klass], doc)
    assert _outcome(lambda d: store_mod._validate(klass, d), doc) == want

# ------------------------------------------------------------- durability

def test_reopen_preserves_documents_and_sequence(tmp_path):
    root = tmp_path / "telemetry"
    with RecordStore(root) as store:
        store.append("clinic/p1/heartbeat", "p1", heartbeat(bpm=60))
        store.append("clinic/p1/heartbeat", "p1", heartbeat(bpm=61))
    with RecordStore(root) as store:
        docs = store.read_class("heartbeat")
        assert [d.payload["bpm"] for d in docs] == [60, 61]
        assert store.append("clinic/p1/heartbeat", "p1", heartbeat(bpm=62)) == 3


def test_torn_final_line_discarded(tmp_path):
    root = tmp_path / "telemetry"
    with RecordStore(root) as store:
        store.append("clinic/p1/heartbeat", "p1", heartbeat(bpm=60))
        store.append("clinic/p1/heartbeat", "p1", heartbeat(bpm=61))
    log = next((root / "heartbeat").glob("*.log"))
    with open(log, "ab") as fh:
        fh.write(b'{"seq":3,"topic":"clinic/p1/heartbeat","pat')  # torn write
    with RecordStore(root) as store:
        docs = store.read_class("heartbeat")
        assert [d.payload["bpm"] for d in docs] == [60, 61]
        # the tail was truncated away, so appends extend a clean file
        store.append("clinic/p1/heartbeat", "p1", heartbeat(bpm=62))
    with RecordStore(root) as store:
        assert [d.payload["bpm"] for d in store.read_class("heartbeat")] == [60, 61, 62]


def test_torn_final_line_bad_crc_discarded(tmp_path):
    root = tmp_path / "telemetry"
    with RecordStore(root) as store:
        store.append("clinic/p1/heartbeat", "p1", heartbeat(bpm=60))
    log = next((root / "heartbeat").glob("*.log"))
    raw = log.read_bytes()
    # flip one payload byte of the final (only) line, keeping the newline
    log.write_bytes(raw[:20] + bytes([raw[20] ^ 0xFF]) + raw[21:])
    with RecordStore(root) as store:
        assert store.read_class("heartbeat") == []


def status(message, pid="p1"):
    return {"patient_id": pid, "event": "note", "message": message}


@settings(max_examples=5, deadline=None)
@given(st.text(max_size=30))
def test_torn_tail_at_every_offset_keeps_earlier_documents(message):
    """A crash can cut the last line anywhere; reopening keeps every
    earlier document and the next append lands on a line of its own."""
    earlier = [status("first"), status("second")]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "telemetry"
        with RecordStore(root) as store:
            for doc in earlier + [status(message)]:
                store.append("clinic/p1/status", "p1", doc, received_at=1_767_600_000_000)
        path = root / "status" / "2026-01-05.log"
        data = path.read_bytes()
        last_line = data.rindex(b"\n", 0, len(data) - 1) + 1
        for cut in range(last_line, len(data)):
            path.write_bytes(data[:cut])
            with RecordStore(root) as store:
                assert [d.payload for d in store.read_class("status")] == earlier
                assert store.append("clinic/p1/status", "p1", status("after"),
                                    received_at=1_767_600_000_000) == 3
            with RecordStore(root) as store:
                assert [d.payload["message"] for d in store.read_class("status")] == [
                    "first", "second", "after"]


def test_mid_file_corruption_raises(tmp_path):
    root = tmp_path / "telemetry"
    with RecordStore(root) as store:
        store.append("clinic/p1/heartbeat", "p1", heartbeat(bpm=60))
        store.append("clinic/p1/heartbeat", "p1", heartbeat(bpm=61))
    log = next((root / "heartbeat").glob("*.log"))
    raw = log.read_bytes()
    log.write_bytes(raw[:20] + bytes([raw[20] ^ 0xFF]) + raw[21:])  # first line damaged
    with pytest.raises(StoreError, match="corrupt"):
        RecordStore(root)


def crc_checked_line(head: bytes) -> bytes:
    """`head`, then the "crc" key and value that make its CRC check pass."""
    return head + b',"crc":%d}\n' % zlib.crc32(head + b"}")


@pytest.mark.parametrize("head", [
    b'{"seq":3,"topic"',                    # a key without a value: not one object
    b'{"seq":3} {"seq":4',                  # one object, then bytes after it
], ids=["not-an-object", "bytes-after"])
@pytest.mark.parametrize("last", [True, False], ids=["last", "mid-file"])
def test_a_crc_checked_line_that_is_not_one_object_is_damage(tmp_path, head, last):
    """As the last line it is a torn append and truncated; before another
    line it is corruption."""
    root = tmp_path / "telemetry"
    with RecordStore(root) as store:
        store.append("clinic/p1/heartbeat", "p1", heartbeat(bpm=60))
    log = next((root / "heartbeat").glob("*.log"))
    good = log.read_bytes()
    log.write_bytes(good + crc_checked_line(head) + (b"" if last else good))
    if not last:
        with pytest.raises(StoreError, match=f"corrupt log line mid-file in {log} at offset {len(good)}$"):
            RecordStore(root)
        return
    with RecordStore(root) as store:
        assert [d.payload["bpm"] for d in store.read_class("heartbeat")] == [60]
    assert log.read_bytes() == good


@pytest.mark.parametrize("head", [
    b'{"seq":2',
    b'{"seq":2,"topic":"clinic/p1/heartbeat","patient_id":"p1","received_at":1,"message_id":null',
], ids=["no-message-id", "no-payload"])
@pytest.mark.parametrize("last", [True, False], ids=["last", "mid-file"])
def test_a_crc_checked_line_without_a_key_the_index_cuts_at_is_damage(tmp_path, head, last):
    """One object, but the index cannot cut its document out of it: as the
    last line a torn append, truncated; before another line, corruption."""
    root = tmp_path / "telemetry"
    with RecordStore(root) as store:
        store.append("clinic/p1/heartbeat", "p1", heartbeat(bpm=60))
    log = next((root / "heartbeat").glob("*.log"))
    good = log.read_bytes()
    log.write_bytes(good + crc_checked_line(head) + (b"" if last else good))
    if not last:
        with pytest.raises(StoreError, match=f"corrupt log line mid-file in {log} at offset {len(good)}$"):
            RecordStore(root)
        return
    with RecordStore(root) as store:
        assert [d.payload["bpm"] for d in store.read_class("heartbeat")] == [60]
    assert log.read_bytes() == good


@pytest.mark.parametrize("message_id", [-1, 2**63])
def test_a_message_id_outside_int64_is_refused_and_nothing_written(tmp_path, message_id):
    root = tmp_path / "telemetry"
    with RecordStore(root) as store:
        with pytest.raises(ValidationError) as exc:
            store.append("clinic/p1/heartbeat", "p1", heartbeat(), message_id=message_id)
        assert (exc.value.field, exc.value.out_of_range) == ("message_id", True)
        assert store.read_class("heartbeat") == []
        assert list(root.glob("heartbeat/*.log")) == []
        assert store.append("clinic/p1/heartbeat", "p1", heartbeat()) == 1


def test_append_after_close_raises(tmp_path):
    store = RecordStore(tmp_path / "telemetry")
    store.close()
    with pytest.raises(StoreError):
        store.append("clinic/p1/heartbeat", "p1", heartbeat())


# ------------------------------------------------------ one store per root

SRC = str(Path(__file__).resolve().parent.parent / "src")
HOLD = "import sys; from ecgmon.store import RecordStore; store = RecordStore(sys.argv[1]); "


def python(*args):
    """`python *args` in a child process on this checkout's ecgmon,
    unbuffered, with its standard streams piped."""
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.Popen([sys.executable, *map(str, args)], env=env, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def test_a_second_open_of_a_live_root_raises_naming_it(tmp_path):
    root = tmp_path / "telemetry"
    with RecordStore(root) as store:
        store.append("clinic/p1/heartbeat", "p1", heartbeat())
        with pytest.raises(StoreError, match=re.escape(str(root))):
            RecordStore(root)
        with python("-c", HOLD, root) as other:
            _, err = other.communicate(timeout=30)
        assert other.returncode == 1
        assert b"StoreError" in err and str(root).encode() in err
        assert [d.sequence for d in store.read_class("heartbeat")] == [1]
    with RecordStore(root) as reopened:     # close() released the root
        assert [d.sequence for d in reopened.read_class("heartbeat")] == [1]


def test_a_root_opens_again_once_its_holder_is_killed(tmp_path):
    root = tmp_path / "telemetry"
    with python("-c", HOLD + "print('open'); sys.stdin.read()", root) as holder:
        try:
            assert holder.stdout.readline() == b"open\n"
            with pytest.raises(StoreError, match="already open"):
                RecordStore(root)
        finally:
            holder.kill()
        holder.communicate(timeout=30)
    RecordStore(root).close()


def test_a_failed_open_releases_the_root(tmp_path, monkeypatch):
    root = tmp_path / "telemetry"

    def rebuild(self):
        raise StoreError("injected rebuild failure")

    monkeypatch.setattr(RecordStore, "_rebuild", rebuild)
    with pytest.raises(StoreError, match="injected"):
        RecordStore(root)
    monkeypatch.undo()
    RecordStore(root).close()


# Appends 3 KB waveform documents until its stdin closes, printing each
# acked sequence, then closes the store.
APPEND_UNTIL_STDIN_CLOSES = HOLD + """
import threading
stop = threading.Event()
threading.Thread(target=lambda: (sys.stdin.read(), stop.set()), daemon=True).start()
doc = {"patient_id": "p1", "seq": 0, "sample_rate": 250, "samples": [512] * 300,
       "lead_off": [False] * 300}
print("open")
while not stop.is_set():
    doc["seq"] += 1
    print(store.append("clinic/p1/ecg/waveform", "p1", doc, message_id=doc["seq"]))
store.close()
"""


def test_opens_beside_a_live_writer_all_fail_and_lose_no_acked_document(tmp_path):
    """Two stores on one root lost acked documents: each open cut what
    looked like a torn tail and rewrote hints while the other appended."""
    root = tmp_path / "telemetry"
    tries = 0
    with python("-c", APPEND_UNTIL_STDIN_CLOSES, root) as writer:
        try:
            assert writer.stdout.readline() == b"open\n"
            deadline = time.monotonic() + 2.5
            while time.monotonic() < deadline:
                with pytest.raises(StoreError, match=re.escape(str(root))):
                    RecordStore(root)
                tries += 1
        finally:
            out, err = writer.communicate(timeout=30)   # closes its stdin
    assert writer.returncode == 0, err
    acked = [int(line) for line in out.split()]
    assert tries > 100 and len(acked) > 10
    with RecordStore(root) as store:
        docs = store.read_class("waveform")
    assert [d.sequence for d in docs] == acked == list(range(1, len(acked) + 1))
    assert [d.payload["seq"] for d in docs] == acked


# The line encoder of the store before each payload was serialized once per
# append, kept as the reference for the bytes on disk.

def reference_encode_line(record: dict) -> bytes:
    body = json.dumps(record, separators=(",", ":"), sort_keys=False)
    crc = zlib.crc32(body.encode("utf-8"))
    return (body[:-1] + f',"crc":{crc}}}\n').encode("utf-8")


def test_old_log_with_unconvertible_record_no_names_file_and_offset(tmp_path):
    """A log written before record_no was bounded may hold a value no
    float64 can carry; opening it is a store error, not an OverflowError."""
    root = tmp_path / "telemetry"
    with RecordStore(root) as store:
        store.append("clinic/p1/ecg/pqrst", "p1", pqrst(), received_at=1_767_600_000_000)
    log = root / "pqrst" / "2026-01-05.log"
    offset = log.stat().st_size
    record = {"seq": 2, "topic": "clinic/p1/ecg/pqrst", "patient_id": "p1",
              "received_at": 1_767_600_000_000, "message_id": None,
              "payload": pqrst(record_no=10**400)}
    with open(log, "ab") as fh:
        fh.write(reference_encode_line(record))
    with pytest.raises(StoreError, match=f"{log}.* at offset {offset}$"):
        RecordStore(root)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**53 - 1), 2**53 - 1)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8)
# keys outside every schema: none starts with "x"
EXTRA_FIELDS = st.dictionaries(st.text(max_size=6).map("x".__add__), JSON_VALUES, max_size=4)
SPECIAL_FIELDS = {"x_zero": -0.0, "x_exact": 2**53 - 1, "x_deep": nested(store_mod.MAX_EXTRA_DEPTH),
                  "x_text": 'é "\\/\n\t\u2028\ud800 \U0001F493 \x00', "é\ud83d": [1.5e-300, -2.5e300]}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(VALID_DOCS)), EXTRA_FIELDS, st.booleans(),
       st.none() | st.integers(1, 0xFFFF), st.none() | st.integers(0, 1_700_000_000_000))
def test_append_writes_the_reference_line(klass, extra, special, message_id, received_at):
    payload = dict(VALID_DOCS[klass], **extra, **(SPECIAL_FIELDS if special else {}))
    topic = device.topic("p1", klass)
    with tempfile.TemporaryDirectory() as root:
        with RecordStore(root) as store:
            seq = store.append(topic, "p1", payload, message_id=message_id,
                               received_at=received_at)
            doc = store.read_class(klass)[0]
            assert doc.payload == payload
            record = {"seq": seq, "topic": topic, "patient_id": "p1",
                      "received_at": doc.received_at, "message_id": message_id,
                      "payload": payload}
            [log] = Path(root).glob(f"{klass}/*.log")
            assert log.read_bytes() == reference_encode_line(record)
        # after a reopen, a redelivery is recognised by the stored line's
        # payload bytes, whatever day it was received
        if message_id is not None:
            with RecordStore(root) as store:
                assert store.append(topic, "p1", payload, message_id=message_id,
                                    received_at=doc.received_at) == seq


def test_log_written_by_the_reference_encoder_opens_unchanged(tmp_path):
    root = tmp_path / "telemetry"
    now = store_mod._now_ms()
    day_ms = 86_400_000
    records = [
        ("heartbeat", 1, now, 5, heartbeat()),
        ("pqrst", 2, now, 5, pqrst()),
        ("heartbeat", 3, now, None, dict(heartbeat(bpm=80), x_note="é\u2028\"\\")),
        ("heartbeat", 4, now - day_ms, 6, heartbeat(bpm=90)),
        # written before non-finite numbers were refused
        ("status", 5, now, 7, {"patient_id": "p1", "event": "online",
                               "x": [math.nan, {"y": math.inf}, -math.inf]}),
    ]
    for klass, seq, ts, message_id, payload in records:
        topic = device.topic("p1", klass)
        log = root / klass / f"{store_mod._day_of(ts)}.log"
        log.parent.mkdir(parents=True, exist_ok=True)
        with open(log, "ab") as fh:
            fh.write(reference_encode_line({"seq": seq, "topic": topic, "patient_id": "p1",
                                            "received_at": ts, "message_id": message_id,
                                            "payload": payload}))
    with RecordStore(root) as store:
        got = [(d.sequence, d.received_at, d.message_id, d.payload)
               for klass in ("heartbeat", "pqrst", "status") for d in store.read_class(klass)]
        assert got == [
            (1, now, 5, heartbeat()),
            (3, now, None, dict(heartbeat(bpm=80), x_note="é\u2028\"\\")),
            (4, now - day_ms, 6, heartbeat(bpm=90)),
            (2, now, 5, pqrst()),
            (5, now, 7, {"patient_id": "p1", "event": "online", "x": [None, {"y": None}, None]}),
        ]
        # a redelivery of each message is recognised, yesterday's at its own received_at
        assert store.append("clinic/p1/heartbeat", "p1", heartbeat(), message_id=5) == 1
        assert store.append("clinic/p1/ecg/pqrst", "p1", pqrst(), message_id=5) == 2
        assert store.append("clinic/p1/heartbeat", "p1", heartbeat(bpm=90), message_id=6,
                            received_at=now - day_ms) == 4


def refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_numbers_are_refused_and_every_line_is_strict_json(tmp_path, value):
    root = tmp_path / "telemetry"
    with RecordStore(root) as store:
        for doc in (dict(heartbeat(), x=value), dict(heartbeat(), x=[{"y": value}])):
            with pytest.raises(ValidationError, match="^payload: "):
                store.append("clinic/p1/heartbeat", "p1", doc, message_id=3)
        # nothing was written or keyed, so the packet id is still free
        assert store.append("clinic/p1/heartbeat", "p1", heartbeat(), message_id=3) == 1
        assert len(store.read_class("heartbeat")) == 1
    for log in root.rglob("*.log"):
        for line in log.read_bytes().splitlines():
            json.loads(line, parse_constant=refuse_constant)


def test_append_serializes_the_payload_once_and_open_serializes_nothing(tmp_path, monkeypatch):
    encoded = []

    class Spy(json.JSONEncoder):
        def encode(self, o):
            encoded.append(o)
            return super().encode(o)

    def no_dumps(*args, **kwargs):
        raise AssertionError("json.dumps called")

    monkeypatch.setattr(store_mod, "_ENCODER", Spy(separators=(",", ":"), allow_nan=False))
    monkeypatch.setattr(json, "dumps", no_dumps)
    root = tmp_path / "telemetry"
    payload = pqrst()
    with RecordStore(root) as store:
        store.append("clinic/p1/ecg/pqrst", "p1", payload, message_id=9)
    assert sum(o is payload for o in encoded) == 1
    encoded.clear()
    with RecordStore(root) as store:
        assert encoded == []
        # a redelivery is recognised, and serializes its payload once
        assert store.append("clinic/p1/ecg/pqrst", "p1", payload, message_id=9) == 1
    assert sum(o is payload for o in encoded) == 1


# ------------------------------------------------------------ fsync faults

def fail_append_fsync(monkeypatch, failures=1):
    """Make the next `failures` fsyncs of an append handle raise EIO.

    Only O_APPEND descriptors fail: the store fsyncs directories, and the
    descriptor that cuts a failed append back, through other ones."""
    real_fsync = os.fsync
    left = [failures]

    def flaky(fd):
        if left[0] and fcntl.fcntl(fd, fcntl.F_GETFL) & os.O_APPEND:
            left[0] -= 1
            raise OSError(errno.EIO, "injected fsync failure")
        real_fsync(fd)

    monkeypatch.setattr(store_mod.os, "fsync", flaky)
    return left


def test_failed_fsync_then_retransmit_stores_one_document(tmp_path, monkeypatch):
    root = tmp_path / "telemetry"
    first, second = pqrst(record_no=1), pqrst(record_no=2, r=90.0)
    with RecordStore(root) as store:
        assert store.append("clinic/p1/ecg/pqrst", "p1", first, message_id=1) == 1
        size = sum(f.stat().st_size for f in (root / "pqrst").glob("*.log"))
        fail_append_fsync(monkeypatch)
        with pytest.raises(StoreError, match="injected"):
            store.append("clinic/p1/ecg/pqrst", "p1", second, message_id=2)
        # the failed line was cut away, and nothing of it was indexed
        assert sum(f.stat().st_size for f in (root / "pqrst").glob("*.log")) == size
        assert [d.sequence for d in store.read_class("pqrst")] == [1]
        assert len(store.pqrst_matrix()) == 1
        assert store.append("clinic/p1/ecg/pqrst", "p1", second, message_id=2) == 2
        docs = [(d.sequence, d.payload) for d in store.read_class("pqrst")]
        matrix = store.pqrst_matrix()
    assert docs == [(1, first), (2, second)]
    with RecordStore(root) as store:
        assert [(d.sequence, d.payload) for d in store.read_class("pqrst")] == docs
        assert np.array_equal(store.pqrst_matrix(), matrix)
        # the retransmit is still a redelivery after the reopen
        assert store.append("clinic/p1/ecg/pqrst", "p1", second, message_id=2) == 2
        assert store.append("clinic/p1/heartbeat", "p1", heartbeat()) == 3


def test_failed_cut_after_failed_fsync_closes_the_store(tmp_path, monkeypatch):
    store = RecordStore(tmp_path / "telemetry")
    store.append("clinic/p1/heartbeat", "p1", heartbeat(bpm=60))
    fail_append_fsync(monkeypatch)

    def no_truncate(fd, length):
        raise OSError(errno.EIO, "injected truncate failure")

    monkeypatch.setattr(store_mod.os, "ftruncate", no_truncate)
    with pytest.raises(StoreError, match="store closed"):
        store.append("clinic/p1/heartbeat", "p1", heartbeat(bpm=61))
    with pytest.raises(StoreError, match="closed"):
        store.append("clinic/p1/heartbeat", "p1", heartbeat(bpm=62))
    store.close()


def test_retransmit_after_failed_fsync_opens_no_file_and_syncs_no_directory(store, opened,
                                                                            monkeypatch):
    store.append("clinic/p1/heartbeat", "p1", heartbeat(bpm=60), message_id=1)
    fail_append_fsync(monkeypatch)
    with pytest.raises(StoreError, match="injected"):
        store.append("clinic/p1/heartbeat", "p1", heartbeat(bpm=61), message_id=2)
    opened.clear()
    directories = []
    fsync = os.fsync

    def spy(fd):
        if stat.S_ISDIR(os.fstat(fd).st_mode):
            directories.append(fd)
        fsync(fd)

    monkeypatch.setattr(store_mod.os, "fsync", spy)
    # the failed append kept its handle: the retransmit writes through it
    assert store.append("clinic/p1/heartbeat", "p1", heartbeat(bpm=61), message_id=2) == 2
    assert opened == []
    assert directories == []
    assert [d.payload["bpm"] for d in store.read_class("heartbeat")] == [60, 61]


def test_short_write_is_a_failed_append(tmp_path, monkeypatch):
    root = tmp_path / "telemetry"
    short = [0]

    class ShortWriter:
        """An append handle whose write stores half the line while `short` counts."""

        def __init__(self, fh):
            self._fh = fh

        def __getattr__(self, name):
            return getattr(self._fh, name)

        def write(self, data):
            if short[0]:
                short[0] -= 1
                return self._fh.write(data[:len(data) // 2])
            return self._fh.write(data)

    def open_short(path, mode="r", *args, **kwargs):
        fh = builtins.open(path, mode, *args, **kwargs)
        return ShortWriter(fh) if "a" in mode else fh

    monkeypatch.setattr(store_mod, "open", open_short, raising=False)
    first, second = pqrst(record_no=1), pqrst(record_no=2, r=90.0)
    with RecordStore(root) as store:
        assert store.append("clinic/p1/ecg/pqrst", "p1", first, message_id=1) == 1
        log = next((root / "pqrst").glob("*.log"))
        size = log.stat().st_size
        short[0] = 1
        with pytest.raises(StoreError, match="short write"):
            store.append("clinic/p1/ecg/pqrst", "p1", second, message_id=2)
        assert log.stat().st_size == size
        assert [d.sequence for d in store.read_class("pqrst")] == [1]
        assert len(store.pqrst_matrix()) == 1
        assert store.append("clinic/p1/ecg/pqrst", "p1", second, message_id=2) == 2
        assert store.append("clinic/p1/ecg/pqrst", "p1", second, message_id=2) == 2
        docs = [(d.sequence, d.payload) for d in store.read_class("pqrst")]
    assert docs == [(1, first), (2, second)]
    with RecordStore(root) as store:
        assert [(d.sequence, d.payload) for d in store.read_class("pqrst")] == docs
        assert store.append("clinic/p1/ecg/pqrst", "p1", second, message_id=2) == 2
        assert store.append("clinic/p1/heartbeat", "p1", heartbeat()) == 3


def test_failed_directory_fsync_on_a_day_change_leaves_no_closed_handle(store, monkeypatch):
    store.append("clinic/p1/heartbeat", "p1", heartbeat(), received_at=1_767_600_000_000)
    real_fsync = os.fsync
    left = [1]

    def flaky(fd):
        if left[0] and stat.S_ISDIR(os.fstat(fd).st_mode):
            left[0] -= 1
            raise OSError(errno.EIO, "injected directory fsync failure")
        real_fsync(fd)

    monkeypatch.setattr(store_mod.os, "fsync", flaky)
    with pytest.raises(StoreError, match="injected"):
        store.append("clinic/p1/heartbeat", "p1", heartbeat(),
                     received_at=1_767_600_000_000 + DAY_MS)
    # the previous day's handle was closed; it must not be handed out again
    assert store.append("clinic/p1/heartbeat", "p1", heartbeat(),
                        received_at=1_767_600_000_001) == 2
    assert store.append("clinic/p1/heartbeat", "p1", heartbeat(),
                        received_at=1_767_600_000_000 + DAY_MS) == 3


# ------------------------------------------------------------ pqrst matrix

def assert_matrix_matches_read_class(store):
    want = np.array([device.pqrst_row(d.payload) for d in store.read_class("pqrst")],
                    dtype=float).reshape(-1, 7)
    got = store.pqrst_matrix()
    assert got.dtype == np.float64
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def scored(pid, record_no):
    rng = np.random.default_rng(record_no)
    return pqrst(pid, record_no=record_no, age=20 + record_no % 70,
                 **{w: round(float(rng.uniform(50, 100)), 2) for w in "pqrst"})


def test_pqrst_matrix_matches_read_class_interleaved(store):
    assert store.pqrst_matrix().shape == (0, 7)
    record_no = 0
    for day in range(3):
        for pid in ("p1", "p2", "p3"):
            ts = 1_767_600_000_000 + day * DAY_MS
            record_no += 1
            store.append(f"clinic/{pid}/ecg/pqrst", pid, scored(pid, record_no),
                         received_at=ts)
            store.append(f"clinic/{pid}/heartbeat", pid, heartbeat(pid), received_at=ts)
            store.append(f"clinic/{pid}/status", pid, status("x", pid), received_at=ts)
            assert_matrix_matches_read_class(store)
    with pytest.raises(ValueError):
        store.pqrst_matrix()[:] = 0.0        # a read-only view: the store's rows stay
    assert_matrix_matches_read_class(store)


def test_pqrst_matrix_matches_read_class_after_out_of_order_days_and_reopen(tmp_path):
    root = tmp_path / "telemetry"
    with RecordStore(root) as store:
        for n, day in enumerate([2, 0, 2, 1, 0, 1]):
            pid = ("p1", "p2")[n % 2]
            store.append(f"clinic/{pid}/ecg/pqrst", pid, scored(pid, n + 1),
                         received_at=1_767_600_000_000 + day * DAY_MS)
        before = store.pqrst_matrix()
        assert_matrix_matches_read_class(store)
    with RecordStore(root) as store:
        assert_matrix_matches_read_class(store)
        assert np.array_equal(store.pqrst_matrix(), before)
        assert list(store.pqrst_matrix()[:, 0]) == [1, 2, 3, 4, 5, 6]


def test_pqrst_matrix_ignores_a_redelivery(store):
    doc = scored("p1", 1)
    store.append("clinic/p1/ecg/pqrst", "p1", doc, message_id=5)
    store.append("clinic/p1/ecg/pqrst", "p1", doc, message_id=5)
    assert len(store.pqrst_matrix()) == 1
    assert_matrix_matches_read_class(store)


def test_pqrst_matrix_grows_past_its_first_capacity(tmp_path, monkeypatch):
    monkeypatch.setattr(store_mod.os, "fsync", lambda fd: None)
    root = tmp_path / "telemetry"
    with RecordStore(root) as store:
        for n in range(1, 2600):
            store.append("clinic/p1/ecg/pqrst", "p1", scored("p1", n),
                         received_at=1_767_600_000_000 + n)
        assert_matrix_matches_read_class(store)
    with RecordStore(root) as store:
        store.append("clinic/p1/ecg/pqrst", "p1", pqrst(record_no=2**53 - 1))
        assert store.pqrst_matrix()[-1, 0] == 2**53 - 1
        assert_matrix_matches_read_class(store)


def test_pqrst_matrix_under_concurrent_appends_and_reads(store, monkeypatch):
    """Writers on more threads than cores, readers copying the matrix
    meanwhile: every copy is a prefix of the final matrix, and the final
    matrix holds every append in sequence order."""
    monkeypatch.setattr(store_mod.os, "fsync", lambda fd: None)
    writers, per_writer = 4, 300
    snapshots = []
    done = threading.Event()

    def write(w):
        for n in range(per_writer):
            pid = f"w{w}"
            store.append(f"clinic/{pid}/ecg/pqrst", pid, scored(pid, w * per_writer + n + 1))

    def read():
        while not done.is_set():
            snapshots.append(store.pqrst_matrix())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=write, args=(w,)) for w in range(writers)]
        readers = [threading.Thread(target=read) for _ in range(2)]
        for t in threads + readers:
            t.start()
        for t in threads:
            t.join(timeout=60)
        done.set()
        for t in readers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads + readers)
    final = store.pqrst_matrix()
    assert len(final) == writers * per_writer
    assert_matrix_matches_read_class(store)
    assert snapshots and all(np.array_equal(s, final[:len(s)]) for s in snapshots)


# ------------------------------------------------------- reads take no lock

T0 = 1_767_600_000_000


def blocked_append_fsync(monkeypatch, fail=False):
    """Hold the next fsync of an append handle until the returned `release`
    is set, then let it finish, or raise EIO when `fail`.  `entered` is set
    once the fsync is held."""
    entered, release = threading.Event(), threading.Event()
    real_fsync = os.fsync

    def held(fd):
        if not entered.is_set() and fcntl.fcntl(fd, fcntl.F_GETFL) & os.O_APPEND:
            entered.set()
            release.wait(30)
            if fail:
                raise OSError(errno.EIO, "injected fsync failure")
        real_fsync(fd)

    monkeypatch.setattr(store_mod.os, "fsync", held)
    return entered, release


def returns_within(seconds, read):
    """What `read()` returns, called on a thread of its own, which must
    return within `seconds`."""
    out = []
    thread = threading.Thread(target=lambda: out.append(read()), daemon=True)
    thread.start()
    thread.join(seconds)
    assert out, f"{read} did not return within {seconds} s"
    return out[0]


# each read as the record numbers of the p1 pqrst documents it shows
SHOWN = {
    "latest": lambda s: [s.latest("p1", "pqrst").payload["record_no"]],
    "read_range": lambda s: [d.payload["record_no"]
                             for d in s.read_range("p1", "pqrst", T0, T0 + DAY_MS)],
    "read_class": lambda s: [d.payload["record_no"] for d in s.read_class("pqrst")],
    "read_class_of_p1": lambda s: [d.payload["record_no"] for d in s.read_class("pqrst", "p1")],
    "pqrst_matrix": lambda s: [int(no) for no in s.pqrst_matrix()[:, 0]],
}


@pytest.mark.parametrize("fail", [False, True], ids=["fsync-returns", "fsync-fails"])
@pytest.mark.parametrize("read", sorted(SHOWN))
def test_a_read_during_an_append_fsync_returns_at_once_without_its_document(store, monkeypatch,
                                                                            read, fail):
    shown = SHOWN[read]
    store.append("clinic/p1/ecg/pqrst", "p1", scored("p1", 1), received_at=T0)
    entered, release = blocked_append_fsync(monkeypatch, fail)
    outcome = []

    def append():
        try:
            outcome.append(store.append("clinic/p1/ecg/pqrst", "p1", scored("p1", 2),
                                        received_at=T0 + 1))
        except StoreError as exc:
            outcome.append(exc)

    writer = threading.Thread(target=append)
    writer.start()
    try:
        assert entered.wait(5)
        assert returns_within(1, lambda: shown(store)) == [1]
    finally:
        release.set()
        writer.join(30)
    assert not writer.is_alive()
    if fail:
        assert isinstance(outcome[0], StoreError)
        assert shown(store) == [1]
    else:
        assert outcome == [2]
        assert shown(store) == ([2] if read == "latest" else [1, 2])


def test_class_wide_reads_beside_appends_of_new_patients(store, monkeypatch):
    """A class-wide read walks the whole index while the writer adds
    patients to it; with threads switching every microsecond, a walk
    of the live dict would see it change size."""
    monkeypatch.setattr(store_mod.os, "fsync", lambda fd: None)
    patients = 3000
    errors, reads = [], []
    # set by each snapshot the reader takes: the writer waits for a new one at
    # appends 1,000 and 2,000, so the reads interleave with the appends however
    # fast these run
    snapshot = threading.Event()

    def write():
        for n in range(patients):
            if n in (1000, 2000):
                snapshot.clear()
                snapshot.wait(60)
            store.append(f"clinic/n{n}/heartbeat", f"n{n}", heartbeat(f"n{n}"))

    def read():
        for n in itertools.count():
            if not writer.is_alive():
                return
            try:
                # an empty window: the walk of the index without the preads
                store.read_range(None, "heartbeat", 0, 0)
                if n % 20 == 0:
                    reads.append([d.sequence for d in store.read_class("heartbeat")])
                    snapshot.set()
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)
                snapshot.set()      # the writer waits for no more snapshots
                return

    writer = threading.Thread(target=write)
    reader = threading.Thread(target=read)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        writer.start()
        reader.start()
        writer.join(120)
        reader.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not writer.is_alive() and not reader.is_alive()
    assert not errors
    assert len(reads) > 1 and all(r == list(range(1, len(r) + 1)) for r in reads)
    assert [d.sequence for d in store.read_class("heartbeat")] == list(range(1, patients + 1))


# an append: its patient, its received_at less T0 in seconds, and whether
# its fsync fails
APPENDS = st.lists(st.tuples(st.sampled_from(["p1", "p2", "p3"]), st.integers(0, 5),
                             st.booleans()), min_size=1, max_size=30)
READS = st.lists(st.sampled_from(["read_class", "patient", "window", "latest", "matrix"]),
                 min_size=1, max_size=30)


def expected_read(history, kind, pid):
    """What a read shows of `history`, the acked appends as (record number,
    patient, received_at) in sequence order, as record numbers."""
    mine = [h for h in history if h[1] == pid]
    if kind in ("read_class", "matrix"):
        return [h[0] for h in history]
    if kind == "patient":
        return [h[0] for h in mine]
    if kind == "window":
        return [h[0] for h in mine if T0 + 1000 <= h[2] < T0 + 4000]
    return [max(mine, key=lambda h: (h[2], h[0]))[0]] if mine else []


def actual_read(store, kind, pid):
    if kind == "matrix":
        return [int(no) for no in store.pqrst_matrix()[:, 0]]
    if kind == "latest":
        doc = store.latest(pid, "pqrst")
        return [doc.payload["record_no"]] if doc else []
    docs = (store.read_class("pqrst") if kind == "read_class" else
            store.read_class("pqrst", pid) if kind == "patient" else
            store.read_range(pid, "pqrst", T0 + 1000, T0 + 4000))
    return [d.payload["record_no"] for d in docs]


@settings(max_examples=40, deadline=None)
@given(APPENDS, READS, st.sampled_from(["p1", "p2", "p3"]))
def test_every_read_beside_appends_shows_a_prefix_of_the_acked_history(appends, reads, pid):
    """One thread appends, some of its fsyncs failing; the other reads until
    it is done.  Each read shows what the first k acked appends stored,
    where k is at least the appends acked before the read began and at most
    one more than those acked when it ended: one may be published and not
    yet returned.  A failed append never shows."""
    plan = [(n + 1, p, T0 + 1000 * s) for n, (p, s, _) in enumerate(appends)]
    fails = iter([fail for *_, fail in appends])
    acked, seen = [], []

    def fsync(fd):
        if fcntl.fcntl(fd, fcntl.F_GETFL) & os.O_APPEND and next(fails):
            raise OSError(errno.EIO, "injected fsync failure")
        time.sleep(0)   # lets the reader in between the write and the publish

    with tempfile.TemporaryDirectory() as tmp, RecordStore(Path(tmp) / "telemetry") as store, \
            mock.patch.object(store_mod.os, "fsync", fsync):
        def write():
            for record_no, p, received_at in plan:
                try:
                    store.append(f"clinic/{p}/ecg/pqrst", p, pqrst(p, record_no=record_no),
                                 received_at=received_at)
                except StoreError:
                    continue
                acked.append(record_no)

        writer = threading.Thread(target=write)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            writer.start()
            n = 0
            while n < len(reads) or writer.is_alive():
                before = len(acked)
                shown = actual_read(store, reads[n % len(reads)], pid)
                seen.append((reads[n % len(reads)], before, len(acked), shown))
                n += 1
            writer.join(60)
        finally:
            sys.setswitchinterval(interval)
    assert not writer.is_alive()
    history = [h for h, (*_, fail) in zip(plan, appends) if not fail]
    assert acked == [h[0] for h in history]
    for kind, before, after, shown in seen:
        prefixes = range(before, min(after + 1, len(history)) + 1)
        assert any(shown == expected_read(history[:k], kind, pid) for k in prefixes), \
            (kind, before, after, shown)


# ----------------------------------------------------------- read handles

def held_logs(root) -> list[str]:
    """The logs under `root` that this process holds a descriptor of."""
    root = str(Path(root).resolve())
    held = []
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:     # the listing's own descriptor, closed since
            continue
        if target.startswith(root) and target.endswith(".log"):
            held.append(target)
    return held


def append_days(store, days, per_day, pid="p1"):
    for day in range(days):
        for n in range(per_day):
            store.append(f"clinic/{pid}/ecg/pqrst", pid, pqrst(pid, record_no=day * per_day + n + 1),
                         received_at=1_767_600_000_000 + day * DAY_MS + n)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists descriptors in /proc")
def test_read_handles_stay_within_their_bound(tmp_path, monkeypatch, opened):
    root = tmp_path / "telemetry"
    with RecordStore(root) as store:
        append_days(store, 5, 2)
    monkeypatch.setattr(store_mod, "MAX_READ_HANDLES", 2)
    store = RecordStore(root)       # with no append handle open
    try:
        for first in range(5):
            for last in range(first, 5):
                docs = store.read_range("p1", "pqrst", 1_767_600_000_000 + first * DAY_MS,
                                        1_767_600_000_000 + (last + 1) * DAY_MS)
                assert [d.payload["record_no"] for d in docs] == list(range(2 * first + 1, 2 * last + 3))
                assert len(held_logs(root)) <= 2
        # a log dropped from the cache is opened again by its next read
        opened.clear()
        assert [d.sequence for d in store.read_class("pqrst")] == list(range(1, 11))
        assert len(opened) == 5
        assert len(held_logs(root)) == 2
    finally:
        store.close()
    assert held_logs(root) == []


def test_concurrent_reads_past_the_bound_beside_a_writer(tmp_path, monkeypatch):
    """Readers on more threads than cores, each window over more day files
    than the bound, while a writer appends across a day change: every read
    returns its documents, and none fails a CRC or sequence check."""
    monkeypatch.setattr(store_mod.os, "fsync", lambda fd: None)
    monkeypatch.setattr(store_mod, "MAX_READ_HANDLES", 2)
    days, per_day, writes = 6, 3, 200
    base = 1_767_600_000_000
    store = RecordStore(tmp_path / "telemetry")
    append_days(store, days, per_day)
    errors = []
    done = threading.Event()

    def write():
        # the writer's own patient, its appends crossing 2026-01-12T00:00Z
        for n in range(writes):
            store.append("clinic/w/ecg/pqrst", "w", pqrst("w", record_no=n + 1),
                         received_at=1_768_176_000_000 - writes // 2 + n)

    def read(r):
        try:
            for rounds in itertools.count():
                if done.is_set() and rounds >= 20:
                    break
                for first in range(days):
                    last = (first + r + 2) % days
                    lo, hi = min(first, last), max(first, last)
                    docs = store.read_range("p1", "pqrst", base + lo * DAY_MS, base + (hi + 1) * DAY_MS)
                    assert [d.payload["record_no"] for d in docs] == list(
                        range(lo * per_day + 1, (hi + 1) * per_day + 1))
                written = [d.payload["record_no"] for d in store.read_class("pqrst", "w")]
                assert written == list(range(1, len(written) + 1))
        except Exception as exc:    # noqa: BLE001 - reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        readers = [threading.Thread(target=read, args=(r,)) for r in range(4)]
        writer = threading.Thread(target=write)
        for t in readers + [writer]:
            t.start()
        writer.join(timeout=60)
        done.set()
        for t in readers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        store.close()
    assert not any(t.is_alive() for t in readers + [writer])
    assert errors == []
    assert len(list((tmp_path / "telemetry" / "pqrst").glob("*.log"))) == days + 2


def test_read_after_close_raises(store):
    store.append("clinic/p1/heartbeat", "p1", heartbeat(bpm=60), received_at=1_767_600_000_000)
    store.append("clinic/p1/heartbeat", "p1", heartbeat(bpm=61), received_at=1_767_600_000_000 + DAY_MS)
    assert store.latest("p1", "heartbeat").payload["bpm"] == 61     # one log's handle cached
    store.close()
    with pytest.raises(StoreError, match="store is closed"):
        store.latest("p1", "heartbeat")
    with pytest.raises(StoreError, match="store is closed"):
        store.read_range("p1", "heartbeat", 0, 1_767_600_000_001)


def test_reads_go_on_after_a_failed_cut_closes_the_store(tmp_path, monkeypatch):
    store = RecordStore(tmp_path / "telemetry")
    store.append("clinic/p1/heartbeat", "p1", heartbeat(bpm=60))
    fail_append_fsync(monkeypatch)

    def no_truncate(fd, length):
        raise OSError(errno.EIO, "injected truncate failure")

    monkeypatch.setattr(store_mod.os, "ftruncate", no_truncate)
    with pytest.raises(StoreError, match="store closed"):
        store.append("clinic/p1/heartbeat", "p1", heartbeat(bpm=61))
    assert [d.payload["bpm"] for d in store.read_class("heartbeat")] == [60]
    store.close()


def test_todays_handle_reads_later_appends_and_a_retransmit_after_a_cut(store, monkeypatch, opened):
    first, second, third = (pqrst(record_no=n) for n in (1, 2, 3))
    store.append("clinic/p1/ecg/pqrst", "p1", first, message_id=1)
    assert [d.sequence for d in store.read_class("pqrst")] == [1]
    opened.clear()
    store.append("clinic/p1/ecg/pqrst", "p1", second, message_id=2)
    assert [d.payload for d in store.read_class("pqrst")] == [first, second]
    fail_append_fsync(monkeypatch)
    with pytest.raises(StoreError, match="injected"):
        store.append("clinic/p1/ecg/pqrst", "p1", third, message_id=3)
    assert [d.payload for d in store.read_class("pqrst")] == [first, second]
    assert store.append("clinic/p1/ecg/pqrst", "p1", third, message_id=3) == 3
    assert [d.payload for d in store.read_class("pqrst")] == [first, second, third]
    assert opened == []     # every read went through the handle the first one cached


def test_redelivery_check_opens_no_file_once_cached(store, opened):
    doc = pqrst(record_no=1)
    assert store.append("clinic/p1/ecg/pqrst", "p1", doc, message_id=7) == 1
    assert store.append("clinic/p1/ecg/pqrst", "p1", doc, message_id=7) == 1
    opened.clear()
    assert store.append("clinic/p1/ecg/pqrst", "p1", doc, message_id=7) == 1
    assert opened == []
    assert [d.sequence for d in store.read_class("pqrst")] == [1]


# ------------------------------------------------------- served documents

# The gateway's window and latest documents before they were spliced from the
# stored line, kept as the reference: the line decoded with non-finite
# numbers read as null, copied into a dict, and encoded again.

def reference_served(line: bytes) -> str:
    record = json.loads(line, parse_constant=lambda _: None)
    return json.dumps({"sequence": record["seq"], "topic": record["topic"],
                       "patient_id": record["patient_id"],
                       "received_at": record["received_at"], "payload": record["payload"]},
                      allow_nan=False)


def stored_lines(root) -> dict:
    """Every line stored under a store root, by sequence."""
    return {json.loads(line, parse_constant=lambda _: None)["seq"]: line
            for log in Path(root).glob("*/*.log")
            for line in log.read_bytes().splitlines(keepends=True)}


def assert_served_as_reference(store, root, klass):
    """Every document that read_class, a window or latest returns serves
    strict JSON with the reference's values, types and key order."""
    lines = stored_lines(root)
    docs = store.read_class(klass)
    reads = [docs]
    for pid in {d.patient_id for d in docs}:
        window = store.read_range(pid, klass, 0, 2**62)
        reads += [window, store.read_range(pid, klass, window[-1].received_at, 2**62),
                  [store.latest(pid, klass)]]
    for read in reads:
        for d in read:
            served = json.loads(d.json, parse_constant=refuse_constant)
            assert json.dumps(served) == reference_served(lines[d.sequence])


# text that holds what a non-finite number looks like in a line
NUMBER_WORDS = st.sampled_from(["NaN", "Infinity", "-Infinity", "x NaN", "Infinity\n"])
SERVED_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**53 - 1), 2**53 - 1)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=8) | NUMBER_WORDS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4) | NUMBER_WORDS, inner, max_size=3),
    max_leaves=8)
SERVED_SPECIAL = dict(SPECIAL_FIELDS, x_words=["NaN", "-Infinity", {"Infinity": "NaN"}])
# (patient, extra fields, with SERVED_SPECIAL) for each document stored
SERVED_DOCS = st.lists(st.tuples(
    st.sampled_from(["p1", "p2"]),
    st.dictionaries(st.text(max_size=6).map("x".__add__), SERVED_VALUES, max_size=4),
    st.booleans()), min_size=1, max_size=4)


def served_payload(klass, pid, extra, special):
    return dict(VALID_DOCS[klass], patient_id=pid, **extra, **(SERVED_SPECIAL if special else {}))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(VALID_DOCS)), SERVED_DOCS)
def test_served_documents_match_the_reference(klass, stored):
    with tempfile.TemporaryDirectory() as root:
        with RecordStore(root) as store:
            for n, (pid, extra, special) in enumerate(stored):
                store.append(device.topic(pid, klass), pid, served_payload(klass, pid, extra, special),
                             message_id=n + 1, received_at=1_767_600_000_000 + n * DAY_MS // 2)
            assert_served_as_reference(store, root, klass)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(VALID_DOCS)), SERVED_DOCS,
       st.lists(st.sampled_from([math.nan, math.inf, -math.inf, -0.0]), max_size=3))
def test_lines_of_the_reference_encoder_serve_as_the_reference(klass, stored, numbers):
    """Written before non-finite numbers were refused: each serves as null."""
    with tempfile.TemporaryDirectory() as root:
        log = Path(root) / klass / "2026-01-05.log"
        log.parent.mkdir()
        with open(log, "ab") as fh:
            for n, (pid, extra, special) in enumerate(stored):
                payload = dict(served_payload(klass, pid, extra, special), x_numbers=numbers)
                fh.write(reference_encode_line({
                    "seq": n + 1, "topic": device.topic(pid, klass), "patient_id": pid,
                    "received_at": 1_767_600_000_000 + n, "message_id": None, "payload": payload}))
        with RecordStore(root) as store:
            assert_served_as_reference(store, root, klass)
            for d in store.read_class(klass):
                assert json.loads(d.json)["payload"]["x_numbers"] == [
                    None if math.isinf(v) or math.isnan(v) else v for v in numbers]


def test_line_rewritten_with_another_sequence_fails_the_read(store, tmp_path):
    # the two lines differ in one digit of bpm, and their CRCs print as wide
    for bpm in (60, 62):
        store.append("clinic/p1/heartbeat", "p1", heartbeat(bpm=bpm), received_at=1_767_600_000_000)
    log = tmp_path / "telemetry" / "heartbeat" / "2026-01-05.log"
    first, second = log.read_bytes().splitlines(keepends=True)
    assert len(first) == len(second)
    # each line still ends in its own CRC, but at the other's offset
    log.write_bytes(second + first)
    with pytest.raises(StoreError, match=f"{log} at offset 0 is not sequence 1$"):
        store.read_range("p1", "heartbeat", 0, 2**62)
    with pytest.raises(StoreError, match=f"at offset {len(first)} is not sequence 2$"):
        store.latest("p1", "heartbeat")


# the message ids a line may hold: none, an int64, and one an older version
# wrote beyond int64, which the index keeps as none
LINE_MESSAGE_IDS = st.none() | st.integers(0, 2**63 - 1) | st.integers(2**63, 2**70)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(VALID_DOCS)), SERVED_DOCS, SERVED_DOCS,
       st.lists(st.sampled_from([math.nan, math.inf, -math.inf, -0.0]), max_size=2),
       st.lists(LINE_MESSAGE_IDS, min_size=4, max_size=4), st.data())
def test_a_window_serves_the_join_of_its_documents_as_the_reference(klass, legacy, appended, numbers,
                                                                     message_ids, data):
    """Lines of an older version (non-finite numbers, message ids of null or
    beyond int64) and appended ones, keys outside the schema in both: a
    window's bytes are its documents' `json` joined, and each the reference."""
    with tempfile.TemporaryDirectory() as root:
        log = Path(root) / klass / "2026-01-05.log"
        log.parent.mkdir()
        with open(log, "ab") as fh:
            for n, (pid, extra, special) in enumerate(legacy):
                payload = dict(served_payload(klass, pid, extra, special), x_numbers=numbers)
                fh.write(reference_encode_line({
                    "seq": n + 1, "topic": device.topic(pid, klass), "patient_id": pid,
                    "received_at": 1_767_600_000_000 + n, "message_id": message_ids[n], "payload": payload}))
        with RecordStore(root) as store:
            for n, (pid, extra, special) in enumerate(appended):
                store.append(device.topic(pid, klass), pid, served_payload(klass, pid, extra, special),
                             message_id=n, received_at=1_767_600_000_000 + DAY_MS + n)
            times = sorted({0, 2**62} | {d.received_at + step for d in store.read_class(klass) for step in (0, 1)})
            lo = data.draw(st.sampled_from(times))
            hi = data.draw(st.sampled_from([t for t in times if t >= lo]))
            lines = stored_lines(root)
            for pid in ("p1", "p2", None):
                docs = store.read_range(pid, klass, lo, hi)
                window = store.read_range_json(pid, klass, lo, hi)
                assert window == b"[" + b",".join(d.json for d in docs) + b"]"
                served = json.loads(window, parse_constant=refuse_constant)
                assert [json.dumps(doc) for doc in served] == [reference_served(lines[d.sequence])
                                                               for d in docs]


def test_a_window_makes_no_document_object_unless_a_line_holds_a_non_finite_number(tmp_path,
                                                                                   monkeypatch):
    root = tmp_path / "telemetry"
    log = root / "pqrst" / "2026-01-05.log"
    log.parent.mkdir(parents=True)
    log.write_bytes(reference_encode_line({
        "seq": 1, "topic": "clinic/p1/ecg/pqrst", "patient_id": "p1", "received_at": 1_767_600_000_000,
        "message_id": None, "payload": dict(pqrst(), x=[math.nan])}))
    with RecordStore(root) as store:
        store.append("clinic/p1/ecg/pqrst", "p1", pqrst(record_no=2), received_at=1_767_600_000_001)
        made, real = [], store_mod.StoredDocument
        monkeypatch.setattr(store_mod, "StoredDocument", lambda *args: made.append(args) or real(*args))
        window = store.read_range_json("p1", "pqrst", 1_767_600_000_001, 2**62)
        assert made == [] and json.loads(window)[0]["sequence"] == 2
        window = store.read_range_json("p1", "pqrst", 0, 2**62)
        assert len(made) == 2 and json.loads(window, parse_constant=refuse_constant)[0]["payload"]["x"] == [None]


def two_heartbeats(store, tmp_path):
    """Two lines of one length in today's heartbeat log, and the log."""
    # the two lines differ in one digit of bpm, and their CRCs print as wide
    for bpm in (60, 62):
        store.append("clinic/p1/heartbeat", "p1", heartbeat(bpm=bpm), message_id=bpm,
                     received_at=1_767_600_000_000)
    log = tmp_path / "telemetry" / "heartbeat" / "2026-01-05.log"
    first, second = log.read_bytes().splitlines(keepends=True)
    assert len(first) == len(second)
    return log, first, second


def every_read(store):
    """Each read of the p1 heartbeats: the window, read_range, read_class,
    latest, and the redelivery check of each message."""
    return [lambda: store.read_range_json("p1", "heartbeat", 0, 2**62),
            lambda: store.read_range("p1", "heartbeat", 0, 2**62),
            lambda: store.read_class("heartbeat"),
            lambda: store.latest("p1", "heartbeat"),
            lambda: store.append("clinic/p1/heartbeat", "p1", heartbeat(bpm=60), message_id=60,
                                 received_at=1_767_600_000_000),
            lambda: store.append("clinic/p1/heartbeat", "p1", heartbeat(bpm=62), message_id=62,
                                 received_at=1_767_600_000_000)]


def test_a_byte_flipped_after_open_fails_every_read(store, tmp_path):
    log, first, second = two_heartbeats(store, tmp_path)
    at = len(first) + second.index(b'"bpm":62') + len(b'"bpm":')
    with open(log, "r+b") as fh:
        fh.seek(at)
        fh.write(b"7")
    reads = every_read(store)
    for read in reads[:4] + reads[5:]:
        with pytest.raises(StoreError, match=f"^checksum failure in {log} at offset {len(first)}$"):
            read()
    assert reads[4]() == 1      # the first line is whole


def test_swapped_lines_fail_every_read_as_lines_of_another_sequence(store, tmp_path):
    log, first, second = two_heartbeats(store, tmp_path)
    # each line still ends in its own CRC, but at the other's offset
    log.write_bytes(second + first)
    reads = every_read(store)
    for read in reads[:3] + reads[4:5]:
        with pytest.raises(StoreError, match=f"^line in {log} at offset 0 is not sequence 1$"):
            read()
    for read in reads[3:4] + reads[5:]:
        with pytest.raises(StoreError, match=f"^line in {log} at offset {len(first)} is not sequence 2$"):
            read()


# ------------------------------------------------------------------ export

def test_export_csv_round_trip(store):
    for rec in sample_data.sample_records():
        payload = {
            "record_no": rec.record_no, "age": rec.age,
            "p": rec.p, "q": rec.q, "r": rec.r, "s": rec.s, "t": rec.t,
            "patient_id": "p1", "captured_at": None,
        }
        store.append("clinic/p1/ecg/pqrst", "p1", payload)
    assert store.export_csv() == sample_data.sample_csv()


def test_export_csv_sorted_by_record_no(store):
    for no in (3, 1, 2):
        store.append("clinic/p1/ecg/pqrst", "p1", pqrst(record_no=no))
    lines = store.export_csv().splitlines()
    assert [int(ln.split(",")[0]) for ln in lines[1:]] == [1, 2, 3]


def test_export_csv_trims_scores(store):
    store.append("clinic/p1/ecg/pqrst", "p1",
                 pqrst(record_no=5, age=20, p=78.5, r=80.0))
    lines = store.export_csv().splitlines()
    assert lines[1] == "5,20,78.5,100,80,100,100"
