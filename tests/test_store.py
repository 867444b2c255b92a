"""Tests for the append-only document store: durability, crash recovery,
dedup, schema checks, range reads, and CSV export.
"""

import builtins
import json
import os
import stat
import tempfile
import zlib
from pathlib import Path

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
    assert len(opened) == 3


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


def test_append_after_close_raises(tmp_path):
    store = RecordStore(tmp_path / "telemetry")
    store.close()
    with pytest.raises(StoreError):
        store.append("clinic/p1/heartbeat", "p1", heartbeat())


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
