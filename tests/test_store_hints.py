"""Tests for the store's per-log hint files: an open that reads a log's
hint builds the same index, pqrst matrix and next sequence as one that
decodes every line, and any damage to a hint or to the bytes it
covers falls back to that full scan.
"""

import builtins
import json
import os
import shutil
import struct
import tempfile
import zlib
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ecgmon import store as store_mod
from ecgmon.store import TOPIC_CLASSES, RecordStore, StoreError
from test_store import heartbeat, pqrst, reference_encode_line, status

DAY_MS = 86_400_000
NOW = 1_767_600_000_000 + 10 * DAY_MS          # 2026-01-15T08:00:00Z
TODAY = "2026-01-15"
MIDNIGHT = NOW + 16 * 3_600_000                 # 2026-01-16T00:00:00Z
WINDOW = store_mod.DEDUP_WINDOW_MS
DOCS = {
    "heartbeat": lambda pid, n: heartbeat(pid, bpm=60 + n),
    "pqrst": lambda pid, n: pqrst(pid, record_no=n + 1, p=50.0 + n),
    "waveform": lambda pid, n: {"patient_id": pid, "seq": n, "sample_rate": 250,
                                "samples": [n, 1023], "lead_off": [False, True]},
    "status": lambda pid, n: status(f"note {n}", pid),
}
TOPICS = {klass: f"clinic/{{}}/{suffix}" for klass, suffix in store_mod.device.TOPIC_SUFFIXES.items()}


def put(store, klass, pid, n, day=-1, message_id=None):
    """Append document `n` of a class for a patient, received `day` days from NOW."""
    return store.append(TOPICS[klass].format(pid), pid, DOCS[klass](pid, n),
                        message_id=message_id, received_at=NOW + day * DAY_MS + n)


class Spies:
    """Counts of what the store module decodes and opens."""

    def __init__(self, monkeypatch):
        self.decoded = 0
        self.opened = Counter()
        real = store_mod._DECODER

        class Decoder:
            def decode(_, text):
                self.decoded += 1
                return real.decode(text)

            def raw_decode(_, text):
                self.decoded += 1
                return real.raw_decode(text)

        def spy_open(path, *args, **kwargs):
            self.opened[str(path)] += 1
            return builtins.open(path, *args, **kwargs)

        monkeypatch.setattr(store_mod, "_DECODER", Decoder())
        monkeypatch.setattr(store_mod, "open", spy_open, raising=False)

    def reset(self):
        self.decoded = 0
        self.opened.clear()


@pytest.fixture
def clock(monkeypatch):
    monkeypatch.setattr(store_mod, "_now_ms", lambda: NOW)


@pytest.fixture
def spies(monkeypatch, clock):
    return Spies(monkeypatch)


def state(root) -> tuple:
    """An open's index, pqrst matrix bytes and next sequence."""
    with RecordStore(root) as store:
        index = {key: [(seq, received_at, os.path.relpath(store._logs[log], root), *rest)
                       for seq, received_at, log, *rest in entries[:n].tolist()]
                 for key, (entries, n) in store._index.items()}
        return index, store.pqrst_matrix().tobytes(), store._next_seq


def full_scan_state(root, scratch) -> tuple:
    """`state` of a copy of the store with every hint deleted."""
    copy = Path(scratch) / "full-scan"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(root, copy)
    for hint in copy.rglob("*.hint"):
        hint.unlink()
    return state(copy)


def logs(root) -> list:
    return sorted(root.rglob("*.log"))


def hints(root) -> list:
    return sorted(root.rglob("*.hint"))


def lines_past_hint(log: Path) -> int:
    """How many whole lines of a log lie past the bytes its hint covers."""
    hint = store_mod._Hint.read(str(log.with_suffix(".hint")))
    return log.read_bytes()[hint.covered if hint else 0:].count(b"\n")


def past_store(root):
    """Three patients' documents of every class over three past days."""
    with RecordStore(root) as store:
        for day in (-3, -1, -2):
            for n, pid in enumerate(("p1", "p2", "p3")):
                for klass in TOPIC_CLASSES:
                    put(store, klass, pid, n, day)


def rewrite_hint(path: Path, edit) -> None:
    """Apply `edit` to a hint's bytes before its CRC, then seal them again."""
    body = bytearray(path.read_bytes()[:-4])
    edit(body)
    path.write_bytes(bytes(body) + struct.pack("=I", zlib.crc32(body)))


# ------------------------------------------------------------- counts

def test_second_open_of_past_logs_decodes_nothing_and_reads_each_log_once(tmp_path, spies):
    root = tmp_path / "telemetry"
    past_store(root)
    spies.reset()
    want = state(root)                       # the first open scans and writes the hints
    assert spies.decoded == 36
    assert [h.with_suffix(".log") for h in hints(root)] == logs(root)
    assert len(logs(root)) == 12
    spies.reset()
    assert state(root) == want
    assert spies.decoded == 0
    assert all(spies.opened[str(log)] == 1 for log in logs(root))
    assert all(spies.opened[str(hint)] == 1 for hint in hints(root))


def test_todays_log_is_always_decoded_and_never_hinted(tmp_path, spies):
    """The name predates hinting today's log like any other: an open now
    hints it, the next decodes none of its lines, and its redeliveries are
    still recognised after a reopen."""
    root = tmp_path / "telemetry"
    past_store(root)
    with RecordStore(root) as store:
        for n in range(3):
            put(store, "heartbeat", "p1", n, day=0, message_id=n + 1)
    state(root)
    assert (root / "heartbeat" / f"{TODAY}.hint").exists()
    assert len(hints(root)) == 13
    spies.reset()
    index, _, _ = state(root)
    assert spies.decoded == 0
    assert [e[0] for e in index["heartbeat", "p1"]][-3:] == [37, 38, 39]
    with RecordStore(root) as store:
        assert [put(store, "heartbeat", "p1", n, day=0, message_id=n + 1) for n in range(3)] == [37, 38, 39]


def test_a_reopen_with_no_append_decodes_nothing_and_opens_each_file_once_today_included(tmp_path, spies):
    root = tmp_path / "telemetry"
    past_store(root)
    with RecordStore(root) as store:
        for klass in TOPIC_CLASSES:
            put(store, klass, "p1", 0, day=0)
    want = state(root)                       # hints today's logs too
    spies.reset()
    assert state(root) == want
    assert spies.decoded == 0
    assert len(logs(root)) == 16
    assert [h.with_suffix(".log") for h in hints(root)] == logs(root)
    assert all(spies.opened[str(path)] == 1 for path in logs(root) + hints(root))


@pytest.mark.parametrize("k", [1, 5])
def test_k_appends_to_todays_log_between_opens_decode_k_lines_and_rewrite_its_hint(tmp_path, spies, k):
    root = tmp_path / "telemetry"
    past_store(root)
    with RecordStore(root) as store:
        put(store, "pqrst", "p1", 0, day=0)
    state(root)
    log = root / "pqrst" / f"{TODAY}.log"
    before = log.with_suffix(".hint").read_bytes()
    with RecordStore(root) as store:
        for n in range(k):
            put(store, "pqrst", f"p{n % 2 + 1}", n + 1, day=0)
    spies.reset()
    got = state(root)
    assert spies.decoded == k
    assert log.with_suffix(".hint").read_bytes() != before
    assert store_mod._Hint.read(str(log.with_suffix(".hint"))).covered == log.stat().st_size
    assert got == full_scan_state(root, tmp_path)


def test_a_torn_line_past_todays_hint_is_cut_and_every_acked_line_survives(tmp_path, spies):
    root = tmp_path / "telemetry"
    with RecordStore(root) as store:
        acked = [put(store, "status", "p1", n, day=0) for n in range(3)]
    state(root)                              # hints today's log
    with RecordStore(root) as store:
        acked.append(put(store, "status", "p1", 3, day=0))
    log = root / "status" / f"{TODAY}.log"
    size = log.stat().st_size
    with open(log, "ab") as fh:
        fh.write(LINE[:40])
    spies.reset()
    with RecordStore(root) as store:
        assert spies.decoded == 1            # the acked line past the hint
        assert [d.sequence for d in store.read_class("status", "p1")] == acked
    assert log.stat().st_size == size
    assert store_mod._Hint.read(str(log.with_suffix(".hint"))).covered == size


def test_an_open_reads_no_clock(tmp_path, monkeypatch):
    root = tmp_path / "telemetry"
    with RecordStore(root) as store:
        for day in (-2, -1, 0):
            for klass in TOPIC_CLASSES:
                put(store, klass, "p1", day + 2, day)
    want = full_scan_state(root, tmp_path)

    def no_clock():
        raise AssertionError("an open read the clock")

    monkeypatch.setattr(store_mod, "_now_ms", no_clock)
    assert state(root) == want               # scans every log and hints it
    assert state(root) == want               # from the hints


def test_a_day_change_hints_yesterday_and_forgets_its_dedup_keys(tmp_path, spies, monkeypatch):
    root = tmp_path / "telemetry"
    doc = heartbeat("p1", bpm=70)
    with RecordStore(root) as store:
        assert store.append("clinic/p1/heartbeat", "p1", doc, message_id=7) == 1
        assert store.append("clinic/p1/heartbeat", "p1", doc, message_id=7) == 1
    monkeypatch.setattr(store_mod, "_now_ms", lambda: NOW + DAY_MS)
    yesterday = root / "heartbeat" / f"{TODAY}.hint"
    assert not yesterday.exists()
    with RecordStore(root) as store:
        assert yesterday.exists()
        # a redelivery of yesterday's message is a new document, as it is today
        assert store.append("clinic/p1/heartbeat", "p1", doc, message_id=7) == 2
    spies.reset()
    with RecordStore(root) as store:
        assert spies.decoded == 1                # today's line, not yet hinted
        assert store.append("clinic/p1/heartbeat", "p1", heartbeat("p1", bpm=71),
                            received_at=NOW + 1) == 3
    hinted = yesterday.read_bytes()
    spies.reset()
    got = state(root)
    assert spies.decoded == 1                    # yesterday's tail; today's hint covers its line
    assert yesterday.read_bytes() != hinted
    assert got == full_scan_state(root, tmp_path)
    spies.reset()
    assert [e[0] for e in state(root)[0]["heartbeat", "p1"]] == [1, 3, 2]    # by received_at
    assert spies.decoded == 0                    # each log's hint covers all its lines


# --------------------------------------------------------- dedup window

def test_a_redelivery_across_midnight_is_stored_once(tmp_path, monkeypatch):
    now = [MIDNIGHT - 1]
    monkeypatch.setattr(store_mod, "_now_ms", lambda: now[0])
    doc = heartbeat("p1", bpm=70)
    with RecordStore(tmp_path / "telemetry") as store:
        assert store.append("clinic/p1/heartbeat", "p1", doc, message_id=7) == 1
        assert store.append("clinic/p1/heartbeat", "p1", doc, message_id=7) == 1
        now[0] = MIDNIGHT + 1
        assert store.append("clinic/p1/heartbeat", "p1", doc, message_id=7) == 1
        assert [d.sequence for d in store.read_class("heartbeat")] == [1]


def test_a_reopen_after_midnight_reads_only_yesterdays_lines_inside_the_window(tmp_path, monkeypatch):
    root = tmp_path / "telemetry"
    with RecordStore(root) as store:
        for bpm, received_at, message_id in ((60, MIDNIGHT - 2 * WINDOW, 5), (61, MIDNIGHT - WINDOW // 2, 6),
                                             (62, MIDNIGHT - 2, None), (63, MIDNIGHT - 1, 7)):
            store.append("clinic/p1/heartbeat", "p1", heartbeat("p1", bpm), message_id=message_id,
                         received_at=received_at)
    monkeypatch.setattr(store_mod, "_now_ms", lambda: MIDNIGHT + 1)
    spies = Spies(monkeypatch)
    preads = []
    real_pread = os.pread
    monkeypatch.setattr(store_mod.os, "pread",
                        lambda fd, n, offset: preads.append(offset) or real_pread(fd, n, offset))
    want = state(root)                           # a full scan of yesterday's log, which hints it
    assert spies.decoded == 4 and preads == []
    spies.reset()
    assert state(root) == want
    yesterday = root / "heartbeat" / f"{TODAY}.log"
    sizes = [len(line) for line in yesterday.read_bytes().splitlines(keepends=True)]
    assert spies.decoded == 0 and spies.opened[str(yesterday)] == 1 and preads == []
    with RecordStore(root) as store:
        assert store.append("clinic/p1/heartbeat", "p1", heartbeat("p1", 63), message_id=7) == 4
        assert store.append("clinic/p1/heartbeat", "p1", heartbeat("p1", 61), message_id=6) == 2
        assert store.append("clinic/p1/heartbeat", "p1", heartbeat("p1", 60), message_id=5) == 5
    # only the lines inside the window with the redelivered message id are read
    assert preads == [sum(sizes[:3]), sum(sizes[:1])]


def test_keys_older_than_the_window_are_forgotten(tmp_path, monkeypatch):
    now = [NOW]
    monkeypatch.setattr(store_mod, "_now_ms", lambda: now[0])
    root = tmp_path / "telemetry"
    with RecordStore(root) as store:
        for seq, (note, at) in enumerate((("a", NOW), ("b", NOW + WINDOW // 2), ("c", NOW + WINDOW + 1)), 1):
            now[0] = at
            assert store.append("clinic/p1/status", "p1", status(note), message_id=seq) == seq
        # "a" is older than the window; its redelivery is a new document
        assert store.append("clinic/p1/status", "p1", status("a"), message_id=1) == 4
        assert store.append("clinic/p1/status", "p1", status("b"), message_id=2) == 2
    # a reopen answers as the store that stayed open
    with RecordStore(root) as store:
        assert [store.append("clinic/p1/status", "p1", status(note), message_id=message_id)
                for note, message_id in (("a", 1), ("b", 2), ("c", 3))] == [4, 2, 3]


REDELIVERY = st.tuples(st.sampled_from(("heartbeat", "status")), st.sampled_from(("p1", "p2")),
                       st.sampled_from((None, 1, 2)), st.integers(0, 1),    # message id, which payload
                       # received_at from the last append's: back, level, within and beyond the window
                       st.sampled_from((-WINDOW, -1, 0, 1, WINDOW - 1, WINDOW, WINDOW + 1)),
                       st.booleans())                                       # reopen first


@settings(max_examples=60, deadline=None)
@given(st.lists(REDELIVERY, min_size=1, max_size=25))
# a redelivery dated inside the window of its original after a later append
# dated beyond it, and the same after a reopen
@example([("status", "p1", 1, 0, 0, False), ("status", "p2", None, 0, WINDOW + 1, False),
          ("status", "p1", 1, 0, -1, False)])
def test_a_redelivery_is_found_by_its_received_at_and_a_reopen_changes_nothing(appends):
    """Appends across a UTC midnight against a model: a document is stored
    unless an earlier stored one has the same topic, message id and payload
    and a received_at at or after its own less the window, and then the
    earliest received of those is its sequence.  A store reopened at drawn
    appends and one reopened before every append answer as the store that
    stayed open."""
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        now = [MIDNIGHT - WINDOW - 3]
        mp.setattr(store_mod, "_now_ms", lambda: now[0])
        mp.setattr(store_mod.os, "fsync", lambda fd: None)      # durability is not under test
        roots = [Path(tmp) / name for name in ("stays-open", "drawn", "every")]
        stores = [RecordStore(root) for root in roots]
        stored = []             # (topic, message id, payload, received_at, sequence)
        try:
            for klass, pid, message_id, which, step, reopen in appends:
                now[0] += step
                topic, doc = TOPICS[klass].format(pid), DOCS[klass](pid, which)
                originals = sorted((at, seq) for t, m, d, at, seq in stored if message_id is not None
                                   and (t, m, d) == (topic, message_id, doc) and at >= now[0] - WINDOW)
                want = originals[0][1] if originals else len(stored) + 1
                for n, again in ((1, reopen), (2, True)):
                    if again:
                        stores[n].close()
                        stores[n] = RecordStore(roots[n])
                assert [store.append(topic, pid, doc, message_id=message_id, received_at=now[0])
                        for store in stores] == [want] * 3
                if not originals:
                    stored.append((topic, message_id, doc, now[0], want))
        finally:
            for store in stores:
                store.close()


# -------------------------------------------------------- equivalence

APPEND = st.tuples(st.sampled_from(TOPIC_CLASSES), st.sampled_from(("p1", "p2", "p-3")),
                   st.sampled_from((-3, -1, -2, 0, 1)),      # days from NOW
                   st.integers(0, 3),                          # which document
                   st.none() | st.integers(1, 2))              # message id
TORN = st.none() | st.tuples(st.integers(0, 30), st.integers(1, 80))   # which log, bytes kept
LINE = reference_encode_line({"seq": 10**6, "topic": "clinic/p1/status", "patient_id": "p1",
                              "received_at": NOW, "message_id": None, "payload": status("torn")})


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.lists(APPEND, max_size=10), TORN), min_size=1, max_size=4))
def test_hinted_open_equals_full_scan(rounds):
    """Rounds of appends (any class, several patients, past, today's and
    future days out of order, redeliveries), each maybe ending in a torn
    tail, then a reopen: it decodes only the lines past each log's hint,
    and the hints give what the full scan gives."""
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(store_mod, "_now_ms", lambda: NOW)
        spies = Spies(mp)
        root = Path(tmp) / "telemetry"
        for appends, torn in rounds:
            with RecordStore(root) as store:
                for klass, pid, day, n, message_id in appends:
                    put(store, klass, pid, n, day, message_id)
            if torn is not None and logs(root):
                which, kept = torn
                with open(logs(root)[which % len(logs(root))], "ab") as fh:
                    fh.write(LINE[:kept])
            past_hints = sum(lines_past_hint(log) for log in logs(root))
            spies.reset()
            got = state(root)
            assert spies.decoded == past_hints
            assert got == full_scan_state(root, tmp)


def test_a_reopen_equals_the_full_scan_when_each_day_meets_its_patients_anew(tmp_path, spies):
    """Patients first seen in another order each day, one seen only today,
    and a past log holding lines past its hint: one id table per class
    gives every patient the rows of every log."""
    root = tmp_path / "telemetry"
    with RecordStore(root) as store:
        for day, patients in ((-3, ("p1", "p2", "p3")), (-2, ("p3", "p1", "p2")), (-1, ("p2", "p3", "p1"))):
            for n, pid in enumerate(patients):
                for klass in ("heartbeat", "pqrst"):
                    put(store, klass, pid, n, day)
    state(root)                              # writes the hints
    with RecordStore(root) as store:
        put(store, "pqrst", "p2", 7, day=-2)     # past its day's hint
        put(store, "heartbeat", "p4", 0, day=0)  # a patient of today's log alone
        put(store, "pqrst", "p4", 0, day=0)
        put(store, "pqrst", "p1", 1, day=0)
    spies.reset()
    got = state(root)
    assert spies.decoded == 4                # the tail line and today's three
    assert got == full_scan_state(root, tmp_path)
    assert [e[0] for e in got[0]["pqrst", "p4"]] == [21]
    assert [e[0] for e in got[0]["pqrst", "p2"]] == [4, 12, 19, 14]    # received_at order


def test_an_open_indexes_the_logs_glob_lists_whatever_the_root_looks_like(tmp_path, clock, monkeypatch):
    """Every name ending in ".log" is a log, a hidden one too; a hint, a
    leftover temporary file or a missing class directory adds none; and
    "./telemetry" or "telemetry/" name the same paths as "telemetry"."""
    root = tmp_path / "telemetry"
    past_store(root)
    state(root)                              # writes the hints
    shutil.rmtree(root / "waveform")
    (root / "status" / "2026-01-13.hint.tmp").write_bytes(b"left by a crash")
    with open(root / "status" / ".x.log", "wb") as fh:
        fh.write(reference_encode_line({
            "seq": 37, "topic": "clinic/p9/status", "patient_id": "p9",
            "received_at": NOW - 5 * DAY_MS, "message_id": None, "payload": status("hidden", "p9")}))
    monkeypatch.chdir(tmp_path)
    want = [str(log) for klass in TOPIC_CLASSES for log in sorted(Path("telemetry").glob(f"{klass}/*.log"))]
    assert "telemetry/status/.x.log" in want and not any("waveform" in log for log in want)
    for given_root in ("telemetry", "./telemetry", "telemetry/"):
        with RecordStore(given_root) as store:
            assert store._logs == want
            assert not any(klass == "waveform" for klass, _ in store._index)
            assert [e[0] for e in store._index["status", "p9"][0]] == [37]
    with RecordStore("./telemetry/") as store:
        log = store._logs.index("telemetry/heartbeat/2026-01-14.log")
        put(store, "heartbeat", "p1", 8, day=-1)
        entries, n = store._index["heartbeat", "p1"]
        assert store._logs == want and entries[n - 1, 2] == log


# patient numbers either side of 2**8 and 2**16, which decide their dtype
PATIENT_NUMBERS = st.sampled_from([0, 1, 2, 255, 256, 257, 65_535, 65_536, 70_000])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), PATIENT_NUMBERS), max_size=60), st.randoms(use_true_random=False))
def test_then_by_orders_rows_as_lexsort_does(rows, rng):
    """Sequences never repeat; received_at values and patients do."""
    seq = np.array(rng.sample(range(1, 10**6), len(rows)), np.int64)
    received = np.array([NOW + r for r, _ in rows], np.int64)
    numbers = [p for _, p in rows]
    patients = np.array(numbers, np.min_scalar_type(max(numbers, default=0)))
    by_seq = np.argsort(seq)
    assert store_mod._then_by(by_seq, received, patients).tolist() == np.lexsort((seq, received, patients)).tolist()
    assert store_mod._then_by(by_seq, received).tolist() == np.lexsort((seq, received)).tolist()


# -------------------------------------------------------------- faults

def hinted_store(root) -> tuple:
    """A past-day store, opened once so that every log has its hint; the
    state that full scan found."""
    past_store(root)
    want = state(root)
    assert len(hints(root)) == len(logs(root))
    return want


@pytest.mark.parametrize("damage", [
    pytest.param(lambda p: p.write_bytes(bytes([p.read_bytes()[0] ^ 1]) + p.read_bytes()[1:]),
                 id="magic-bit"),
    pytest.param(lambda p: p.write_bytes(p.read_bytes()[:40]), id="cut-short"),
    pytest.param(lambda p: p.write_bytes(b""), id="empty"),
    pytest.param(lambda p: rewrite_hint(p, lambda b: b.extend(b"\0")), id="longer-resealed"),
    pytest.param(lambda p: p.write_bytes(p.read_bytes()[:-1] + bytes([p.read_bytes()[-1] ^ 4])),
                 id="crc-bit"),
    pytest.param(lambda p: p.write_bytes(p.read_bytes()[:50] + bytes([p.read_bytes()[50] ^ 1])
                                         + p.read_bytes()[51:]), id="column-bit"),
    pytest.param(lambda p: rewrite_hint(p, lambda b: b.__setitem__(slice(0, 4), b"HCGE")),
                 id="wrong-magic"),
    pytest.param(lambda p: rewrite_hint(p, lambda b: b.__setitem__(slice(4, 8), b"\2\0\0\0")),
                 id="wrong-version"),
])
def test_a_damaged_or_foreign_hint_is_ignored(tmp_path, spies, damage):
    root = tmp_path / "telemetry"
    want = hinted_store(root)
    hint = root / "pqrst" / "2026-01-13.hint"
    good = hint.read_bytes()
    damage(hint)
    spies.reset()
    assert state(root) == want
    assert spies.decoded == 3                # that log's lines, decoded in full
    assert hint.read_bytes() == good         # and its hint written again


def version_1_hint(log: Path) -> bytes:
    """The hint of a log as version 1 wrote it: the lines' sequence,
    received_at, offset and length columns grouped by patient, each
    patient's line count, the pqrst lines' sequences, the patient ids
    joined by NUL, the pqrst rows, and the CRC-32 of all that."""
    data, offset = log.read_bytes(), 0
    entries, row_seqs, rows = {}, [], []
    for raw in data.splitlines(keepends=True):
        record = json.loads(raw)
        entries.setdefault(record["patient_id"], []).append(
            (record["seq"], record["received_at"], offset, len(raw)))
        if log.parent.name == "pqrst":
            row_seqs.append(record["seq"])
            rows.extend(store_mod.device.pqrst_row(record["payload"]))
        offset += len(raw)
    lines = [entry for listed in entries.values() for entry in listed]
    ids = "\0".join(entries).encode()
    body = struct.pack("=4sIQIIIII", b"ECGH", 1, len(data), zlib.crc32(data), len(lines),
                       len(entries), len(ids), len(row_seqs))
    body += b"".join(struct.pack(f"={len(lines)}q", *(entry[i] for entry in lines)) for i in range(4))
    body += struct.pack(f"={len(entries)}q", *map(len, entries.values()))
    body += struct.pack(f"={len(row_seqs)}q", *row_seqs) + ids + struct.pack(f"={len(rows)}d", *rows)
    return body + struct.pack("=I", zlib.crc32(body))


def test_a_version_1_hint_is_ignored_and_rewritten(tmp_path, spies):
    root = tmp_path / "telemetry"
    want = hinted_store(root)
    hint = root / "pqrst" / "2026-01-13.hint"
    good = hint.read_bytes()
    hint.write_bytes(version_1_hint(hint.with_suffix(".log")))
    spies.reset()
    assert state(root) == want
    assert spies.decoded == 3
    assert hint.read_bytes() == good and good[4:8] == struct.pack("=I", 6)


def old_hint(log: Path, number: int, version: int) -> bytes:
    """The hint of log `number` as version 3, 4 or 5 wrote it: each
    patient's line count, the lines' sequence, received_at, log number,
    offset and length rows grouped by patient in file order (version 4 adds
    the message id, -1 for none; version 5 then the line's CRC-32 and the
    offsets of its message id, payload and crc keys), the patient ids joined
    by NUL, a pqrst log's rows in the same order, and the CRC-32 of all that."""
    data, offset = log.read_bytes(), 0
    entries, rows = {}, {}
    width = {3: 5, 4: 6, 5: 10}[version]
    for raw in data.splitlines(keepends=True):
        record = json.loads(raw)
        message_id = -1 if record["message_id"] is None else record["message_id"]
        entries.setdefault(record["patient_id"], []).append(
            (record["seq"], record["received_at"], number, offset, len(raw), message_id, zlib.crc32(raw),
             raw.index(b',"message_id":'), raw.index(b',"payload":'), raw.rindex(b',"crc":'))[:width])
        if log.parent.name == "pqrst":
            rows.setdefault(record["patient_id"], []).extend(store_mod.device.pqrst_row(record["payload"]))
        offset += len(raw)
    lines = [value for listed in entries.values() for entry in listed for value in entry]
    values = [value for listed in rows.values() for value in listed]
    ids = "\0".join(entries).encode()
    body = struct.pack("=4sIQIIIII", b"ECGH", version, len(data), zlib.crc32(data), len(lines) // width,
                       len(entries), len(ids), len(values) // 7)
    body += struct.pack(f"={len(entries)}q", *map(len, entries.values()))
    body += struct.pack(f"={len(lines)}q", *lines) + ids + struct.pack(f"={len(values)}d", *values)
    return body + struct.pack("=I", zlib.crc32(body))


def test_a_version_3_hint_is_ignored_and_rewritten(tmp_path, spies):
    root = tmp_path / "telemetry"
    want = hinted_store(root)
    hint = root / "pqrst" / "2026-01-13.hint"
    good = hint.read_bytes()
    in_open_order = [log for klass in TOPIC_CLASSES for log in sorted((root / klass).glob("*.log"))]
    hint.write_bytes(old_hint(hint.with_suffix(".log"), in_open_order.index(hint.with_suffix(".log")), 3))
    spies.reset()
    assert state(root) == want
    assert spies.decoded == 3
    assert hint.read_bytes() == good and good[4:8] == struct.pack("=I", 6)


def served(root) -> list:
    """Every class's documents as a window over all time serves them."""
    with RecordStore(root) as store:
        return [store.read_range_json(None, klass, 0, 2**62) for klass in TOPIC_CLASSES]


@pytest.mark.parametrize("version", [4, 5])
def test_an_older_hint_with_message_ids_is_ignored_and_rewritten(tmp_path, spies, version):
    root = tmp_path / "telemetry"
    # with message ids, so that the old rows hold some
    with RecordStore(root) as store:
        for n, pid in enumerate(("p1", "p2", "p3")):
            for klass in TOPIC_CLASSES:
                put(store, klass, pid, n, -2, message_id=n or None)
    want = state(root)
    hint = root / "pqrst" / "2026-01-13.hint"
    good = hint.read_bytes()
    in_open_order = [log for klass in TOPIC_CLASSES for log in sorted((root / klass).glob("*.log"))]
    hint.write_bytes(old_hint(hint.with_suffix(".log"), in_open_order.index(hint.with_suffix(".log")), version))
    spies.reset()
    assert state(root) == want
    assert spies.decoded == 3
    assert hint.read_bytes() == good and good[4:8] == struct.pack("=I", 6)
    assert full_scan_state(root, tmp_path) == want
    assert served(root) == served(tmp_path / "full-scan")


def test_a_log_cut_shorter_than_its_hint_is_scanned_in_full(tmp_path, spies):
    root = tmp_path / "telemetry"
    hinted_store(root)
    log = root / "status" / "2026-01-13.log"
    data = log.read_bytes()
    log.write_bytes(data[:data.index(b"\n") + 1])          # one line of three
    spies.reset()
    got = state(root)
    assert spies.decoded == 1
    assert got == full_scan_state(root, tmp_path)
    assert len(got[0]["status", "p1"]) == 3 and len(got[0]["status", "p2"]) == 2


def test_a_log_appended_past_its_hint_scans_only_the_tail(tmp_path, spies):
    root = tmp_path / "telemetry"
    hinted_store(root)
    with RecordStore(root) as store:
        put(store, "pqrst", "p4", 5, day=-2)
        put(store, "pqrst", "p1", 6, day=-2)
    hint = root / "pqrst" / "2026-01-13.hint"
    before = hint.read_bytes()
    spies.reset()
    got = state(root)
    assert spies.decoded == 2
    assert got == full_scan_state(root, tmp_path)
    assert [e[0] for e in got[0]["pqrst", "p4"]] == [37]
    assert len(hint.read_bytes()) > len(before)
    spies.reset()
    state(root)
    assert spies.decoded == 0


def test_a_flipped_byte_under_a_hint_is_still_corruption(tmp_path, spies):
    root = tmp_path / "telemetry"
    hinted_store(root)
    log = root / "heartbeat" / "2026-01-13.log"
    data = log.read_bytes()
    offset = data.index(b"\n") + 1                       # the second of three lines
    log.write_bytes(data[:offset + 20] + bytes([data[offset + 20] ^ 0xFF]) + data[offset + 21:])
    with pytest.raises(StoreError, match=f"corrupt log line mid-file in {log} at offset {offset}$"):
        RecordStore(root)


def test_an_unconvertible_record_no_in_a_tail_is_still_an_error(tmp_path, spies):
    root = tmp_path / "telemetry"
    hinted_store(root)
    log = root / "pqrst" / "2026-01-13.log"
    offset = log.stat().st_size
    with open(log, "ab") as fh:
        fh.write(reference_encode_line({
            "seq": 99, "topic": "clinic/p1/ecg/pqrst", "patient_id": "p1",
            "received_at": NOW - 2 * DAY_MS, "message_id": None,
            "payload": pqrst(record_no=10**400)}))
    with pytest.raises(StoreError, match=f"{log}.* at offset {offset}$"):
        RecordStore(root)


def test_a_failed_hint_write_leaves_the_open_and_its_acks_unchanged(tmp_path, spies):
    def refuse(src, dst):
        raise OSError(28, "No space left on device")

    acks = {}
    for root in (tmp_path / "failing", tmp_path / "plain"):
        past_store(root)
        with pytest.MonkeyPatch.context() as mp:
            if root.name == "failing":
                mp.setattr(store_mod.os, "replace", refuse)
            with RecordStore(root) as store:
                acks[root.name] = [put(store, "heartbeat", "p1", 9, day) for day in (-1, 0, -1)]
                acks[root.name] += [put(store, "status", "p2", 9, 0, message_id=3) for _ in "ab"]
    assert acks["failing"] == acks["plain"] == [37, 38, 39, 40, 40]
    assert hints(tmp_path / "failing") == [] and list(tmp_path.rglob("*.tmp")) == []
    assert state(tmp_path / "failing") == state(tmp_path / "plain")


def test_a_patient_id_holding_a_nul_keeps_its_log_on_the_full_scan(tmp_path, spies):
    """The hint's patient table is NUL-separated; a log written before
    patient ids were checked may hold one with a NUL, and never opens from
    its hint."""
    root = tmp_path / "telemetry"
    past_store(root)
    log = root / "status" / "2026-01-13.log"
    with open(log, "ab") as fh:
        for seq, pid in ((37, "a\0b"), (38, "p1")):
            fh.write(reference_encode_line({
                "seq": seq, "topic": f"clinic/{pid}/status", "patient_id": pid,
                "received_at": NOW - 2 * DAY_MS, "message_id": None, "payload": status("old", pid)}))
    want = state(root)
    spies.reset()
    assert state(root) == want
    assert spies.decoded == 5                 # that log's lines, each open
    assert want == full_scan_state(root, tmp_path)
    assert [e[0] for e in want[0]["status", "a\0b"]] == [37]


def test_entries_of_one_log_share_one_path_str(tmp_path, clock):
    """Reads group a window's entries by log, for entries from the hint and
    for those appended since."""
    root = tmp_path / "telemetry"
    past_store(root)
    state(root)
    with RecordStore(root) as store:
        put(store, "heartbeat", "p1", 5, day=-1)
        put(store, "heartbeat", "p1", 6, day=0)
        entries, n = store._index["heartbeat", "p1"]
        paths = [store._logs[log] for log in entries[:n, 2]]
        assert [p.rsplit("/", 1)[1] for p in paths] == [
            "2026-01-12.log", "2026-01-13.log", "2026-01-14.log", "2026-01-14.log", "2026-01-15.log"]
        assert [d.sequence for d in store.read_class("heartbeat", "p1")] == [1, 13, 25, 37, 38]


def test_a_log_over_a_mebibyte_opens_from_its_hint(tmp_path, spies):
    """The covered bytes are checked a MiB at a time, the CRC running on."""
    root = tmp_path / "telemetry"
    with RecordStore(root) as store:
        for n in range(3):
            store.append("clinic/p1/ecg/waveform", "p1",
                         {"patient_id": "p1", "seq": n, "sample_rate": 250,
                          "samples": [1023] * 40_000, "lead_off": [False] * 40_000},
                         received_at=NOW - DAY_MS + n)
    log = root / "waveform" / "2026-01-14.log"
    assert log.stat().st_size > 1 << 20
    want = state(root)
    spies.reset()
    assert state(root) == want
    assert spies.decoded == 0
    data = log.read_bytes()
    offset = data.rindex(b"\n", 0, len(data) - 1) + 1    # the last line, past the first MiB
    log.write_bytes(data[:-100] + bytes([data[-100] ^ 1]) + data[-99:])
    spies.reset()
    state(root)                          # a full scan: a damaged last line is cut, not an error
    assert spies.decoded == 2 and log.stat().st_size == offset  # the lines before it
