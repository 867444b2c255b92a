"""dashboard-query: reads beside a trickle of writes.

The store is preloaded through `RecordStore.append(received_at=...)` with
10^4 pqrst records and 5,000 heartbeats of 200 patients, spread over the
30 days before the run starts, and a model fitted with `regression` serves
/prediction.  One thread runs a closed-loop HTTP client over shuffled
blocks of 20 queries with a fixed mix: 12 ECG windows of 1, 7 or 30 days,
4 latest heartbeats, 3 predictions and 1 /stats.  The windows are laid on
day boundaries counted from the start of the preloaded span, and the last
place a window can take runs one day past the run's start, so about half
the 30-day windows and a few shorter ones also cover the records written
during the run.  A second thread publishes an open-loop trickle of 20
pqrst records and 5 heartbeats per second, each timed from when it was
due, so a read-side cache would pay for its invalidation.

The seed fixes every input relative to the run's start; only the absolute
timestamps move with the wall clock, as a dashboard's "last 7 days" do.
The query mix and the equal split of windows over 1, 7 and 30 days are
an assumption, as neither the paper nor this repository gives one.

The gate: every window returns exactly the preloaded records it covers,
then each trickle record already acked when the query was sent and no
record published after the answer came back; the latest heartbeat and the
prediction's record are the patient's newest, up to the same race with
the trickle; each prediction matches the model; each /stats answer
matches `analytics.describe` and `correlation_matrix` on the benchmark's
own rows to within 1e-9.
"""

from __future__ import annotations

import bisect
import http.client
import json
import math
import random
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from ecgmon import analytics, regression
from ecgmon.mqtt.client import MqttClient, MqttError
from ecgmon.store import RecordStore

from . import tracing
from .common import (Http, Outcome, blocks, complete_blocks, iso_ms, latency_named,
                     log_bytes, no_fsync, pct, rss_mb, system_config, timed_setups)

PATIENTS = 200
RECORDS = 10_000
HEARTBEATS = 5_000
DAYS = 30
DAY_MS = 86_400_000
MIX = {"ecg_1": 4, "ecg_7": 4, "ecg_30": 4, "heartbeat": 4, "prediction": 3, "stats": 1}
BLOCK = sum(MIX.values())
TRICKLE_HZ = 25.0
TRICKLE_HEARTBEAT_EVERY = 5        # every fifth trickle publish is a heartbeat
TRICKLE_HEARTBEAT_N0 = 10 ** 7     # above every preloaded heartbeat's n
SETUP_REPEATS = 5
LOAD_RSS_OPS = 100                 # queries before load_rss_mb is read
TOLERANCE = 1e-9


@dataclass
class Inputs:
    patients: list                                   # (patient id, age)
    start_ms: int = 0                                # where the preloaded span starts
    rows: list = field(default_factory=list)         # (record_no, age, p, q, r, s, t)
    windows: dict = field(default_factory=dict)      # patient -> ([received_at], [record_no])
    latest_record: dict = field(default_factory=dict)      # patient -> record_no
    latest_heartbeat: dict = field(default_factory=dict)   # patient -> heartbeat n
    model: object = None


def preload(root: Path, seed: int, records: int, heartbeats: int, model_path: Path) -> Inputs:
    """Fill the store with the DAYS days of records that end now, and fit
    and save the model."""
    rng = random.Random(seed)
    end_ms = time.time_ns() // 1_000_000
    inputs = Inputs([(f"pa{v:05x}", rng.randrange(18, 90))
                     for v in rng.sample(range(16 ** 5), PATIENTS)],
                    start_ms=end_ms - DAYS * DAY_MS)
    start = inputs.start_ms
    events = [(start + rng.randrange(DAYS * DAY_MS), "pqrst", rng.randrange(PATIENTS),
               [round(rng.uniform(55, 100), 2) for _ in range(5)]) for _ in range(records)]
    events += [(start + rng.randrange(DAYS * DAY_MS), "heartbeat", rng.randrange(PATIENTS),
                rng.randrange(45, 160)) for _ in range(heartbeats)]
    events.sort(key=lambda e: e[0])
    windows = defaultdict(lambda: ([], []))
    with no_fsync(), RecordStore(root) as store:
        for n, (ts, kind, who, data) in enumerate(events):
            pid, age = inputs.patients[who]
            if kind == "heartbeat":
                doc = {"patient_id": pid, "bpm": data, "window_seconds": 20,
                       "measured_at": iso_ms(ts), "n": n}
                store.append(f"clinic/{pid}/heartbeat", pid, doc, received_at=ts)
                inputs.latest_heartbeat[pid] = n
                continue
            record_no = len(inputs.rows) + 1
            p, q, r, s, t = data
            doc = {"record_no": record_no, "age": age, "p": p, "q": q, "r": r, "s": s, "t": t,
                   "patient_id": pid, "captured_at": iso_ms(ts)}
            store.append(f"clinic/{pid}/ecg/pqrst", pid, doc, received_at=ts)
            inputs.rows.append((record_no, age, p, q, r, s, t))
            inputs.latest_record[pid] = record_no
            windows[pid][0].append(ts)
            windows[pid][1].append(record_no)
    inputs.windows = dict(windows)
    x, y = regression.design_from_dataset(analytics.Dataset(inputs.rows))
    inputs.model = regression.fit_ols(x, y)
    regression.save_model(inputs.model, model_path)
    return inputs


# ------------------------------------------------------------ checks

def _close(got, want: float) -> bool:
    if got is None:
        return math.isnan(want)
    return math.isclose(got, want, rel_tol=TOLERANCE, abs_tol=TOLERANCE)


def check_stats(body: dict, rows: list) -> list[str]:
    """Differences between a /stats answer and the reference statistics
    of the first body["count"] rows (the store returns rows in append
    order, so these are exactly the rows it holds)."""
    count = body["count"]
    if count > len(rows):
        return [f"/stats counts {count} records, only {len(rows)} were written"]
    dataset = analytics.Dataset(rows[:count])
    summary = analytics.describe(dataset)
    problems = []
    for name in analytics.COLUMNS:
        for key, want in vars(summary[name]).items():
            got = body["stats"][name][key]
            if not _close(got, float(want)):
                problems.append(f"/stats {name}.{key} = {got}, reference {want}")
    matrix = analytics.correlation_matrix(dataset)
    got_matrix = body["correlation"]["matrix"]
    for i, row in enumerate(matrix):
        for j, want in enumerate(row):
            if not _close(got_matrix[i][j], float(want)):
                problems.append(f"/stats correlation[{i}][{j}] = {got_matrix[i][j]}, "
                                f"reference {want}")
    return problems


@dataclass
class Live:
    """One trickle publish.  The store stamps it between sent_ms and
    acked_ms; `acked` is set last, so a reader that sees it sees both."""

    kind: str                     # "pqrst" or "heartbeat"
    pid: str
    number: int                   # record_no, or the heartbeat's n
    sent: float                   # perf_counter before the publish
    sent_ms: int                  # wall clock before the publish
    acked_ms: Optional[int] = None
    acked: Optional[float] = None  # perf_counter once PUBACK arrived


class _Trickle:
    """Open-loop publisher: TRICKLE_HZ publishes per second, of which every
    TRICKLE_HEARTBEAT_EVERY-th is a heartbeat and the rest pqrst records."""

    def __init__(self, port: int, seed: int, inputs: Inputs):
        self.port = port
        self.rng = random.Random(seed + 1)
        self.inputs = inputs
        self.rows: list = []                 # published pqrst rows, in publish order
        self.live: list[Live] = []           # every publish, in order
        self.acks: list = []                 # seconds from due to PUBACK
        self.lags: list = []                 # seconds the publish started late
        self.failures: list = []
        self.stop = threading.Event()
        self.thread = threading.Thread(target=self._run, name="trickle", daemon=True)

    def _message(self, k: int, pid: str, age: int, sent_ms: int) -> tuple[str, dict]:
        if k % TRICKLE_HEARTBEAT_EVERY == TRICKLE_HEARTBEAT_EVERY - 1:
            n = TRICKLE_HEARTBEAT_N0 + k
            return "heartbeat", {"patient_id": pid, "bpm": self.rng.randrange(45, 160),
                                 "window_seconds": 20, "measured_at": iso_ms(sent_ms), "n": n}
        record_no = RECORDS + len(self.rows) + 1
        p, q, r, s, t = (round(self.rng.uniform(55, 100), 2) for _ in range(5))
        self.rows.append((record_no, age, p, q, r, s, t))
        return "pqrst", {"record_no": record_no, "age": age, "p": p, "q": q, "r": r, "s": s,
                         "t": t, "patient_id": pid}

    def _run(self) -> None:
        try:
            client = MqttClient(client_id="bench-trickle")
            client.connect("127.0.0.1", self.port)
        except (MqttError, OSError) as exc:
            self.failures.append(f"trickle could not connect: {exc}")
            return
        start = time.perf_counter()
        k = 0
        try:
            while True:
                due = start + k / TRICKLE_HZ
                if self.stop.wait(max(0.0, due - time.perf_counter())):
                    break
                pid, age = self.rng.choice(self.inputs.patients)
                sent_ms = time.time_ns() // 1_000_000
                kind, doc = self._message(k, pid, age, sent_ms)
                number = doc["record_no"] if kind == "pqrst" else doc["n"]
                topic = f"clinic/{pid}/ecg/pqrst" if kind == "pqrst" else f"clinic/{pid}/heartbeat"
                entry = Live(kind, pid, number, time.perf_counter(), sent_ms)
                self.live.append(entry)
                self.lags.append(entry.sent - due)
                try:
                    client.publish(topic, json.dumps(doc).encode(), 1)
                    entry.acked_ms = time.time_ns() // 1_000_000
                    entry.acked = time.perf_counter()
                    self.acks.append(entry.acked - due)
                except MqttError as exc:
                    self.failures.append(f"trickle {kind} {number}: {exc}")
                k += 1
        finally:
            client.disconnect()


def _query(kind: str, pid: str, rng: random.Random, inputs: Inputs) -> tuple[str, object]:
    """(path, expected) for one query of `kind`."""
    if kind.startswith("ecg_"):
        days = int(kind[4:])
        # DAYS - days + 2 places, the last one reaching a day past the run's start.
        lo = inputs.start_ms + rng.randrange(DAYS - days + 2) * DAY_MS
        hi = lo + days * DAY_MS
        return f"/patients/{pid}/ecg?from={iso_ms(lo)}&to={iso_ms(hi)}", (lo, hi)
    if kind == "heartbeat":
        return f"/patients/{pid}/heartbeat/latest", None
    if kind == "prediction":
        return f"/patients/{pid}/prediction", None
    return "/stats", None


def _newest(got: int, preloaded: Optional[int], must: list, may: list) -> bool:
    """Whether `got` may be a patient's newest record: the newest trickle
    record acked before the query was sent, or a later one published before
    the answer came back; the preloaded newest when none was acked."""
    floor = max((e.number for e in must), default=preloaded)
    allowed = {e.number for e in may} | {preloaded}
    return got in allowed and floor is not None and got >= floor


def check(kind: str, pid: str, expected, body, inputs: Inputs, live: list, rows: list,
          sent: float, answered: float, outcome: Outcome) -> None:
    """Check one answer.  `live` holds the trickle's publishes, `rows` its
    pqrst rows (both only grow); the query was sent after perf_counter
    `sent` and answered before `answered`."""
    klass = "heartbeat" if kind == "heartbeat" else "pqrst"
    mine = [e for e in live if e.pid == pid and e.kind == klass]
    must = [e for e in mine if e.acked is not None and e.acked < sent]
    may = [e for e in mine if e.sent < answered]
    if kind.startswith("ecg_"):
        stamps, numbers = inputs.windows.get(pid, ([], []))
        lo, hi = expected
        want = numbers[bisect.bisect_left(stamps, lo):bisect.bisect_left(stamps, hi)]
        need = [e.number for e in must if lo <= e.sent_ms and e.acked_ms < hi]
        allowed = {e.number for e in may
                   if (e.acked_ms is None or lo <= e.acked_ms) and e.sent_ms < hi}
        got = [d["payload"]["record_no"] for d in body]
        head, rest = got[:len(want)], got[len(want):]
        if (head != want or rest != sorted(set(rest)) or not set(need) <= set(rest)
                or not set(rest) <= allowed):
            outcome.problem(f"{pid} window {iso_ms(lo)}..{iso_ms(hi)}: record numbers "
                            f"{got[:5]}... ({len(got)}), expected {want[:5]}... ({len(want)}) "
                            f"then {sorted(need)} and at most {sorted(allowed)}")
    elif kind == "heartbeat":
        n = body["payload"].get("n")
        if not _newest(n, inputs.latest_heartbeat.get(pid), must, may):
            outcome.problem(f"{pid} latest heartbeat is n={n}, expected "
                            f"{inputs.latest_heartbeat.get(pid)} or a newer trickle one "
                            f"(acked {[e.number for e in must]})")
    elif kind == "prediction":
        record_no = body["record_no"]
        if not _newest(record_no, inputs.latest_record.get(pid), must, may):
            outcome.problem(f"{pid} prediction is for record {record_no}, not the newest "
                            f"(preloaded {inputs.latest_record.get(pid)}, acked "
                            f"{[e.number for e in must]})")
            return
        row = (inputs.rows[record_no - 1] if record_no <= len(inputs.rows)
               else rows[record_no - RECORDS - 1])
        want = regression.predict(inputs.model, dict(zip(analytics.COLUMNS, row)))
        if not _close(body["predicted_r"], want):
            outcome.problem(f"{pid} prediction for record {record_no} is {body['predicted_r']}, "
                            f"expected {want}")


def run(seed: int, seconds: float, workdir: Path, tracer=None,
        records: int = RECORDS, heartbeats: int = HEARTBEATS) -> Outcome:
    outcome = Outcome()
    root = workdir / "store"
    outcome.store_root = str(root)
    model_path = workdir / "model.txt"
    inputs = preload(root, seed, records, heartbeats, model_path)
    rng = random.Random(seed + 2)
    kinds = blocks(rng, MIX)
    with_records = [p for p, _ in inputs.patients if p in inputs.windows]
    with_heartbeats = list(inputs.latest_heartbeat)
    ends: list[float] = []
    answered: set[int] = set()
    query_s: dict[int, float] = {}
    stats_s: dict[int, float] = {}
    stats_bodies: list[dict] = []
    load_rss: tuple = ()                # (MB, queries by then)

    with tracing.installed(tracer):
        config = system_config(root, str(model_path))
        system, setup_s, setup_rss_mb = timed_setups(config, SETUP_REPEATS)
        trickle = _Trickle(system.broker.port, seed, inputs)
        web = Http(system.gateway.port, tracer)
        try:
            before = log_bytes(root)
            start_ns = time.perf_counter_ns()
            start = time.perf_counter()
            deadline = start + seconds
            trickle.thread.start()
            i = 0
            while time.perf_counter() < deadline:
                kind = next(kinds)
                pid = rng.choice(with_heartbeats if kind == "heartbeat" else with_records)
                path, expected = _query(kind, pid, rng, inputs)
                try:
                    sent = time.perf_counter()
                    status, raw, elapsed = web.get(path)
                    if status != 200:
                        outcome.fail(f"GET {path} answered {status}")
                    else:
                        answered.add(i)
                        (stats_s if kind == "stats" else query_s)[i] = elapsed
                        body = json.loads(raw)
                        if kind == "stats":
                            stats_bodies.append(body)
                        else:
                            check(kind, pid, expected, body, inputs, trickle.live,
                                  trickle.rows, sent, time.perf_counter(), outcome)
                except (OSError, http.client.HTTPException) as exc:
                    outcome.fail(f"GET {path}: {exc}")
                ends.append(time.perf_counter())
                i += 1
                if i == LOAD_RSS_OPS:
                    load_rss = (rss_mb(collect=False), i)
            if not load_rss:                 # a run too short to reach LOAD_RSS_OPS
                load_rss = (rss_mb(collect=False), i)
            trickle.stop.set()
            trickle.thread.join(timeout=30)
            window = (start_ns, time.perf_counter_ns())
            written = log_bytes(root) - before
        finally:
            trickle.stop.set()
            web.close()
            system.stop()
    if trickle.thread.is_alive():
        outcome.fail("trickle publisher did not stop")

    # Reference rows in the order the store appended them: preload, then trickle.
    all_rows = inputs.rows + trickle.rows
    for body in stats_bodies:
        for text in check_stats(body, all_rows):
            outcome.problem(text)
    for text in trickle.failures:
        outcome.fail(text)

    outcome.attempted = len(ends) + len(trickle.live)
    # Throughput and latency over complete blocks only: each holds the same
    # mix, and one /stats costs as much as many other queries.
    n = complete_blocks(len(ends), BLOCK)
    queries = [query_s[i] for i in range(n) if i in query_s]
    stats = [stats_s[i] for i in range(n) if i in stats_s]
    outcome.end_to_end = {
        "setup_s": setup_s,
        "ops_per_s": sum(1 for i in range(n) if i in answered) / (ends[n - 1] - start),
        "op_p50_ms": pct(queries, 50) * 1e3,
        "op_p90_ms": pct(queries, 90) * 1e3,
        "rss_mb": setup_rss_mb,
        "load_rss_mb": load_rss[0],
    }
    outcome.named["load_rss_mb.ops"] = (load_rss[1], "count", load_rss[1])
    latency_named(outcome.named, "query", queries)
    latency_named(outcome.named, "stats", stats, qs=(50, 90))
    latency_named(outcome.named, "ack", trickle.acks)
    latency_named(outcome.named, "gen_lag", trickle.lags, qs=(50, 100))
    gen_lag_ms = sum(trickle.lags) / len(trickle.lags) * 1e3 if trickle.lags else 0.0
    outcome.bases = {"window": window, "messages": len(trickle.acks), "log_bytes": written,
                     "gen_lag_ms": gen_lag_ms}
    return outcome
