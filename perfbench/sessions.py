"""device-sessions: the paper's device path, one session at a time.

A closed loop with one device (an MqttClient that a DeviceAgent per
patient publishes through) and one keep-alive HTTP connection.  A session
synthesizes a capture, runs `run_and_publish_session`, and when the record
was uploaded polls `GET /patients/{id}/ecg` until it comes back.  Sessions
come in shuffled blocks of 20 with a fixed mix, so every complete block
costs about the same whatever the seed: 7 clean 10 s recordings, 5 noisy
ones, 3 low-heart-rate captures that run into the 60 s timeout, 2 lead-off
captures that still pass the upload gate and 3 lead-off captures so noisy
that they fall below it and publish a status event instead.

The shares are an assumption: neither the paper nor this repository says
how often a device meets each case.  They keep every case frequent enough
to be measured in each run, with most sessions clean or noisy.  The three
timeout sessions cost about 15 times a 10 s one, so they take most of the
session time and set op_p90_ms; the report therefore also gives the
visible latency of each kind with its sample count, which does not depend
on the mix.
"""

from __future__ import annotations

import http.client
import json
import random
import time
from contextlib import nullcontext
from pathlib import Path

from ecgmon import delineate, device, synth
from ecgmon.mqtt.client import MqttClient, MqttError
from ecgmon.store import RecordStore

from . import tracing
from .common import (Http, Outcome, blocks, complete_blocks, iso_ms, latency_named,
                     log_bytes, pct, rss_mb, system_config, timed_setups)

MIX = {"clean": 7, "noisy": 5, "timeout": 3, "lead_off": 2, "lead_off_noisy": 3}
BLOCK = sum(MIX.values())
PATIENTS = 50
SETUP_REPEATS = 7
LOAD_RSS_OPS = 40             # sessions before load_rss_mb is read
VISIBLE_TIMEOUT_S = 5.0
_FAR_FUTURE = "9999-12-31T00:00:00Z"


def session_config(kind: str, rng: random.Random) -> synth.SynthConfig:
    """Capture settings for one session.  Each kind's gate outcome and cost
    hardly depend on the draws, so every block costs about the same."""
    hr = rng.uniform(60, 100)
    if kind == "clean":
        return synth.SynthConfig(heart_rate=hr, duration=10.0)
    seed = rng.randrange(2 ** 31)
    if kind == "noisy":
        return synth.SynthConfig(heart_rate=hr, duration=10.0,
                                 noise_std=rng.uniform(20, 50), seed=seed)
    if kind == "timeout":
        return synth.SynthConfig(heart_rate=rng.uniform(38, 42), duration=62.0,
                                 noise_std=rng.uniform(0, 10), seed=seed)
    # Lead-off starts after the first 2 s, so detection always has 2 s of
    # signal; with heavy noise on top the session falls below the gate.
    start = rng.uniform(2.0, 7.0)
    noise = rng.uniform(140, 160) if kind == "lead_off_noisy" else rng.uniform(0, 20)
    return synth.SynthConfig(heart_rate=hr, duration=10.0, noise_std=noise, seed=seed,
                             lead_off_intervals=((start, start + rng.uniform(1.0, 2.0)),))


class _Failed(Exception):
    """A session that timed out or got a non-2xx answer."""


def await_record(web: Http, patient: str, since_ms: int, record: device.PqrstRecord,
                 outcome: Outcome) -> None:
    """Poll the gateway until the uploaded record is returned, and check
    that it carries the scores the device computed."""
    path = f"/patients/{patient}/ecg?from={iso_ms(since_ms - 1)}&to={_FAR_FUTURE}"
    deadline = time.perf_counter() + VISIBLE_TIMEOUT_S
    while True:
        status, body, _ = web.get(path)
        if status != 200:
            raise _Failed(f"GET {path} answered {status}")
        for doc in json.loads(body):
            payload = doc["payload"]
            if payload.get("record_no") == record.record_no:
                got = tuple(payload[w] for w in "pqrst")
                if got != record.scores() or payload.get("age") != record.age:
                    outcome.problem(f"{patient} record {record.record_no}: returned "
                                    f"scores {got} differ from the device's {record.scores()}")
                return
        if time.perf_counter() > deadline:
            raise _Failed(f"record {record.record_no} of {patient} not visible "
                          f"after {VISIBLE_TIMEOUT_S} s")
        time.sleep(0.001)


def run(seed: int, seconds: float, workdir: Path, tracer=None) -> Outcome:
    outcome = Outcome()
    rng = random.Random(seed)
    patients = [(f"dev{v:05x}", rng.randrange(18, 90))
                for v in rng.sample(range(16 ** 5), PATIENTS)]
    kinds = blocks(rng, MIX)
    root = workdir / "store"
    outcome.store_root = str(root)
    ends: list[float] = []                 # per attempted session
    kind_of: list[str] = []                # per attempted session
    visible: dict[int, float] = {}         # session index -> seconds
    completed: set[int] = set()
    rejected: list[tuple[str, float]] = []
    load_rss: tuple = ()                   # (MB, sessions by then)

    with tracing.installed(tracer):
        system, setup_s, setup_rss_mb = timed_setups(system_config(root), SETUP_REPEATS)
        client = MqttClient(client_id="bench-device")
        web = Http(system.gateway.port, tracer)
        try:
            client.connect("127.0.0.1", system.broker.port)
            agents = {pid: device.DeviceAgent(pid, age, client.publish) for pid, age in patients}
            before = log_bytes(root)
            start_ns = time.perf_counter_ns()
            start = time.perf_counter()
            deadline = start + seconds
            i = 0
            while time.perf_counter() < deadline:
                kind = next(kinds)
                patient, _ = rng.choice(patients)
                config = session_config(kind, rng)
                scope = tracer.request(f"s{i}") if tracer is not None else nullcontext()
                t0 = time.perf_counter()
                t0_ms = time.time_ns() // 1_000_000
                try:
                    with scope:
                        result = agents[patient].run_and_publish_session(synth.synthesize(config))
                        uploaded = result.status == "Uploaded"
                        if uploaded != (result.overall_score > device.UPLOAD_GATE):
                            outcome.problem(f"session {i}: status {result.status} with "
                                            f"overall score {result.overall_score}")
                        if uploaded:
                            await_record(web, patient, t0_ms, result.record, outcome)
                            visible[i] = time.perf_counter() - t0
                        else:
                            rejected.append((patient, result.overall_score))
                    completed.add(i)
                except (_Failed, device.NoSignalError, delineate.InsufficientDataError,
                        MqttError, OSError, http.client.HTTPException) as exc:
                    outcome.fail(f"session {i} ({kind}): {exc}")
                ends.append(time.perf_counter())
                kind_of.append(kind)
                i += 1
                if i == LOAD_RSS_OPS:
                    load_rss = (rss_mb(collect=False), i)
            if not load_rss:                   # a run too short to reach LOAD_RSS_OPS
                load_rss = (rss_mb(collect=False), i)
            window = (start_ns, time.perf_counter_ns())
            written = log_bytes(root) - before
        finally:
            web.close()
            client.disconnect()
            system.stop()

    outcome.attempted = len(ends)
    with RecordStore(root) as store:
        stored = sorted((d.patient_id, d.payload.get("overall_score"))
                        for d in store.read_class("status"))
    if stored != sorted(rejected):
        outcome.problem(f"{len(rejected)} sessions were rejected but the store holds "
                        f"{len(stored)} matching status events")

    # Throughput and latency over complete blocks only: each carries the
    # same mix, so a session cut off by the deadline does not skew them.
    n = complete_blocks(len(ends), BLOCK)
    counted = [i for i in range(n) if i in completed]
    latencies = [visible[i] for i in counted if i in visible]
    outcome.end_to_end = {
        "setup_s": setup_s,
        "ops_per_s": len(counted) / (ends[n - 1] - start),
        "op_p50_ms": pct(latencies, 50) * 1e3,
        "op_p90_ms": pct(latencies, 90) * 1e3,
        "rss_mb": setup_rss_mb,
        "load_rss_mb": load_rss[0],
    }
    outcome.named["load_rss_mb.ops"] = (load_rss[1], "count", load_rss[1])
    latency_named(outcome.named, "visible", latencies, qs=(50, 90))
    for kind in MIX:
        sessions = [i for i in counted if kind_of[i] == kind]
        uploads = [visible[i] for i in sessions if i in visible]
        outcome.named[f"uploaded.{kind}"] = (len(uploads), "count", len(sessions))
        if uploads:
            latency_named(outcome.named, f"visible.{kind}", uploads, qs=(50, 90))
    outcome.named["uploaded"] = (len(visible), "count", len(ends))
    outcome.named["rejected"] = (len(rejected), "count", len(ends))
    outcome.bases = {"window": window, "messages": len(completed), "log_bytes": written,
                     "session_rids": {f"s{i}" for i in counted}}
    return outcome
