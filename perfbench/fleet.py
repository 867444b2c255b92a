"""fleet-ingest: the write path alone, under a closed loop of QoS 1 publishes.

One generator thread keeps 32 PUBLISHes in flight, 16 on each of two raw
MQTT connections multiplexed with `selectors`, as a fleet of devices that
each wait for their PUBACK would.  Packet ids are sequential per
connection and wrap at 65535, as a normal client's do.  Topics come from
a seeded population of patients; three small records (heartbeat, pqrst,
status) go out for each one-second waveform batch of 250 samples.

The gate: after the run the system is stopped, the store reopened, and
every acked publish must be stored exactly once with its payload.
"""

from __future__ import annotations

import json
import random
import selectors
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Bound here, before a traced run wraps the codec module's functions, so the
# codec spans are the broker's own decodes and encodes, not the generator's.
from ecgmon.mqtt.codec import Disconnect, Puback, Publish, decode_packet, encode_packet
from ecgmon.store import TOPIC_CLASSES, RecordStore

from . import tracing
from .common import (Outcome, latency_named, log_bytes, mqtt_connect, pct, rss_mb,
                     system_config, timed_setups)

PATIENTS = 1000
CONNECTIONS = 2
IN_FLIGHT_PER_CONNECTION = 16
SETUP_REPEATS = 7
LOAD_RSS_OPS = 16_000         # acked publishes before load_rss_mb is read
DRAIN_TIMEOUT_S = 10.0
_WAVEFORM_POOL = 32
_SMALL = ("heartbeat", "pqrst", "status")


_MASK = (1 << 64) - 1


def _mix(x: int) -> int:
    """splitmix64's finalizer: a well-spread 64-bit hash of x."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


class Messages:
    """The seeded message population: message n is a pure function of
    (seed, n), hashed rather than drawn from a repeating table, so the gate
    can rebuild any payload and no pattern of topics repeats."""

    def __init__(self, seed: int):
        rng = random.Random(seed)
        nprng = np.random.default_rng(seed)
        self._base = _mix(seed) << 32
        self.patients = [f"pt{v:06x}" for v in rng.sample(range(16 ** 6), PATIENTS)]
        self._waveforms = []
        for _ in range(_WAVEFORM_POOL):
            codes = nprng.integers(300, 800, 250).tolist()
            off_at = int(nprng.integers(0, 250))
            lead_off = [off_at <= i < off_at + 10 for i in range(250)]
            self._waveforms.append((json.dumps(codes), json.dumps(lead_off)))

    def build(self, n: int) -> tuple[str, bytes]:
        h = _mix(self._base + n)
        pid = self.patients[(h >> 2) % PATIENTS]
        if h % 4 == 0:      # one waveform batch for every three small records
            samples, lead_off = self._waveforms[(h >> 12) % _WAVEFORM_POOL]
            return (f"clinic/{pid}/ecg/waveform",
                    (f'{{"patient_id": "{pid}", "seq": {n}, "sample_rate": 250, '
                     f'"samples": {samples}, "lead_off": {lead_off}, "n": {n}}}').encode())
        kind = _SMALL[(h >> 12) % 3]
        if kind == "heartbeat":
            doc = {"patient_id": pid, "bpm": 40 + (h >> 14) % 140, "window_seconds": 20,
                   "measured_at": "2026-01-01T00:00:00.000+00:00", "n": n}
            return f"clinic/{pid}/heartbeat", json.dumps(doc).encode()
        if kind == "pqrst":
            g = _mix(h)
            p, q, r, s, t = (50 + ((g >> (12 * i)) % 5001) / 100 for i in range(5))
            doc = {"record_no": n + 1, "age": 18 + (h >> 14) % 77, "p": p, "q": q, "r": r,
                   "s": s, "t": t, "patient_id": pid,
                   "captured_at": "2026-01-01T00:00:00.000+00:00", "n": n}
            return f"clinic/{pid}/ecg/pqrst", json.dumps(doc).encode()
        doc = {"patient_id": pid, "event": "battery_low", "message": "battery below 15 percent",
               "battery_pct": (h >> 14) % 15, "n": n}
        return f"clinic/{pid}/status", json.dumps(doc).encode()


class _Connection:
    def __init__(self, sock):
        self.sock = sock
        self.buf = bytearray()
        self.next_pid = 1
        self.in_flight: dict[int, tuple[int, float]] = {}   # packet id -> (n, sent at)

    def packet_id(self) -> int:
        while True:
            pid = self.next_pid
            self.next_pid = pid % 0xFFFF + 1
            if pid not in self.in_flight:
                return pid


@dataclass
class Drive:
    sent: int = 0
    acked: list = field(default_factory=list)            # message numbers
    latencies: list = field(default_factory=list)        # seconds, acks inside the window
    acked_in_window: int = 0
    unacked: list = field(default_factory=list)
    window: tuple = (0, 0)                               # perf_counter_ns, ends after the drain
    seconds: float = 0.0
    load_rss: tuple = ()                                 # (MB, acked publishes by then)


def drive(port: int, messages: Messages, seconds: float) -> Drive:
    """Run the closed loop for `seconds`, then wait for the last acks."""
    result = Drive()
    conns = [_Connection(mqtt_connect(port, f"fleet-{i}")) for i in range(CONNECTIONS)]
    sel = selectors.DefaultSelector()
    for c in conns:
        sel.register(c.sock, selectors.EVENT_READ, c)

    def send(c: _Connection) -> None:
        topic, payload = messages.build(result.sent)
        pid = c.packet_id()
        data = encode_packet(Publish(topic, payload, 1, pid))
        c.in_flight[pid] = (result.sent, time.perf_counter())
        c.sock.sendall(data)
        result.sent += 1

    start_ns = time.perf_counter_ns()
    start = time.perf_counter()
    deadline = start + seconds
    try:
        for c in conns:
            for _ in range(IN_FLIGHT_PER_CONNECTION):
                send(c)
        last_progress = time.perf_counter()
        while any(c.in_flight for c in conns):
            now = time.perf_counter()
            if now - last_progress > DRAIN_TIMEOUT_S:
                break
            for key, _ in sel.select(timeout=0.5):
                c = key.data
                data = c.sock.recv(65536)
                if not data:
                    raise ConnectionError("broker closed a fleet connection")
                c.buf.extend(data)
                while (decoded := decode_packet(c.buf)) is not None:
                    packet, used = decoded
                    del c.buf[:used]
                    if not isinstance(packet, Puback):
                        continue
                    entry = c.in_flight.pop(packet.packet_id, None)
                    if entry is None:
                        continue
                    now = time.perf_counter()
                    last_progress = now
                    result.acked.append(entry[0])
                    if len(result.acked) == LOAD_RSS_OPS:
                        result.load_rss = (rss_mb(collect=False), LOAD_RSS_OPS)
                    if now < deadline:
                        result.acked_in_window += 1
                        result.latencies.append(now - entry[1])
                        send(c)
        if not result.load_rss:                # a run too short to reach LOAD_RSS_OPS
            result.load_rss = (rss_mb(collect=False), len(result.acked))
        for c in conns:
            result.unacked.extend(n for n, _ in c.in_flight.values())
            c.sock.sendall(encode_packet(Disconnect()))
    finally:
        sel.close()
        for c in conns:
            c.sock.close()
    result.window = (start_ns, time.perf_counter_ns())
    result.seconds = min(time.perf_counter(), deadline) - start
    return result


def verify_store(root, messages: Messages, run: Drive, outcome: Outcome) -> None:
    """Reopen the store: each acked message stored once, with its payload.

    A lost or duplicated acked message is a failed operation; a stored
    document that does not match what was published is a wrong output.
    """
    acked = set(run.acked)
    copies: dict = defaultdict(int)
    with RecordStore(root) as store:
        for klass in TOPIC_CLASSES:
            for doc in store.read_class(klass):
                n = doc.payload.get("n")
                copies[n] += 1
                if n not in acked:
                    continue
                topic, payload = messages.build(n)
                if doc.topic != topic or doc.payload != json.loads(payload):
                    outcome.problem(f"message {n}: stored document differs from the published one")
    lost = sum(1 for n in acked if copies[n] == 0)
    duplicated = sum(1 for n in acked if copies[n] > 1)
    phantom = sum(1 for n in copies if not (isinstance(n, int) and 0 <= n < run.sent))
    if phantom:
        outcome.problem(f"{phantom} stored documents were never published")
    outcome.failed += lost + duplicated
    outcome.named["lost"] = (lost, "count", len(run.acked))
    outcome.named["duplicated"] = (duplicated, "count", len(run.acked))


def run(seed: int, seconds: float, workdir: Path, tracer=None) -> Outcome:
    outcome = Outcome()
    messages = Messages(seed)
    root = workdir / "store"
    outcome.store_root = str(root)
    with tracing.installed(tracer):
        system, setup_s, setup_rss_mb = timed_setups(system_config(root), SETUP_REPEATS)
        try:
            result = drive(system.broker.port, messages, seconds)
            written = log_bytes(root)
        finally:
            system.stop()

    outcome.attempted = result.sent
    outcome.failed = len(result.unacked)
    verify_store(root, messages, result, outcome)
    outcome.end_to_end = {
        "setup_s": setup_s,
        "ops_per_s": result.acked_in_window / result.seconds,
        "op_p50_ms": pct(result.latencies, 50) * 1e3,
        "op_p90_ms": pct(result.latencies, 90) * 1e3,
        "rss_mb": setup_rss_mb,
        "load_rss_mb": result.load_rss[0],
    }
    outcome.named["load_rss_mb.ops"] = (result.load_rss[1], "count", result.load_rss[1])
    latency_named(outcome.named, "ack", result.latencies)
    outcome.named["unacked"] = (len(result.unacked), "count", result.sent)
    outcome.bases = {"window": result.window, "messages": len(result.acked),
                     "log_bytes": written}
    return outcome
