"""Pieces the workloads share: the metric catalogue, system start-up,
raw MQTT and HTTP client helpers, percentiles and the host record."""

from __future__ import annotations

import gc
import http.client
import os
import platform
import random
import resource
import socket
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterator, Optional

import numpy as np

from ecgmon import store as store_mod
from ecgmon.cli import System, start_system
from ecgmon.config import GatewayConfig
# Bound at import, so a traced run's codec spans leave out the benchmark's own packets.
from ecgmon.mqtt.codec import Connack, Connect, decode_packet, encode_packet

from .tracing import ModuleView

# Every workload reports each of these on an untraced run (name -> unit).
# The op_* latencies are those of the workload's own operation: PUBLISH to
# PUBACK on fleet-ingest, session start to record returned over HTTP on
# device-sessions, a non-/stats query on dashboard-query.  rss_mb is the
# resident memory once the system is up over its store, before the load;
# load_rss_mb is read again once the workload has done a fixed number of
# operations (LOAD_RSS_OPS in each workload), so memory the system takes
# while it serves shows, but a faster run that stores more documents in
# its window does not read as a fatter one.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "rss_mb": "MB",
    "load_rss_mb": "MB",
}

# Every workload reports each of these on a traced run; a layer the
# workload does not exercise reads 0.
PER_LAYER = {
    "store.fsync_ms": "ms",
    "store.fsyncs_per_msg": "count",
    "store.fsyncs_per_msg.messages": "count",
    "store.append_ms": "ms",
    "store.append_cpu_ms": "ms",
    "ingest.queue_wait_ms": "ms",
    "broker.handoff_ms": "ms",
    "codec.decode_us": "us",
    "codec.encode_us": "us",
    "codec.bytes_per_packet": "B",
    "store.bytes_per_user_byte": "ratio",
    "synth.synthesize_ms": "ms",
    "delineate.detect_r_peaks_ms": "ms",
    "delineate.detect_calls_per_session": "count",
    "delineate.detect_calls_per_session.sessions": "count",
    "delineate.annotate_beats_ms": "ms",
    "delineate.score_waves_ms": "ms",
    "device.session_self_ms": "ms",
    "client.publish_ms": "ms",
    "store.read_class_ms": "ms",
    "store.file_opens_per_doc": "count",
    "store.file_opens_per_doc.documents": "count",
    "analytics.stats_ms": "ms",
    "store.read_range_ms": "ms",
    "store.latest_ms": "ms",
    "regression.predict_us": "us",
    "gateway.overhead_ms": "ms",
    "store.open_s": "s",
    "dashboard.gen_lag_ms": "ms",
    "trace.overhead_pct": "%",
}

LATENCY_NOTE = ("latencies are measured on this host against the in-process "
                "system over loopback, not on a device")


@dataclass
class Outcome:
    """What one pass of a workload measured and checked."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)     # correctness violations
    failures: list = field(default_factory=list)     # why operations failed (first few)
    end_to_end: dict = field(default_factory=dict)   # END_TO_END name -> value
    named: dict = field(default_factory=dict)        # name -> (value, unit, samples)
    bases: dict = field(default_factory=dict)        # inputs to the per-layer ratios
    store_root: str = ""

    def problem(self, text: str) -> None:
        _note(self.problems, text)

    def fail(self, text: str) -> None:
        self.failed += 1
        _note(self.failures, text)


def _note(notes: list, text: str, limit: int = 20) -> None:
    if len(notes) < limit:
        notes.append(text)
    elif len(notes) == limit:
        notes.append("... further entries not listed")


# ------------------------------------------------------------ statistics

def pct(values, q: float) -> float:
    if not len(values):
        raise ValueError("percentile of no samples")
    return float(np.percentile(np.asarray(values, dtype=float), q))


def latency_named(named: dict, prefix: str, seconds: list, qs=(50, 99)) -> None:
    """Record ms percentiles of `seconds` as `<prefix>_p<q>_ms`."""
    for q in qs:
        value = pct(seconds, q) * 1e3 if seconds else float("nan")
        named[f"{prefix}_p{q}_ms"] = (value, "ms", len(seconds))


def blocks(rng: random.Random, composition: dict) -> Iterator[str]:
    """Endless kinds in shuffled blocks of fixed composition, so every
    complete block carries exactly the same mix whatever the seed."""
    block = [kind for kind, count in composition.items() for _ in range(count)]
    while True:
        rng.shuffle(block)
        yield from list(block)


def complete_blocks(count: int, block: int) -> int:
    """How many of `count` operations fall in complete blocks (all of them
    when there is not even one complete block, as in a tiny run)."""
    return count - count % block if count >= block else count


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rss_mb(collect: bool = True) -> float:
    """Current resident set size, after collecting garbage unless the
    caller is inside a timed loop that a collection would stall."""
    if collect:
        gc.collect()
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("no VmRSS in /proc/self/status")


def log_bytes(root) -> int:
    return sum(p.stat().st_size for p in Path(root).rglob("*.log"))


def iso_ms(ms: int) -> str:
    return datetime.fromtimestamp(ms / 1000.0, tz=timezone.utc).isoformat(
        timespec="milliseconds").replace("+00:00", "Z")


# ------------------------------------------------------------ the system

def system_config(store_root, model_path: Optional[str] = None) -> GatewayConfig:
    return GatewayConfig(http_port=0, mqtt_port=0, store_root=str(store_root),
                         model_path=model_path)


def _start_accepting(config: GatewayConfig) -> System:
    system = start_system(config)
    mqtt_connect(system.broker.port, "setup-probe").close()
    web = Http(system.gateway.port)
    web.get("/setup-probe")
    web.close()
    return system


def timed_setups(config: GatewayConfig, repeats: int) -> tuple[System, float, float]:
    """Start the system `repeats` times on the same store root and return
    the last one still running, the median time from start_system until
    the broker has answered a CONNECT and the gateway a request, and the
    resident memory in MB with that last system up."""
    times = []
    for i in range(repeats):
        t0 = time.perf_counter()
        system = _start_accepting(config)
        times.append(time.perf_counter() - t0)
        if i < repeats - 1:
            system.stop()
    return system, statistics.median(times), rss_mb()


@contextmanager
def no_fsync():
    """The store skips fsync while a workload preloads its inputs, whose
    durability nothing measures."""
    view = ModuleView(os)
    view.fsync = lambda fd: None
    store_mod.os = view
    try:
        yield
    finally:
        store_mod.os = os


# ------------------------------------------------------------ clients

def mqtt_connect(port: int, client_id: str, timeout: float = 10.0) -> socket.socket:
    """Blocking socket past CONNACK, speaking raw mqtt.codec packets."""
    sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    sock.sendall(encode_packet(Connect(client_id, 0, True)))
    buf = bytearray()
    while True:
        decoded = decode_packet(buf)
        if decoded is not None:
            break
        data = sock.recv(4096)
        if not data:
            sock.close()
            raise ConnectionError("broker closed the connection before CONNACK")
        buf.extend(data)
    packet, _ = decoded
    if not isinstance(packet, Connack) or packet.return_code != 0:
        sock.close()
        raise ConnectionError(f"CONNECT refused: {packet}")
    return sock


class Http:
    """One keep-alive HTTP/1.1 connection to the gateway.

    Each request carries an X-Request-Id so a traced run can pair the
    client's latency with the gateway's spans for the same request.
    """

    def __init__(self, port: int, tracer=None, timeout: float = 10.0):
        self.port = port
        self.tracer = tracer
        self.timeout = timeout
        self._n = 0
        self._conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)

    def get(self, path: str) -> tuple[int, bytes, float]:
        """(status, body, seconds); raises OSError or HTTPException on failure."""
        self._n += 1
        rid = f"h{self._n}"
        t0 = time.perf_counter_ns()
        try:
            self._conn.request("GET", path, headers={"X-Request-Id": rid})
            resp = self._conn.getresponse()
            body = resp.read()
        except (OSError, http.client.HTTPException):
            self._conn.close()
            self._conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                                    timeout=self.timeout)
            raise
        t1 = time.perf_counter_ns()
        if self.tracer is not None:
            self.tracer.record("client.http", t0, t1, rid)
        return resp.status, body, (t1 - t0) / 1e9

    def close(self) -> None:
        self._conn.close()


# ------------------------------------------------------------ host record

def fs_type(path) -> str:
    """Filesystem type of the mount holding `path`, from /proc/mounts."""
    target = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) < 3:
                    continue
                mount = parts[1].replace("\\040", " ")
                inside = target == mount or target.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best):
                    best, kind = mount, parts[2]
    except OSError:
        pass
    return kind


def host_record(store_root, seed: int, seconds: float) -> dict:
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "store_fs": fs_type(store_root),
        "seed": seed,
        "seconds": seconds,
        "latency_note": LATENCY_NOTE,
    }
