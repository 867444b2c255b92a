"""Span tracing for the benchmark's traced run.

Spans are recorded from this package only: `install` replaces public
functions of ecgmon's modules (and `os.fsync` / `open` as the store sees
them) with timing wrappers, and `uninstall` puts the originals back.
No ecgmon source file changes.  A span carries a name, start, end, the
span that was open on the same thread when it started, and a request id
shared by the spans of one request (an HTTP request, an MQTT message or a
device session).  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import builtins
import functools
import itertools
import json
import os
import statistics
import threading
import time
from collections import defaultdict, deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional


@dataclass(slots=True)
class Span:
    sid: int
    name: str
    parent: Optional[int]
    rid: Optional[str]
    start: int          # perf_counter_ns
    end: int
    info: object = None

    @property
    def ns(self) -> int:
        return self.end - self.start


class ModuleView:
    """Stands in for a module inside one importer, so that one of its
    functions can be wrapped as that importer sees it and nowhere else."""

    def __init__(self, module):
        self._module = module

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object, bool]] = []
        self._enqueued: dict[str, deque] = defaultdict(deque)
        self._enqueued_lock = threading.Lock()

    # ------------------------------------------------------------ recording

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def request(self, rid: str):
        """Spans started on this thread inside the block carry `rid`."""
        stack = self._stack()
        stack.append((None, rid))
        try:
            yield
        finally:
            stack.pop()

    def record(self, name: str, start: int, end: int, rid: Optional[str] = None) -> None:
        self.spans.append(Span(next(self._ids), name, None, rid, start, end))

    # ------------------------------------------------------------ patching

    def patch(self, owner, attr: str, value) -> None:
        had = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), had))
        setattr(owner, attr, value)

    def wrap(self, owner, attr: str, name: str, rid_of=None, after=None) -> None:
        """Replace owner.attr with a wrapper that records a span per call.

        `rid_of(args, kwargs)` starts a new request id; otherwise the span
        inherits the one open on its thread.  `after(span, args, kwargs,
        result)` may annotate the span before it is kept.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent, rid = stack[-1] if stack else (None, None)
            if rid_of is not None:
                rid = rid_of(args, kwargs)
            sid = next(tracer._ids)
            stack.append((sid, rid))
            result = None
            start = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                span = Span(sid, name, parent, rid, start, end)
                if after is not None:
                    after(span, args, kwargs, result)
                tracer.spans.append(span)

        self.patch(owner, attr, traced)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original, had = self._patches.pop()
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------ ingest hand-off

    def _submitted(self, span, args, kwargs, result) -> None:
        span.info = len(args[2])                    # payload bytes
        with self._enqueued_lock:
            self._enqueued[span.rid].append(span.end)

    def _appended(self, span, args, kwargs, result) -> None:
        with self._enqueued_lock:
            queued = self._enqueued.get(span.rid)
            enqueued_at = queued.popleft() if queued else None
        if enqueued_at is not None:
            span.info = span.start - enqueued_at    # ns spent in the sink queue

    # ------------------------------------------------------------ output

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.sid, s.name, s.parent, s.rid, s.start, s.end]) + "\n")


def _mqtt_rid(topic, message_id) -> str:
    return f"{topic}#{message_id}"


def _decoded(span, args, kwargs, result) -> None:
    if result is not None:
        span.info = result[1]                       # bytes consumed


def _docs(span, args, kwargs, result) -> None:
    span.info = len(result) if isinstance(result, list) else int(result is not None)


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every ecgmon layer."""
    from ecgmon import analytics, delineate, device, gateway, ingest, regression, store, synth
    from ecgmon.mqtt import client, codec

    t = tracer
    t.wrap(synth, "synthesize", "synth.synthesize")
    for fn in ("detect_r_peaks", "annotate_beats", "score_waves"):
        t.wrap(delineate, fn, f"delineate.{fn}")
    t.wrap(device, "run_ecg_session", "device.run_ecg_session")
    t.wrap(codec, "encode_packet", "codec.encode_packet")
    t.wrap(codec, "decode_packet", "codec.decode_packet", after=_decoded)
    t.wrap(client.MqttClient, "publish", "client.publish")
    t.wrap(ingest.IngestionSink, "submit", "ingest.submit",
           rid_of=lambda a, k: _mqtt_rid(a[1], a[3]), after=t._submitted)
    t.wrap(store.RecordStore, "__init__", "store.open")
    t.wrap(store.RecordStore, "append", "store.append",
           rid_of=lambda a, k: _mqtt_rid(a[1], k.get("message_id")), after=t._appended)
    for fn in ("read_range", "read_class", "latest"):
        t.wrap(store.RecordStore, fn, f"store.{fn}", after=_docs)
    view = ModuleView(os)
    t.patch(store, "os", view)
    t.wrap(view, "fsync", "store.fsync")
    t.patch(store, "open", builtins.open)
    t.wrap(store, "open", "store.open_file")
    for fn in ("describe", "correlation_matrix", "quality_distribution"):
        t.wrap(analytics, fn, f"analytics.{fn}")
    t.wrap(regression, "predict", "regression.predict")
    t.wrap(gateway._Handler, "do_GET", "gateway.get",
           rid_of=lambda a, k: a[0].headers.get("X-Request-Id"))


@contextmanager
def installed(tracer: Optional[Tracer]):
    if tracer is None:
        yield
        return
    install(tracer)
    try:
        yield
    finally:
        tracer.uninstall()


# ------------------------------------------------------------ per-layer view

READS = ("store.read_range", "store.read_class", "store.latest")


def _mean(values, scale: float) -> float:
    return sum(values) / len(values) * scale if values else 0.0


def self_times(spans: list[Span]) -> dict[str, tuple[int, float, float]]:
    """name -> (calls, mean inclusive ms, mean self ms)."""
    child_ns: dict[int, int] = defaultdict(int)
    for s in spans:
        if s.parent is not None:
            child_ns[s.parent] += s.ns
    groups: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        groups[s.name].append(s)
    return {
        name: (len(g), _mean([s.ns for s in g], 1e-6),
               _mean([s.ns - child_ns[s.sid] for s in g], 1e-6))
        for name, g in sorted(groups.items())
    }


def layer_metrics(tracer: Tracer, bases: dict) -> dict[str, float]:
    """Per-layer metrics from the spans inside the measured window.

    `bases` comes from the workload: the window, acked messages, session
    request ids in complete blocks, log bytes written and generator lag.
    """
    lo, hi = bases["window"]
    spans = [s for s in tracer.spans if lo <= s.start and s.end <= hi]
    by_name: dict[str, list[Span]] = defaultdict(list)
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            children[s.parent].append(s)

    def ns_of(name):
        return [s.ns for s in by_name[name]]

    def child_ns(span, prefixes):
        return sum(c.ns for c in children[span.sid] if c.name.startswith(prefixes))

    m: dict[str, float] = {}
    messages = bases.get("messages", 0)
    m["store.fsync_ms"] = _mean(ns_of("store.fsync"), 1e-6)
    m["store.fsyncs_per_msg"] = len(by_name["store.fsync"]) / messages if messages else 0.0
    m["store.fsyncs_per_msg.messages"] = float(messages)
    appends = by_name["store.append"]
    m["store.append_ms"] = _mean(ns_of("store.append"), 1e-6)
    m["store.append_cpu_ms"] = _mean([s.ns - child_ns(s, ("store.fsync",)) for s in appends], 1e-6)
    m["ingest.queue_wait_ms"] = _mean([s.info for s in appends if s.info is not None], 1e-6)
    m["broker.handoff_ms"] = _mean(ns_of("ingest.submit"), 1e-6)

    decoded = [s for s in by_name["codec.decode_packet"] if s.info is not None]
    m["codec.decode_us"] = (sum(ns_of("codec.decode_packet")) / len(decoded) / 1e3
                            if decoded else 0.0)
    m["codec.encode_us"] = _mean(ns_of("codec.encode_packet"), 1e-3)
    m["codec.bytes_per_packet"] = _mean([s.info for s in decoded], 1.0)
    user_bytes = sum(s.info for s in by_name["ingest.submit"])
    m["store.bytes_per_user_byte"] = bases.get("log_bytes", 0) / user_bytes if user_bytes else 0.0

    m["synth.synthesize_ms"] = _mean(ns_of("synth.synthesize"), 1e-6)
    for fn in ("detect_r_peaks", "annotate_beats", "score_waves"):
        m[f"delineate.{fn}_ms"] = _mean(ns_of(f"delineate.{fn}"), 1e-6)
    sessions = bases.get("session_rids", set())
    detect_calls = sum(1 for s in by_name["delineate.detect_r_peaks"] if s.rid in sessions)
    m["delineate.detect_calls_per_session"] = detect_calls / len(sessions) if sessions else 0.0
    m["delineate.detect_calls_per_session.sessions"] = float(len(sessions))
    m["device.session_self_ms"] = _mean(
        [s.ns - child_ns(s, ("delineate.", "client.")) for s in by_name["device.run_ecg_session"]],
        1e-6)
    m["client.publish_ms"] = _mean(ns_of("client.publish"), 1e-6)

    read_sids = {s.sid for name in READS for s in by_name[name]}
    opens = sum(1 for s in by_name["store.open_file"] if s.parent in read_sids)
    docs = sum(s.info for name in READS for s in by_name[name])
    m["store.read_class_ms"] = _mean(ns_of("store.read_class"), 1e-6)
    m["store.read_range_ms"] = _mean(ns_of("store.read_range"), 1e-6)
    m["store.latest_ms"] = _mean(ns_of("store.latest"), 1e-6)
    m["store.file_opens_per_doc"] = opens / docs if docs else 0.0
    m["store.file_opens_per_doc.documents"] = float(docs)
    m["regression.predict_us"] = _mean(ns_of("regression.predict"), 1e-3)

    client_ns = {s.rid: s.ns for s in by_name["client.http"]}
    stats_ns, overhead_ns = [], []
    for s in by_name["gateway.get"]:
        analytics_ns = child_ns(s, ("analytics.",))
        if analytics_ns:
            stats_ns.append(analytics_ns)
        if s.rid in client_ns:
            inner = child_ns(s, ("store.", "analytics.", "regression."))
            overhead_ns.append(client_ns[s.rid] - inner)
    m["analytics.stats_ms"] = _mean(stats_ns, 1e-6)
    m["gateway.overhead_ms"] = _mean(overhead_ns, 1e-6)

    opens_at_setup = [s.ns for s in tracer.spans if s.name == "store.open" and s.end <= lo]
    m["store.open_s"] = statistics.median(opens_at_setup) / 1e9 if opens_at_setup else 0.0
    m["dashboard.gen_lag_ms"] = bases.get("gen_lag_ms", 0.0)
    return m
