"""The benchmark's traced run wraps ecgmon functions by name; these checks
fail fast when a rename in ecgmon leaves one of those names behind."""

import os
from pathlib import Path

import pytest

from ecgmon import store as store_mod
from ecgmon.config import GatewayConfig
from ecgmon.gateway import Gateway

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench import tracing
    return tracing


def test_install_and_uninstall_restore_every_hook(tracing):
    originals = {name: vars(store_mod.RecordStore)[name]
                 for name in ("__init__", "append", "read_range", "read_class", "latest")}
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        assert store_mod.RecordStore.read_class is not originals["read_class"]
    finally:
        tracer.uninstall()
    assert store_mod.os is os
    assert "open" not in vars(store_mod)
    assert {name: vars(store_mod.RecordStore)[name] for name in originals} == originals


def test_traced_read_counts_one_open_per_day_file(tracing, tmp_path):
    with store_mod.RecordStore(tmp_path) as store:
        for n in range(4):
            store.append("clinic/p1/heartbeat", "p1",
                         {"patient_id": "p1", "bpm": 60 + n, "window_seconds": 20,
                          "measured_at": "2026-01-05T10:00:00Z"},
                         received_at=1_767_600_000_000 + (n // 2) * 86_400_000)
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            assert len(store.read_class("heartbeat")) == 4
    reads = {s.sid for s in tracer.spans if s.name == "store.read_class"}
    opens = [s for s in tracer.spans if s.name == "store.open_file" and s.parent in reads]
    assert len(reads) == 1 and len(opens) == 2


def test_traced_gets_carry_their_clients_request_ids(tracing, tmp_path):
    """The tracer keys each gateway.get span by the X-Request-Id its
    client sent, read from the handler's headers."""
    from perfbench.common import Http
    with store_mod.RecordStore(tmp_path) as store:
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            gateway = Gateway(store, GatewayConfig(http_port=0)).start()
            web = Http(gateway.port, tracer)
            try:
                assert [web.get("/stats")[0] for _ in range(2)] == [404, 404]
            finally:
                web.close()
                gateway.stop()
    clients = [s.rid for s in tracer.spans if s.name == "client.http"]
    gets = [s.rid for s in tracer.spans if s.name == "gateway.get"]
    assert clients == gets == ["h1", "h2"]


def test_dashboard_workload_passes_its_gate(tracing, tmp_path):
    """A short dashboard-query run: every /stats answer matches the
    reference statistics to 1e-9, and every read sees the writes acked
    before it was sent."""
    from perfbench import dashboard
    outcome = dashboard.run(601, 1.0, tmp_path, records=500, heartbeats=200)
    assert outcome.problems == []
    assert outcome.failed == 0 and outcome.failures == []
    assert outcome.named["stats_p50_ms"][2] > 0      # /stats was answered and checked


def test_device_sessions_workload_passes_its_gate(tracing, tmp_path):
    """A short device-sessions run: every session's upload decision matches
    its score, every uploaded record is readable over HTTP, and every gate
    rejection is stored as a status event.  Each upload is a QoS 1 publish
    acked only after the sink made it durable."""
    from perfbench import sessions
    outcome = sessions.run(601, 1.0, tmp_path)
    assert outcome.problems == []
    assert outcome.failed == 0 and outcome.failures == []
    assert outcome.attempted >= 1
