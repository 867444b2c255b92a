"""Socket-level tests for the broker: connect rules, fan-out, QoS 1
acknowledgement through the durable sink, keep-alive, and protocol abuse.
"""

import json
import socket
import threading
import time

import pytest

from ecgmon.ingest import IngestionSink
from ecgmon.mqtt import codec
from ecgmon.mqtt.broker import Broker
from ecgmon.mqtt.client import MqttClient, MqttError
from ecgmon.store import RecordStore


@pytest.fixture
def broker():
    b = Broker(port=0).start()
    yield b
    b.stop()


def connected_client(broker, **kwargs):
    kwargs.setdefault("ack_timeout", 0.5)
    return MqttClient(**kwargs).connect("127.0.0.1", broker.port)


def raw_connect(port, client_id="raw", keep_alive=60):
    """Plain socket CONNECT for tests that need protocol-level control."""
    sock = socket.create_connection(("127.0.0.1", port), timeout=5)
    sock.sendall(codec.encode_packet(codec.Connect(client_id, keep_alive)))
    connack = read_packet(sock)
    assert isinstance(connack, codec.Connack)
    return sock


def read_packet(sock, timeout=5.0):
    sock.settimeout(timeout)
    buf = bytearray()
    while True:
        decoded = codec.decode_packet(buf)
        if decoded is not None:
            return decoded[0]
        data = sock.recv(4096)
        if not data:
            return None  # peer closed
        buf.extend(data)


def wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


# ------------------------------------------------------------- handshakes

def test_connect_and_disconnect(broker):
    client = connected_client(broker)
    client.disconnect()


def test_qos1_publish_acked_without_subscribers(broker):
    client = connected_client(broker)
    # returns only once the PUBACK came back
    client.publish("clinic/p1/heartbeat", b"{}", qos=1)
    client.disconnect()


def test_auth_required(broker):
    broker.username = "clinic"
    broker.password = b"secret"
    with pytest.raises(MqttError, match="return code 4"):
        connected_client(broker, username="clinic", password=b"wrong")
    ok = connected_client(broker, username="clinic", password=b"secret")
    ok.disconnect()


def test_duplicate_client_id_evicts_older(broker):
    first = raw_connect(broker.port, client_id="same")
    second = raw_connect(broker.port, client_id="same")
    # the older connection gets dropped
    assert read_packet(first, timeout=3.0) is None
    first.close()
    second.close()


def test_must_connect_first(broker):
    sock = socket.create_connection(("127.0.0.1", broker.port), timeout=5)
    sock.sendall(codec.encode_packet(codec.Pingreq()))
    assert read_packet(sock, timeout=3.0) is None
    sock.close()


def test_garbage_closes_connection(broker):
    sock = raw_connect(broker.port)
    sock.sendall(b"\x00\xff\x13\x37")
    assert read_packet(sock, timeout=3.0) is None
    sock.close()


def test_oversized_packet_closes_connection(broker):
    sock = raw_connect(broker.port)
    # header announcing 300 KiB, beyond the 256 KiB cap
    sock.sendall(b"\x30" + codec.encode_remaining_length(300 * 1024))
    assert read_packet(sock, timeout=3.0) is None
    sock.close()


def test_keep_alive_idle_drop(broker):
    # 1 s keep-alive and no pings: the broker drops us after ~1.5 s
    sock = raw_connect(broker.port, keep_alive=1)
    start = time.monotonic()
    assert read_packet(sock, timeout=6.0) is None
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    sock.close()


def test_pingreq_keeps_connection_alive(broker):
    sock = raw_connect(broker.port, keep_alive=1)
    for _ in range(4):
        time.sleep(0.5)
        sock.sendall(codec.encode_packet(codec.Pingreq()))
        assert isinstance(read_packet(sock), codec.Pingresp)
    sock.close()


# ---------------------------------------------------------------- fan-out

def test_single_level_wildcard_delivery(broker):
    got = []
    sub = connected_client(broker)
    sub.subscribe("clinic/+/heartbeat", qos=0,
                  callback=lambda t, p, q, d: got.append((t, p)))
    pub = connected_client(broker)
    pub.publish("clinic/p1/heartbeat", b"one", qos=1)
    pub.publish("clinic/p1/status", b"nope", qos=1)
    pub.publish("clinic/p2/heartbeat", b"two", qos=1)
    assert wait_for(lambda: len(got) == 2)
    assert got == [("clinic/p1/heartbeat", b"one"), ("clinic/p2/heartbeat", b"two")]
    sub.disconnect()
    pub.disconnect()


def test_multi_level_wildcard_delivery(broker):
    got = []
    sub = connected_client(broker)
    sub.subscribe("clinic/p1/#", qos=1,
                  callback=lambda t, p, q, d: got.append(t))
    pub = connected_client(broker)
    for topic in ("clinic/p1/heartbeat", "clinic/p1/ecg/waveform",
                  "clinic/p1/ecg/pqrst", "clinic/p1/status"):
        pub.publish(topic, b"x", qos=1)
    pub.publish("clinic/p2/heartbeat", b"x", qos=1)
    assert wait_for(lambda: len(got) == 4)
    time.sleep(0.2)
    assert len(got) == 4
    assert "clinic/p2/heartbeat" not in got
    sub.disconnect()
    pub.disconnect()


def test_delivery_qos_is_min_of_publish_and_grant(broker):
    seen = {}
    sub = connected_client(broker)
    sub.subscribe("a/+", qos=1, callback=lambda t, p, q, d: seen.setdefault(t, q))
    sub.subscribe("b/+", qos=0, callback=lambda t, p, q, d: seen.setdefault(t, q))
    pub = connected_client(broker)
    pub.publish("a/q0", b"", qos=0)        # min(0, 1) -> 0
    pub.publish("a/q1", b"", qos=1)        # min(1, 1) -> 1
    pub.publish("b/q1", b"", qos=1)        # min(1, 0) -> 0
    assert wait_for(lambda: len(seen) == 3)
    assert seen == {"a/q0": 0, "a/q1": 1, "b/q1": 0}
    sub.disconnect()
    pub.disconnect()


def test_publish_order_preserved_per_publisher(broker):
    got = []
    sub = connected_client(broker)
    sub.subscribe("seq/#", qos=1, callback=lambda t, p, q, d: got.append(int(p)))
    pub = connected_client(broker)
    for i in range(100):
        pub.publish("seq/x", str(i).encode(), qos=1)
    assert wait_for(lambda: len(got) == 100)
    assert got == list(range(100))
    sub.disconnect()
    pub.disconnect()


def test_bad_subscription_filter_gets_failure_code(broker):
    client = connected_client(broker)
    codes = client.subscribe("a/#/b", qos=0)
    assert codes == (0x80,)
    # and a broken filter never matches anything later
    codes = client.subscribe("clinic/#", qos=1)
    assert codes == (1,)
    client.disconnect()


def test_subscriber_gone_does_not_block_publisher(broker):
    sub = connected_client(broker)
    sub.subscribe("x/#", qos=1, callback=lambda t, p, q, d: None)
    # hard close without DISCONNECT
    with sub._lock:
        sub._sock.close()
    pub = connected_client(broker)
    for i in range(5):
        pub.publish("x/y", b"still fine", qos=1)
    pub.disconnect()
    sub._stop.set()


# ------------------------------------------------------------ sink coupling

def test_puback_only_after_durable_append(broker, tmp_path):
    store = RecordStore(tmp_path / "telemetry")
    sink = IngestionSink(store).start()
    broker.sink = sink
    try:
        client = connected_client(broker)
        doc = {"patient_id": "p1", "bpm": 72, "window_seconds": 20,
               "measured_at": "2026-01-01T00:00:00Z"}
        client.publish("clinic/p1/heartbeat", json.dumps(doc).encode(), qos=1)
        # the PUBACK has arrived, so the document must already be readable
        docs = store.read_class("heartbeat", "p1")
        assert len(docs) == 1
        assert docs[0].payload["bpm"] == 72
        client.disconnect()
    finally:
        sink.stop()
        store.close()


def test_qos0_is_fire_and_forget_into_sink(broker, tmp_path):
    store = RecordStore(tmp_path / "telemetry")
    sink = IngestionSink(store).start()
    broker.sink = sink
    try:
        client = connected_client(broker)
        doc = {"patient_id": "p3", "bpm": 66, "window_seconds": 20,
               "measured_at": "2026-01-01T00:00:00Z"}
        client.publish("clinic/p3/heartbeat", json.dumps(doc).encode(), qos=0)
        assert wait_for(lambda: len(store.read_class("heartbeat", "p3")) == 1)
        client.disconnect()
    finally:
        sink.stop()
        store.close()


def test_invalid_payload_is_acked_and_dropped(broker, tmp_path):
    store = RecordStore(tmp_path / "telemetry")
    sink = IngestionSink(store).start()
    broker.sink = sink
    try:
        client = connected_client(broker)
        # malformed JSON: the sink acknowledges and drops, so this returns
        client.publish("clinic/p1/heartbeat", b"not json at all", qos=1)
        good = {"patient_id": "p1", "bpm": 60, "window_seconds": 20,
                "measured_at": "2026-01-01T00:00:00Z"}
        client.publish("clinic/p1/heartbeat", json.dumps(good).encode(), qos=1)
        docs = store.read_class("heartbeat", "p1")
        assert [d.payload.get("bpm") for d in docs] == [60]
        client.disconnect()
    finally:
        sink.stop()
        store.close()


def test_topic_with_bad_patient_id_is_acked_and_dropped(broker, tmp_path):
    """The gateway could never read such a record back, so it is not stored."""
    store = RecordStore(tmp_path / "telemetry")
    sink = IngestionSink(store).start()
    broker.sink = sink
    try:
        client = connected_client(broker)
        doc = {"patient_id": "p.1", "bpm": 72, "window_seconds": 20,
               "measured_at": "2026-01-01T00:00:00Z"}
        client.publish("clinic/p.1/heartbeat", json.dumps(doc).encode(), qos=1)
        assert store.read_class("heartbeat") == []
        client.disconnect()
    finally:
        sink.stop()
        store.close()


def test_retransmit_after_sink_outage(broker, tmp_path):
    """A stalled sink delays the PUBACK; the publisher retries with DUP
    and the message lands exactly once when the sink comes back."""
    store = RecordStore(tmp_path / "telemetry")
    sink = IngestionSink(store, queue_size=4)
    broker.sink = sink  # note: not started yet
    try:
        client = connected_client(broker, ack_timeout=0.3, max_retries=40)
        doc = {"patient_id": "p1", "bpm": 72, "window_seconds": 20,
               "measured_at": "2026-01-01T00:00:00Z"}

        publisher = threading.Thread(
            target=client.publish,
            args=("clinic/p1/heartbeat", json.dumps(doc).encode(), 1),
        )
        publisher.start()
        time.sleep(1.0)       # a few retransmits pile up while the sink is down
        sink.start()
        publisher.join(timeout=10)
        assert not publisher.is_alive()

        docs = store.read_class("heartbeat", "p1")
        assert len(docs) == 1  # duplicates collapsed by (topic, packet id)
        client.disconnect()
    finally:
        sink.stop()
        store.close()
