"""Socket-level tests for the broker: connect rules, the refused
SUBSCRIBE, QoS 1 acknowledgement through the durable sink, per-publisher
order into the store, keep-alive, and protocol abuse.
"""

import contextlib
import errno
import fcntl
import json
import os
import socket
import threading
import time

import pytest

from ecgmon import store as store_mod
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


@contextlib.contextmanager
def connected(broker, **kwargs):
    """A connected MqttClient, disconnected on the way out."""
    client = connected_client(broker, **kwargs)
    try:
        yield client
    finally:
        client.disconnect()


def raw_connect(port, client_id="raw", keep_alive=60):
    """Plain socket CONNECT for tests that need protocol-level control."""
    sock = socket.create_connection(("127.0.0.1", port), timeout=5)
    try:
        sock.sendall(codec.encode_packet(codec.Connect(client_id, keep_alive)))
        connack = read_packet(sock)
        assert isinstance(connack, codec.Connack)
    except BaseException:
        sock.close()
        raise
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


def read_packets_until(sock, kind, timeout=5.0):
    """Every packet the broker sends, up to and including the first `kind`."""
    sock.settimeout(timeout)
    buf = bytearray()
    got = []
    while not got or not isinstance(got[-1], kind):
        decoded = codec.decode_packet(buf)
        if decoded is None:
            data = sock.recv(4096)
            assert data, f"connection closed after {got}"
            buf.extend(data)
            continue
        packet, consumed = decoded
        del buf[:consumed]
        got.append(packet)
    return got


def heartbeat(bpm, patient_id="p1"):
    return json.dumps({"patient_id": patient_id, "bpm": bpm, "window_seconds": 20,
                       "measured_at": "2026-01-01T00:00:00Z"}).encode()


def wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


# ------------------------------------------------------------- handshakes

def test_connect_and_disconnect(broker):
    with connected(broker):
        pass


def test_qos1_publish_acked_without_subscribers(broker):
    with connected(broker) as client:
        # returns only once the PUBACK came back
        client.publish("clinic/p1/heartbeat", b"{}", qos=1)


def test_auth_required(broker):
    broker.username = "clinic"
    broker.password = b"secret"
    with pytest.raises(MqttError, match="return code 4"):
        connected_client(broker, username="clinic", password=b"wrong")
    with connected(broker, username="clinic", password=b"secret"):
        pass


def test_duplicate_client_id_evicts_older(broker):
    with raw_connect(broker.port, client_id="same") as first, \
            raw_connect(broker.port, client_id="same"):
        # the older connection gets dropped
        assert read_packet(first, timeout=3.0) is None


def test_must_connect_first(broker):
    with socket.create_connection(("127.0.0.1", broker.port), timeout=5) as sock:
        sock.sendall(codec.encode_packet(codec.Pingreq()))
        assert read_packet(sock, timeout=3.0) is None


def test_garbage_closes_connection(broker):
    with raw_connect(broker.port) as sock:
        sock.sendall(b"\x00\xff\x13\x37")
        assert read_packet(sock, timeout=3.0) is None


def test_oversized_packet_closes_connection(broker):
    with raw_connect(broker.port) as sock:
        # header announcing 300 KiB, beyond the 256 KiB cap
        sock.sendall(b"\x30" + codec.encode_remaining_length(300 * 1024))
        assert read_packet(sock, timeout=3.0) is None


def test_keep_alive_idle_drop(broker):
    # 1 s keep-alive and no pings: the broker drops us after ~1.5 s
    with raw_connect(broker.port, keep_alive=1) as sock:
        start = time.monotonic()
        assert read_packet(sock, timeout=6.0) is None
        elapsed = time.monotonic() - start
        assert elapsed < 5.0


def test_pingreq_keeps_connection_alive(broker):
    with raw_connect(broker.port, keep_alive=1) as sock:
        for _ in range(4):
            time.sleep(0.5)
            sock.sendall(codec.encode_packet(codec.Pingreq()))
            assert isinstance(read_packet(sock), codec.Pingresp)


# ------------------------------------------------------------- subscribe

def test_subscribe_refused_for_every_filter_and_nothing_delivered(broker, tmp_path):
    """SUBSCRIBE gets Failure (0x80) for each filter, valid or not; the
    connection still publishes with durable PUBACKs, and no PUBLISH is
    ever sent back to it, not even one matching its filters."""
    store = RecordStore(tmp_path / "telemetry")
    sink = IngestionSink(store).start()
    broker.sink = sink
    try:
        with raw_connect(broker.port) as sock:
            filters = (("clinic/+/heartbeat", 1), ("clinic/#", 0), ("a/#/b", 0))
            sock.sendall(codec.encode_packet(codec.Subscribe(7, filters)))
            sock.sendall(codec.encode_packet(
                codec.Publish("clinic/p1/heartbeat", heartbeat(61), 1, 8)))
            assert read_packets_until(sock, codec.Puback) == [
                codec.Suback(7, (0x80, 0x80, 0x80)), codec.Puback(8)]
            assert [d.payload["bpm"] for d in store.read_class("heartbeat", "p1")] == [61]

            with connected(broker) as other:
                other.publish("clinic/p2/heartbeat", heartbeat(62, "p2"), qos=0)
                other.publish("clinic/p2/heartbeat", heartbeat(63, "p2"), qos=1)
            # the PINGRESP comes after anything the broker queued for us before it
            sock.sendall(codec.encode_packet(codec.Pingreq()))
            assert read_packets_until(sock, codec.Pingresp) == [codec.Pingresp()]
    finally:
        sink.stop()
        store.close()


def test_puback_from_client_closes_connection(broker):
    """The broker sends no PUBLISH, so a client's PUBACK is unexpected."""
    with raw_connect(broker.port) as sock:
        sock.sendall(codec.encode_packet(codec.Puback(1)))
        assert read_packet(sock, timeout=3.0) is None


# ------------------------------------------------------------ sink coupling

def test_puback_only_after_durable_append(broker, tmp_path):
    store = RecordStore(tmp_path / "telemetry")
    sink = IngestionSink(store).start()
    broker.sink = sink
    try:
        with connected(broker) as client:
            doc = {"patient_id": "p1", "bpm": 72, "window_seconds": 20,
                   "measured_at": "2026-01-01T00:00:00Z"}
            client.publish("clinic/p1/heartbeat", json.dumps(doc).encode(), qos=1)
            # the PUBACK has arrived, so the document must already be readable
            docs = store.read_class("heartbeat", "p1")
            assert len(docs) == 1
            assert docs[0].payload["bpm"] == 72
    finally:
        sink.stop()
        store.close()


def test_publish_order_preserved_per_publisher(broker, tmp_path):
    """QoS 0 publishes do not wait for an ack, so 100 of them are in flight
    at once; the reader thread, the sink queue and the store keep their
    order.  The closing QoS 1 publish is acked only once all are stored."""
    store = RecordStore(tmp_path / "telemetry")
    sink = IngestionSink(store).start()
    broker.sink = sink
    try:
        with connected(broker) as client:
            for bpm in range(100):
                client.publish("clinic/p1/heartbeat", heartbeat(bpm), qos=0)
            client.publish("clinic/p1/heartbeat", heartbeat(100), qos=1)
            docs = store.read_class("heartbeat", "p1")
            assert [d.payload["bpm"] for d in docs] == list(range(101))
    finally:
        sink.stop()
        store.close()


def test_qos0_is_fire_and_forget_into_sink(broker, tmp_path):
    store = RecordStore(tmp_path / "telemetry")
    sink = IngestionSink(store).start()
    broker.sink = sink
    try:
        with connected(broker) as client:
            doc = {"patient_id": "p3", "bpm": 66, "window_seconds": 20,
                   "measured_at": "2026-01-01T00:00:00Z"}
            client.publish("clinic/p3/heartbeat", json.dumps(doc).encode(), qos=0)
            assert wait_for(lambda: len(store.read_class("heartbeat", "p3")) == 1)
    finally:
        sink.stop()
        store.close()


def test_invalid_payload_is_acked_and_dropped(broker, tmp_path):
    store = RecordStore(tmp_path / "telemetry")
    sink = IngestionSink(store).start()
    broker.sink = sink
    try:
        with connected(broker) as client:
            # malformed JSON: the sink acknowledges and drops, so this returns
            client.publish("clinic/p1/heartbeat", b"not json at all", qos=1)
            good = {"patient_id": "p1", "bpm": 60, "window_seconds": 20,
                    "measured_at": "2026-01-01T00:00:00Z"}
            client.publish("clinic/p1/heartbeat", json.dumps(good).encode(), qos=1)
            docs = store.read_class("heartbeat", "p1")
            assert [d.payload.get("bpm") for d in docs] == [60]
    finally:
        sink.stop()
        store.close()


def test_topic_with_bad_patient_id_is_acked_and_dropped(broker, tmp_path):
    """The gateway could never read such a record back, so it is not stored."""
    store = RecordStore(tmp_path / "telemetry")
    sink = IngestionSink(store).start()
    broker.sink = sink
    try:
        with connected(broker) as client:
            doc = {"patient_id": "p.1", "bpm": 72, "window_seconds": 20,
                   "measured_at": "2026-01-01T00:00:00Z"}
            client.publish("clinic/p.1/heartbeat", json.dumps(doc).encode(), qos=1)
            assert store.read_class("heartbeat") == []
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
        with connected(broker, ack_timeout=0.3, max_retries=40) as client:
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
    finally:
        sink.stop()
        store.close()


def test_publish_unacked_while_fsync_fails_then_stored_once(broker, tmp_path, monkeypatch):
    """A failed fsync leaves the message unacked; the retransmits made
    while the fault lasts leave nothing behind, and the one made after it
    clears is stored once, before and after a reopen."""
    real_fsync = os.fsync
    failing = threading.Event()
    failing.set()

    def flaky(fd):
        # only the append handle fails; directory syncs and the cut that
        # undoes a failed append use descriptors without O_APPEND
        if failing.is_set() and fcntl.fcntl(fd, fcntl.F_GETFL) & os.O_APPEND:
            raise OSError(errno.EIO, "injected fsync failure")
        real_fsync(fd)

    monkeypatch.setattr(store_mod.os, "fsync", flaky)
    root = tmp_path / "telemetry"
    store = RecordStore(root)
    sink = IngestionSink(store).start()
    broker.sink = sink
    try:
        with connected(broker, ack_timeout=0.2, max_retries=50) as client:
            doc = {"record_no": 1, "age": 30, "p": 99.0, "q": 98.0, "r": 97.0, "s": 96.0,
                   "t": 95.0, "patient_id": "p1"}
            publisher = threading.Thread(
                target=client.publish,
                args=("clinic/p1/ecg/pqrst", json.dumps(doc).encode(), 1))
            publisher.start()
            time.sleep(1.0)       # several retransmits fail while the fault lasts
            assert publisher.is_alive()
            assert store.read_class("pqrst") == []
            assert len(store.pqrst_matrix()) == 0
            failing.clear()
            publisher.join(timeout=10)
            assert not publisher.is_alive()
            assert [d.payload for d in store.read_class("pqrst")] == [doc]
    finally:
        sink.stop()
        store.close()
    with RecordStore(root) as reopened:
        assert [(d.sequence, d.payload) for d in reopened.read_class("pqrst")] == [(1, doc)]
        assert reopened.pqrst_matrix().tolist() == [[1.0, 30.0, 99.0, 98.0, 97.0, 96.0, 95.0]]


@pytest.mark.parametrize("payload", [
    b'{"record_no": 1' + b"0" * 400 + b', "age": 30, "p": 99, "q": 98, "r": 97, '
    b'"s": 96, "t": 95, "patient_id": "p1"}',
    b'{"record_no": 1' + b"0" * 5000 + b"}",
], ids=["record_no_1e400", "int_over_digit_limit"])
def test_oversized_number_is_acked_and_dropped(broker, tmp_path, payload):
    store = RecordStore(tmp_path / "telemetry")
    sink = IngestionSink(store).start()
    broker.sink = sink
    try:
        with connected(broker) as client:
            client.publish("clinic/p1/ecg/pqrst", payload, qos=1)
            good = {"record_no": 2, "age": 30, "p": 99.0, "q": 98.0, "r": 97.0, "s": 96.0,
                    "t": 95.0, "patient_id": "p1"}
            client.publish("clinic/p1/ecg/pqrst", json.dumps(good).encode(), qos=1)
            assert [d.payload for d in store.read_class("pqrst")] == [good]
            assert store.pqrst_matrix()[:, 0].tolist() == [2.0]
    finally:
        sink.stop()
        store.close()


# ------------------------------------------------------------------ client

def test_publish_reconnects_after_eviction(broker, tmp_path):
    """A raw CONNECT with the client's id evicts it; the next QoS 1
    publish closes the dead socket, reconnects and is acked, and each
    document is stored once."""
    store = RecordStore(tmp_path / "telemetry")
    sink = IngestionSink(store).start()
    broker.sink = sink
    try:
        with connected(broker, client_id="dev") as client:
            client.publish("clinic/p1/heartbeat", heartbeat(61), qos=1)
            with raw_connect(broker.port, client_id="dev"):
                pass    # the broker closed the client's connection before this CONNACK
            client.publish("clinic/p1/heartbeat", heartbeat(62), qos=1)
        assert [d.payload["bpm"] for d in store.read_class("heartbeat", "p1")] == [61, 62]
    finally:
        sink.stop()
        store.close()


def packets(sock, timeout=5.0):
    """Each packet read from `sock`, until the peer closes it."""
    sock.settimeout(timeout)
    buf = bytearray()
    while True:
        decoded = codec.decode_packet(buf)
        if decoded is None:
            data = sock.recv(4096)
            if not data:
                return
            buf.extend(data)
            continue
        packet, consumed = decoded
        del buf[:consumed]
        yield packet


@contextlib.contextmanager
def scripted_broker(script):
    """A broker for one connection: it answers the CONNECT, then runs
    `script(conn, incoming)` on its own thread.  Yields the port."""
    with socket.create_server(("127.0.0.1", 0)) as listener:
        listener.settimeout(5)

        def serve():
            conn, _ = listener.accept()
            with conn:
                incoming = packets(conn)
                assert isinstance(next(incoming), codec.Connect)
                conn.sendall(codec.encode_packet(codec.Connack()))
                script(conn, incoming)

        server = threading.Thread(target=serve)
        server.start()
        try:
            yield listener.getsockname()[1]
        finally:
            server.join(timeout=10)
        assert not server.is_alive()


def test_publish_skips_other_packets_until_its_puback():
    received = []
    right_ack_at = []

    def script(conn, incoming):
        publish = next(incoming)
        received.append(publish)
        other_id = publish.packet_id % 0xFFFF + 1
        conn.sendall(codec.encode_packet(codec.Puback(other_id))
                     + codec.encode_packet(codec.Pingresp()))
        time.sleep(0.1)
        right_ack_at.append(time.monotonic())
        conn.sendall(codec.encode_packet(codec.Puback(publish.packet_id)))
        received.extend(incoming)

    with scripted_broker(script) as port:
        client = MqttClient(client_id="dev", ack_timeout=5.0).connect("127.0.0.1", port)
        try:
            client.publish("clinic/p1/heartbeat", b"{}", qos=1)
            returned_at = time.monotonic()
        finally:
            client.disconnect()
    assert returned_at >= right_ack_at[0]
    assert received == [codec.Publish("clinic/p1/heartbeat", b"{}", 1, received[0].packet_id),
                        codec.Disconnect()]


def test_publish_raises_after_max_retries_with_one_packet_id():
    received = []

    def script(conn, incoming):
        received.extend(incoming)     # never acks

    with scripted_broker(script) as port:
        client = MqttClient(client_id="dev", ack_timeout=0.1, max_retries=4)
        client.connect("127.0.0.1", port)
        try:
            with pytest.raises(MqttError, match="after 4 attempts"):
                client.publish("clinic/p1/heartbeat", b"{}", qos=1)
        finally:
            client.disconnect()
    publishes = [p for p in received if isinstance(p, codec.Publish)]
    assert [p.dup for p in publishes] == [False, True, True, True]
    assert len({p.packet_id for p in publishes}) == 1
    assert received[len(publishes):] == [codec.Disconnect()]
