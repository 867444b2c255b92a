"""Socket-level tests for the broker: connect rules, the refused
SUBSCRIBE, QoS 1 acknowledgement through the durable sink, per-publisher
order into the store, keep-alive, and protocol abuse.
"""

import contextlib
import errno
import fcntl
import http.client
import json
import os
import queue
import resource
import socket
import threading
import time
from concurrent.futures import Future

import pytest

from ecgmon import ingest, store as store_mod
from ecgmon.config import GatewayConfig
from ecgmon.gateway import Gateway
from ecgmon.ingest import IngestionSink
from ecgmon.mqtt import broker as broker_mod, codec
from ecgmon.mqtt.broker import Broker
from ecgmon.mqtt.client import MqttClient, MqttError
from ecgmon.store import RecordStore


@pytest.fixture
def broker(tmp_path):
    with RecordStore(tmp_path / "fixture-store") as store:
        sink = IngestionSink(store).start()
        b = Broker(port=0, sink=sink).start()
        yield b
        b.stop()
        sink.stop()


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


@pytest.mark.parametrize("broker_password,username,password", [
    (b"secret", "nurse", b"secret"),
    (b"secret", "clinic", None),
    (b"secret", "clinic", b"secreT"),       # as long as the right one
    (None, "clinic", b""),                  # an empty password is not a missing one
], ids=["wrong-user", "missing-password", "wrong-password", "empty-against-none"])
def test_refused_credentials_get_connack_4(broker, broker_password, username, password):
    broker.username, broker.password = "clinic", broker_password
    with socket.create_connection(("127.0.0.1", broker.port), timeout=5) as sock:
        sock.sendall(codec.encode_packet(codec.Connect("dev", 60, True, username, password)))
        assert read_packet(sock) == codec.Connack(False, broker_mod.CONNACK_BAD_CREDENTIALS)
        assert read_packet(sock, timeout=3.0) is None


def test_an_empty_client_id_needs_a_clean_session(broker):
    # 3.1.1 [MQTT-3.1.3-8]: refused with 0x02, identifier rejected, then closed
    with socket.create_connection(("127.0.0.1", broker.port), timeout=5) as sock:
        sock.sendall(codec.encode_packet(codec.Connect("", 60, False)))
        assert read_packet(sock) == codec.Connack(False, broker_mod.CONNACK_IDENTIFIER_REJECTED)
        assert read_packet(sock, timeout=3.0) is None
    # with CleanSession 1 the broker names the session itself
    with socket.create_connection(("127.0.0.1", broker.port), timeout=5) as sock:
        sock.sendall(codec.encode_packet(codec.Connect("", 60, True)))
        assert read_packet(sock) == codec.Connack(False, broker_mod.CONNACK_ACCEPTED)
        sock.sendall(codec.encode_packet(codec.Pingreq()))
        assert read_packet(sock) == codec.Pingresp()


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



def test_connection_without_connect_is_closed(broker, monkeypatch):
    monkeypatch.setattr(broker_mod, "CONNECT_TIMEOUT_S", 0.5)

    def connection_threads():
        return {t for t in threading.enumerate() if t.name.endswith("(_run)")}

    before = connection_threads()
    with socket.create_connection(("127.0.0.1", broker.port), timeout=5) as silent, \
            socket.create_connection(("127.0.0.1", broker.port), timeout=5) as partial, \
            raw_connect(broker.port, keep_alive=0) as sock:
        partial.sendall(codec.encode_packet(codec.Connect("partial", 60))[:6])
        assert wait_for(lambda: len(connection_threads() - before) == 3)
        threads = connection_threads() - before
        assert read_packet(silent, timeout=3.0) is None
        assert read_packet(partial, timeout=3.0) is None
        # a connected client with no keep-alive is not subject to the deadline
        sock.sendall(codec.encode_packet(codec.Pingreq()))
        assert isinstance(read_packet(sock), codec.Pingresp)
        assert wait_for(lambda: len(threads & connection_threads()) == 1)


# ------------------------------------------------------------- both doors

def start_door(door, store):
    """A started broker (over a sink of its own, not started) or gateway."""
    if door == "mqtt":
        return Broker(port=0, sink=IngestionSink(store)).start()
    return Gateway(store, GatewayConfig(http_port=0)).start()


def assert_door_answers(door, port):
    if door == "mqtt":
        MqttClient(client_id="probe").connect("127.0.0.1", port, timeout=2).disconnect()
        return
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=2)
    try:
        conn.request("GET", "/stats")
        assert conn.getresponse().status == 404
    finally:
        conn.close()


def accept_threads():
    return {t for t in threading.enumerate() if t.name.endswith("(_accept_loop)")}


class FailingAccept:
    """socket.accept, failing with EMFILE on its first call and on every one
    after it until `fail_s` seconds have passed since that first."""

    def __init__(self, fail_s):
        self.real = socket.socket.accept
        self.fail_s = fail_s
        self.failures = 0

    def __call__(self, sock):
        if not self.failures:
            self.until = time.monotonic() + self.fail_s
        if not self.failures or time.monotonic() < self.until:
            self.failures += 1
            raise OSError(errno.EMFILE, "Too many open files")
        return self.real(sock)


@pytest.mark.parametrize("fail_s", [0, 0.5], ids=["once", "for-half-a-second"])
@pytest.mark.parametrize("door", ["mqtt", "http"])
def test_accept_loop_survives_a_transient_accept_error(monkeypatch, tmp_path, door, fail_s):
    """An accept() that fails is retried 0.1 s later: a loop that retried at
    once would spin through about a million failed accepts a second."""
    failing = FailingAccept(fail_s)
    monkeypatch.setattr(socket.socket, "accept", lambda sock: failing(sock))
    with RecordStore(tmp_path / "telemetry") as store:
        server = start_door(door, store)
        try:
            # the answer comes only if the accept loop is still running
            assert_door_answers(door, server.port)
        finally:
            server.stop()
    assert 1 <= failing.failures <= 10


@pytest.mark.parametrize("door", ["mqtt", "http"])
def test_stop_of_an_idle_broker_returns_at_once(tmp_path, door):
    """stop() wakes the accept() waiting on the listener instead of
    waiting out a timeout or a poll interval."""
    before = accept_threads()
    stopping = 0.0
    with RecordStore(tmp_path / "telemetry") as store:
        for _ in range(5):
            server = start_door(door, store)
            time.sleep(0.05)    # into its accept()
            started = time.monotonic()
            server.stop()
            stopping += time.monotonic() - started
            assert accept_threads() - before == set()
    # waiting out five 0.25 s timeouts takes about 1 s, five 50 ms polls 0.25 s
    assert stopping < 0.1


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


def reader_threads():
    return {t for t in threading.enumerate() if t.name.endswith("(_run)")}


def test_idle_connections_wake_nothing(broker):
    """Each reader sleeps until bytes arrive or its own deadline passes, so
    50 idle clients, half with a 60 s keep-alive and half with none, cost
    no context switches and no CPU (a 0.25 s read poll would cost about
    400 switches and 1% of a core in these 2 s)."""
    socks = []
    try:
        for n in range(50):
            socks.append(raw_connect(broker.port, client_id=f"idle-{n}", keep_alive=60 * (n % 2)))
        time.sleep(0.1)     # each reader into its poll()
        before = resource.getrusage(resource.RUSAGE_SELF)
        time.sleep(2)
        after = resource.getrusage(resource.RUSAGE_SELF)
    finally:
        for sock in socks:
            sock.close()
    switches = after.ru_nvcsw + after.ru_nivcsw - before.ru_nvcsw - before.ru_nivcsw
    cpu_s = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
    assert switches < 100
    assert cpu_s / 2 < 0.002


def test_stop_ends_every_reader_at_once(tmp_path):
    """stop() shuts each connection down, which wakes its reader at once."""
    before = reader_threads()
    stopping = 0.0
    with RecordStore(tmp_path / "telemetry") as store:
        sink = IngestionSink(store)
        for _ in range(5):
            broker = Broker(port=0, sink=sink).start()
            socks = [raw_connect(broker.port, client_id=f"c{n}") for n in range(20)]
            try:
                assert wait_for(lambda: len(reader_threads() - before) == 20)
                readers = reader_threads() - before
                started = time.monotonic()
                broker.stop()
                for reader in readers:
                    reader.join(timeout=2)
                stopping += time.monotonic() - started
                assert reader_threads() - before == set()
            finally:
                for sock in socks:
                    sock.close()
    assert stopping < 0.25      # readers that wake every 0.25 s take about 1 s


def test_a_connect_sent_a_byte_at_a_time_is_closed_at_its_deadline(broker, monkeypatch):
    """The CONNECT deadline counts from accept, not from the last byte: a
    client that trickles one byte every 0.24 s is closed at 0.5 s.  A
    reader that checked the deadline only between reads would close it
    after its third byte, at about 0.72 s."""
    monkeypatch.setattr(broker_mod, "CONNECT_TIMEOUT_S", 0.5)
    connect = codec.encode_packet(codec.Connect("trickle", 60))
    with socket.create_connection(("127.0.0.1", broker.port), timeout=5) as sock:
        opened = time.monotonic()
        closed = threading.Event()

        def trickle():
            for byte in connect:
                try:
                    sock.sendall(bytes([byte]))
                except OSError:
                    return
                if closed.wait(0.24):
                    return

        sender = threading.Thread(target=trickle)
        sender.start()
        try:
            assert sock.recv(4096) == b""
            elapsed = time.monotonic() - opened
        finally:
            closed.set()
            sender.join(timeout=5)
    assert 0.45 < elapsed < 0.65


def test_a_publish_sent_a_byte_at_a_time_is_closed_at_its_keep_alive_deadline(broker):
    """The keep-alive window restarts on each whole packet (3.1.1
    §3.1.2.10), not on each byte: a client with a 1 s keep-alive that
    trickles a PUBLISH one byte every 0.4 s is closed 1.5 s after its
    CONNACK.  A reader that restarted the window on each receive would
    keep it open until the PUBLISH was whole, about 40 s later."""
    publish = codec.encode_packet(codec.Publish("clinic/p1/heartbeat", heartbeat(61), 1, 1))
    with raw_connect(broker.port, keep_alive=1) as sock:
        connacked = time.monotonic()
        closed = threading.Event()

        def trickle():
            for byte in publish:
                try:
                    sock.sendall(bytes([byte]))
                except OSError:
                    return
                if closed.wait(0.4):
                    return

        sender = threading.Thread(target=trickle)
        sender.start()
        try:
            sock.settimeout(4)
            assert sock.recv(4096) == b""
            elapsed = time.monotonic() - connacked
        finally:
            closed.set()
            sender.join(timeout=5)
    assert 1.2 < elapsed < 1.8


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


class FutureSink:
    """A sink that queues each submit's Future for the test to resolve."""

    def __init__(self):
        self.outcomes: queue.Queue = queue.Queue()

    def submit(self, topic, payload, message_id, abort=None):
        outcome = Future()
        self.outcomes.put(outcome)
        return outcome


def test_puback_follows_each_publish_outcome():
    """A StoreError outcome sends no PUBACK, so the publisher retransmits;
    a ValidationError outcome is acked (the message is dropped), and so is
    a stored one."""
    sink = FutureSink()
    broker = Broker(port=0, sink=sink).start()
    try:
        with raw_connect(broker.port) as sock:
            results = {1: store_mod.StoreError("disk full"),
                       2: store_mod.ValidationError("bpm", "out of range"), 3: 7}
            for pid, result in results.items():
                sock.sendall(codec.encode_packet(
                    codec.Publish("clinic/p1/heartbeat", heartbeat(60), 1, pid)))
                outcome = sink.outcomes.get(timeout=5)
                if isinstance(result, Exception):
                    outcome.set_exception(result)
                else:
                    outcome.set_result(result)
            sock.sendall(codec.encode_packet(codec.Pingreq()))
            assert read_packets_until(sock, codec.Pingresp) == [
                codec.Puback(2), codec.Puback(3), codec.Pingresp()]
    finally:
        broker.stop()


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



def test_restart_across_a_stalled_append_keeps_one_worker(tmp_path, monkeypatch):
    """stop() gives up on a worker stalled in an append; the next start()
    re-arms that worker, so one thread drains the queue, in order."""
    monkeypatch.setattr(ingest, "STOP_JOIN_S", 0.2)
    store = RecordStore(tmp_path / "telemetry")
    stalled, release = threading.Event(), threading.Event()
    append = store.append

    def stalling_append(*args, **kwargs):
        if not stalled.is_set():
            stalled.set()
            release.wait(10)
        return append(*args, **kwargs)

    def drain_threads():
        return {t for t in threading.enumerate() if t.name.endswith("(_drain)")}

    monkeypatch.setattr(store, "append", stalling_append)
    before = drain_threads()
    sink = IngestionSink(store).start()
    acked = []
    try:
        sink.submit("clinic/p1/heartbeat", heartbeat(60), None).add_done_callback(
            lambda _: acked.append(60))
        assert stalled.wait(5)
        sink.stop()
        sink.start()
        for bpm in range(61, 66):
            sink.submit("clinic/p1/heartbeat", heartbeat(bpm), None).add_done_callback(
                lambda _, bpm=bpm: acked.append(bpm))
        release.set()
        assert wait_for(lambda: len(acked) == 6)
        assert len(drain_threads() - before) == 1
        assert acked == list(range(60, 66))
        assert [d.payload["bpm"] for d in store.read_class("heartbeat")] == list(range(60, 66))
    finally:
        release.set()
        sink.stop()
        store.close()

def test_stop_returns_at_once_when_the_worker_is_idle(tmp_path):
    """stop() wakes a worker waiting on an empty queue instead of waiting
    out its poll; a restarted worker skips the wake-up and drains on."""
    store = RecordStore(tmp_path / "telemetry")
    sink = IngestionSink(store)
    try:
        stopping = 0.0
        for _ in range(5):
            worker = sink.start()._worker
            time.sleep(0.05)    # into its wait on the empty queue
            started = time.monotonic()
            sink.stop()
            stopping += time.monotonic() - started
            assert not worker.is_alive()
        assert stopping < 0.25      # waiting out five 0.2 s polls takes about 0.75 s
        outcome = sink.start().submit("clinic/p1/heartbeat", heartbeat(60), None)
        assert outcome.result(timeout=5) == 1
    finally:
        sink.stop()
        store.close()


def test_retransmit_after_sink_outage(broker, tmp_path, monkeypatch):
    """A stalled sink delays the PUBACK; the publisher retries with DUP
    and the message lands exactly once when the sink comes back."""
    store = RecordStore(tmp_path / "telemetry")
    monkeypatch.setattr(ingest, "QUEUE_SIZE", 4)
    sink = IngestionSink(store)
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


def test_redelivery_across_midnight_is_stored_once(broker, tmp_path, monkeypatch):
    """A message first stored 1 ms before UTC midnight and delivered again
    1 ms after it, because its PUBACK came late, is stored once."""
    store = RecordStore(tmp_path / "telemetry")
    midnight = 1_768_521_600_000                # 2026-01-16T00:00:00Z
    appends = []

    def clock():
        appends.append(None)
        return midnight - 1 if len(appends) == 1 else midnight + 1

    monkeypatch.setattr(store_mod, "_now_ms", clock)
    monkeypatch.setattr(ingest, "QUEUE_SIZE", 4)
    sink = IngestionSink(store)
    broker.sink = sink  # not started yet: the copies pile up in its queue
    try:
        with connected(broker, ack_timeout=0.3, max_retries=40) as client:
            publisher = threading.Thread(target=client.publish,
                                         args=("clinic/p1/heartbeat", heartbeat(72), 1))
            publisher.start()
            time.sleep(1.0)
            sink.start()
            publisher.join(timeout=10)
            assert not publisher.is_alive()
            assert wait_for(lambda: len(appends) >= 2)     # a copy appended after midnight
            assert [d.sequence for d in store.read_class("heartbeat", "p1")] == [1]
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


def test_deeply_nested_payload_is_acked_and_dropped(broker, tmp_path):
    # 200 kB under the packet cap, nested deeper than the JSON decoder recurses
    nested = b"[" * 100_000 + b"]" * 100_000
    store = RecordStore(tmp_path / "telemetry")
    sink = IngestionSink(store).start()
    broker.sink = sink
    try:
        with connected(broker) as client:
            client.publish("clinic/p1/heartbeat", nested, qos=1)
            client.publish("clinic/p1/heartbeat", heartbeat(61), qos=1)
            assert [d.payload["bpm"] for d in store.read_class("heartbeat")] == [61]
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
def scripted_broker(script, answer=codec.encode_packet(codec.Connack())):
    """A broker for one connection: it answers the CONNECT with `answer`'s
    bytes, then runs `script(conn, incoming)` on its own thread.  Yields
    the port."""
    with socket.create_server(("127.0.0.1", 0)) as listener:
        listener.settimeout(5)

        def serve():
            conn, _ = listener.accept()
            with conn:
                incoming = packets(conn)
                assert isinstance(next(incoming), codec.Connect)
                conn.sendall(answer)
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


@pytest.mark.parametrize("qos", [2, 7])
def test_publish_with_an_unsupported_qos_raises_before_sending(qos):
    received = []

    def script(conn, incoming):
        received.extend(incoming)

    with scripted_broker(script) as port:
        client = MqttClient(client_id="dev").connect("127.0.0.1", port)
        try:
            with pytest.raises(codec.ProtocolError, match="QoS"):
                client.publish("clinic/p1/heartbeat", b"{}", qos=qos)
        finally:
            client.disconnect()
    assert received == [codec.Disconnect()]


def read_until_closed(conn, incoming):
    list(incoming)


@pytest.mark.parametrize("answer,match", [
    (codec.encode_packet(codec.Pingresp()), "expected CONNACK, got Pingresp"),
    (b"", "timed out waiting for CONNACK"),
], ids=["not-a-connack", "no-connack"])
def test_connect_raises_without_a_connack(answer, match):
    with scripted_broker(read_until_closed, answer) as port:
        with pytest.raises(MqttError, match=match):
            MqttClient(client_id="dev").connect("127.0.0.1", port, timeout=0.5)


def test_connect_refuses_a_packet_over_the_bound():
    """A broker that announces a 200 MiB packet is refused on its header,
    at once, instead of being buffered until the CONNACK timeout."""
    answer = b"\x20" + codec.encode_remaining_length(200 * 2**20) + bytes(4096)
    with scripted_broker(read_until_closed, answer) as port:
        started = time.monotonic()
        with pytest.raises(MqttError, match="exceeds limit") as refused:
            MqttClient(client_id="dev").connect("127.0.0.1", port, timeout=2)
        assert time.monotonic() - started < 1
    assert isinstance(refused.value.__cause__, codec.PacketTooLarge)
