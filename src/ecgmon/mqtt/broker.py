"""Threaded MQTT broker for the supported 3.1.1 subset.

The broker accepts publishes only: every PUBLISH is handed to the
ingestion sink, and nothing is delivered to clients.  A SUBSCRIBE is
answered with the Failure return code (0x80) for each of its filters.
One reader thread per connection keeps each publisher's stream in order;
writes to a connection are serialized behind a per-connection lock,
because sink acks arrive from the sink's worker thread.  QoS 1 publishes
are acknowledged only after the attached ingestion sink has durably
recorded the message; without a sink they are acknowledged at once.
"""

from __future__ import annotations

import logging
import socket
import threading
import time
from typing import Optional

from . import codec
from .codec import (
    Connack,
    Connect,
    Disconnect,
    Pingreq,
    Pingresp,
    Puback,
    Publish,
    Suback,
    Subscribe,
)

__all__ = ["Broker"]

log = logging.getLogger("ecgmon.mqtt.broker")

MAX_PACKET_BYTES = 256 * 1024
CONNACK_ACCEPTED = 0x00
CONNACK_BAD_CREDENTIALS = 0x04
SUBACK_FAILURE = 0x80


class _Connection:
    def __init__(self, broker: "Broker", sock: socket.socket, addr):
        self.broker = broker
        self.sock = sock
        self.addr = addr
        self.client_id: Optional[str] = None
        self.keep_alive = 0
        self.closed = threading.Event()
        self._write_lock = threading.Lock()
        self.thread = threading.Thread(target=self._run, daemon=True)

    def start(self) -> None:
        self.thread.start()

    def send(self, packet) -> None:
        data = codec.encode_packet(packet)
        with self._write_lock:
            try:
                self.sock.sendall(data)
            except OSError:
                self.close()

    def close(self) -> None:
        if self.closed.is_set():
            return
        self.closed.set()
        try:
            self.sock.close()
        except OSError:
            pass
        self.broker._forget(self)

    # ------------------------------------------------------------ loop

    def _run(self) -> None:
        buf = bytearray()
        connected = False
        self.sock.settimeout(0.25)
        last_rx = time.monotonic()
        try:
            while not self.closed.is_set():
                try:
                    data = self.sock.recv(65536)
                except socket.timeout:
                    if connected and self.keep_alive:
                        if time.monotonic() - last_rx > 1.5 * self.keep_alive:
                            log.info("dropping idle client %s", self.client_id)
                            break
                    continue
                except OSError:
                    break
                if not data:
                    break
                last_rx = time.monotonic()
                buf.extend(data)
                while True:
                    try:
                        decoded = codec.decode_packet(buf, max_remaining=MAX_PACKET_BYTES)
                    except codec.ProtocolError as exc:
                        log.warning("protocol error from %s: %s", self.addr, exc)
                        return
                    if decoded is None:
                        break
                    packet, consumed = decoded
                    del buf[:consumed]
                    if not connected:
                        if not isinstance(packet, Connect):
                            log.warning("first packet from %s was %s, closing",
                                        self.addr, type(packet).__name__)
                            return
                        if not self._handle_connect(packet):
                            return
                        connected = True
                    elif not self._dispatch(packet):
                        return
        finally:
            self.close()

    def _handle_connect(self, packet: Connect) -> bool:
        if self.broker.username is not None:
            if packet.username != self.broker.username or \
                    packet.password != self.broker.password:
                self.send(Connack(False, CONNACK_BAD_CREDENTIALS))
                return False
        self.client_id = packet.client_id or f"anon-{id(self):x}"
        self.keep_alive = packet.keep_alive
        # Clean sessions only: a reconnect never resumes state, and a
        # duplicate client id evicts the older session.
        self.broker._register(self)
        self.send(Connack(session_present=False, return_code=CONNACK_ACCEPTED))
        return True

    def _dispatch(self, packet) -> bool:
        if isinstance(packet, Publish):
            self.broker._ingest(self, packet)
            return True
        if isinstance(packet, Subscribe):
            # no delivery to clients: every filter is refused (3.1.1 §3.9.3)
            self.send(Suback(packet.packet_id, (SUBACK_FAILURE,) * len(packet.topics)))
            return True
        if isinstance(packet, Pingreq):
            self.send(Pingresp())
            return True
        if isinstance(packet, Disconnect):
            return False
        if isinstance(packet, Connect):
            log.warning("second CONNECT from %s", self.client_id)
            return False
        log.warning("unexpected %s from client %s", type(packet).__name__, self.client_id)
        return False


class Broker:
    """TCP listener plus client registry and sink hand-off."""

    def __init__(self, host: str = "127.0.0.1", port: int = 1883,
                 sink=None, username: Optional[str] = None,
                 password: Optional[bytes] = None):
        self.host = host
        self._requested_port = port
        self.sink = sink
        self.username = username
        self.password = password
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._stopping = threading.Event()
        self._lock = threading.Lock()
        self._connections: list[_Connection] = []
        self._clients: dict[str, _Connection] = {}

    # --------------------------------------------------------- lifecycle

    def start(self) -> "Broker":
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self._requested_port))
        listener.listen(64)
        listener.settimeout(0.25)
        self._listener = listener
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept_thread.start()
        log.info("broker listening on %s:%d", self.host, self.port)
        return self

    @property
    def port(self) -> int:
        if self._listener is None:
            return self._requested_port
        return self._listener.getsockname()[1]

    def stop(self) -> None:
        self._stopping.set()
        if self._listener is not None:
            self._listener.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2)
        with self._lock:
            conns = list(self._connections)
        for conn in conns:
            conn.close()

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                sock, addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = _Connection(self, sock, addr)
            with self._lock:
                self._connections.append(conn)
            conn.start()

    # --------------------------------------------------------- registry

    def _register(self, conn: _Connection) -> None:
        with self._lock:
            older = self._clients.get(conn.client_id)
            self._clients[conn.client_id] = conn
        if older is not None and older is not conn:
            log.info("client id %s taken over, closing older session", conn.client_id)
            older.close()

    def _forget(self, conn: _Connection) -> None:
        with self._lock:
            if conn in self._connections:
                self._connections.remove(conn)
            if self._clients.get(conn.client_id) is conn:
                del self._clients[conn.client_id]

    # --------------------------------------------------------- data path

    def _ingest(self, conn: _Connection, packet: Publish) -> None:
        pid = packet.packet_id

        def ack() -> None:
            # QoS 0 publishes are ingested but have nothing to acknowledge
            if pid is not None and not conn.closed.is_set():
                conn.send(Puback(pid))

        if self.sink is None:
            ack()
            return
        # Blocking hand-off to the sink's bounded queue: a full queue
        # stalls this reader thread, which is the back-pressure path
        # (the publisher's ack is delayed, never dropped).
        self.sink.submit(packet.topic, packet.payload, pid, ack, abort=conn.closed)
