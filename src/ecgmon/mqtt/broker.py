"""Threaded MQTT broker for the supported 3.1.1 subset.

The broker accepts publishes only: every PUBLISH is handed to the
ingestion sink, and nothing is delivered to clients.  A SUBSCRIBE is
answered with the Failure return code (0x80) for each of its filters.
One reader thread per connection keeps each publisher's stream in order; it
sleeps in poll() until bytes arrive, its socket is shut down or its deadline
passes.  A QoS 1 publish is acked once the sink's Future for it resolves to
anything but a `StoreError`, from the sink's worker thread, so writes to a
connection are serialized behind a per-connection lock.
"""

from __future__ import annotations

import logging
import select
import socket
import threading
import time
from typing import Optional

from ..store import StoreError
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
CONNACK_IDENTIFIER_REJECTED = 0x02
CONNACK_BAD_CREDENTIALS = 0x04
SUBACK_FAILURE = 0x80
# a connection without a complete CONNECT by then is closed (3.1.1 §3.1.4)
CONNECT_TIMEOUT_S = 10


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
            self.sock.shutdown(socket.SHUT_RDWR)    # wakes the reader, which closes it
        except OSError:
            pass
        self.broker._forget(self)

    # ------------------------------------------------------------ loop

    def _run(self) -> None:
        buf = bytearray()
        connected = False
        self.sock.settimeout(0.25)      # bounds a send; a read waits in poll()
        poller = select.poll()
        poller.register(self.sock, select.POLLIN)
        deadline = time.monotonic() + CONNECT_TIMEOUT_S     # None: no keep-alive
        try:
            while True:
                wait = None if deadline is None else max(deadline - time.monotonic(), 0) * 1000
                if not poller.poll(wait):       # None waits for ever; poll(inf) would overflow
                    log.info("closing %s: %s", self.addr, "idle" if connected else "no CONNECT")
                    break
                try:
                    data = self.sock.recv(65536)
                except OSError:
                    break
                if not data:
                    break
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
                if connected:  # any traffic restarts the keep-alive window; 0 disables it
                    deadline = time.monotonic() + 1.5 * self.keep_alive if self.keep_alive else None
        finally:
            self.close()
            with self._write_lock:      # not under a PUBACK being sent
                self.sock.close()

    def _handle_connect(self, packet: Connect) -> bool:
        if not packet.client_id and not packet.clean_session:   # 3.1.1 [MQTT-3.1.3-8]
            self.send(Connack(False, CONNACK_IDENTIFIER_REJECTED))
            return False
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

    def __init__(self, host: str = "127.0.0.1", port: int = 1883, *,
                 sink, username: Optional[str] = None,
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
        # SO_REUSEADDR set, and the socket closed if the port is taken
        self._listener = socket.create_server((self.host, self._requested_port), backlog=64)
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
        if self._listener is not None and self._listener.fileno() != -1:
            self._listener.shutdown(socket.SHUT_RDWR)   # wakes accept(), which close() does not
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
            except OSError as exc:
                if not self._stopping.is_set():     # stop() shuts the listener down
                    log.warning("accept failed, retrying: %s", exc)   # EMFILE, say
                    self._stopping.wait(0.1)
                continue
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

        def ack(outcome) -> None:
            # an invalid payload is acked and dropped; a storage failure is
            # not acked, so the publisher retransmits
            if not isinstance(outcome.exception(), StoreError) and not conn.closed.is_set():
                conn.send(Puback(pid))

        # Blocking hand-off to the sink's bounded queue: a full queue
        # stalls this reader thread, which is the back-pressure path
        # (the publisher's ack is delayed, never dropped).
        outcome = self.sink.submit(packet.topic, packet.payload, pid, abort=conn.closed)
        if outcome is not None and pid is not None:     # QoS 0: nothing to acknowledge
            outcome.add_done_callback(ack)
