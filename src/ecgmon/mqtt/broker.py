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
import socket
import threading
import time
from _operator import _compare_digest
from typing import Optional

from ..ingest import Listener
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

CONNACK_ACCEPTED = 0x00
CONNACK_IDENTIFIER_REJECTED = 0x02
CONNACK_BAD_CREDENTIALS = 0x04
SUBACK_FAILURE = 0x80
# a connection without a complete CONNECT by then is closed (3.1.1 §3.1.4)
CONNECT_TIMEOUT_S = 10


def _same(given, expected) -> bool:
    """Whether two credentials, each None, a str or bytes, are equal, in a
    time that does not depend on where they differ; None equals only None."""
    if given is None or expected is None:
        return given is expected
    as_bytes = [v.encode("utf-8") if isinstance(v, str) else v for v in (given, expected)]
    # the C function hmac.compare_digest is, without hmac's import of hashlib
    # and OpenSSL
    return _compare_digest(*as_bytes)


class _Connection:
    def __init__(self, broker: "Broker", sock: socket.socket, addr):
        self.broker = broker
        self.sock = sock
        self.addr = addr
        self.client_id: Optional[str] = None
        self.keep_alive = 0
        self.closed = threading.Event()
        self._write_lock = threading.Lock()

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
        self.sock.settimeout(0.25)      # bounds a send; a read waits in poll()
        deadline = time.monotonic() + CONNECT_TIMEOUT_S     # None: no keep-alive
        try:
            while True:
                try:
                    packet = codec.next_packet(self.sock, buf, deadline)
                except (EOFError, OSError):
                    break
                except codec.ProtocolError as exc:
                    log.warning("protocol error from %s: %s", self.addr, exc)
                    break
                if packet is None:
                    log.info("closing %s: %s", self.addr, "idle" if self.client_id else "no CONNECT")
                    break
                if self.client_id is None:
                    if not isinstance(packet, Connect):
                        log.warning("first packet from %s was %s, closing",
                                    self.addr, type(packet).__name__)
                        break
                    if not self._handle_connect(packet):
                        break
                elif not self._dispatch(packet):
                    break
                # each whole packet restarts the keep-alive window (3.1.1 §3.1.2.10); 0 disables it
                deadline = time.monotonic() + 1.5 * self.keep_alive if self.keep_alive else None
        finally:
            self.close()
            with self._write_lock:      # not under a PUBACK being sent
                self.sock.close()

    def _handle_connect(self, packet: Connect) -> bool:
        if not packet.client_id and not packet.clean_session:   # 3.1.1 [MQTT-3.1.3-8]
            self.send(Connack(False, CONNACK_IDENTIFIER_REJECTED))
            return False
        if self.broker.username is not None and not (
                _same(packet.username, self.broker.username)
                & _same(packet.password, self.broker.password)):    # both compared, always
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
    """Client registry and sink hand-off behind a `Listener`."""

    def __init__(self, host: str = "127.0.0.1", port: int = 1883, *,
                 sink, username: Optional[str] = None,
                 password: Optional[bytes] = None):
        self.host = host
        self.port = port    # the bound one once started
        self.sink = sink
        self.username = username
        self.password = password
        self._listener: Optional[Listener] = None
        self._lock = threading.Lock()
        self._clients: dict[str, _Connection] = {}

    # --------------------------------------------------------- lifecycle

    def start(self) -> "Broker":
        self._listener = Listener(self.host, self.port,
                                  lambda sock, addr: _Connection(self, sock, addr)._run())
        self.port = self._listener.port
        log.info("broker listening on %s:%d", self.host, self.port)
        return self

    def stop(self) -> None:
        if self._listener is not None:
            self._listener.stop()
        # a reader blocked in sink.submit() sees its connection closed and gives up
        with self._lock:
            clients = list(self._clients.values())
        for conn in clients:
            conn.close()

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
