"""Blocking, publish-only MQTT client for one publishing thread.

A QoS 1 `publish` sends the PUBLISH, then reads the socket on the
calling thread until the PUBACK with its packet id arrives; any other
packet it reads (a PINGRESP, a late PUBACK for an earlier id) is
skipped.  When `ack_timeout` passes first, the packet is sent again with
DUP set.  When the connection has dropped, the old socket is closed and
the client reconnects with a clean session before it sends again.
After `max_retries` attempts `publish` raises MqttError.  The only
other thread is the pinger, which sends a PINGREQ every half keep-alive
period.  The store's dedup key (topic, message id, payload digest)
absorbs the duplicate deliveries these retries cause.
"""

from __future__ import annotations

import logging
import random
import select
import socket
import threading
import time
from typing import Optional

from . import codec
from .codec import Connack, Connect, Disconnect, Pingreq, Puback, Publish

__all__ = ["MqttClient", "MqttError"]

log = logging.getLogger("ecgmon.mqtt.client")

KEEP_ALIVE_S = 60


class MqttError(RuntimeError):
    pass


class MqttClient:
    def __init__(self, client_id: Optional[str] = None,
                 username: Optional[str] = None, password: Optional[bytes] = None,
                 ack_timeout: float = 1.0, max_retries: int = 30):
        self.client_id = client_id or f"ecgmon-{random.randrange(16**8):08x}"
        self.username = username
        self.password = password
        self.ack_timeout = ack_timeout
        self.max_retries = max_retries
        # Packet ids start at a random point, so a new session of the same
        # device rarely reuses an id the store saw today; a reused id is
        # only deduplicated when the payload repeats too.
        self._pid = random.randrange(1, 0x10000)
        self._sock: Optional[socket.socket] = None
        self._buf = bytearray()          # received bytes not yet decoded
        self._lock = threading.Lock()    # one writer at a time: publisher or pinger
        self._stop = threading.Event()
        self._pinger: Optional[threading.Thread] = None
        self._host = ""
        self._port = 0

    # --------------------------------------------------------- lifecycle

    def connect(self, host: str, port: int, timeout: float = 5.0) -> "MqttClient":
        self._host, self._port = host, port
        self._stop.clear()
        try:
            self._open(timeout)
        except BaseException:
            self._close()
            raise
        self._pinger = threading.Thread(target=self._ping_loop, daemon=True)
        self._pinger.start()
        return self

    def disconnect(self) -> None:
        self._stop.set()
        try:
            self._send(Disconnect())
        except MqttError:
            pass
        self._close()
        if self._pinger is not None and self._pinger is not threading.current_thread():
            self._pinger.join(timeout=2)

    # --------------------------------------------------------- publishing

    def publish(self, topic: str, payload: bytes, qos: int = 0) -> None:
        """Publish; for QoS 1 this blocks until the broker's PUBACK.

        Retries with DUP set after each ack timeout, reconnecting first
        when the connection has gone away; raises MqttError once the
        retry budget is spent.
        """
        if qos == 0:
            self._send(Publish(topic, payload, 0))
            return
        self._pid = self._pid % 0xFFFF + 1
        pid = self._pid
        packet = Publish(topic, payload, 1, pid)
        for _ in range(self.max_retries):
            if self._stop.is_set():
                break
            deadline = time.monotonic() + self.ack_timeout
            try:
                if self._sock is None:
                    self._open()
                self._send(packet)
                while (reply := self._read(deadline)) is not None:
                    if isinstance(reply, Puback) and reply.packet_id == pid:
                        return
            except (MqttError, OSError) as exc:
                log.info("publish of packet %d failed, reconnecting: %s", pid, exc)
                self._close()
                # at most one reconnect per ack timeout
                self._stop.wait(max(0.0, deadline - time.monotonic()))
            packet = Publish(topic, payload, 1, pid, dup=True)
        raise MqttError(f"no PUBACK for packet {pid} after {self.max_retries} attempts")

    # --------------------------------------------------------- internals

    def _open(self, timeout: float = 5.0) -> None:
        """Connect with a clean session and read the CONNACK, closing any
        socket left from before; the caller closes on an exception."""
        self._close()
        self._buf.clear()
        sock = socket.create_connection((self._host, self._port), timeout=timeout)
        connect = codec.encode_packet(Connect(self.client_id, KEEP_ALIVE_S, True,
                                              self.username, self.password))
        with self._lock:  # the CONNECT goes out before any PINGREQ
            self._sock = sock
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.sendall(connect)
        connack = self._read(time.monotonic() + timeout)
        if connack is None:
            raise MqttError("timed out waiting for CONNACK")
        if not isinstance(connack, Connack):
            raise MqttError(f"expected CONNACK, got {type(connack).__name__}")
        if connack.return_code != 0:
            raise MqttError(f"connection refused, return code {connack.return_code}")

    def _close(self) -> None:
        with self._lock:
            sock, self._sock = self._sock, None
        if sock is not None:
            sock.close()

    def _send(self, packet) -> None:
        data = codec.encode_packet(packet)
        with self._lock:
            if self._sock is None:
                raise MqttError("not connected")
            try:
                self._sock.sendall(data)
            except OSError as exc:
                raise MqttError(f"send failed: {exc}") from exc

    def _read(self, deadline: float):
        """The next packet from the broker, or None once `deadline` passes."""
        while True:
            try:
                decoded = codec.decode_packet(self._buf)
            except codec.ProtocolError as exc:
                raise MqttError(f"protocol error from broker: {exc}") from exc
            if decoded is not None:
                packet, consumed = decoded
                del self._buf[:consumed]
                return packet
            sock = self._sock
            if sock is None:
                raise MqttError("not connected")
            # poll, not a socket timeout: the pinger sends on this socket too
            poller = select.poll()
            poller.register(sock, select.POLLIN)
            wait_ms = (deadline - time.monotonic()) * 1000.0
            if wait_ms <= 0 or not poller.poll(wait_ms):
                return None
            try:
                data = sock.recv(65536)
            except OSError as exc:
                raise MqttError(f"receive failed: {exc}") from exc
            if not data:
                raise MqttError("connection closed by the broker")
            self._buf.extend(data)

    def _ping_loop(self) -> None:
        while not self._stop.wait(KEEP_ALIVE_S / 2.0):
            try:
                self._send(Pingreq())
            except MqttError:
                pass
