"""Blocking, publish-only MQTT client used by device agents, tools and tests.

QoS 1 publishes wait for the PUBACK and retransmit with the DUP flag
after an ack timeout; if the connection drops, the client reconnects
(clean session) and retransmits everything still unacknowledged.  The
store's dedup key (topic, message id, payload digest) absorbs the
duplicate deliveries these retries cause.
"""

from __future__ import annotations

import logging
import random
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
)

__all__ = ["MqttClient", "MqttError"]

log = logging.getLogger("ecgmon.mqtt.client")


class MqttError(RuntimeError):
    pass


class MqttClient:
    def __init__(self, client_id: Optional[str] = None, keep_alive: int = 60,
                 username: Optional[str] = None, password: Optional[bytes] = None,
                 ack_timeout: float = 1.0, max_retries: int = 30):
        self.client_id = client_id or f"ecgmon-{random.randrange(16**8):08x}"
        self.keep_alive = keep_alive
        self.username = username
        self.password = password
        self.ack_timeout = ack_timeout
        self.max_retries = max_retries
        # Packet ids start at a random point, so a new session of the same
        # device rarely reuses an id the store saw today; a reused id is
        # only deduplicated when the payload repeats too.
        self._pid = random.randrange(1, 0x10000)
        self._sock: Optional[socket.socket] = None
        self._lock = threading.RLock()
        self._connected = threading.Event()
        self._stop = threading.Event()
        self._reader: Optional[threading.Thread] = None
        self._pinger: Optional[threading.Thread] = None
        self._connack: Optional[Connack] = None
        self._connack_event = threading.Event()
        self._acks: dict[int, threading.Event] = {}
        self._pending: dict[int, Publish] = {}      # unacknowledged QoS 1 publishes
        self._host = ""
        self._port = 0

    # --------------------------------------------------------- lifecycle

    def connect(self, host: str, port: int, timeout: float = 5.0) -> "MqttClient":
        self._host, self._port = host, port
        self._stop.clear()
        self._open_socket(timeout)
        self._reader = threading.Thread(target=self._read_loop, daemon=True)
        self._reader.start()
        if not self._connack_event.wait(timeout):
            self.disconnect()
            raise MqttError("timed out waiting for CONNACK")
        if self._connack.return_code != 0:
            self.disconnect()
            raise MqttError(f"connection refused, return code {self._connack.return_code}")
        self._connected.set()
        if self.keep_alive > 0:
            self._pinger = threading.Thread(target=self._ping_loop, daemon=True)
            self._pinger.start()
        return self

    def _open_socket(self, timeout: float = 5.0) -> None:
        sock = socket.create_connection((self._host, self._port), timeout=timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(0.25)
        with self._lock:
            self._sock = sock
            self._connack = None
            self._connack_event.clear()
        self._send(Connect(self.client_id, self.keep_alive, True,
                           self.username, self.password))

    def disconnect(self) -> None:
        self._stop.set()
        try:
            if self._connected.is_set():
                self._send(Disconnect())
        except MqttError:
            pass
        self._connected.clear()
        with self._lock:
            if self._sock is not None:
                try:
                    self._sock.close()
                except OSError:
                    pass
                self._sock = None
        if self._reader is not None and self._reader is not threading.current_thread():
            self._reader.join(timeout=2)

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
        pid = self._next_pid()
        packet = Publish(topic, payload, 1, pid)
        event = threading.Event()
        with self._lock:
            self._acks[pid] = event
            self._pending[pid] = packet
        try:
            self._send(packet)
        except MqttError:
            pass  # fall through to the retry loop
        for _ in range(self.max_retries):
            if event.wait(self.ack_timeout):
                return
            if self._stop.is_set():
                break
            retry = Publish(topic, payload, 1, pid, dup=True)
            with self._lock:
                self._pending[pid] = retry
            try:
                if not self._connected.is_set():
                    self._reconnect()
                else:
                    self._send(retry)
            except (MqttError, OSError):
                time.sleep(self.ack_timeout)
        with self._lock:
            self._acks.pop(pid, None)
            self._pending.pop(pid, None)
        raise MqttError(f"no PUBACK for packet {pid} after {self.max_retries} attempts")

    # --------------------------------------------------------- internals

    def _next_pid(self) -> int:
        with self._lock:
            for _ in range(0x10000):
                self._pid = self._pid % 0xFFFF + 1
                if self._pid not in self._pending:
                    return self._pid
        raise MqttError("no free packet ids")

    def _send(self, packet) -> None:
        data = codec.encode_packet(packet)
        with self._lock:
            sock = self._sock
            if sock is None:
                raise MqttError("not connected")
            try:
                sock.sendall(data)
            except OSError as exc:
                self._connected.clear()
                raise MqttError(f"send failed: {exc}") from exc

    def _reconnect(self) -> None:
        self._open_socket()
        if not self._connack_event.wait(5.0):
            raise MqttError("timed out waiting for CONNACK on reconnect")
        if self._connack.return_code != 0:
            raise MqttError(f"reconnect refused, return code {self._connack.return_code}")
        self._connected.set()
        with self._lock:
            pending = list(self._pending.values())
        for packet in pending:
            self._send(Publish(packet.topic, packet.payload, 1, packet.packet_id, dup=True))

    def _read_loop(self) -> None:
        buf = bytearray()
        while not self._stop.is_set():
            with self._lock:
                sock = self._sock
            if sock is None:
                time.sleep(0.05)
                continue
            try:
                data = sock.recv(65536)
            except socket.timeout:
                continue
            except OSError:
                self._connected.clear()
                buf.clear()
                time.sleep(0.05)
                continue
            if not data:
                self._connected.clear()
                buf.clear()
                time.sleep(0.05)
                continue
            buf.extend(data)
            while True:
                try:
                    decoded = codec.decode_packet(buf)
                except codec.ProtocolError as exc:
                    log.warning("protocol error from broker: %s", exc)
                    self._connected.clear()
                    buf.clear()
                    break
                if decoded is None:
                    break
                packet, consumed = decoded
                del buf[:consumed]
                self._handle(packet)

    def _handle(self, packet) -> None:
        if isinstance(packet, Connack):
            self._connack = packet
            self._connack_event.set()
        elif isinstance(packet, Puback):
            with self._lock:
                event = self._acks.pop(packet.packet_id, None)
                self._pending.pop(packet.packet_id, None)
            if event is not None:
                event.set()
        elif isinstance(packet, Pingresp):
            pass
        else:
            log.warning("unexpected %s from broker", type(packet).__name__)

    def _ping_loop(self) -> None:
        interval = max(self.keep_alive / 2.0, 0.5)
        while not self._stop.is_set():
            if self._stop.wait(interval):
                break
            if self._connected.is_set():
                try:
                    self._send(Pingreq())
                except MqttError:
                    pass
