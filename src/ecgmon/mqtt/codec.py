"""MQTT 3.1.1 wire codec for the nine packet types the system uses.

Bit layout follows the public 3.1.1 standard: one fixed-header byte
(type in the high nibble, flags in the low), a base-128 variable-length
remaining-length field, then the type-specific variable header and
payload.  A packet checks its own fields when built, so `encode_packet`
only lays out bytes and a decoder checks only what the wire shows.  QoS
2, retained delivery and wills are outside the subset; packets
requesting them are protocol errors.  CleanSession 0 is accepted and
served as a clean session, with CONNACK session-present 0.  `next_packet`
is the one read loop of the broker and the client alike.
"""

from __future__ import annotations

import select
import struct
import time
from dataclasses import dataclass
from enum import IntEnum
from typing import Optional, Union

__all__ = [
    "PacketType",
    "ProtocolError",
    "PacketTooLarge",
    "Connect",
    "Connack",
    "Publish",
    "Puback",
    "Subscribe",
    "Suback",
    "Pingreq",
    "Pingresp",
    "Disconnect",
    "Packet",
    "encode_remaining_length",
    "decode_remaining_length",
    "encode_packet",
    "decode_packet",
    "next_packet",
]

MAX_REMAINING_LENGTH = 268_435_455
MAX_PACKET_BYTES = 256 * 1024      # the largest remaining length either end accepts
_PACKET_IDS = range(1, 0x10000)


class ProtocolError(ValueError):
    """Malformed or out-of-subset packet data."""


class PacketTooLarge(ProtocolError):
    """Remaining length exceeds MAX_PACKET_BYTES."""


class PacketType(IntEnum):
    CONNECT = 1
    CONNACK = 2
    PUBLISH = 3
    PUBACK = 4
    SUBSCRIBE = 8
    SUBACK = 9
    PINGREQ = 12
    PINGRESP = 13
    DISCONNECT = 14


@dataclass(frozen=True)
class Connect:
    client_id: str
    keep_alive: int = 60
    clean_session: bool = True
    username: Optional[str] = None
    password: Optional[bytes] = None

    def __post_init__(self) -> None:
        _check_string(self.client_id, "client id")
        _check_int(self.keep_alive, range(0x10000), "keep-alive")
        if self.username is not None:
            _check_string(self.username, "username")
        if self.password is not None:
            if self.username is None:
                raise ProtocolError("password requires a username")
            if not isinstance(self.password, (bytes, bytearray)) or len(self.password) > 0xFFFF:
                raise ProtocolError("password must be bytes, at most 65535 of them")


@dataclass(frozen=True)
class Connack:
    session_present: bool = False
    return_code: int = 0

    def __post_init__(self) -> None:
        _check_int(self.return_code, range(0x100), "CONNACK return code")


@dataclass(frozen=True)
class Publish:
    topic: str
    payload: bytes = b""
    qos: int = 0
    packet_id: Optional[int] = None
    dup: bool = False

    def __post_init__(self) -> None:
        _check_string(self.topic, "publish topic")
        if not self.topic:
            raise ProtocolError("publish topic must be non-empty")
        if "+" in self.topic or "#" in self.topic:
            raise ProtocolError("publish topic must not contain wildcards")
        _check_int(self.qos, (0, 1), "QoS")
        if self.qos:
            _check_int(self.packet_id, _PACKET_IDS, "QoS 1 publish packet id")
        elif self.packet_id is not None:
            raise ProtocolError("QoS 0 publish must not carry a packet id")
        elif self.dup:
            raise ProtocolError("DUP must be zero for QoS 0 publishes")
        if not isinstance(self.payload, (bytes, bytearray)):
            raise ProtocolError("publish payload must be bytes")


@dataclass(frozen=True)
class Puback:
    packet_id: int

    def __post_init__(self) -> None:
        _check_int(self.packet_id, _PACKET_IDS, "PUBACK packet id")


@dataclass(frozen=True)
class Subscribe:
    packet_id: int
    topics: tuple[tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        _check_int(self.packet_id, _PACKET_IDS, "SUBSCRIBE packet id")
        if not self.topics:
            raise ProtocolError("SUBSCRIBE requires at least one topic filter")
        for topic_filter, qos in self.topics:
            _check_string(topic_filter, "topic filter")
            if not topic_filter:
                raise ProtocolError("empty topic filter")
            _check_int(qos, (0, 1), "QoS")


@dataclass(frozen=True)
class Suback:
    packet_id: int
    return_codes: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        _check_int(self.packet_id, _PACKET_IDS, "SUBACK packet id")
        for rc in self.return_codes:
            _check_int(rc, (0x00, 0x01, 0x80), "SUBACK return code")


@dataclass(frozen=True)
class Pingreq:
    pass


@dataclass(frozen=True)
class Pingresp:
    pass


@dataclass(frozen=True)
class Disconnect:
    pass


Packet = Union[Connect, Connack, Publish, Puback, Subscribe, Suback,
               Pingreq, Pingresp, Disconnect]


# ---------------------------------------------------------------- varint

def encode_remaining_length(n: int) -> bytes:
    """Base-128 little-endian varint, continuation bit on all but the last byte."""
    if not 0 <= n <= MAX_REMAINING_LENGTH:
        raise ProtocolError(f"remaining length {n} out of range")
    out = bytearray()
    while True:
        n, digit = divmod(n, 128)
        if n:
            out.append(digit | 0x80)
        else:
            out.append(digit)
            return bytes(out)


def decode_remaining_length(buf, offset: int = 0) -> Optional[tuple[int, int]]:
    """Decode a varint at `offset`; returns (value, bytes consumed).

    Returns None when the buffer ends mid-varint (need more bytes);
    raises ProtocolError when a fifth continuation byte appears.
    """
    value = 0
    multiplier = 1
    for i in range(4):
        if offset + i >= len(buf):
            return None
        byte = buf[offset + i]
        value += (byte & 0x7F) * multiplier
        if not byte & 0x80:
            return value, i + 1
        multiplier *= 128
    raise ProtocolError("malformed remaining length (more than 4 bytes)")


# ---------------------------------------------------------------- fields

def _encode_string(s: str) -> bytes:
    data = s.encode("utf-8")
    return struct.pack(">H", len(data)) + data


def _check_int(value, allowed, what: str) -> None:
    if not isinstance(value, int) or value not in allowed:
        raise ProtocolError(f"invalid {what} {value!r}")


def _check_string(value, what: str) -> None:
    """A length-prefixed field: a str of at most 65535 UTF-8 bytes."""
    try:
        ok = isinstance(value, str) and len(value.encode("utf-8")) <= 0xFFFF
    except UnicodeEncodeError:  # a lone surrogate
        ok = False
    if not ok:
        raise ProtocolError(f"{what} must be a str of at most 65535 UTF-8 bytes")


def _read_bytes(body: bytes, i: int) -> tuple[bytes, int]:
    if i + 2 > len(body):
        raise ProtocolError("truncated length-prefixed field")
    (length,) = struct.unpack_from(">H", body, i)
    i += 2
    if i + length > len(body):
        raise ProtocolError("truncated length-prefixed field")
    return body[i:i + length], i + length


def _read_packet_id(body: bytes, i: int, kind: str) -> tuple[int, int]:
    if i + 2 > len(body):
        raise ProtocolError(f"truncated {kind} packet id")
    return struct.unpack_from(">H", body, i)[0], i + 2


def _read_string(body: bytes, i: int) -> tuple[str, int]:
    raw, i = _read_bytes(body, i)
    try:
        return raw.decode("utf-8"), i
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"malformed UTF-8 string: {exc}") from exc


# ---------------------------------------------------------------- encode

def encode_packet(p: Packet) -> bytes:
    """Lay out a packet, whose fields were checked when it was built, as its wire bytes."""
    if isinstance(p, Connect):
        flags = 0x02 if p.clean_session else 0x00
        payload = _encode_string(p.client_id)
        if p.username is not None:
            flags |= 0x80
            payload += _encode_string(p.username)
        if p.password is not None:
            flags |= 0x40
            payload += struct.pack(">H", len(p.password)) + p.password
        vh = _encode_string("MQTT") + bytes([4, flags]) + struct.pack(">H", p.keep_alive)
        return _fixed(PacketType.CONNECT, 0, vh + payload)

    if isinstance(p, Connack):
        return _fixed(PacketType.CONNACK, 0, bytes([1 if p.session_present else 0, p.return_code]))

    if isinstance(p, Publish):
        vh = _encode_string(p.topic)
        if p.qos:
            vh += struct.pack(">H", p.packet_id)
        return _fixed(PacketType.PUBLISH, (0x08 if p.dup else 0) | (p.qos << 1), vh + p.payload)

    if isinstance(p, Puback):
        return _fixed(PacketType.PUBACK, 0, struct.pack(">H", p.packet_id))

    if isinstance(p, Subscribe):
        body = struct.pack(">H", p.packet_id)
        for topic_filter, qos in p.topics:
            body += _encode_string(topic_filter) + bytes([qos])
        return _fixed(PacketType.SUBSCRIBE, 0x02, body)

    if isinstance(p, Suback):
        return _fixed(PacketType.SUBACK, 0, struct.pack(">H", p.packet_id) + bytes(p.return_codes))

    if isinstance(p, Pingreq):
        return _fixed(PacketType.PINGREQ, 0, b"")
    if isinstance(p, Pingresp):
        return _fixed(PacketType.PINGRESP, 0, b"")
    if isinstance(p, Disconnect):
        return _fixed(PacketType.DISCONNECT, 0, b"")

    raise ProtocolError(f"cannot encode object of type {type(p).__name__}")


def _fixed(ptype: PacketType, flags: int, rest: bytes) -> bytes:
    return bytes([(ptype << 4) | flags]) + encode_remaining_length(len(rest)) + rest


# ---------------------------------------------------------------- decode

def decode_packet(buf) -> Optional[tuple[Packet, int]]:
    """Decode one packet from the front of `buf`.

    Returns (packet, bytes consumed), leaving any trailing bytes for the
    caller, or None when the buffer does not yet hold a complete packet.
    Malformed data raises ProtocolError; a remaining length above
    MAX_PACKET_BYTES raises PacketTooLarge before the body arrives.
    """
    if len(buf) < 2:
        return None
    header = buf[0]
    ptype = header >> 4
    flags = header & 0x0F
    # reject a bogus type byte up front rather than waiting on a body
    # that will never arrive
    try:
        kind = PacketType(ptype)
    except ValueError:
        raise ProtocolError(f"unknown packet type {ptype}") from None
    decoded = decode_remaining_length(buf, 1)
    if decoded is None:
        return None
    remaining, rl_bytes = decoded
    if remaining > MAX_PACKET_BYTES:
        raise PacketTooLarge(f"remaining length {remaining} exceeds limit {MAX_PACKET_BYTES}")
    total = 1 + rl_bytes + remaining
    if len(buf) < total:
        return None
    body = bytes(buf[1 + rl_bytes:total])

    return _DECODERS[kind](flags, body), total


def next_packet(sock, buf: bytearray, deadline: Optional[float]) -> Optional[Packet]:
    """Take the next packet off the front of `buf`, which holds the bytes
    received from `sock` and not yet decoded, receiving into it as needed.

    Returns None once the `time.monotonic()` `deadline` passes (None waits
    for ever).  Raises EOFError when the peer closes, OSError when a
    receive fails, and ProtocolError as `decode_packet` does.
    """
    poller = select.poll()
    poller.register(sock, select.POLLIN)
    while (decoded := decode_packet(buf)) is None:
        wait = None if deadline is None else max(deadline - time.monotonic(), 0) * 1000
        if not poller.poll(wait):       # None waits for ever; poll(inf) would overflow
            return None
        data = sock.recv(65536)
        if not data:
            raise EOFError("connection closed by the peer")
        buf.extend(data)
    packet, consumed = decoded
    del buf[:consumed]
    return packet


def _expect_flags(flags: int, expected: int, kind: str) -> None:
    if flags != expected:
        raise ProtocolError(f"{kind} flags must be {expected:#06b}, got {flags:#06b}")


def _decode_connect(flags: int, body: bytes) -> Connect:
    _expect_flags(flags, 0, "CONNECT")
    name, i = _read_string(body, 0)
    if name != "MQTT":
        raise ProtocolError(f"unsupported protocol name {name!r}")
    if i + 4 > len(body):
        raise ProtocolError("truncated CONNECT variable header")
    level = body[i]
    cflags = body[i + 1]
    (keep_alive,) = struct.unpack_from(">H", body, i + 2)
    i += 4
    if level != 4:
        raise ProtocolError(f"unsupported protocol level {level}")
    if cflags & 0x01:
        raise ProtocolError("CONNECT reserved flag must be zero")
    # the will flag, and Will QoS and Will Retain: zero without it (MQTT-3.1.2-13, -15)
    if cflags & 0x3C:
        raise ProtocolError("will messages are outside the supported subset")
    client_id, i = _read_string(body, i)
    username = password = None
    if cflags & 0x80:
        username, i = _read_string(body, i)
    if cflags & 0x40:
        password, i = _read_bytes(body, i)
    if i != len(body):
        raise ProtocolError("trailing bytes after CONNECT payload")
    return Connect(client_id, keep_alive, bool(cflags & 0x02), username, password)


def _decode_connack(flags: int, body: bytes) -> Connack:
    _expect_flags(flags, 0, "CONNACK")
    if len(body) != 2:
        raise ProtocolError("CONNACK body must be exactly 2 bytes")
    if body[0] & 0xFE:
        raise ProtocolError("CONNACK acknowledge flags reserved bits set")
    return Connack(session_present=bool(body[0] & 0x01), return_code=body[1])


def _decode_publish(flags: int, body: bytes) -> Publish:
    if flags & 0x01:
        raise ProtocolError("retained publishes are not supported")
    qos = (flags >> 1) & 0x03
    topic, i = _read_string(body, 0)
    packet_id = None
    if qos:
        packet_id, i = _read_packet_id(body, i, "PUBLISH")
    return Publish(topic, body[i:], qos, packet_id, bool(flags & 0x08))


def _decode_puback(flags: int, body: bytes) -> Puback:
    _expect_flags(flags, 0, "PUBACK")
    if len(body) != 2:
        raise ProtocolError("PUBACK body must be exactly 2 bytes")
    return Puback(*struct.unpack(">H", body))


def _decode_subscribe(flags: int, body: bytes) -> Subscribe:
    _expect_flags(flags, 0x02, "SUBSCRIBE")
    packet_id, i = _read_packet_id(body, 0, "SUBSCRIBE")
    topics = []
    while i < len(body):
        topic_filter, i = _read_string(body, i)
        if i >= len(body):
            raise ProtocolError("topic filter without requested QoS byte")
        topics.append((topic_filter, body[i]))
        i += 1
    return Subscribe(packet_id, tuple(topics))


def _decode_suback(flags: int, body: bytes) -> Suback:
    _expect_flags(flags, 0, "SUBACK")
    packet_id, i = _read_packet_id(body, 0, "SUBACK")
    return Suback(packet_id, tuple(body[i:]))


def _decode_empty(flags: int, body: bytes, kind: str, cls) -> Packet:
    _expect_flags(flags, 0, kind)
    if body:
        raise ProtocolError(f"{kind} must have an empty body")
    return cls()


_DECODERS = {
    PacketType.CONNECT: _decode_connect,
    PacketType.CONNACK: _decode_connack,
    PacketType.PUBLISH: _decode_publish,
    PacketType.PUBACK: _decode_puback,
    PacketType.SUBSCRIBE: _decode_subscribe,
    PacketType.SUBACK: _decode_suback,
    PacketType.PINGREQ: lambda f, b: _decode_empty(f, b, "PINGREQ", Pingreq),
    PacketType.PINGRESP: lambda f, b: _decode_empty(f, b, "PINGRESP", Pingresp),
    PacketType.DISCONNECT: lambda f, b: _decode_empty(f, b, "DISCONNECT", Disconnect),
}
