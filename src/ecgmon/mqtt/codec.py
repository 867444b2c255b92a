"""MQTT 3.1.1 wire codec for the nine packet types the system uses.

Bit layout follows the public 3.1.1 standard: one fixed-header byte
(type in the high nibble, flags in the low), a base-128 variable-length
remaining-length field, then the type-specific variable header and
payload.  QoS 2, retained delivery, wills and persistent sessions are
outside the subset; packets requesting them are protocol errors.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
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
]

MAX_REMAINING_LENGTH = 268_435_455


class ProtocolError(ValueError):
    """Malformed or out-of-subset packet data."""


class PacketTooLarge(ProtocolError):
    """Remaining length exceeds the configured maximum packet size."""


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


@dataclass(frozen=True)
class Connack:
    session_present: bool = False
    return_code: int = 0


@dataclass(frozen=True)
class Publish:
    topic: str
    payload: bytes = b""
    qos: int = 0
    packet_id: Optional[int] = None
    dup: bool = False


@dataclass(frozen=True)
class Puback:
    packet_id: int


@dataclass(frozen=True)
class Subscribe:
    packet_id: int
    topics: tuple[tuple[str, int], ...] = ()


@dataclass(frozen=True)
class Suback:
    packet_id: int
    return_codes: tuple[int, ...] = ()


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


# ---------------------------------------------------------------- strings

def _encode_string(s: str) -> bytes:
    data = s.encode("utf-8")
    if len(data) > 0xFFFF:
        raise ProtocolError("string longer than 65535 bytes")
    return struct.pack(">H", len(data)) + data


def _read_bytes(body: bytes, i: int) -> tuple[bytes, int]:
    if i + 2 > len(body):
        raise ProtocolError("truncated length-prefixed field")
    (length,) = struct.unpack_from(">H", body, i)
    i += 2
    if i + length > len(body):
        raise ProtocolError("truncated length-prefixed field")
    return body[i:i + length], i + length


def _read_string(body: bytes, i: int) -> tuple[str, int]:
    raw, i = _read_bytes(body, i)
    try:
        return raw.decode("utf-8"), i
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"malformed UTF-8 string: {exc}") from exc


def _check_qos(qos: int) -> None:
    if qos == 2:
        raise ProtocolError("QoS 2 is outside the supported subset")
    if qos not in (0, 1):
        raise ProtocolError(f"invalid QoS {qos}")


def _check_publish_topic(topic: str) -> None:
    if not topic:
        raise ProtocolError("publish topic must be non-empty")
    if "+" in topic or "#" in topic:
        raise ProtocolError("publish topic must not contain wildcards")


# ---------------------------------------------------------------- encode

def encode_packet(p: Packet) -> bytes:
    """Serialize a packet to its exact wire bytes."""
    if isinstance(p, Connect):
        flags = 0x02 if p.clean_session else 0x00
        payload = _encode_string(p.client_id)
        if p.username is not None:
            flags |= 0x80
            payload += _encode_string(p.username)
            if p.password is not None:
                flags |= 0x40
                if len(p.password) > 0xFFFF:
                    raise ProtocolError("password longer than 65535 bytes")
                payload += struct.pack(">H", len(p.password)) + p.password
        elif p.password is not None:
            raise ProtocolError("password requires a username")
        if not 0 <= p.keep_alive <= 0xFFFF:
            raise ProtocolError("keep_alive out of range")
        vh = _encode_string("MQTT") + bytes([4, flags]) + struct.pack(">H", p.keep_alive)
        return _fixed(PacketType.CONNECT, 0, vh + payload)

    if isinstance(p, Connack):
        vh = bytes([1 if p.session_present else 0, p.return_code])
        return _fixed(PacketType.CONNACK, 0, vh)

    if isinstance(p, Publish):
        _check_publish_topic(p.topic)
        _check_qos(p.qos)
        flags = (0x08 if p.dup else 0) | (p.qos << 1)
        vh = _encode_string(p.topic)
        if p.qos > 0:
            if not p.packet_id or not 1 <= p.packet_id <= 0xFFFF:
                raise ProtocolError("QoS 1 publish requires a non-zero packet id")
            vh += struct.pack(">H", p.packet_id)
        elif p.packet_id is not None:
            raise ProtocolError("QoS 0 publish must not carry a packet id")
        if not isinstance(p.payload, (bytes, bytearray)):
            raise ProtocolError("publish payload must be bytes")
        return _fixed(PacketType.PUBLISH, flags, vh + bytes(p.payload))

    if isinstance(p, Puback):
        if not 1 <= p.packet_id <= 0xFFFF:
            raise ProtocolError("PUBACK requires a non-zero packet id")
        return _fixed(PacketType.PUBACK, 0, struct.pack(">H", p.packet_id))

    if isinstance(p, Subscribe):
        if not p.topics:
            raise ProtocolError("SUBSCRIBE requires at least one topic filter")
        if not 1 <= p.packet_id <= 0xFFFF:
            raise ProtocolError("SUBSCRIBE requires a non-zero packet id")
        body = struct.pack(">H", p.packet_id)
        for topic_filter, qos in p.topics:
            if not topic_filter:
                raise ProtocolError("empty topic filter")
            _check_qos(qos)
            body += _encode_string(topic_filter) + bytes([qos])
        return _fixed(PacketType.SUBSCRIBE, 0x02, body)

    if isinstance(p, Suback):
        if not 1 <= p.packet_id <= 0xFFFF:
            raise ProtocolError("SUBACK requires a non-zero packet id")
        for rc in p.return_codes:
            if rc not in (0x00, 0x01, 0x80):
                raise ProtocolError(f"invalid SUBACK return code {rc:#x}")
        body = struct.pack(">H", p.packet_id) + bytes(p.return_codes)
        return _fixed(PacketType.SUBACK, 0, body)

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

def decode_packet(buf, max_remaining: Optional[int] = None) -> Optional[tuple[Packet, int]]:
    """Decode one packet from the front of `buf`.

    Returns (packet, bytes consumed), leaving any trailing bytes for the
    caller, or None when the buffer does not yet hold a complete packet.
    Malformed data raises ProtocolError; a remaining length above
    `max_remaining` raises PacketTooLarge before the body arrives.
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
    if max_remaining is not None and remaining > max_remaining:
        raise PacketTooLarge(f"remaining length {remaining} exceeds limit {max_remaining}")
    total = 1 + rl_bytes + remaining
    if len(buf) < total:
        return None
    body = bytes(buf[1 + rl_bytes:total])

    decoder = _DECODERS.get(kind)
    packet = decoder(flags, body)
    return packet, total


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
    if cflags & 0x04:
        raise ProtocolError("will messages are outside the supported subset")
    clean_session = bool(cflags & 0x02)
    client_id, i = _read_string(body, i)
    username = password = None
    if cflags & 0x80:
        username, i = _read_string(body, i)
        if cflags & 0x40:
            password, i = _read_bytes(body, i)
    elif cflags & 0x40:
        raise ProtocolError("password flag without username flag")
    if i != len(body):
        raise ProtocolError("trailing bytes after CONNECT payload")
    return Connect(client_id, keep_alive, clean_session, username, password)


def _decode_connack(flags: int, body: bytes) -> Connack:
    _expect_flags(flags, 0, "CONNACK")
    if len(body) != 2:
        raise ProtocolError("CONNACK body must be exactly 2 bytes")
    if body[0] & 0xFE:
        raise ProtocolError("CONNACK acknowledge flags reserved bits set")
    return Connack(session_present=bool(body[0] & 0x01), return_code=body[1])


def _decode_publish(flags: int, body: bytes) -> Publish:
    dup = bool(flags & 0x08)
    qos = (flags >> 1) & 0x03
    if flags & 0x01:
        raise ProtocolError("retained publishes are not supported")
    _check_qos(qos)
    if qos == 0 and dup:
        raise ProtocolError("DUP must be zero for QoS 0 publishes")
    topic, i = _read_string(body, 0)
    _check_publish_topic(topic)
    packet_id = None
    if qos > 0:
        if i + 2 > len(body):
            raise ProtocolError("truncated PUBLISH packet id")
        (packet_id,) = struct.unpack_from(">H", body, i)
        i += 2
        if packet_id == 0:
            raise ProtocolError("QoS 1 publish requires a non-zero packet id")
    return Publish(topic, body[i:], qos, packet_id, dup)


def _decode_packet_id_only(flags: int, body: bytes, kind: str) -> int:
    _expect_flags(flags, 0, kind)
    if len(body) != 2:
        raise ProtocolError(f"{kind} body must be exactly 2 bytes")
    (packet_id,) = struct.unpack(">H", body)
    if packet_id == 0:
        raise ProtocolError(f"{kind} requires a non-zero packet id")
    return packet_id


def _decode_subscribe(flags: int, body: bytes) -> Subscribe:
    _expect_flags(flags, 0x02, "SUBSCRIBE")
    if len(body) < 2:
        raise ProtocolError("truncated SUBSCRIBE")
    (packet_id,) = struct.unpack_from(">H", body, 0)
    if packet_id == 0:
        raise ProtocolError("SUBSCRIBE requires a non-zero packet id")
    i = 2
    topics = []
    while i < len(body):
        topic_filter, i = _read_string(body, i)
        if not topic_filter:
            raise ProtocolError("empty topic filter")
        if i >= len(body):
            raise ProtocolError("topic filter without requested QoS byte")
        qos = body[i]
        i += 1
        _check_qos(qos)
        topics.append((topic_filter, qos))
    if not topics:
        raise ProtocolError("SUBSCRIBE requires at least one topic filter")
    return Subscribe(packet_id, tuple(topics))


def _decode_suback(flags: int, body: bytes) -> Suback:
    _expect_flags(flags, 0, "SUBACK")
    if len(body) < 2:
        raise ProtocolError("truncated SUBACK")
    (packet_id,) = struct.unpack_from(">H", body, 0)
    if packet_id == 0:
        raise ProtocolError("SUBACK requires a non-zero packet id")
    codes = tuple(body[2:])
    for rc in codes:
        if rc not in (0x00, 0x01, 0x80):
            raise ProtocolError(f"invalid SUBACK return code {rc:#x}")
    return Suback(packet_id, codes)


def _decode_empty(flags: int, body: bytes, kind: str, cls) -> Packet:
    _expect_flags(flags, 0, kind)
    if body:
        raise ProtocolError(f"{kind} must have an empty body")
    return cls()


_DECODERS = {
    PacketType.CONNECT: _decode_connect,
    PacketType.CONNACK: _decode_connack,
    PacketType.PUBLISH: _decode_publish,
    PacketType.PUBACK: lambda f, b: Puback(_decode_packet_id_only(f, b, "PUBACK")),
    PacketType.SUBSCRIBE: _decode_subscribe,
    PacketType.SUBACK: _decode_suback,
    PacketType.PINGREQ: lambda f, b: _decode_empty(f, b, "PINGREQ", Pingreq),
    PacketType.PINGRESP: lambda f, b: _decode_empty(f, b, "PINGRESP", Pingresp),
    PacketType.DISCONNECT: lambda f, b: _decode_empty(f, b, "DISCONNECT", Disconnect),
}
