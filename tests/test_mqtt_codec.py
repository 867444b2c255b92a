"""Tests for the wire codec: varints, packet round-trips, malformed input."""

import random
import typing

import pytest
from hypothesis import example, given, settings, strategies as st

from ecgmon.mqtt.codec import (
    MAX_PACKET_BYTES,
    MAX_REMAINING_LENGTH,
    Connack,
    Connect,
    Disconnect,
    Packet,
    PacketTooLarge,
    Pingreq,
    Pingresp,
    ProtocolError,
    Puback,
    Publish,
    Suback,
    Subscribe,
    decode_packet,
    decode_remaining_length,
    encode_packet,
    encode_remaining_length,
)


# ----------------------------------------------------------------- varints

@pytest.mark.parametrize("value,octets", [
    (0, b"\x00"),
    (127, b"\x7f"),
    (128, b"\x80\x01"),
    (321, b"\xc1\x02"),
    (16383, b"\xff\x7f"),
    (16384, b"\x80\x80\x01"),
    (2097151, b"\xff\xff\x7f"),
    (2097152, b"\x80\x80\x80\x01"),
    (MAX_REMAINING_LENGTH, b"\xff\xff\xff\x7f"),
])
def test_varint_known_encodings(value, octets):
    assert encode_remaining_length(value) == octets
    assert decode_remaining_length(octets) == (value, len(octets))


def test_varint_out_of_range():
    with pytest.raises(ProtocolError):
        encode_remaining_length(-1)
    with pytest.raises(ProtocolError):
        encode_remaining_length(MAX_REMAINING_LENGTH + 1)


def test_varint_truncated_returns_none():
    assert decode_remaining_length(b"") is None
    assert decode_remaining_length(b"\x80") is None
    assert decode_remaining_length(b"\x80\x80\x80") is None


def test_varint_five_continuations_rejected():
    with pytest.raises(ProtocolError):
        decode_remaining_length(b"\x80\x80\x80\x80\x01")


def test_varint_offset():
    buf = b"\xff\xff" + encode_remaining_length(321)
    assert decode_remaining_length(buf, offset=2) == (321, 2)


def test_varint_round_trip_sweep():
    # exhaustive over the 1- and 2-octet ranges plus boundary neighborhoods
    values = list(range(0, 20000))
    values += [2097151, 2097152, MAX_REMAINING_LENGTH - 1, MAX_REMAINING_LENGTH]
    for v in values:
        enc = encode_remaining_length(v)
        assert decode_remaining_length(enc) == (v, len(enc))


# ---------------------------------------------------------- fixed encodings

def test_pingreq_wire_bytes():
    assert encode_packet(Pingreq()) == b"\xc0\x00"


def test_pingresp_wire_bytes():
    assert encode_packet(Pingresp()) == b"\xd0\x00"


def test_disconnect_wire_bytes():
    assert encode_packet(Disconnect()) == b"\xe0\x00"


def test_puback_wire_bytes():
    assert encode_packet(Puback(5)) == b"\x40\x02\x00\x05"


def test_publish_qos1_header_flags():
    raw = encode_packet(Publish("a/b", b"x", qos=1, packet_id=9, dup=True))
    assert raw[0] == 0x3A  # PUBLISH | dup | qos1


# -------------------------------------------------------------- round trips

SAMPLE_PACKETS = [
    Connect(client_id="dev-1"),
    Connect(client_id="dev-2", keep_alive=5, clean_session=True,
            username="u", password=b"pw"),
    Connack(session_present=False, return_code=0),
    Connack(session_present=False, return_code=4),
    Publish(topic="clinic/p1/heartbeat", payload=b'{"bpm":72}'),
    Publish(topic="clinic/p1/ecg/pqrst", payload=b"\x00\x01\x02", qos=1,
            packet_id=100, dup=False),
    Publish(topic="t", payload=b"", qos=1, packet_id=65535, dup=True),
    Puback(packet_id=1),
    Subscribe(packet_id=2, topics=(("clinic/+/heartbeat", 1),)),
    Subscribe(packet_id=3, topics=(("a/#", 0), ("b", 1))),
    Suback(packet_id=2, return_codes=(1,)),
    Suback(packet_id=3, return_codes=(0, 0x80)),
    Pingreq(),
    Pingresp(),
    Disconnect(),
]


@pytest.mark.parametrize("packet", SAMPLE_PACKETS, ids=lambda p: type(p).__name__)
def test_round_trip(packet):
    raw = encode_packet(packet)
    decoded, consumed = decode_packet(raw)
    assert decoded == packet
    assert consumed == len(raw)


def test_round_trip_with_trailing_bytes():
    raw = encode_packet(Puback(7)) + b"junk"
    decoded, consumed = decode_packet(raw)
    assert decoded == Puback(7)
    assert consumed == 4


def test_partial_buffer_returns_none():
    raw = encode_packet(Publish("clinic/p1/status", b"hello", qos=1, packet_id=3))
    for cut in range(len(raw)):
        assert decode_packet(raw[:cut]) is None, cut


def random_packet(rng):
    kind = rng.randrange(6)
    if kind == 0:
        username = "user" if rng.random() < 0.3 else None
        password = None
        if username is not None and rng.random() < 0.5:
            password = bytes(rng.randrange(256) for _ in range(4))
        return Connect(
            client_id="".join(rng.choices("abcdef0123456789-", k=rng.randrange(1, 24))),
            keep_alive=rng.randrange(0, 65536),
            username=username,
            password=password,
        )
    if kind == 1:
        qos = rng.randrange(2)
        return Publish(
            topic="/".join("abc"[: rng.randrange(1, 4)] for _ in range(rng.randrange(1, 5))),
            payload=bytes(rng.randrange(256) for _ in range(rng.randrange(0, 64))),
            qos=qos,
            packet_id=rng.randrange(1, 65536) if qos else None,
            dup=qos == 1 and rng.random() < 0.5,
        )
    if kind == 2:
        return Puback(rng.randrange(1, 65536))
    if kind == 3:
        n = rng.randrange(1, 4)
        return Subscribe(
            packet_id=rng.randrange(1, 65536),
            topics=tuple(("clinic/+/x", rng.randrange(2)) for _ in range(n)),
        )
    if kind == 4:
        n = rng.randrange(1, 4)
        return Suback(
            packet_id=rng.randrange(1, 65536),
            return_codes=tuple(rng.choice([0, 1, 0x80]) for _ in range(n)),
        )
    return rng.choice([Pingreq(), Pingresp(), Disconnect()])


def test_round_trip_randomized():
    rng = random.Random(2024)
    for _ in range(500):
        packet = random_packet(rng)
        raw = encode_packet(packet)
        decoded, consumed = decode_packet(raw)
        assert decoded == packet
        assert consumed == len(raw)


# ------------------------------------------------------------- validation

def test_qos2_rejected_on_encode():
    with pytest.raises(ProtocolError):
        encode_packet(Publish("t", b"", qos=2, packet_id=1))


def test_qos2_rejected_on_decode():
    raw = bytearray(encode_packet(Publish("t", b"", qos=1, packet_id=1)))
    raw[0] = (raw[0] & ~0x06) | 0x04  # flip qos bits to 2
    with pytest.raises(ProtocolError):
        decode_packet(bytes(raw))


def test_retain_rejected_on_decode():
    raw = bytearray(encode_packet(Publish("t", b"", qos=1, packet_id=1)))
    raw[0] |= 0x01  # set RETAIN
    with pytest.raises(ProtocolError, match="retain"):
        decode_packet(bytes(raw))


def test_publish_topic_rejects_wildcards():
    for topic in ("a/+/b", "a/#", "+", "#"):
        with pytest.raises(ProtocolError):
            encode_packet(Publish(topic, b""))


def test_publish_qos1_requires_packet_id():
    with pytest.raises(ProtocolError):
        encode_packet(Publish("t", b"", qos=1, packet_id=None))
    with pytest.raises(ProtocolError):
        encode_packet(Publish("t", b"", qos=1, packet_id=0))


def test_connect_will_flag_rejected():
    # CONNECT with the will flag set (bit 2) is outside the supported subset
    raw = bytearray(encode_packet(Connect(client_id="c")))
    raw[9] |= 0x04
    with pytest.raises(ProtocolError):
        decode_packet(bytes(raw))


@pytest.mark.parametrize("bit", [0x08, 0x10, 0x20])
def test_connect_will_qos_and_retain_bits_rejected(bit):
    # Will QoS (bits 3-4) and Will Retain (bit 5) must be zero without a will
    raw = bytearray(encode_packet(Connect(client_id="c")))
    raw[9] |= bit
    with pytest.raises(ProtocolError, match="will"):
        decode_packet(bytes(raw))


def test_connect_bad_protocol_name():
    raw = bytearray(encode_packet(Connect(client_id="c")))
    raw[4:8] = b"MQXX"
    with pytest.raises(ProtocolError):
        decode_packet(bytes(raw))


def test_unknown_packet_type_rejected():
    with pytest.raises(ProtocolError):
        decode_packet(b"\x00\x00")
    with pytest.raises(ProtocolError):
        decode_packet(b"\xf0\x00")


def test_reserved_flags_rejected():
    # SUBSCRIBE must carry flags 0b0010
    raw = bytearray(encode_packet(Subscribe(1, (("a", 0),))))
    raw[0] = 0x80
    with pytest.raises(ProtocolError):
        decode_packet(bytes(raw))


def test_bad_utf8_topic_rejected():
    good = encode_packet(Publish("ab", b""))
    raw = bytearray(good)
    raw[4:6] = b"\xff\xfe"  # overwrite the two topic bytes
    with pytest.raises(ProtocolError):
        decode_packet(bytes(raw))


def _connect_with(byte_at=None, extra=b""):
    """A CONNECT for client "c" with the (index, value) pair `byte_at` set
    and `extra` bytes after its payload, its remaining length counting them."""
    raw = bytearray(encode_packet(Connect(client_id="c")))
    if byte_at is not None:
        raw[byte_at[0]] = byte_at[1]
    raw[1] += len(extra)
    return bytes(raw + extra)


@pytest.mark.parametrize("raw,match", [
    # "MQTT" and only two of the four bytes after it
    (b"\x10\x08\x00\x04MQTT\x04\x02", "truncated CONNECT variable header"),
    (_connect_with((8, 3)), "protocol level 3"),
    (_connect_with((9, 0x03)), "reserved flag"),
    (_connect_with(extra=b"\x00"), "trailing bytes"),
    (b"\x20\x02\x02\x00", "reserved bits"),
    # packet id 1, then the filter "a" with no QoS byte after it
    (b"\x82\x05\x00\x01\x00\x01a", "without requested QoS"),
], ids=["connect-truncated", "connect-level", "connect-reserved", "connect-trailing",
        "connack-reserved", "subscribe-no-qos"])
def test_hostile_bytes_raise_within_their_own_packet(raw, match):
    """Each branch refuses its packet from the packet's own bytes: a
    PINGREQ queued behind it is not read as the missing ones."""
    with pytest.raises(ProtocolError, match=match):
        decode_packet(raw)
    with pytest.raises(ProtocolError, match=match):
        decode_packet(raw + encode_packet(Pingreq()))


def test_max_remaining_enforced_on_decode():
    # the largest packet decoded is one whose remaining length is MAX_PACKET_BYTES
    payload = b"x" * (MAX_PACKET_BYTES - 3)     # after the topic's 3 bytes
    raw = encode_packet(Publish("t", payload))
    decoded, _ = decode_packet(raw)
    assert decoded.payload == payload
    with pytest.raises(PacketTooLarge):
        decode_packet(encode_packet(Publish("t", payload + b"x")))


def test_oversized_header_rejected_before_body_arrives():
    # header claims one byte over the bound; the check fires on the length alone
    header = b"\x30" + encode_remaining_length(MAX_PACKET_BYTES + 1)
    with pytest.raises(PacketTooLarge):
        decode_packet(header)


def test_subscribe_empty_topic_list_rejected():
    with pytest.raises(ProtocolError):
        encode_packet(Subscribe(packet_id=1, topics=()))


@pytest.mark.parametrize("fields", [
    (Publish, ("t", b"", 0, None, True)),
    (Publish, ("t", b"", 0, 5)),
    (Publish, ("t", b"", 1, 70_000)),
    (Publish, ("t", b"", 1.0, 1)),
    (Publish, ("t", "text")),
    (Publish, ("\ud800",)),
    (Publish, ("t" * 0x10000,)),
    (Connack, (False, 300)),
    (Connect, ("c", 1.5)),
    (Connect, ("c", 60.0)),
    (Connect, ("c", -1)),
    (Connect, ("c", 60, True, None, b"pw")),
    (Connect, ("c", 60, True, "u", b"p" * 0x10000)),
    (Puback, (0,)),
    (Subscribe, (1, (("", 0),))),
    (Subscribe, (1, (("a", 2),))),
    (Suback, (1, (2,))),
    (Suback, (0, ())),
], ids=lambda f: f"{f[0].__name__}{f[1]!r:.40}")
def test_a_packet_outside_the_subset_is_refused_when_built(fields):
    cls, args = fields
    with pytest.raises(ProtocolError):
        cls(*args)


def test_qos0_publish_with_dup_on_the_wire_rejected():
    raw = bytearray(encode_packet(Publish("t", b"")))
    raw[0] |= 0x08
    with pytest.raises(ProtocolError, match="DUP"):
        decode_packet(bytes(raw))


def test_subscribe_bad_filter_passes_codec():
    # syntactically broken filters still travel the wire; the broker
    # answers them with a 0x80 return code rather than a decode error
    packet = Subscribe(packet_id=1, topics=(("a/#/b", 0),))
    decoded, _ = decode_packet(encode_packet(packet))
    assert decoded == packet


# A framed body with a correct remaining length reaches the per-type decoders;
# raw bytes mostly stop at the fixed header.
_FRAMED = st.builds(lambda header, body: bytes([header]) + encode_remaining_length(len(body)) + body,
                    st.integers(0, 255), st.binary(max_size=48))


@settings(max_examples=1000, deadline=None)
@given(st.one_of(st.binary(max_size=64), _FRAMED))
def test_decode_arbitrary_bytes_returns_packet_none_or_protocol_error(data):
    try:
        decoded = decode_packet(data)
    except ProtocolError:
        return
    if decoded is not None:
        packet, consumed = decoded
        assert isinstance(packet, typing.get_args(Packet))
        assert 2 <= consumed <= len(data)
        raw = encode_packet(packet)
        assert decode_packet(raw) == (packet, len(raw))


# Fields inside and outside the subset, for every packet type.
_IDS = st.integers(-1, 70_000)
_QOS = st.integers(0, 1) | st.integers(0, 3)  # mostly inside the subset
_TOPICS = st.sampled_from(["", "a", "a/b", "clinic/p1/ecg/pqrst", "+", "a/+/b", "#", "a/#/b"]) \
    | st.text(max_size=8)
_FIELDS = st.one_of(
    st.tuples(st.just(Connect), st.fixed_dictionaries({
        "client_id": st.text(max_size=8),
        "keep_alive": st.integers(-2, 70_000) | st.floats(),
        "clean_session": st.booleans(),
        "username": st.none() | st.text(max_size=8),
        "password": st.none() | st.binary(max_size=8)})),
    st.tuples(st.just(Connack), st.fixed_dictionaries({
        "session_present": st.booleans(), "return_code": st.integers(0, 300)})),
    st.tuples(st.just(Publish), st.fixed_dictionaries({
        "topic": _TOPICS, "payload": st.binary(max_size=16), "qos": _QOS,
        "packet_id": st.none() | _IDS, "dup": st.booleans()})),
    st.tuples(st.just(Puback), st.fixed_dictionaries({"packet_id": _IDS})),
    st.tuples(st.just(Subscribe), st.fixed_dictionaries({
        "packet_id": _IDS,
        "topics": st.lists(st.tuples(_TOPICS, _QOS), max_size=3).map(tuple)})),
    st.tuples(st.just(Suback), st.fixed_dictionaries({
        "packet_id": _IDS,
        "return_codes": st.lists(st.integers(0, 300), max_size=3).map(tuple)})),
    st.tuples(st.sampled_from([Pingreq, Pingresp, Disconnect]), st.just({})),
)


@settings(max_examples=1000, deadline=None)
@given(_FIELDS)
@example((Publish, {"topic": "t", "qos": 0, "dup": True}))
@example((Connack, {"return_code": 300}))
@example((Connect, {"client_id": "c", "keep_alive": 1.5}))
def test_a_packet_is_refused_when_built_or_encodes_to_bytes_that_decode_to_it(fields):
    cls, kwargs = fields
    try:
        packet = cls(**kwargs)
        raw = encode_packet(packet)
    except ProtocolError:
        return
    assert decode_packet(raw) == (packet, len(raw))

