"""MQTT 3.1.1 subset: wire codec, broker, and client."""

from .codec import (  # noqa: F401
    PacketType,
    ProtocolError,
    PacketTooLarge,
    Connect,
    Connack,
    Publish,
    Puback,
    Subscribe,
    Suback,
    Pingreq,
    Pingresp,
    Disconnect,
    encode_remaining_length,
    decode_remaining_length,
    encode_packet,
    decode_packet,
)
