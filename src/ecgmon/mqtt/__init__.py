"""MQTT 3.1.1 subset: wire codec, broker, and client."""
