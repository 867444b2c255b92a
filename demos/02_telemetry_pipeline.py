"""
Device to gateway, end to end
=============================

Run the whole telemetry path in one process: broker, ingestion sink,
durable store, and HTTP gateway.  A simulated device publishes over
MQTT; the readings come back out through the JSON API.
"""

import http.client
import json
import tempfile

from ecgmon import device, synth
from ecgmon.cli import start_system
from ecgmon.config import GatewayConfig
from ecgmon.mqtt.client import MqttClient

scratch = tempfile.TemporaryDirectory(prefix="ecgmon-demo-")
workdir = scratch.name

# Port 0 asks the OS for free ports, so the demo never collides with a
# real deployment.
system = start_system(GatewayConfig(http_port=0, mqtt_port=0, store_root=workdir))
print(f"broker on :{system.broker.port}, gateway on :{system.gateway.port}")
print(f"store under {workdir}")

# A device is an MQTT client plus the session logic from demo 01.
client = MqttClient(client_id="device-p42")
client.connect("127.0.0.1", system.broker.port)
agent = device.DeviceAgent("p42", 47, client.publish)

# First a heartbeat, then a full scored ECG session.
reading = agent.measure_and_publish_heartbeat(
    synth.pulse_events(synth.SynthConfig(heart_rate=66.0, duration=20.0)))
print(f"\npublished heartbeat: {reading.bpm} bpm")

outcome = agent.run_and_publish_session(synth.synthesize(synth.SynthConfig()))
print(f"published session: {outcome.status}, overall {outcome.overall_score}")

# A second, much noisier session still clears the gate.
noisy = synth.SynthConfig(noise_std=30.0, seed=5)
outcome = agent.run_and_publish_session(synth.synthesize(noisy))
print(f"published session: {outcome.status}, overall {outcome.overall_score}")

client.disconnect()

# Everything the device sent is now durable; read it back over HTTP.
def get(path):
    conn = http.client.HTTPConnection("127.0.0.1", system.gateway.port, timeout=5)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return json.loads(response.read())
    finally:
        conn.close()

latest = get("/patients/p42/heartbeat/latest")
print(f"\nGET /patients/p42/heartbeat/latest -> bpm {latest['payload']['bpm']}")

window = get("/patients/p42/ecg?from=2000-01-01T00:00:00Z&to=2100-01-01T00:00:00Z")
record = window[0]["payload"]
print("GET /patients/p42/ecg            -> "
      f"record {record['record_no']}, R score {record['r']}")

stats = get("/stats")
print(f"GET /stats                       -> {stats['count']} stored record(s), "
      f"mean R {stats['stats']['R']['mean']}")

system.stop()
scratch.cleanup()
print("\npipeline shut down cleanly")
