"""A SIGKILL soak of the whole server: `ecgmon serve` runs as a child
process under QoS 1 publishers and is killed at seeded moments, then
started again on the same store root and ports.  A process kill keeps the
page cache, so every message acked before a kill must be stored on the
next open, exactly once, however the kill fell.
"""

import json
import os
import random
import subprocess
import sys
import threading
import time
from collections import Counter

from ecgmon import device
from ecgmon.mqtt.client import MqttClient
from ecgmon.store import RecordStore
from test_store import SRC, heartbeat

SEED = 9
PUBLISHERS = 4
KILLS = 4
LIFE_S = (0.2, 1.2)     # how long each child serves before its SIGKILL


class Server:
    """`ecgmon serve` on one store root, started again on the ports its
    first start bound."""

    def __init__(self, root, log):
        self.root, self.log = root, log
        self.http, self.mqtt = "127.0.0.1:0", "127.0.0.1:0"
        self.child = None

    def start(self) -> None:
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        self.child = subprocess.Popen(
            [sys.executable, "-m", "ecgmon.cli", "serve", "--http", self.http, "--mqtt", self.mqtt,
             "--store-root", str(self.root)],
            env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=self.log)
        line = self.child.stdout.readline().decode()
        assert line.startswith("mqtt on "), f"serve did not start: {line!r}"
        # "mqtt on HOST:PORT, http on HOST:PORT, store at ROOT"
        self.mqtt, self.http = (part.split(" on ")[1] for part in line.split(", ")[:2])

    @property
    def mqtt_port(self) -> int:
        return int(self.mqtt.rpartition(":")[2])

    def kill(self) -> None:
        if self.child is not None:
            self.child.kill()
            self.child.wait()
            self.child.stdout.close()
            self.child = None


class Publisher(threading.Thread):
    """Publishes heartbeats of one patient, each with a nonce of its own,
    until `done`; after each kill its packet ids start again at 1, so that
    distinct payloads reuse ids inside the store's dedup window."""

    def __init__(self, number: int, port: int, done: threading.Event, kills: list):
        super().__init__(daemon=True)
        self.patient = f"p{number}"
        self.done, self.kills = done, kills
        self.client = MqttClient(client_id=f"soak-{number}", ack_timeout=0.25, max_retries=200)
        self.client.connect("127.0.0.1", port)
        self.acked: list[str] = []
        self.error = None

    def run(self) -> None:
        seen = 0
        try:
            while not self.done.is_set():
                if self.kills[0] != seen:
                    seen = self.kills[0]
                    self.client._pid = 0        # the next publish uses id 1
                nonce = f"{self.patient}-{len(self.acked)}"
                payload = dict(heartbeat(self.patient), nonce=nonce)
                self.client.publish(device.topic(self.patient, "heartbeat"),
                                    json.dumps(payload).encode(), qos=1)
                self.acked.append(nonce)
        except BaseException as exc:  # noqa: BLE001 - reported by the test
            self.error = exc
        finally:
            self.client.disconnect()


def test_sigkill_soak_stores_every_acked_message_exactly_once(tmp_path):
    rng = random.Random(SEED)
    root = tmp_path / "telemetry"
    done, kills = threading.Event(), [0]
    publishers = []
    with open(tmp_path / "serve.log", "wb") as log:
        server = Server(root, log)
        try:
            server.start()
            publishers = [Publisher(n, server.mqtt_port, done, kills) for n in range(PUBLISHERS)]
            for publisher in publishers:
                publisher.start()
            for _ in range(KILLS):
                time.sleep(rng.uniform(*LIFE_S))
                server.kill()
                kills[0] += 1
                server.start()
            # until each publisher has had an ack from the last child
            floor = [len(publisher.acked) for publisher in publishers]
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline and any(
                    len(p.acked) <= low and p.error is None for p, low in zip(publishers, floor)):
                time.sleep(0.01)
            done.set()
            for publisher in publishers:
                publisher.join(timeout=10)
        finally:
            done.set()
            for publisher in publishers:
                publisher.client.disconnect()   # ends a publish retrying against no server
                publisher.join(timeout=10)
            server.kill()
    assert [p.error for p in publishers] == [None] * PUBLISHERS
    assert all(len(p.acked) > low for p, low in zip(publishers, floor))
    with RecordStore(root) as store:
        stored = Counter(doc.payload["nonce"] for doc in store.read_class("heartbeat"))
    acked = [nonce for publisher in publishers for nonce in publisher.acked]
    assert [nonce for nonce in acked if stored[nonce] == 0] == [], "acked but not stored"
    assert [nonce for nonce, count in stored.items() if count > 1] == [], "stored twice"
    assert sorted(stored) == sorted(acked)
